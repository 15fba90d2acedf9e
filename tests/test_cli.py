"""Exit-code contract and output shapes of the command line interface."""

import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonespec import (Lattice, boolean_lattice, chain_lattice, dsl, mo_lattice,
                       observable_function, riemann_stieltjes)
from stonespec import cli
from stonespec.cli import main
from stonespec.lattice import bits
from test_dsl import instance_files
from test_stone import oracle_quasipoints

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_bounded(*argv, cpu_s=1, memory=600 << 20, wall_s=20):
    """The CLI in a child process with its CPU time and address space capped
    by ``setrlimit``, and a wall-time budget: a call that needs more is
    killed (a signal, or a ``MemoryError`` traceback) instead of waited for."""
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "stonespec", *argv], capture_output=True,
                          text=True, timeout=wall_s, env=env, preexec_fn=limit)


def run_forked(call, cpu_s, memory):
    """``call(out=pipe, err=pipe)``, such as ``partial(cli.main, argv)``, in a
    forked child with its CPU time capped at ``cpu_s`` seconds and its
    address space at the size it inherits plus ``memory`` bytes, under
    ``run_bounded``'s wall budget; returns the exit code ``call`` returns and
    what the child wrote to its one pipe.

    A child stopped by a limit, by a signal or by the wall budget fails the
    test; an exception out of ``call`` is written as a traceback and ends
    the child with status 70, as no subcommand does."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child runs the CLI only, and never returns into the tests
        code = 70
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                with open("/proc/self/status", encoding="ascii") as status:
                    inherited = next(int(line.split()[1]) << 10 for line in status
                                     if line.startswith("VmSize:"))
                resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))
                resource.setrlimit(resource.RLIMIT_AS, (inherited + memory,) * 2)
                try:
                    code = call(out=pipe, err=pipe)
                except BaseException:
                    traceback.print_exc(file=pipe)
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks, deadline = [], time.monotonic() + 20
    while (left := deadline - time.monotonic()) > 0 and select.select([read_fd], [], [], left)[0]:
        if not (chunk := os.read(read_fd, 1 << 16)):
            break
        chunks.append(chunk)
    else:  # the wall budget is spent
        os.kill(pid, signal.SIGKILL)
    os.close(read_fd)
    status = os.waitpid(pid, 0)[1]
    output = b"".join(chunks).decode("utf-8", "replace")
    assert os.WIFEXITED(status), (call, f"stopped by signal {os.WTERMSIG(status)}", output)
    return os.WEXITSTATUS(status), output


class TestExitCodes:
    def test_validate_fixture_ok(self):
        code, out, _ = run("validate", fixture("mo2.lat"))
        assert code == 0
        assert "lattice MO2: ok" in out

    def test_validate_checks_lattice_blocks_only(self, monkeypatch):
        # a topology's or a field's lattice is one by construction, so only
        # the lattice block of this file is validated again
        calls = []
        real = Lattice.validate
        monkeypatch.setattr(Lattice, "validate", lambda lat: calls.append(lat) or real(lat))
        code, out, _ = run("validate", fixture("spaces.lat"))
        assert code == 0 and calls == []
        assert out.splitlines()[::2] == ["topology sierpinski: ok", "topology disc3: ok",
                                         "family ET: ok"]
        code, out, _ = run("validate", fixture("mo2.lat"))
        assert code == 0 and [lat.n for lat in calls] == [6]

    def test_validate_empty_file_is_an_input_error(self, tmp_path):
        empty = tmp_path / "empty.lat"
        empty.write_text("# nothing\n")
        code, _, err = run("validate", str(empty))
        assert code == 2 and "nothing to validate" in err

    def test_missing_file(self):
        code, _, err = run("validate", "no-such-file.lat")
        assert code == 2 and "error:" in err

    def test_unknown_subcommand(self):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_unknown_object(self):
        code, _, err = run("quasipoints", fixture("mo2.lat"), "NOPE")
        assert code == 2 and "NOPE" in err

    def test_parse_errors_reported_with_positions(self, tmp_path):
        bad = tmp_path / "bad.lat"
        bad.write_text("family E in X { 0: a ; }\n")
        code, _, err = run("validate", str(bad))
        assert code == 2 and "dangling-reference" in err

    def test_unknown_suite(self):
        code, out, err = run("check", "bogus-suite")
        assert code == 2 and "unknown suite" in err
        assert out == ""

    def test_file_that_is_not_utf8(self, tmp_path):
        bad = tmp_path / "bad.lat"
        bad.write_bytes(b"lattice L { elements: 0, \xff ; }\n")
        code, out, err = run("validate", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {bad}: not UTF-8 text (invalid start byte)\n"


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # every CLI call pays for the modules the package imports; these two
        # bring ast, dis and tokenize with them and cost more start-up time
        # than the package's own code
        probe = ("import sys; before = set(sys.modules); import stonespec.cli; "
                 "print(*sorted(set(sys.modules) - before))")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=30, env=dict(os.environ, PYTHONPATH=src), check=True)
        loaded = set(done.stdout.split())
        assert "stonespec.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}
        # the package depends on nothing outside the standard library
        tops = {name.partition(".")[0] for name in loaded}
        assert {t for t in tops if t != "stonespec"} <= sys.stdlib_module_names, tops


class TestTables:
    def test_quasipoints_table(self):
        code, out, _ = run("quasipoints", fixture("mo2.lat"), "MO2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Q{a,1}: a, 1"
        assert "4 quasipoints" in out
        assert "  Q_a: Q{a,1}" in out  # the incidence rows

    def test_quasipoints_json_incidence(self):
        code, out, _ = run("quasipoints", fixture("mo2.lat"), "MO2", "--json")
        assert code == 0
        import json
        doc = json.loads(out)
        assert doc["base"]["a"] == ["Q{a,1}"]
        assert doc["base"]["1"] == ["Q{a,1}", "Q{a',1}", "Q{b,1}", "Q{b',1}"]
        assert doc["points"]["Q{a,1}"] == ["a", "1"]

    def test_quasipoints_of_a_field(self):
        code, out, _ = run("quasipoints", fixture("quotient.lat"), "F4")
        assert code == 0 and "4 quasipoints" in out

    def test_observable_table_and_json(self):
        code, out, _ = run("observable", fixture("mo2.lat"), "E0")
        assert code == 0
        assert "Q{a,1}: 0" in out
        code, js, _ = run("observable", fixture("mo2.lat"), "E0", "--json")
        assert code == 0 and js.strip().startswith("{")
        assert '"Q{a,1}": "0"' in js

    def test_observable_of_two_parameter_family(self):
        code, out, _ = run("observable", fixture("mo2.lat"), "G0")
        assert code == 0 and "Q{a,1}: 0 + 0i" in out

    def test_spectrum(self):
        code, out, _ = run("spectrum", fixture("mo2.lat"), "E0")
        assert code == 0
        assert out.strip() == "sp = {0, 1}; resolvent = (-inf, 0) u (0, 1) u (1, inf)"

    def test_decompose(self):
        code, out, _ = run("decompose", fixture("mo2.lat"), "G0")
        assert code == 0
        assert "first:  0: a; 1: 1" in out

    def test_quotient_and_lift(self):
        code, out, _ = run("quotient", fixture("quotient.lat"), "F4", "I1")
        assert code == 0 and "classes:" in out
        code, out, _ = run("lift", fixture("quotient.lat"), "F4", "I1", "EF")
        assert code == 0
        values = dict(line.split(": ") for line in out.strip().splitlines())
        assert values["2"] == "0" and values["3"] == "1/2" and values["4"] == "1"
        assert values["1"] == "1"  # deleted atom takes the top threshold

    def test_integrate(self):
        code, out, _ = run("integrate", fixture("mo2.lat"), "E0", "--eps", "1/4")
        assert code == 0 and "max deviation from f_E: 0" in out
        code, _, err = run("integrate", fixture("mo2.lat"), "E0", "--eps", "0")
        assert code == 2

    def test_integrate_matches_the_explicit_grid(self):
        # the closed-form tags against the step sum along every grid point
        def grid_output(e, eps):
            lo, hi = e.bounds()
            steps = int((hi - lo) / eps) + 1
            grid = [lo + k * eps for k in range(steps + 1)]
            s = riemann_stieltjes(e, grid)
            g = observable_function(e)
            err = max(abs(a - b) for a, b in zip(s.values, g.values))
            lines = [f"{s.space.point_name(k)}: {s.values[k]}"
                     for k in range(s.space.n_points)]
            lines.append(f"max deviation from f_E: {err} (eps = {eps})")
            return "\n".join(lines) + "\n"

        families = 0
        for name in sorted(os.listdir(FIXTURES)):
            with open(fixture(name), encoding="utf-8") as handle:
                file = dsl.parse(handle.read()).file
            for block in file.blocks:
                if block.kind != "family":
                    continue
                families += 1
                for eps in ("1", "1/2", "1/3", "3/10", "1/7", "2"):
                    code, out, _ = run("integrate", fixture(name), block.name,
                                       "--eps", eps)
                    assert code == 0
                    assert out == grid_output(block.obj, Fraction(eps))
        assert families == 6

    def test_integrate_tiny_eps_builds_no_grid(self):
        code, out, _ = run("integrate", fixture("mo2.lat"), "E0",
                           "--eps", "1/1000000000")
        assert code == 0
        assert out.endswith("max deviation from f_E: 0 (eps = 1/1000000000)\n")

    def test_emit_json_and_dot(self):
        code, out, _ = run("emit", "json", fixture("mo2.lat"), "MO2")
        assert code == 0 and '"kind": "lattice"' in out
        code, out, _ = run("emit", "dot", fixture("mo2.lat"), "MO2")
        assert code == 0 and out.startswith('digraph "MO2"')


class TestCheckCommand:
    def test_passing_suite_exits_zero(self):
        code, out, _ = run("check", "counterexamples")
        assert code == 0
        assert "seed: 0" in out and "[counterexamples] 0 failures" in out

    def test_failing_suite_exits_one_with_counterexample(self):
        # the injectivity suite includes chain fixtures, whose spectrum is a
        # single point; it reports the genuine counterexamples and fails
        code, out, _ = run("check", "injectivity")
        assert code == 1
        assert "FAIL" in out and "chain(3)" in out

    def test_seed_echoed(self):
        code, out, _ = run("check", "continuity", "--seed", "17")
        assert code == 0 and "seed: 17" in out

    def test_deterministic_across_runs(self):
        a = run("check", "continuity", "--seed", "3", "--max-size", "3")
        b = run("check", "continuity", "--seed", "3", "--max-size", "3")
        assert a == b

    def test_max_size_below_one_rejected_at_parsing(self):
        for value in ("0", "-3"):
            code, out, err = run("check", "all", "--max-size", value)
            assert code == 2 and out == ""
            assert "--max-size: must be at least 1" in err
        code, out, err = run("check", "counterexamples", "--max-size", "x")
        assert code == 2 and out == "" and "invalid int value: 'x'" in err


class TestInputRobustness:
    def test_quasipoints_of_a_cyclic_order_terminates(self, tmp_path):
        # a < b < a is not antisymmetric; a greedy descent towards an atom
        # would cycle between a and b, so run it with bounded time
        path = tmp_path / "cycle.lat"
        path.write_text("lattice L { elements: 0, a, b, 1 ;"
                        " order: 0 < a, a < b, b < a, b < 1 ; }\n")
        done = run_bounded("quasipoints", str(path), "L")
        # the order is rejected before any quasipoint is looked for
        assert done.returncode == 2
        assert done.stdout == ""
        assert "antisymmetry" in done.stderr

    def test_integrate_on_a_one_element_lattice(self, tmp_path):
        path = tmp_path / "one.lat"
        path.write_text("lattice L1 { elements: 0 ; }\nfamily E in L1 { 0: 0 ; }\n")
        code, out, err = run("integrate", str(path), "E", "--eps", "1/2")
        assert (code, out, err) == (0, "max deviation from f_E: 0 (eps = 1/2)\n", "")

    def test_integrate_rejects_an_eps_too_long_to_print(self):
        for eps in ("1e-5000", "1e-3000000", "1e5000", "1e-9" + "9" * 5000):
            code, out, err = run("integrate", fixture("mo2.lat"), "E0", "--eps", eps)
            assert code == 2 and out == ""
            assert err.startswith("error: malformed rational --eps") and err.count("\n") == 1

    def test_integrate_rejects_step_sums_too_long_to_print(self, tmp_path):
        # 3**8000 has 3,818 digits and 1e-1000 is accepted, but the deviation
        # has a denominator of about 4,800 digits: no partial table is printed
        path = tmp_path / "long.lat"
        path.write_text("lattice B { elements: 0, x, y, 1 ;"
                        " order: 0 < x, 0 < y, x < 1, y < 1 ; }\n"
                        f"family E in B {{ 0: x ; 1/{3 ** 8000}: 1 ; }}\n")
        code, out, err = run("integrate", str(path), "E", "--eps", "1e-1000")
        assert code == 2 and out == ""
        assert err == "error: --eps 1e-1000: the step sums are too long to print\n"

    def test_huge_exponent_in_a_file_is_a_diagnostic(self, tmp_path):
        path = tmp_path / "huge.lat"
        path.write_text("lattice B { elements: 0, 1 ; order: 0 < 1 ; }\n"
                        "family E in B { 1e-5000: 1 ; }\n")
        code, out, err = run("observable", str(path), "E")
        assert code == 2 and out == ""
        assert "malformed-rational" in err and "Traceback" not in err

    # a cyclic order (not antisymmetric) and an antichain (no bottom, no top)
    CYCLE = "lattice L { elements: 0, a, b, 1 ; order: 0 < a, a < b, b < a, b < 1 ; }\n"
    ANTICHAIN = "lattice L { elements: a, b ; }\n"

    @pytest.mark.parametrize("text, argv, code", [
        (ANTICHAIN, ["emit", "json", "FILE", "L"], "bounds"),
        (ANTICHAIN, ["emit", "dot", "FILE", "L"], "bounds"),
        (ANTICHAIN, ["quasipoints", "FILE", "L", "--json"], "bounds"),
        (CYCLE, ["emit", "json", "FILE", "L"], "antisymmetry"),
        (CYCLE + "family E in L { 0: a ; 1: 1 ; }\n", ["observable", "FILE", "E"],
         "antisymmetry"),
        (CYCLE + "family E in L { 0: 1 ; }\n", ["emit", "json", "FILE", "E"], "antisymmetry"),
    ], ids=["emit-json", "emit-dot", "quasipoints", "emit-json-cycle", "observable",
            "emit-family"])
    def test_invalid_lattice_host_rejected(self, tmp_path, text, argv, code):
        path = tmp_path / "bad.lat"
        path.write_text(text)
        got, out, err = run(*(str(path) if a == "FILE" else a for a in argv))
        assert (got, out) == (2, "")
        assert err.count("\n") == 1 and code in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_file_is_read_up_to_the_cap(self):
        done = run_bounded("validate", "/dev/zero")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: cannot read /dev/zero: longer than "
                               f"{cli.MAX_INPUT} characters\n")

    def test_input_cap_boundary(self, tmp_path, monkeypatch):
        text = "lattice B { elements: 0, 1 ; order: 0 < 1 ; }\n"
        path = tmp_path / "b.lat"
        path.write_text(text)
        monkeypatch.setattr(cli, "MAX_INPUT", len(text))
        assert run("validate", str(path)) == (0, "lattice B: ok\n", "")
        monkeypatch.setattr(cli, "MAX_INPUT", len(text) - 1)
        assert run("validate", str(path)) == (
            2, "", f"error: cannot read {path}: longer than {len(text) - 1} characters\n")

    @pytest.mark.parametrize("n, clause", [
        (12, "generators"), (16, "generators"), (40, "generators"), (12, "opens")])
    def test_topology_over_the_cap_stops_early(self, tmp_path, n, clause):
        # generators {1}, ..., {n} make the discrete space, 2^n opens; the
        # explicit list spells all 2^n of them
        masks = [1 << i for i in range(n)] if clause == "generators" else range(1 << n)
        sets = ", ".join("{" + ",".join(str(i + 1) for i in bits(m)) + "}" for m in masks)
        points = ",".join(str(i + 1) for i in range(n))
        path = tmp_path / f"{clause}{n}.lat"
        path.write_text(f"topology T on {{{points}}} {{\n  {clause}: {sets} ;\n}}\n")
        done = run_bounded("validate", str(path))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: parse failed:\n{path}:1:1: error: more than 64 open "
                               "sets (the cap) [bad-topology]\n")

    CHAIN2 = "lattice L { elements: 0, 1 ; order: 0 < 1 ; }\n"

    def test_large_family2_decomposes_in_bounded_time(self, tmp_path):
        # 6,400 cells: the meet law is read on 6,399 generating pairs, not on
        # all 20 million pairs of cells
        cells = " ; ".join(f"{i},{j}: 1" for i in range(80) for j in range(80))
        path = tmp_path / "grid80.lat"
        path.write_text(self.CHAIN2 + f"family2 G in L {{ {cells} ; }}\n")
        done = run_bounded("decompose", str(path), "G")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "first:  0: 1\nsecond: 0: 1\n"

    def test_sparse_family2_names_its_first_gap_in_bounded_time(self, tmp_path):
        # 2,000 lines each way but only the diagonal: the grid is not listed
        cells = " ; ".join(f"{i},{i}: 1" for i in range(2000))
        path = tmp_path / "diagonal.lat"
        path.write_text(self.CHAIN2 + f"family2 G in L {{ {cells} ; }}\n")
        done = run_bounded("validate", str(path))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: parse failed:\n{path}:2:1: error: grid is not "
                               "complete; missing entry at 0,1 [malformed-clause]\n")

    def test_too_many_points_stop_before_the_neighbourhoods(self, tmp_path):
        # one n-bit neighbourhood per point would take n^2 / 8 bytes; parsing
        # the file alone takes about a second of CPU
        points = ",".join(str(i) for i in range(60000))
        path = tmp_path / "points.lat"
        path.write_text(f"topology T on {{{points}}} {{ generators: {{{points}}} ; }}\n")
        done = run_bounded("validate", str(path), cpu_s=2)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: parse failed:\n{path}:1:1: error: 60000 points "
                               "exceed the cap of 4096 [bad-topology]\n")

    @pytest.mark.parametrize("kind, clause, code", [
        ("field", "atoms: ", "bad-field"),
        ("topology", "opens: {}, ", "bad-topology"),
        ("topology", "generators: ", "bad-topology"),
    ], ids=["atoms", "opens", "generators"])
    def test_many_singletons_stop_before_their_masks(self, tmp_path, kind, clause, code):
        # 60,000 singletons in under 1 MB of text: one 60,000-bit mask each
        # would take 450 MB, so the point cap must come before any mask
        points = ",".join(str(i) for i in range(60000))
        sets = ", ".join("{" + str(i) + "}" for i in range(60000))
        path = tmp_path / f"{kind}.lat"
        path.write_text(f"{kind} S on {{{points}}} {{ {clause}{sets} ; }}\n")
        done = run_bounded("validate", str(path), cpu_s=2, memory=150 << 20)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: parse failed:\n{path}:1:1: error: 60000 points "
                               f"exceed the cap of 4096 [{code}]\n")

    def test_a_repeated_open_set_is_read_once(self, tmp_path):
        # 300,000 copies of one 4,096-point set literal in 2.4 MB of text: a
        # mask for each copy would take about 240 MB before the open set count
        points = ",".join(str(i) for i in range(1, 4097))
        opens = ", ".join(["{4096}"] * 300000)
        path = tmp_path / "repeated.lat"
        path.write_text(f"topology T on {{{points}}} {{ opens: {opens} ; }}\n")
        done = run_bounded("validate", str(path), cpu_s=5, memory=150 << 20)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: parse failed:\n{path}:1:1: error: a topology must "
                               "contain the empty set and the whole space [bad-topology]\n")

    POINTS = ",".join(str(i) for i in range(1, 4097))

    @pytest.mark.parametrize("kind, clause, sets, why", [
        # 300,000 copies of one atom: a 4,096-bit mask for each would take
        # about 170 MB, but the second copy already overlaps the first
        ("field", "atoms", ["{4096}"] * 300000, "atoms overlap [bad-field]"),
        # 370,846 distinct pairs in 4 MB: the 65th distinct open is the cap
        ("topology", "opens", [f"{{{a},{b}}}" for a in range(1, 1000)
                               for b in range(a + 1, 1000)][:370846],
         "more than 64 open sets (the cap) [bad-topology]"),
    ], ids=["repeated-atoms", "distinct-opens"])
    def test_set_literals_stop_at_the_first_fault(self, tmp_path, kind, clause, sets, why):
        path = tmp_path / f"{kind}.lat"
        path.write_text(f"{kind} S on {{{self.POINTS}}} {{ {clause}: {', '.join(sets)} ; }}\n")
        done = run_bounded("validate", str(path), cpu_s=3, memory=150 << 20)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: parse failed:\n{path}:1:1: error: {why}\n"

    def test_the_first_fault_in_reading_order_is_reported(self, tmp_path):
        # the unknown point comes after the 65th distinct open, the empty
        # atom after the overlap
        opens = ", ".join([f"{{{i}}}" for i in range(1, 66)] + ["{nope}"])
        path = tmp_path / "two.lat"
        path.write_text(f"topology T on {{{self.POINTS}}} {{ opens: {opens} ; }}\n"
                        "field F on {p, q} { atoms: {p}, {p,q}, {} ; }\n")
        assert run("validate", str(path)) == (2, "", (
            f"error: parse failed:\n{path}:1:1: error: more than 64 open sets (the cap) "
            f"[bad-topology]\n{path}:2:1: error: atoms overlap [bad-field]\n"))

    TOPOLOGY = f"topology T on {{{POINTS}}} {{ opens: {{}}, {{{POINTS}}} ; }}\n"

    def test_a_long_family_of_set_literals_reads_labels_through_one_index(self, tmp_path):
        # 20,001 values over 4,096 points: an index of the points per value
        # takes several seconds
        jumps = " ; ".join([f"{k}: {{}}" for k in range(20000)] + [f"20000: {{{self.POINTS}}}"])
        path = tmp_path / "family.lat"
        path.write_text(self.TOPOLOGY + f"family E in T {{ {jumps} ; }}\n")
        done = run_bounded("spectrum", str(path), "E", cpu_s=2)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("sp = {20000}; resolvent = (-inf, 20000) u (20000, ")

    def test_a_long_function_block_reads_labels_through_one_index(self, tmp_path):
        # 28 blocks of every point, 114,688 entries (a point may appear once
        # per block): a scan of the 4,096 labels per entry takes seconds
        entries = " ; ".join(f"{p}: {p % 7}" for p in range(1, 4097))
        path = tmp_path / "function.lat"
        path.write_text(self.TOPOLOGY + "".join(
            f"function g{k} on T {{ {entries} ; }}\n" for k in range(28)))
        done = run_bounded("validate", str(path), cpu_s=2)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "topology T: ok\n" + "".join(
            f"function g{k}: ok\n" for k in range(28))

    def test_validate_still_reports_an_invalid_lattice(self, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_text(self.CYCLE)
        code, out, _ = run("validate", str(path))
        assert code == 1 and out.startswith("lattice L: INVALID\n  antisymmetry:")


N5 = Lattice(["0", "a", "c", "b", "1"],
             [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
SMALL_LATTICES = ([boolean_lattice(n) for n in (1, 2, 3)] + [chain_lattice(n) for n in (1, 2, 4)]
                  + [mo_lattice(n) for n in (1, 2)] + [N5])


@st.composite
def broken_orders(draw):
    """The element names and order pairs of a small lattice, with some of its
    strict pairs dropped and some random pairs added."""
    lat = draw(st.sampled_from(SMALL_LATTICES))
    names = lat.names
    pairs = [(names[a], names[b]) for a in range(lat.n) for b in bits(lat.up[a]) if a != b]
    dropped = draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)), max_size=2))
    pairs = [p for i, p in enumerate(pairs) if i not in dropped]
    element = st.sampled_from(names)
    return names, pairs + draw(st.lists(st.tuples(element, element), max_size=2))


@settings(max_examples=120, deadline=None)
@given(broken_orders())
def test_quasipoints_on_broken_orders(order):
    names, pairs = order
    text = f"lattice L {{ elements: {', '.join(names)} ;"
    if pairs:
        text += " order: " + ", ".join(f"{a} < {b}" for a, b in pairs) + " ;"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "l.lat")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + " }\n")
        code, out, err = run("quasipoints", path, "L", "--json")
    lat = Lattice(names, pairs)
    if lat.validate().ok:
        assert code == 0
        want = sorted([names[i] for i in bits(m)] for m in oracle_quasipoints(lat))
        assert sorted(json.loads(out)["points"].values()) == want
    else:
        assert (code, out) == (2, "")
        assert "is invalid" in err


@st.composite
def bounded_work_cases(draw):
    """A generated instance file and one call of every file subcommand on it.

    The file holds one block of every kind (``test_dsl.instance_files``) and
    a topology ``TG`` from a ``generators:`` clause over up to 64 points:
    nested generators stay within the cap of 64 opens, random ones often pass
    it, and then the whole file is a parse failure."""
    def pick(*options):
        return draw(st.sampled_from(options))

    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        gens = [(1 << k) - 1 for k in sorted(draw(st.sets(st.integers(1, n), max_size=6)))]
    else:
        gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    sets = ", ".join("{" + ",".join(str(i + 1) for i in bits(m)) + "}" for m in gens)
    points = ",".join(str(i + 1) for i in range(n))
    text = (dsl.emit_text(draw(instance_files()))
            + f"topology TG on {{{points}}} {{ generators: {sets} ; }}\n")
    calls = [
        ["validate", "FILE"],
        ["quasipoints", "FILE", pick("L", "T", "F", "TG")] + pick([], ["--json"]),
        ["observable", "FILE", pick("E", "G", "ET", "EF")] + pick([], ["--json"]),
        ["spectrum", "FILE", pick("E", "ET", "EF")],
        ["decompose", "FILE", "G"],
        ["quotient", "FILE", "F", "I"],
        ["lift", "FILE", "F", "I", "EF"],
        ["integrate", "FILE", pick("E", "ET", "EF"), "--eps", pick("1", "1/3", "1/100")],
        ["emit", pick("json", "dot"), "FILE",
         pick("L", "T", "F", "E", "G", "ET", "EF", "f", "phi", "I", "TG")],
    ]
    return text, calls


@settings(max_examples=40, deadline=None)
@given(bounded_work_cases())
def test_every_file_subcommand_does_bounded_work(case):
    # each call runs in a forked child under run_bounded's CPU and memory
    # allowance; a call that needs more is stopped and fails the test
    text, calls = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.lat")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in calls:
            argv = [path if a == "FILE" else a for a in argv]
            code, output = run_forked(partial(main, argv), 1, 600 << 20)
            assert code in (0, 1, 2), (argv, code, output)
            assert "Traceback" not in output, (argv, output)
