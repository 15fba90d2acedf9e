"""Tests of the benchmark itself: gates, generator and tracer.

Run with ``python3 -m pytest bench/tests -q`` from the checkout root.  The
traced tests start fresh interpreters, as the benchmark does, and take about
half a minute.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from child import ALGEBRA_SUITES  # noqa: E402

SEED = 0


def golden_sweep():
    with open(run.SWEEP_GOLDEN, encoding="utf-8") as handle:
        return handle.read()


# --- gates ------------------------------------------------------------------------


def test_golden_sweep_passes_the_gate():
    text = golden_sweep()
    assert gate.judge_sweep(text, gate.SWEEP_EXIT, SEED, text) == []
    assert gate.judge_sweep(text, gate.SWEEP_EXIT, SEED, None) == []
    assert gate.judge_suites(text, ALGEBRA_SUITES, text) == []


def test_tampered_suite_output_is_a_failed_operation():
    text = golden_sweep()
    # one more case in one suite: only that suite fails against the golden,
    # and without a golden the run's totals no longer add up
    tampered = text.replace("[quotient] 0 failures / 3770 cases",
                            "[quotient] 0 failures / 3771 cases")
    assert tampered != text
    assert gate.judge_suites(tampered, gate.SWEEP_SUITES, text) == ["quotient"]
    assert gate.judge_suites(tampered, ALGEBRA_SUITES, None) == ["quotient"]
    assert len(gate.judge_sweep(tampered, gate.SWEEP_EXIT, SEED, None)) == 10
    # a changed note is caught by the golden alone
    noted = text.replace("200 random families", "201 random families")
    assert gate.judge_suites(noted, gate.SWEEP_SUITES, text) == ["continuity"]
    assert gate.judge_suites(noted, gate.SWEEP_SUITES, None) == []
    # A2 weakened: fewer injectivity failures is an error, not a pass
    weakened = text.replace("[injectivity] 22 failures", "[injectivity] 0 failures")
    assert "injectivity" in gate.judge_suites(weakened, gate.SWEEP_SUITES, None)


def test_tampered_exit_code_fails_every_suite_of_the_run():
    text = golden_sweep()
    assert gate.judge_sweep(text, 0, SEED, text) == list(gate.SWEEP_SUITES)
    assert gate.judge_sweep(text, 2, SEED, None) == list(gate.SWEEP_SUITES)


def test_tampered_call_is_a_failed_operation():
    want = [0, gate.digest("p: 1\n")]
    assert gate.judge_call(want, 0, "p: 1\n")
    assert not gate.judge_call(want, 0, "p: 2\n")
    assert not gate.judge_call(want, 0, "p: 1")
    assert not gate.judge_call(want, 2, "p: 1\n")


# --- generator --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7])
def test_generated_files_parse_cleanly_and_repeat(tmp_path, seed):
    from stonespec import dsl

    first = gen.generate(seed, str(tmp_path / "a"))
    second = gen.generate(seed, str(tmp_path / "b"))
    for path_a, path_b in zip(first, second):
        with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
            text = a.read()
            assert text == b.read()
        result = dsl.parse(text)
        assert result.ok and result.diagnostics == [], (path_a, result.diagnostics[:3])


def test_seed_changes_the_files_but_not_their_shape(tmp_path):
    one = gen.generate(1, str(tmp_path / "one"))
    two = gen.generate(2, str(tmp_path / "two"))
    for a, b in zip(one, two):
        text_a, text_b = open(a).read(), open(b).read()
        assert text_a != text_b
        assert [k for k, *_ in gen._blocks(text_a)] == [k for k, *_ in gen._blocks(text_b)]


def test_call_list_has_at_least_100_calls_and_every_subcommand(tmp_path):
    gen.generate(SEED, str(tmp_path))
    calls = gen.call_list(str(tmp_path))
    assert len(calls) >= 100
    assert {c[0] for c in calls} == {"validate", "quasipoints", "observable", "spectrum",
                                     "decompose", "quotient", "lift", "integrate", "emit"}


# --- tracer -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def prepared():
    run.prepare()


def child(workload, tmp_path, tag, trace, calls=None):
    report = str(tmp_path / f"{tag}-report.json")
    argv = [run.PY, run.CHILD, workload, "--seed", str(SEED), "--report", report]
    if calls:
        argv += ["--calls", calls]
    spans = str(tmp_path / f"{tag}-spans.json") if trace else None
    if trace:
        argv += ["--trace", spans]
    p = run.spawn(argv)
    assert p.code in (0, 1)
    doc = run.read_json(spans) if trace else None
    return p, run.read_json(report), doc


@pytest.fixture(scope="module")
def traced_runs(prepared, tmp_path_factory):
    """Per workload: untraced stdout, and two traced runs at one seed."""
    tmp = tmp_path_factory.mktemp("traced")
    gen.generate(SEED, os.path.join(run.ROOT, run.FILES_DIR))
    calls = str(tmp / "calls.json")
    run.write_json(calls, gen.call_list(run.FILES_DIR))
    out = {}
    for workload in run.WORKLOADS:
        c = calls if workload == "files" else None
        plain = child(workload, tmp, f"{workload}-plain", False, c)
        traced = [child(workload, tmp, f"{workload}-traced{k}", True, c) for k in (0, 1)]
        out[workload] = plain, traced
    return out


def test_traced_stdout_equals_untraced_stdout(traced_runs):
    sweep_plain = run.spawn([run.PY, "-m", "stonespec", *run.SWEEP_ARGV, str(SEED)])
    for workload, (plain, traced) in traced_runs.items():
        for p, report, _ in traced:
            assert p.stdout == plain[0].stdout
            assert p.code == plain[0].code
            if workload == "files":
                assert report["calls"] == plain[1]["calls"]
        if workload == "sweep":
            assert plain[0].stdout == sweep_plain.stdout
            assert plain[0].code == sweep_plain.code
    # the in-process calls also equal the CLI processes, through the goldens
    goldens = run.read_json(run.FILES_GOLDEN)
    gen_calls = gen.call_list(run.FILES_DIR)
    _, report, _ = traced_runs["files"][1][0]
    for call, (rc, stdout) in zip(gen_calls, report["calls"]):
        assert gate.judge_call(goldens[" ".join(call)], rc, stdout), call


def test_cli_calls_pass_the_gate_at_a_seed_without_goldens(prepared):
    calls, expected = run.files_inputs(1)
    fixture = [k for k, c in enumerate(calls) if c[1].startswith("fixtures")]
    generated = [k for k, c in enumerate(calls) if run.FILES_DIR in " ".join(c)]
    goldens = run.read_json(run.FILES_GOLDEN)
    assert all(expected[k] == goldens[" ".join(calls[k])] for k in fixture)
    assert any(expected[k] != goldens[" ".join(calls[k])] for k in generated)
    for k in fixture[:2] + generated[:3] + generated[-3:]:
        p = run.spawn([run.PY, "-m", "stonespec", *calls[k]])
        assert gate.judge_call(expected[k], p.code, p.stdout), calls[k]


def test_counts_repeat_exactly_across_traced_runs(traced_runs):
    for workload, (_, traced) in traced_runs.items():
        first, second = (run.layer_metrics(doc) for _, _, doc in traced)
        counts = {k: v for k, v in first.items() if v[1] == "count"}
        assert any(k.startswith("checks.") and k.endswith(".cases") for k in counts)
        assert "fractions.Fraction.calls" in counts
        assert counts == {k: v for k, v in second.items() if v[1] == "count"}, workload
        assert first["fractions.Fraction.calls"][0] > 0


def test_self_times_of_a_request_sum_to_its_root_span(traced_runs):
    for workload, (_, traced) in traced_runs.items():
        doc = traced[0][2]
        own = tracer.self_times(doc["spans"])
        totals, roots = {}, {}
        for sid, name_id, start, end, parent, request in doc["spans"]:
            assert request is not None, "every span belongs to a request"
            totals[request] = totals.get(request, 0.0) + own[sid]
            if parent is None:
                assert request not in roots
                roots[request] = end - start
        assert set(totals) == set(roots) and roots
        for request, total in totals.items():
            assert total == pytest.approx(roots[request], rel=1e-9, abs=1e-9), (
                workload, request)


def test_install_leaves_no_unwrapped_binding(prepared):
    code = (
        "import sys, json; sys.path.insert(0, sys.argv[1])\n"
        "import stonespec, tracer\n"
        "def bindings():\n"
        "    return {(m, k): v for m, mod in sys.modules.items()\n"
        "            if m.startswith('stonespec') for k, v in vars(mod).items()\n"
        "            if callable(v)}\n"
        "olds = {id(tracer._resolve(q)[1].__dict__[tracer._resolve(q)[2]])\n"
        "        for q in tracer.ENTRY_POINTS if q not in tracer.CONSTRUCTORS}\n"
        "tracer.install(tracer.Tracer())\n"
        "after = bindings()\n"
        "stale = [k for k, v in after.items() if id(v) in olds]\n"
        "print(json.dumps(stale))\n"
    )
    p = run.spawn([run.PY, "-c", code, BENCH])
    assert p.code == 0
    assert json.loads(p.stdout) == []


def test_layer_metrics_name_every_entry_point():
    doc = {"names": [], "spans": [], "counts": {"fractions.Fraction.calls": 0,
           "checks.repr.calls": 0, "stone.stone_space.hits": 0}, "cases": {}}
    names = set(run.layer_metrics(doc))
    for entry in tracer.ENTRY_POINTS:
        assert {f"{entry}.calls", f"{entry}.self_s"} <= names
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    extra = {"setup.interpreter_s", "setup.import_s", "trace.overhead_ratio"}
    assert declared == names | extra

