"""Golden outputs: every CLI subcommand on every applicable fixture object.

Each fixture ``fixtures/<name>.lat`` has a golden file
``tests/goldens/<name>.txt`` that records, for every call, the arguments,
the exit code, stdout and stderr, byte for byte, and a golden file
``tests/goldens/<name>.emit.txt`` that holds ``dsl.emit_text`` of the parsed
fixture, byte for byte.  ``tests/goldens/help.txt`` records, the same way,
``--help`` of the program and of every subcommand and three usage errors,
at a fixed width of 80 columns, and ``tests/goldens/check_all_n<N>_seed<S>.txt``
records ``check all --max-size N --seed S`` for N = 1..4 and S = 0, 1, and
for N = 4 and S = 2: every suite's notes, failures and case counts.
``tests/goldens/demo_<name>.txt`` records the stdout of ``demos/<name>.py``,
run with ``PYTHONPATH=src``, byte for byte.  After an intended output change,
regenerate the files and review the diff:

    PYTHONPATH=src python tests/test_goldens.py
"""

import io
import os
import subprocess
import sys
from unittest import mock

import pytest

from stonespec import dsl
from stonespec.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")
DEMOS = os.path.join(HERE, "..", "demos")
GOLDENS = os.path.join(HERE, "goldens")
EPS = ("1", "1/3", "1/4", "3/10")
FIXTURE_NAMES = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".lat"))
DEMO_NAMES = sorted(name[:-len(".py")] for name in os.listdir(DEMOS) if name.endswith(".py"))
SUBCOMMANDS = ("validate", "quasipoints", "observable", "spectrum", "decompose",
               "quotient", "lift", "integrate", "check", "emit")
HELP_CALLS = ([["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
              + [["quasipoints", "chain3.lat"], [], ["emit", "xml", "chain3.lat", "L"]])
CHECK_ALL = {f"check_all_n{n}_seed{seed}.txt": ["check", "all", "--max-size", str(n),
                                                "--seed", str(seed)]
             for seed in (0, 1) for n in (1, 2, 3, 4)}
CHECK_ALL["check_all_n4_seed2.txt"] = ["check", "all", "--max-size", "4", "--seed", "2"]


def calls(path):
    """Every subcommand on every object of the file it applies to."""
    with open(path, encoding="utf-8") as handle:
        blocks = dsl.parse(handle.read()).file.blocks
    out = [["validate", path]]
    for b in blocks:
        out.append(["emit", "json", path, b.name])
        out.append(["emit", "dot", path, b.name])
        if b.kind in ("lattice", "field", "topology"):
            out.append(["quasipoints", path, b.name])
            out.append(["quasipoints", path, b.name, "--json"])
        if b.kind in ("family", "family2"):
            out.append(["observable", path, b.name])
            out.append(["observable", path, b.name, "--json"])
        if b.kind == "family":
            out.append(["spectrum", path, b.name])
            out += [["integrate", path, b.name, "--eps", eps] for eps in EPS]
        if b.kind == "family2":
            out.append(["decompose", path, b.name])
        if b.kind == "ideal":
            out.append(["quotient", path, b.host, b.name])
            out += [["lift", path, b.host, b.name, f.name]
                    for f in blocks if f.kind == "family" and f.host == b.host]
    return out


def transcript(argv, shown):
    """One call shown as ``shown``: its exit code, stdout and any stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    chunk = f"$ stonespec {shown}\n[exit {code}]\n{out.getvalue()}"
    if err.getvalue():
        chunk += f"[stderr]\n{err.getvalue()}"
    return chunk


def render(name):
    """The golden text of one fixture: each call and what it printed."""
    path = os.path.join(FIXTURES, name)
    return "".join(transcript(argv, " ".join(name if a == path else a for a in argv))
                   for argv in calls(path))


def render_help():
    """The golden text of the help and usage-error calls; argparse wraps
    its help at the terminal width, which is pinned to 80 columns."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return "".join(transcript(argv, " ".join(argv)) for argv in HELP_CALLS)


def render_check_all(name):
    """The golden text of one ``check all`` call."""
    argv = CHECK_ALL[name]
    return transcript(argv, " ".join(argv))


def render_demo(name):
    """The stdout of one demo, run in its own interpreter on the source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"), PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, os.path.join(DEMOS, name + ".py")], env=env,
                          capture_output=True, encoding="utf-8", check=True).stdout


def golden_path(name, suffix=".txt"):
    return os.path.join(GOLDENS, name[:-len(".lat")] + suffix)


def render_text(name):
    """The canonical text form of one fixture."""
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return dsl.emit_text(dsl.parse(handle.read()).file)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_output_matches_golden(name):
    with open(golden_path(name), encoding="utf-8") as handle:
        want = handle.read()
    assert render(name) == want


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_emit_text_matches_golden(name):
    with open(golden_path(name, ".emit.txt"), encoding="utf-8") as handle:
        want = handle.read()
    assert render_text(name) == want


def test_help_matches_golden():
    with open(os.path.join(GOLDENS, "help.txt"), encoding="utf-8") as handle:
        want = handle.read()
    assert render_help() == want


@pytest.mark.parametrize("name", sorted(CHECK_ALL))
def test_check_all_matches_golden(name):
    with open(os.path.join(GOLDENS, name), encoding="utf-8") as handle:
        want = handle.read()
    assert render_check_all(name) == want


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_output_matches_golden(name):
    with open(os.path.join(GOLDENS, f"demo_{name}.txt"), encoding="utf-8") as handle:
        want = handle.read()
    assert render_demo(name) == want


def test_every_fixture_has_a_golden():
    assert sorted(os.listdir(GOLDENS)) == sorted(
        ["help.txt"] + list(CHECK_ALL) + [f"demo_{name}.txt" for name in DEMO_NAMES]
        + [name[:-len(".lat")] + suffix
           for name in FIXTURE_NAMES for suffix in (".txt", ".emit.txt")])


def test_every_subcommand_is_covered():
    from stonespec.cli import _parser
    sub = next(a for a in _parser()._actions if a.dest == "command")
    used = {argv[0] for name in FIXTURE_NAMES
            for argv in calls(os.path.join(FIXTURES, name))}
    assert used == set(sub.choices) - {"check"}


if __name__ == "__main__":
    os.makedirs(GOLDENS, exist_ok=True)
    for fixture_name in FIXTURE_NAMES:
        with open(golden_path(fixture_name), "w", encoding="utf-8") as handle:
            handle.write(render(fixture_name))
        with open(golden_path(fixture_name, ".emit.txt"), "w", encoding="utf-8") as handle:
            handle.write(render_text(fixture_name))
    with open(os.path.join(GOLDENS, "help.txt"), "w", encoding="utf-8") as handle:
        handle.write(render_help())
    for check_name in CHECK_ALL:
        with open(os.path.join(GOLDENS, check_name), "w", encoding="utf-8") as handle:
            handle.write(render_check_all(check_name))
    for demo_name in DEMO_NAMES:
        with open(os.path.join(GOLDENS, f"demo_{demo_name}.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write(render_demo(demo_name))
