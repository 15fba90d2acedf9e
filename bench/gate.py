"""Correctness gates: each operation is judged, and a failed one is counted.

An operation is one check suite in ``sweep`` and ``algebra`` and one CLI call
in ``files``.  The expected results are stated here, not read back from the
program: injectivity has exactly 22 failures (A2, red by design, so expected
and not an error), every other suite has none, and six case counts do not
depend on the seed.  At seed 0 the output must equal the stored goldens byte
for byte.
"""

from __future__ import annotations

import hashlib
import re

EXPECTED_FAILURES = {"injectivity": 22}
FIXED_CASES = {"bijection": 618, "complex-decomposition": 48,
               "continuous-correspondence": 65721, "counterexamples": 7,
               "injectivity": 199, "quotient": 3770}
SWEEP_SUITES = ("bijection", "complex-decomposition", "continuity",
                "continuous-correspondence", "counterexamples",
                "increasing-calculus", "injectivity", "point-isomorphism",
                "quotient", "spectral-theorem")
SWEEP_EXIT = 1  # the sweep reports A2's failures

_SUMMARY = re.compile(r"^\[([a-z-]+)\] (\d+) failures / (\d+) cases$")


def sections(text: str) -> dict:
    """Map suite name -> (failures, cases, the suite's lines).

    A suite's indented notes and FAIL lines come before its ``[name]``
    summary line; the sweep's header and TOTAL lines belong to no suite.
    """
    out = {}
    pending = []
    for line in text.splitlines():
        m = _SUMMARY.match(line)
        if line.startswith("  ") or m:
            pending.append(line)
        if m:
            out[m.group(1)] = (int(m.group(2)), int(m.group(3)), "\n".join(pending))
            pending = []
    return out


def suite_ok(name: str, failures: int, cases: int) -> bool:
    if failures != EXPECTED_FAILURES.get(name, 0):
        return False
    return name not in FIXED_CASES or cases == FIXED_CASES[name]


def judge_suites(text: str, suites, golden: str | None = None) -> list:
    """Names of the suites in ``suites`` whose output fails the gate.

    ``golden`` is the expected full output for the same seed, when stored:
    each suite's lines must then match it byte for byte.
    """
    got = sections(text)
    want = sections(golden) if golden is not None else {}
    bad = []
    for name in suites:
        if name not in got or not suite_ok(name, *got[name][:2]):
            bad.append(name)
        elif golden is not None and got[name][2] != want.get(name, (0, 0, None))[2]:
            bad.append(name)
    return bad


def judge_sweep(text: str, exit_code: int, seed: int, golden: str | None) -> list:
    """Failed suites of one ``check all`` run; all of them if the run as a
    whole is wrong (exit code, header, totals or golden)."""
    bad = judge_suites(text, SWEEP_SUITES, golden)
    got = sections(text)
    failures = sum(got[s][0] for s in SWEEP_SUITES if s in got)
    cases = sum(got[s][1] for s in SWEEP_SUITES if s in got)
    lines = text.splitlines()
    whole_ok = (exit_code == SWEEP_EXIT
                and lines[:2] == [f"seed: {seed}", "max-size: 4"]
                and lines[-1:] == [f"TOTAL: {failures} failures / {cases} cases"]
                and failures == sum(EXPECTED_FAILURES.values())
                and (golden is None or text == golden))
    return list(SWEEP_SUITES) if not whole_ok else bad


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def judge_call(expected, exit_code: int, stdout: str) -> bool:
    """``expected`` is ``[exit_code, sha256 of stdout]``."""
    return [exit_code, digest(stdout)] == list(expected)
