"""A table of kernel mutants, each run through every check suite at size 3.

A mutant is a small deliberate fault in one kernel, installed by
monkeypatching.  A suite kills it by reporting failures that the unmutated
run does not report; ``run_suite`` reports an exception a suite raises as
a failing case, so no suite may raise out of it.  Every mutant must be
killed, so each kernel in the table is one whose breakage the suites can
see.
"""

import sys
from contextlib import ExitStack
from unittest import mock

import pytest

from stonespec import checks
from stonespec import topology as top
from stonespec.checks import run_suite
from stonespec.family import first_hits
from stonespec.lattice import Lattice, bits
from stonespec.stone import stone_space
from stonespec.topology import TopSpace


def rebound(name, new, home="stonespec.family"):
    """Patch ``name`` in every stonespec module that binds it: a module that
    imported the name from ``home`` holds its own binding, which patching
    ``home`` alone would leave unchanged."""
    real = getattr(sys.modules[home], name)
    return [mock.patch.object(mod, name, new) for key, mod in sorted(sys.modules.items())
            if key.startswith("stonespec") and getattr(mod, name, None) is real]


def last_hits(thresholds, masks, n):
    """``first_hits`` keeping the last mask that contains each point."""
    return first_hits(thresholds[::-1], masks[::-1], n)


def min_r_function(space, g):
    """``r_function`` taking the minimum of g over each ``base[U]``."""
    lat = space.r_lattice()
    base = stone_space(lat).base
    return {e: min(g.values[k] for k in bits(base[e])) for e in range(lat.n) if e != lat.bottom}


def kernel_without_the_top(blocks, keys, kernel=top._first_nonconstant):
    """``_first_nonconstant`` reading each block of two or more members
    without its highest one."""
    return kernel([u ^ 1 << u.bit_length() - 1 or u for u in blocks], keys)


MUTANTS = {
    "first_hits keeps the last hit": lambda: rebound("first_hits", last_hits),
    "decompose swaps the margins": lambda: rebound("decompose", lambda e: (e.second, e.first)),
    "Lattice.atoms drops one atom": lambda: [mock.patch.object(
        Lattice, "atoms", lambda self, atoms=Lattice.atoms: atoms(self)[1:])],
    "TopSpace.closure is the identity": lambda: [mock.patch.object(
        TopSpace, "closure", lambda self, x: x)],
    "r_function takes the minimum": lambda: [mock.patch.object(
        top, "r_function", min_r_function)],
    "the constancy kernel ignores the highest member of each block": lambda: rebound(
        "_first_nonconstant", kernel_without_the_top, "stonespec.topology"),
}

# each mutant's {suite: failures} over the suites that kill it, at size 3 and seed 0
KILLS = {
    "first_hits keeps the last hit": {
        "bijection": 84, "injectivity": 76, "continuity": 84, "complex-decomposition": 12,
        "spectral-theorem": 60, "continuous-correspondence": 252, "quotient": 216,
        "point-isomorphism": 353, "counterexamples": 1},
    "decompose swaps the margins": {"complex-decomposition": 12},
    "Lattice.atoms drops one atom": {
        "injectivity": 54, "quotient": 58, "increasing-calculus": 1, "point-isomorphism": 3,
        "counterexamples": 2},
    "TopSpace.closure is the identity": {
        "continuous-correspondence": 186, "increasing-calculus": 1, "counterexamples": 1},
    "r_function takes the minimum": {"increasing-calculus": 38},
    "the constancy kernel ignores the highest member of each block": {"counterexamples": 1},
}


def outcomes(patches=()) -> dict:
    """Each suite's failures at size 3 and seed 0, or the exception that
    escaped ``run_suite``, under ``patches`` and with an empty topology cache,
    so that no space built under a mutant outlives it."""
    out = {}
    with ExitStack() as stack:
        stack.enter_context(mock.patch.dict(top._TOPOLOGY_CACHE, clear=True))
        for patch in patches:
            stack.enter_context(patch)
        for name in checks.SUITES:
            try:
                out[name] = run_suite(name, 3, 0).failures
            except Exception as err:
                out[name] = err
    return out


@pytest.fixture(scope="module")
def runs() -> dict:
    """The unmutated outcomes under ``None`` and each mutant's under its label."""
    table = {None: outcomes()}
    for label, patches in MUTANTS.items():
        table[label] = outcomes(patches())
    return table


@pytest.fixture(scope="module")
def kills(runs) -> dict:
    """For each mutant, the suites that kill it: "failed" or "raised"."""
    return {label: {name: "raised" if isinstance(r, Exception) else "failed"
                    for name, r in got.items() if r != runs[None][name]}
            for label, got in runs.items() if label is not None}


def test_every_mutant_is_killed(kills):
    assert [label for label, killed in kills.items() if not killed] == []


def test_the_kill_matrix_is_pinned(runs):
    # a closed form that loses kills fails here even when every other test passes
    assert {label: {name: len(r) for name, r in got.items() if r != runs[None][name]}
            for label, got in runs.items() if label is not None} == KILLS


def test_continuity_reports_the_last_hit_mutant(kills):
    assert kills["first_hits keeps the last hit"]["continuity"] == "failed"


def test_no_suite_raises_under_any_mutant(runs):
    assert [(label, name) for label, got in runs.items()
            for name, r in got.items() if isinstance(r, Exception)] == []


def test_increasing_calculus_reports_the_minimum_mutant(kills):
    assert kills["r_function takes the minimum"] == {"increasing-calculus": "failed"}


def test_quotient_reports_an_embedding_that_is_not_a_bijection(runs):
    failures = runs["Lattice.atoms drops one atom"]["quotient"]
    assert any(f.endswith(": embedding is not a bijection") for f in failures)


def test_a_kernel_imported_by_name_is_mutated_there_too(kills):
    # continuous-correspondence reads first_hits only through topology's own
    # binding: a patch of family alone would leave it at 0 failures
    assert kills["first_hits keeps the last hit"]["continuous-correspondence"] == "failed"
