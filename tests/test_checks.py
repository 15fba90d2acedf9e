"""The suite result record: lazily rendered failure messages; the witness
search inside the correspondence sweep."""

from fractions import Fraction
from itertools import product

import pytest

from stonespec import SpectralFamily, boolean_lattice
from stonespec import topology as top
from stonespec.checks import GRID3, SuiteResult, run_suite
from stonespec.family import level_sets


class Unprintable:
    def __repr__(self):
        raise AssertionError("a passing check must not render its message")

    __str__ = __repr__


class TestCheck:
    def test_passing_check_counts_without_rendering(self):
        res = SuiteResult("lazy")
        res.check(True, "{!r}: bad {}", Unprintable(), Unprintable())
        assert res.cases == 1 and res.failures == []

    def test_failing_check_renders_like_the_f_string(self):
        res = SuiteResult("render")
        e = SpectralFamily(boolean_lattice(2), [(0, "x"), (Fraction(1, 2), "1")])
        label, values = "t", (Fraction(0), Fraction(1, 2))
        res.check(False, "{!r}: restriction identity fails", e)
        res.check(False, "{}: {} failed to induce a family", label, values)
        res.check(False, "{{0,1}}^2 for {!r}", values)
        assert res.failures == [
            f"{e!r}: restriction identity fails",
            f"{label}: {values} failed to induce a family",
            f"{{0,1}}^2 for {values!r}",
        ]
        assert res.failures[1] == "t: (Fraction(0, 1), Fraction(1, 2)) failed to induce a family"
        assert res.cases == 3
        assert res.lines()[-1] == "[render] 3 failures / 3 cases"


def oracle_regular_not_strongly_regular(n_max):
    """The first regular family that is not strongly regular, in sweep order,
    found by a second pass over the sweep's spaces and grid functions."""
    for n in range(1, n_max + 1):
        grid_fns = [(ranks, tuple(GRID3[k] for k in ranks))
                    for ranks in product(range(len(GRID3)), repeat=n)]
        for t in top.all_topologies(n):
            for ranks, values in grid_fns:
                e = top._family_of_levels(t, level_sets(ranks), values)
                if top.classify_family(t, e) == "regular":
                    return t, e
    return None


@pytest.mark.parametrize("max_size", [2, 3])
def test_sweep_reports_the_first_witness(max_size):
    found = oracle_regular_not_strongly_regular(max_size)
    notes = run_suite("continuous-correspondence", max_size).notes
    if found is None:
        assert notes == ["regular-but-not-strongly-regular family: no witness at scale"]
    else:
        t, e = found
        assert notes == [f"regular-but-not-strongly-regular witness on {t!r}: {e!r}"]
