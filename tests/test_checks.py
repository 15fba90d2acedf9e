"""The suite result record: lazily rendered failure messages."""

from fractions import Fraction

from stonespec import SpectralFamily, boolean_lattice
from stonespec.checks import SuiteResult


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
