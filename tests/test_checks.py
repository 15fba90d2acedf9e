"""The suite result record: lazily rendered failure messages; a raising
suite reported as a failure; the witness search inside the correspondence
sweep; the suites' integer forms against the ``Fraction`` arithmetic they
replace, on the suites' own inputs."""

import io
import random
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest

from stonespec import InputError, SpectralFamily, boolean_lattice, mo_lattice
from stonespec import checks
from stonespec import family as fam
from stonespec import measurable as mea
from stonespec import topology as top
from stonespec.checks import GRID3, SuiteResult, run_suite
from stonespec.cli import main
from stonespec.family import ComplexObservableFunction, ObservableFunction, level_sets
from stonespec.stone import stone_space


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


class TestRaisingSuite:
    def test_check_all_reports_the_raise_and_the_total(self, monkeypatch):
        def boom(res, max_size, seed):
            res.check(True, "counted before the raise")
            raise RuntimeError("kernel fault")
        monkeypatch.setitem(checks.SUITES, "counterexamples", boom)
        out, err = io.StringIO(), io.StringIO()
        code = main(["check", "all", "--max-size", "1"], out=out, err=err)
        lines = out.getvalue().splitlines()
        assert "  FAIL: raised RuntimeError: kernel fault" in lines
        assert "[counterexamples] 1 failures / 2 cases" in lines
        assert lines[-1].startswith("TOTAL: ") and code == 1 and err.getvalue() == ""

    def test_unknown_suite_still_raises(self):
        with pytest.raises(InputError, match="^unknown suite 'nope'"):
            run_suite("nope")


def oracle_regular_not_strongly_regular(n_max):
    """The first regular family that is not strongly regular, in sweep order,
    found by the function-side scan the sweep once ran: the level-set family
    of every grid function on every space."""
    for n in range(1, n_max + 1):
        grid_levels = [level_sets(values) for values in product(GRID3, repeat=n)]
        for t in top.all_topologies(n):
            for levels in grid_levels:
                e = top._family_of_levels(t, *levels)
                if top.classify_family(t, e) == "regular":
                    return t, e
    return None


@pytest.mark.parametrize("max_size", [1, 2, 3, 4])
def test_sweep_reports_the_first_witness(max_size):
    found = oracle_regular_not_strongly_regular(max_size)
    notes = run_suite("continuous-correspondence", max_size).notes
    if found is None:
        assert notes == ["regular-but-not-strongly-regular family: no witness at scale"]
    else:
        t, e = found
        assert notes == [f"regular-but-not-strongly-regular witness on {t!r}: {e!r}"]


# --- the suites' integer forms against their Fraction forms ---------------------

SEEDS = range(5)
ALGEBRA_SUITES = ("bijection", "quotient", "point-isomorphism", "spectral-theorem",
                  "injectivity", "complex-decomposition", "continuity", "counterexamples")


def recorded(target, name, log, wrap=lambda spy: spy):
    """Patch ``target.name`` so that each call appends ``(args, result)`` to
    ``log``; ``wrap`` is ``staticmethod`` for a classmethod."""
    real = getattr(target, name)

    def spy(*args):
        out = real(*args)
        log.append((args, out))
        return out
    return mock.patch.object(target, name, wrap(spy))


class Compared:
    """A result that records each value it is compared with."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __eq__(self, other):
        self.log.append(other)
        return self.value == other


def oracle_random_family(rng, lat):
    """The continuity suite's family draw as it was: a pool sorted per call
    and the lower chain elements found by ``Lattice.le``."""
    pool = sorted(Fraction(k, 4) for k in range(-8, 9))
    k = rng.randint(1, 4)
    thresholds = sorted(rng.sample(pool, k))
    chain = [lat.top]
    for _ in range(k - 1):
        lower = [e for e in range(lat.n) if e != lat.bottom
                 and e != chain[0] and lat.le(e, chain[0])]
        if not lower:
            break
        chain.insert(0, rng.choice(lower))
    return SpectralFamily(lat, list(zip(thresholds[-len(chain):], chain)))


def oracle_cuts(values):
    """One point below the values, one between each two neighbours and one above."""
    distinct = sorted(set(values))
    cuts = [distinct[0] - 1]
    cuts += [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    cuts.append(distinct[-1] + 1)
    return cuts


def oracle_interval_preimages(values):
    """Each separating interval's preimage by two comparisons per point."""
    out = []
    for lo, hi in combinations(oracle_cuts(values), 2):
        mask = 0
        for k, v in enumerate(values):
            if lo < v < hi:
                mask |= 1 << k
        out.append(mask)
    return out


class TestIntegerForms:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_continuity_draws_and_preimages_match_the_comparison_scan(self, seed):
        draws, levels = [], []
        with recorded(checks, "_random_family", draws), recorded(fam, "level_sets", levels):
            res = run_suite("continuity", 4, seed)
        assert res.failures == [] and len(draws) == len(levels) == 200
        rng = random.Random(seed)
        lattices = [mo_lattice(3), boolean_lattice(4)]
        got, want, from_base = [], [], []
        for i, ((_, e), (_, lv)) in enumerate(zip(draws, levels)):
            assert e == oracle_random_family(rng, lattices[i % 2])  # same draws, same order
            masks = [0] + lv[1]
            got += [masks[j] ^ masks[k] for j, k in combinations(range(len(masks)), 2)]
            values = fam.observable_function(e).values
            want += oracle_interval_preimages(values)
            # Q_E(b) minus Q_E(a), read through E itself
            base = stone_space(e.lattice).base
            from_base += [base[e.eval(hi)] & ~base[e.eval(lo)]
                          for lo, hi in combinations(oracle_cuts(values), 2)]
        assert got == want == from_base and res.cases == len(want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spectral_theorem_grids_are_lo_plus_k_eps(self, seed):
        calls = []
        with recorded(mea, "riemann_stieltjes_on_points", calls):
            assert run_suite("spectral-theorem", 4, seed).failures == []
        assert len(calls) == 3 * 20  # two epsilon grids and the threshold grid each
        for ((_, e, grid), _), eps in zip(calls, [Fraction(1, 2), Fraction(1, 10), None] * 20):
            if eps is not None:
                lo, hi = e.bounds()
                steps = int((hi - lo) / eps) + 1
                assert grid == [lo + k * eps for k in range(steps + 1)]
                assert all(type(t) is Fraction for t in grid)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_point_isomorphism_expectations_match_fraction_arithmetic(self, seed):
        calls, norms = [], []
        real_norm = ComplexObservableFunction.sup_norm_squared
        with recorded(top, "f_star", calls), mock.patch.object(
                ComplexObservableFunction, "sup_norm_squared",
                lambda g: Compared(real_norm(g), norms)):
            assert run_suite("point-isomorphism", 4, seed).failures == []
        # each random round makes five complex f_star calls and one norm check
        pairs = [args[1:] for args, _ in calls if len(args) == 3]
        rounds = [pairs[i:i + 5] for i in range(0, len(pairs), 5)]
        rng = random.Random(seed)
        sizes = [n for n in range(1, 5) for _ in range(25)]
        assert len(rounds) == len(norms) == len(sizes)
        for n, got, norm in zip(sizes, rounds, norms):
            re1, im1, re2, im2 = ([Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                                   for _ in range(n)] for _ in range(4))
            want = [(re1, im1), (re2, im2),
                    ([a + b for a, b in zip(re1, re2)], [a + b for a, b in zip(im1, im2)]),
                    ([a * c - b * d for a, b, c, d in zip(re1, im1, re2, im2)],
                     [a * d + b * c for a, b, c, d in zip(re1, im1, re2, im2)]),
                    (re1, [-v for v in im1])]
            assert [(list(r), list(i)) for r, i in got] == want
            assert all(type(v) is Fraction for r, i in got for v in r + i)
            assert norm == max(a * a + b * b for a, b in zip(re1, im1))
            assert type(norm) is Fraction

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trusted_observable_functions_pass_the_checked_constructor(self, seed):
        made = []
        with recorded(ObservableFunction, "_of", made, staticmethod):
            for name in ALGEBRA_SUITES:
                run_suite(name, 4, seed)
        assert len(made) > 1000
        for (space, values), g in made:
            checked = ObservableFunction(space, values)
            assert type(g.values) is tuple and g.values == checked.values
            assert all(type(v) is Fraction for v in g.values)
