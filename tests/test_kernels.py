"""The two kernels of the correspondence against the loops they replaced.

``first_hits`` answers "the least threshold whose value contains the point"
and ``level_sets`` builds the sorted level sets {f <= t}.  Every caller is
checked against its previous per-point or per-threshold loop, kept here as
an oracle, on the seeded sweeps of the check suites.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonespec import (ComplexSpectralFamily, FieldOfSets, MeasurableFunction,
                       ObservableFunction, all_fields, all_topologies,
                       boolean_lattice, chain_lattice, checks, enumerate_families,
                       from_observable_function, function_of, induced_function,
                       mo_lattice, observable_function,
                       observable_function_complex, product_family,
                       riemann_stieltjes, riemann_stieltjes_on_points,
                       spectral_family_of, spectral_family_of_continuous,
                       stone_space)
from stonespec.checks import GRID3
from stonespec.family import first_hits, level_sets
from stonespec.lattice import bits


# --- the loops the kernels replaced ---------------------------------------------


def oracle_first_hit(thresholds, masks, p):
    for t, m in zip(thresholds, masks):
        if m >> p & 1:
            return t
    return None


def oracle_observable_function(e, space):
    values = []
    for members in space.points:
        for t, v in zip(e.thresholds, e.values):
            if members >> v & 1:
                values.append(t)
                break
    return tuple(values)


def oracle_function_of(field, e):
    payloads = [field.lattice().payload[v] for v in e.values]
    return tuple(oracle_first_hit(e.thresholds, payloads, p)
                 for p in range(len(field.ground)))


def oracle_induced_function(space, e):
    payloads = [space.lattice().payload[v] for v in e.values]
    return tuple(oracle_first_hit(e.thresholds, payloads, p)
                 for p in range(len(space.points)))


def oracle_riemann_stieltjes(e, grid, space):
    evals = [e.eval(t) for t in grid]
    values = []
    for members in space.points:
        for t, v in zip(grid, evals):
            if members >> v & 1:
                values.append(t)
                break
    return tuple(values)


def oracle_riemann_stieltjes_on_points(field, e, grid):
    payloads = [field.lattice().payload[e.eval(t)] for t in grid]
    return tuple(oracle_first_hit(grid, payloads, p) for p in range(len(field.ground)))


def oracle_observable_function_complex(e, space):
    re, im = [], []
    m = e.matrix  # computed on each access
    for members in space.points:
        re.append(next(x for i, x in enumerate(e.xs)
                       if any(members >> m[i][j] & 1 for j in range(len(e.ys)))))
        im.append(next(y for j, y in enumerate(e.ys)
                       if any(members >> m[i][j] & 1 for i in range(len(e.xs)))))
    return tuple(re), tuple(im)


def level_mask(phi, t):
    """The member set of the points where phi is at most t."""
    return sum(1 << i for i, v in enumerate(phi.values) if v <= t)


def oracle_spectral_family_of(phi):
    """One scan of every point per threshold (``level_mask``)."""
    return [(t, phi.field.element_of(level_mask(phi, t))) for t in sorted(set(phi.values))]


def oracle_from_observable_function(g, lattice):
    """The generating atom of each quasipoint found by scanning its members,
    and E at t the join of the atoms of the points with value <= t."""
    gens = []
    for members in g.space.points:
        gens.append(next(e for e in bits(members) if lattice.up[e] == members))
    return [(t, lattice.join(p for p, v in zip(gens, g.values) if v <= t))
            for t in sorted(set(g.values))]


# --- the kernels themselves -------------------------------------------------------


class TestKernels:
    def test_first_hits_takes_the_first_mask_containing_each_point(self):
        ts = (Fraction(-1), Fraction(0), Fraction(2))
        masks = (0b0100, 0b0110, 0b0011)  # not nested, and point 3 is missed
        assert first_hits(ts, masks, 4) == [Fraction(2), Fraction(0), Fraction(-1), None]
        assert first_hits((), (), 3) == [None, None, None]
        assert first_hits(ts, masks, 0) == []

    def test_first_hits_matches_the_scan_on_random_masks(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randint(0, 7)
            k = rng.randint(0, 5)
            ts = sorted(rng.sample(range(-10, 10), k))
            masks = [rng.randrange(1 << n) if n else 0 for _ in range(k)]
            want = [oracle_first_hit(ts, masks, p) for p in range(n)]
            assert first_hits(ts, masks, n) == want

    def test_level_sets_group_ties_in_key_order(self):
        assert level_sets((2, 0, 2, 1, 0)) == ([0, 1, 2], [0b10010, 0b11010, 0b11111])
        assert level_sets(()) == ([], [])

    def test_level_sets_match_the_threshold_scan(self):
        rng = random.Random(1)
        for _ in range(500):
            keys = [rng.randint(-3, 3) for _ in range(rng.randint(1, 7))]
            want = [sum(1 << i for i, k in enumerate(keys) if k <= t)
                    for t in sorted(set(keys))]
            assert level_sets(keys) == (sorted(set(keys)), want)


def oracle_level_sets(keys):
    """``level_sets`` as it was before ``Fraction`` keys were scaled to
    integers: the keys themselves sorted and compared."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    thresholds, masks = [], []
    mask = 0
    for i, j in zip(order, order[1:] + [None]):
        mask |= 1 << i
        if j is None or keys[j] != keys[i]:
            thresholds.append(keys[i])
            masks.append(mask)
    return thresholds, masks


# mixed denominators, negatives and, from the small range, many ties
fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 7, 12)))


class TestLevelSetKeys:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(fractions, max_size=9))
    def test_fraction_keys_scaled_to_integers(self, keys):
        assert level_sets(keys) == oracle_level_sets(keys)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(fractions, st.integers(-3, 3)), max_size=9))
    def test_mixed_int_and_fraction_keys(self, keys):
        assert level_sets(keys) == oracle_level_sets(keys)

    def test_equal_fractions_written_apart_share_one_level(self):
        keys = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 4), Fraction(-2, 6)]
        assert level_sets(keys) == ([Fraction(-1, 3), Fraction(1, 2)], [0b1010, 0b1111])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(fractions, max_size=9), st.lists(st.integers(-3, 3), max_size=9)))
    def test_first_hits_inverts_level_sets(self, keys):
        assert first_hits(*level_sets(keys), len(keys)) == keys

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_level_sets_invert_first_hits(self, data):
        # strictly increasing thresholds, strictly growing masks ending at all points
        n = data.draw(st.integers(0, 8))
        k = data.draw(st.integers(min(n, 1), n))
        ts = sorted(data.draw(st.sets(fractions, min_size=k, max_size=k)))
        # the first c points of a random order, for k increasing cuts ending at n
        cuts = sorted(data.draw(st.permutations(range(1, n)))[:k - 1]) + [n] if k else []
        order = data.draw(st.permutations(range(n)))
        masks = [sum(1 << p for p in order[:c]) for c in cuts]
        assert level_sets(first_hits(ts, masks, n)) == (ts, masks)


# --- the five first-hit callers ----------------------------------------------------


class TestFirstHitCallers:
    def test_observable_function_on_the_injectivity_and_continuity_sweeps(self):
        cases = 0
        for _, lat in checks._injectivity_fixtures(4):
            space = stone_space(lat)
            for e in enumerate_families(lat, (0, 1, 2)):
                assert observable_function(e).values == \
                    oracle_observable_function(e, space)
                cases += 1
        for seed in (0, 1):
            rng = random.Random(seed)
            for lat in (mo_lattice(3), boolean_lattice(4)):
                space = stone_space(lat)
                for _ in range(100):
                    e = checks._random_family(rng, lat)
                    assert observable_function(e).values == \
                        oracle_observable_function(e, space)
                    cases += 1
        assert cases == 199 + 400

    def test_function_of_on_the_bijection_sweep(self):
        for n in range(1, 5):
            for f in all_fields(tuple(str(i) for i in range(1, n + 1))):
                for e in enumerate_families(f.lattice(), GRID3):
                    assert function_of(f, e).values == oracle_function_of(f, e)

    def test_induced_function_on_the_correspondence_sweep(self):
        for n in range(1, 5):
            for t in all_topologies(n):
                for e in enumerate_families(t.lattice(), GRID3):
                    assert induced_function(t, e) == oracle_induced_function(t, e)
                for values in product(GRID3, repeat=n):
                    e = spectral_family_of_continuous(t, values)
                    assert induced_function(t, e) == oracle_induced_function(t, e)

    def test_riemann_stieltjes_on_the_spectral_theorem_sweep(self):
        for lat in (boolean_lattice(3), mo_lattice(2), mo_lattice(3), chain_lattice(4)):
            space = stone_space(lat)
            for e in enumerate_families(lat, GRID3):
                lo, hi = e.bounds()
                ts = list(e.thresholds)
                mids = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
                grids = [ts, GRID3, [Fraction(-1)] + list(GRID3) + [Fraction(2)],
                         # from below the first threshold, with points strictly
                         # between jumps: without and with the thresholds
                         [lo - 1] + mids + [hi], sorted([lo - 1] + ts + mids)]
                for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 3)):
                    steps = int((hi - lo) / eps) + 1
                    grids.append([lo + k * eps for k in range(steps + 1)])
                for grid in grids:
                    assert riemann_stieltjes(e, grid).values == \
                        oracle_riemann_stieltjes(e, [Fraction(t) for t in grid], space)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_riemann_stieltjes_on_points_on_the_spectral_theorem_sweep(self, seed):
        rng = random.Random(seed)
        ground = tuple(str(i) for i in range(1, 7))
        f6 = FieldOfSets.discrete(ground)
        for _ in range(20):
            phi = MeasurableFunction(f6, [Fraction(rng.randint(0, 20), rng.choice((1, 2, 5, 10)))
                                          for _ in ground])
            e = spectral_family_of(phi)
            lo, hi = e.bounds()
            grids = [sorted(set(phi.values))]
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                steps = int((hi - lo) / eps) + 1
                grids.append([lo + k * eps for k in range(steps + 1)])
            for grid in grids:
                assert riemann_stieltjes_on_points(f6, e, grid).values == \
                    oracle_riemann_stieltjes_on_points(f6, e, grid)

    def test_observable_function_complex_on_the_decomposition_sweep(self):
        for lat in (boolean_lattice(2), boolean_lattice(3), mo_lattice(2)):
            space = stone_space(lat)
            families = enumerate_families(lat, (0, 1))
            for e1 in families:
                for e2 in families:
                    e = product_family(e1, e2)
                    g = observable_function_complex(e)
                    assert (g.re.values, g.im.values) == \
                        oracle_observable_function_complex(e, space)
        b2 = boolean_lattice(2)
        for v12, v21 in product(range(b2.n), repeat=2):
            e = ComplexSpectralFamily(b2, (0, 1), (0, 1),
                                      [[b2.meet2(v12, v21), v12], [v21, b2.top]])
            g = observable_function_complex(e)
            assert (g.re.values, g.im.values) == \
                oracle_observable_function_complex(e, stone_space(b2))


# --- the three level-set callers ---------------------------------------------------


class TestLevelSetCallers:
    def test_spectral_family_of_on_the_bijection_and_quotient_sweeps(self):
        for n in range(1, 5):
            for f in all_fields(tuple(str(i) for i in range(1, n + 1))):
                for assignment in product(GRID3 + (Fraction(-2),), repeat=len(f.atoms)):
                    values = [None] * n
                    for a, v in zip(f.atoms, assignment):
                        for p in bits(a):
                            values[p] = v
                    phi = MeasurableFunction(f, values)
                    assert spectral_family_of(phi).jumps() == \
                        tuple(oracle_spectral_family_of(phi))

    def test_from_observable_function_on_seeded_functions(self):
        rng = random.Random(0)
        lattices = [boolean_lattice(n) for n in range(1, 5)]
        lattices += [f.lattice() for f in all_fields(("1", "2", "3"))]
        for lat in lattices:
            space = stone_space(lat)
            for _ in range(40):
                g = ObservableFunction(space, [Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                                               for _ in range(space.n_points)])
                assert from_observable_function(g).jumps() == \
                    tuple(oracle_from_observable_function(g, lat))

    # _family_of_levels is checked against its threshold scan in
    # tests/test_topology.py::TestClosedFormsAgainstOracles
