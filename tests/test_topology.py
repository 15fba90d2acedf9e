"""Finite spaces, regular opens, strong regularity, quasipoints over points
and the completely increasing calculus."""

import random
import signal
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from stonespec import (ComplexObservableFunction, FieldOfSets, InputError, ObservableFunction,
                       SpectralFamily, TopSpace, UnsupportedStructureError,
                       all_fields, all_topologies, boolean_lattice, chain_lattice,
                       mo_lattice,
                       classify_family,
                       completely_increasing_check, cpt_membership, f_star,
                       identification_check, induced_function, is_continuous,
                       is_strongly_regular, pt_structure, r_function,
                       spectral_family_of_continuous, star_condition_check,
                       stone_space)
from stonespec.lattice import bits
from stonespec.checks import GRID3, _grid3_functions
from stonespec.family import enumerate_families, level_sets, point_values
from stonespec.lattice import MAX_ELEMENTS
from stonespec.topology import (MAX_POINTS, _family_of_levels, _first_nonconstant,
                                _first_unclosed, covers_spectrum)

HALF = Fraction(1, 2)


def sierpinski():
    return TopSpace.from_sets(("1", "2"), [[], ["1"], ["1", "2"]])


def oracle_interior(space, x):
    """Union of the opens inside x, scanning the declared family."""
    acc = 0
    for o in space.opens:
        if o & ~x == 0:
            acc |= o
    return acc


def oracle_is_continuous(space, values):
    """Preimages of open intervals must be open; intervals with endpoints on
    the midpoint grid between consecutive values suffice at finite scale."""
    values = tuple(Fraction(v) for v in values)
    distinct = sorted(set(values))
    cuts = [distinct[0] - 1]
    cuts += [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    cuts.append(distinct[-1] + 1)
    for lo, hi in combinations(cuts, 2):
        mask = 0
        for i, v in enumerate(values):
            if lo < v < hi:
                mask |= 1 << i
        if mask not in space.opens:
            return False
    return True


def oracle_spectral_family(space, values):
    """The step family t -> interior({f <= t}), one threshold scan per value.

    Asserts that the interiors exhaust the space: the last level set is the
    whole space, which is open, so a total function always gives a bounded
    family and no "not a spectral family" outcome exists."""
    values = tuple(Fraction(v) for v in values)
    jumps = []
    union = 0
    for t in sorted(set(values)):
        cum = 0
        for i, v in enumerate(values):
            if v <= t:
                cum |= 1 << i
        e = space.interior(cum)
        union |= e
        jumps.append((t, e))
    assert union == space.full, "level-set interiors do not exhaust the space"
    lat = space.lattice()
    return SpectralFamily(lat, [(t, lat.payload.index(e)) for t, e in jumps])


def oracle_domain(lat, e):
    """The points some value of the family contains: the union of its values."""
    dom = 0
    for v in e.values:
        dom |= lat.payload[v]
    return dom


def oracle_is_strongly_regular(space, family):
    """Every step value closed, scanned value by value; returns (bool,
    witness, index of the first value that is not closed or -1)."""
    lat = space.lattice()
    ts = family.thresholds
    for i, v in enumerate(family.values):
        m = lat.payload[v]
        if space.closure(m) & ~m:
            mu = (ts[i] + ts[i + 1]) / 2 if i + 1 < len(ts) else ts[i] + 1
            return False, (ts[i], mu), i
    return True, None, -1


def oracle_completely_increasing(lat, r):
    """r(join of S) == max of r over S for every nonempty family S of
    nonzero elements, scanned in bitmask order, each family built from the
    one without its lowest member; returns (bool, the first failing
    family's element names)."""
    nz = [e for e in range(lat.n) if e != lat.bottom]
    total = 1 << len(nz)
    join_of, max_of = [lat.bottom] * total, [None] * total
    for s in range(1, total):
        low = s & -s
        e = nz[low.bit_length() - 1]
        rest = s ^ low
        join_of[s] = e if rest == 0 else lat.join2(join_of[rest], e)
        max_of[s] = r[e] if rest == 0 else max(max_of[rest], r[e])
        if r[join_of[s]] != max_of[s]:
            return False, tuple(lat.names[nz[j]] for j in bits(s))
    return True, None


def oracle_identification_check(p):
    """A set is open iff its fibre preimage is open in the subspace of
    quasipoints over points, scanned over every set of points."""
    subspace_opens = {o & p.q_pt for o in p.stone.opens()}
    for x in range(p.space.full + 1):
        pre = 0
        for i in bits(x):
            pre |= p.q_x[i]
        if (x in p.space.opens) != (pre in subspace_opens):
            return False
    return True


def oracle_first_nonconstant(blocks, keys):
    """The first block on whose members ``keys`` takes more than one value, or -1."""
    return next((i for i, u in enumerate(blocks) if len({keys[j] for j in bits(u)}) > 1), -1)


def oracle_pt_structure(space):
    """The quasipoints over each point, by the closure of each quasipoint's atom."""
    lat = space.lattice()
    st = stone_space(lat)
    q_x = [0] * len(space.points)
    for k, a in enumerate(st.atoms):
        for p in bits(space.closure(lat.payload[a])):
            q_x[p] |= 1 << k
    return tuple(q_x)


def small_spaces():
    for n in (1, 2, 3, 4):
        yield from all_topologies(n)


def oracle_close(fam):
    """Close a family of masks under union and intersection, to a fixpoint."""
    fam = set(fam)
    changed = True
    while changed:
        changed = False
        pairs = list(fam)
        for a in pairs:
            for b in pairs:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return frozenset(fam)


def oracle_generated(points, masks):
    """The topology generated by the masks, as the closure of the masks, the
    empty set and the whole space."""
    return TopSpace(points, oracle_close({0, (1 << len(points)) - 1, *masks}))


def oracle_all_topologies(n):
    """Every topology on n points by closing single-set extensions, starting
    from the indiscrete topology; sorted as ``all_topologies`` sorts."""
    full = (1 << n) - 1

    start = frozenset({0, full})
    seen = {start}
    frontier = [start]
    while frontier:
        fam = frontier.pop()
        for m in range(1, full):
            if m not in fam:
                bigger = oracle_close(fam | {m})
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return sorted(seen, key=lambda fam: (len(fam), tuple(sorted(fam))))


def oracle_build(points, opens):
    """What a build from checked opens stores: the opens, the sorted basis and
    each point's minimal open neighbourhood, the meet of the opens around it."""
    opens = frozenset(opens)
    nbhd = []
    for i in range(len(points)):
        u = (1 << len(points)) - 1
        for o in opens:
            if o >> i & 1:
                u &= o
        nbhd.append(u)
    return opens, tuple(sorted(opens)), tuple(nbhd)


def value_tuples(n, rng):
    """Every GRID3 tuple, then seeded tuples with ties and negative values."""
    yield from product(GRID3, repeat=n)
    pool = [Fraction(k, 2) for k in range(-3, 4)]
    for _ in range(12):
        yield tuple(rng.choice(pool) for _ in range(n))


class TestSpaceBasics:
    def test_closure_laws_not_satisfied_raises(self):
        with pytest.raises(InputError,
                           match="^a topology must contain the empty set and the whole space$"):
            TopSpace.from_sets(("1", "2"), [[], ["1", "2"], ["1"]][:2][:1])
        with pytest.raises(InputError, match=r"^not closed under union: \{1\}, \{2\}$"):
            TopSpace.from_sets(("1", "2", "3"),
                               [[], ["1"], ["2"], ["1", "2", "3"]])  # no {1,2}
        with pytest.raises(InputError,
                           match=r"^not closed under intersection: \{1,2\}, \{2,3\}$"):
            TopSpace.from_sets(("1", "2", "3"),
                               [[], ["1", "2"], ["2", "3"], ["1", "2", "3"]])  # no {2}

    @pytest.mark.parametrize("opens", [[0, 1.7, 3], [0, 1, 3.0], [0, "3", 1, 3], [0, True, 3]])
    def test_open_masks_must_be_ints(self, opens):
        # a float is never truncated, and a string never parsed, into a mask
        with pytest.raises(InputError, match="is not an int bitmask"):
            TopSpace(("a", "b"), opens)
        assert TopSpace(("a", "b"), [0, 1, 3]).opens == {0, 1, 3}

    @pytest.mark.parametrize("make", [
        lambda: FieldOfSets(("a", "b"), [-1]),
        lambda: FieldOfSets(("a", "b"), [1, -2]),
        lambda: FieldOfSets(("a", "b"), [1 << 5]),
        lambda: TopSpace(("a", "b"), [0, -1, 3]),
    ], ids=["field-minus-one", "field-minus-two", "field-beyond", "topology-minus-one"])
    def test_masks_outside_the_points_rejected_before_their_bits_are_read(self, make):
        # lattice.bits never ends on a negative mask, so the call runs under a timer
        def expire(*_):
            raise TimeoutError("the mask's bits were read")
        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            with pytest.raises(InputError):
                make()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def test_interior_closure_pseudocomplement(self):
        s = sierpinski()
        one = s.mask_of(["1"])
        assert s.closure(one) == s.full
        assert s.interior(s.full) == s.full
        assert s.pseudocomplement(one) == 0
        two = s.mask_of(["2"])
        assert s.interior(two) == 0
        assert s.closure(two) == two

    def test_interior_matches_oracle_on_all_subsets(self):
        # every topology and every field of sets on up to 4 points; the
        # second pass reads the memo
        for n in (1, 2, 3, 4):
            spaces = all_topologies(n) + tuple(all_fields(tuple(str(i) for i in range(n))))
            for s in spaces:
                for _ in range(2):
                    for x in range(s.full + 1):
                        assert s.interior(x) == oracle_interior(s, x)
                        assert s.closure(x) == s.full ^ oracle_interior(s, s.full ^ x)

    def test_minimal_neighbourhoods(self):
        for n in (1, 2, 3):
            for s in all_topologies(n):
                for i, u in enumerate(s._nbhd):
                    assert u in s.opens and u >> i & 1
                    assert all(u & ~o == 0 for o in s.opens if o >> i & 1)

    def test_discrete_detection(self):
        assert TopSpace.discrete(("1", "2")).is_discrete
        assert not sierpinski().is_discrete


class TestRegularOpens:
    def test_discrete_regulars_are_all_sets(self):
        d = TopSpace.discrete(("1", "2"))
        assert len(d.regular_opens()) == 4
        assert d.r_lattice().validate().ok

    def test_sierpinski_regulars_collapse(self):
        s = sierpinski()
        assert set(s.regular_opens()) == {0, s.full}

    def test_three_point_example(self):
        t = TopSpace.from_sets(("1", "2", "3"),
                               [[], ["1"], ["2"], ["1", "2"], ["1", "2", "3"]])
        regs = {t.set_name(m) for m in t.regular_opens()}
        assert regs == {"{}", "{1}", "{2}", "{1,2,3}"}
        lat = t.r_lattice()
        assert lat.validate().ok and lat.is_distributive()[0]

    def test_regular_scan_oracle(self):
        for n in (2, 3):
            for t in all_topologies(n):
                for o in t.opens:
                    want = t.interior(t.closure(o)) == o
                    assert t.is_regular_open(o) == want

    def test_regular_join_is_interior_closure_of_union(self):
        for t in all_topologies(3):
            lat = t.r_lattice()
            for a in range(lat.n):
                for b in range(lat.n):
                    join_mask = lat.payload[lat.join2(a, b)]
                    assert join_mask == t.interior(
                        t.closure(lat.payload[a] | lat.payload[b]))
                    meet_mask = lat.payload[lat.meet2(a, b)]
                    assert meet_mask == lat.payload[a] & lat.payload[b]


class TestContinuity:
    def test_constant_is_continuous(self):
        assert is_continuous(sierpinski(), (3, 3))

    def test_sierpinski_steps_not_continuous(self):
        # any non-constant function has {2} as some interval preimage,
        # and {2} is not open, so only constants are continuous here
        assert not is_continuous(sierpinski(), (0, 1))
        assert not is_continuous(sierpinski(), (1, 0))

    def test_discrete_everything_continuous(self):
        d = TopSpace.discrete(("1", "2", "3"))
        for values in product((0, HALF, 1), repeat=3):
            assert is_continuous(d, values)


class TestClosedFormsAgainstOracles:
    def test_agreement_on_every_small_space(self):
        rng = random.Random(0)
        pairs = 0
        for n in (1, 2, 3, 4):
            for t in all_topologies(n):
                for values in value_tuples(n, rng):
                    assert is_continuous(t, values) == oracle_is_continuous(t, values)
                    got = spectral_family_of_continuous(t, values)
                    want = oracle_spectral_family(t, values)
                    assert type(got) is type(want) is SpectralFamily
                    assert got.thresholds == want.thresholds
                    assert got.values == want.values
                    assert got == want
                    pairs += 1
        assert pairs == 29577 + 12 * 389

    def test_rank_kernels_match_public_api(self):
        cases = 0
        for n in (1, 2, 3, 4):
            for t in all_topologies(n):
                for values in product(GRID3, repeat=n):
                    got = _family_of_levels(t, *level_sets(values))
                    want = spectral_family_of_continuous(t, values)
                    assert type(got) is type(want)
                    assert got.thresholds == want.thresholds
                    assert got.values == want.values
                    assert all(type(x) is Fraction for x in got.thresholds)
                    cases += 1
        assert cases == 29577

    @given(hs.lists(hs.integers(0, 255), max_size=6), hs.lists(hs.integers(0, 2), min_size=8,
                                                                 max_size=8))
    def test_constancy_kernel_matches_the_key_sets(self, blocks, keys):
        assert _first_nonconstant(blocks, keys) == oracle_first_nonconstant(blocks, keys)

    def test_open_fibres_iff_constant_on_nbhds(self):
        # the sweep's continuity test: every fibre of the function is open
        verdicts = {True: 0, False: 0}
        for n in (1, 2, 3, 4):
            grid_fns = _grid3_functions(n)
            for t in all_topologies(n):
                for values, _, fibres in grid_fns:
                    got = t.opens.issuperset(fibres)
                    assert got == (_first_nonconstant(t._nbhd, values) < 0)
                    verdicts[got] += 1
        assert sum(verdicts.values()) == 29577 and verdicts[True] == 2379

    def test_sweep_level_sets_build_the_level_family(self):
        for n in (1, 2, 3, 4):
            grid_fns = _grid3_functions(n)
            for t in all_topologies(n):
                lat = t.lattice()
                for values, levels, _ in grid_fns:
                    want = oracle_spectral_family(t, values)
                    got = _family_of_levels(t, *levels)
                    assert (got.thresholds, got.values) == (want.thresholds, want.values)
                    # the sweep's covering check reads the last level set's interior
                    assert t.interior(levels[1][-1]) == oracle_domain(lat, want)

    def test_last_value_is_the_domain_of_every_enumerated_family(self):
        for t in small_spaces():
            lat = t.lattice()
            for e in enumerate_families(lat, GRID3):
                assert lat.payload[e.values[-1]] == oracle_domain(lat, e)

    def test_closure_density_matches_the_open_scan(self):
        for t in small_spaces():
            for m in range(t.full + 1):
                dense = all(o & m for o in t.opens if o)
                assert (t.closure(m) == t.full) == dense

    def test_unclosed_kernel_matches_the_value_scan(self):
        verdicts = {True: 0, False: 0}
        for t in small_spaces():
            lat = t.lattice()
            for e in enumerate_families(lat, GRID3):
                ok, witness, first = oracle_is_strongly_regular(t, e)
                masks = [lat.payload[v] for v in e.values]
                assert _first_unclosed(t, masks) == first
                assert is_strongly_regular(t, e) == (ok, witness)
                verdicts[ok] += 1
        assert verdicts[True] and verdicts[False]

    def test_classification_matches_the_two_pass_composition(self):
        # the unclosed index is never the last: that value, the whole space, is closed
        verdicts = {"strongly-regular": 0, "regular": 0, "neither": 0}
        for t in small_spaces():
            lat = t.lattice()
            for e in enumerate_families(lat, GRID3):
                masks = [lat.payload[v] for v in e.values]
                assert _first_unclosed(t, masks) < len(masks) - 1
                want = ("strongly-regular" if is_strongly_regular(t, e)[0] else
                        "regular" if all(t.is_regular_open(m) for m in masks) else "neither")
                assert classify_family(t, e) == want
                verdicts[want] += 1
        assert all(verdicts.values()) and sum(verdicts.values()) == 8553, verdicts

    def test_point_values_normalised_to_fraction(self):
        class Sub(Fraction):
            pass

        s = sierpinski()
        for v in (1, "1", Fraction(1), Decimal(1), Sub(1)):
            out = point_values(s.points, (v, v))
            assert [type(x) for x in out] == [Fraction, Fraction]
            assert out == (Fraction(1), Fraction(1))
        assert point_values(s.points, {"1": HALF, "2": 0})[0] is HALF
        with pytest.raises(InputError):
            point_values(s.points, (1,))


class TestInducedFamilies:
    def test_constant_function(self):
        s = sierpinski()
        e = spectral_family_of_continuous(s, (2, 2))
        assert e.thresholds == (Fraction(2),)
        assert is_strongly_regular(s, e)[0]

    def test_discrete_two_point(self):
        d = TopSpace.discrete(("1", "2"))
        e = spectral_family_of_continuous(d, (0, 1))
        lat = d.lattice()
        assert [lat.payload[v] for v in e.values] == [d.mask_of(["1"]), d.full]
        assert is_strongly_regular(d, e)[0]

    def test_sierpinski_witness(self):
        s = sierpinski()
        e = spectral_family_of_continuous(s, (0, 1))
        ok, witness = is_strongly_regular(s, e)
        assert not ok and witness == (0, HALF)
        assert induced_function(s, e) == (0, 1)
        assert not is_continuous(s, induced_function(s, e))

    def test_domain_is_union_of_values(self):
        s = sierpinski()
        e = spectral_family_of_continuous(s, (0, 1))
        assert oracle_domain(s.lattice(), e) == s.full
        for t in all_topologies(3):
            lat = t.lattice()
            for e in enumerate_families(lat, (0, 1)):
                reached = 0
                for p in range(len(t.points)):
                    if any(lat.payload[v] >> p & 1 for v in e.values):
                        reached |= 1 << p
                assert oracle_domain(lat, e) == reached == t.full

    def test_classification(self):
        s = sierpinski()
        e = spectral_family_of_continuous(s, (0, 1))
        assert classify_family(s, e) == "neither"  # {1} is not regular open
        t = TopSpace.from_sets(("1", "2", "3"),
                               [[], ["1"], ["2"], ["1", "2"], ["1", "2", "3"]])
        lat = t.lattice()
        e2 = SpectralFamily(lat, [(0, lat.payload.index(t.mask_of(["1"]))),
                                  (1, lat.top)])
        assert classify_family(t, e2) == "regular"  # {1} regular but not closed
        d = TopSpace.discrete(("1", "2"))
        e3 = spectral_family_of_continuous(d, (0, 1))
        assert classify_family(d, e3) == "strongly-regular"

    def test_strong_regularity_equals_all_values_closed(self):
        for t in all_topologies(3):
            lat = t.lattice()
            for e in enumerate_families(lat, (0, 1)):
                masks = [lat.payload[v] for v in e.values]
                want = all(t.closure(m) == m for m in masks)
                assert is_strongly_regular(t, e)[0] == want

    def test_correspondence_both_ways_small(self):
        for t in all_topologies(3):
            lat = t.lattice()
            for values in product((0, HALF, 1), repeat=3):
                e = spectral_family_of_continuous(t, values)
                assert isinstance(e, SpectralFamily)
                assert oracle_domain(lat, e) == t.full
                if is_continuous(t, values):
                    assert is_strongly_regular(t, e)[0]
                    assert induced_function(t, e) == tuple(Fraction(v) for v in values)
            for e in enumerate_families(lat, (0, 1)):
                if is_strongly_regular(t, e)[0]:
                    ind = induced_function(t, e)
                    assert is_continuous(t, ind)
                    assert spectral_family_of_continuous(t, ind) == e


class TestPtStructure:
    def test_discrete_fibres_are_singletons(self):
        d = TopSpace.discrete(("1", "2", "3"))
        p = pt_structure(d)
        assert p.pt is not None
        assert sorted(p.pt.values()) == [0, 1, 2]
        for mask in p.q_x:
            assert bin(mask).count("1") == 1
        assert covers_spectrum(p)
        assert identification_check(p)

    def test_sierpinski_multivalued(self):
        s = sierpinski()
        p = pt_structure(s)
        assert p.pt is None
        # the unique quasipoint (filter of {1}) lies over both points
        assert p.q_x == (1, 1)
        assert covers_spectrum(p)

    def test_fibres_match_the_closures_of_the_atoms(self):
        # q_x is read as base[U_x]; the oracle takes the closure of every atom
        spaces = [t for n in (1, 2, 3, 4, 5) for t in all_topologies(n)]
        assert len(spaces) == 7331
        assert all(pt_structure(t).q_x == oracle_pt_structure(t) for t in spaces)

    def test_every_finite_space_is_covered(self):
        for n in (1, 2, 3):
            for t in all_topologies(n):
                assert covers_spectrum(pt_structure(t))

    def test_identification_on_discrete_sizes(self):
        for n in (1, 2, 3, 4):
            assert identification_check(pt_structure(TopSpace.discrete(
                tuple(str(i) for i in range(n)))))

    def test_identification_matches_the_scan(self):
        spaces = list(small_spaces())
        assert len(spaces) == 389
        spaces += [TopSpace.discrete(tuple(str(i) for i in range(n))) for n in range(1, 6)]
        verdicts = [identification_check(pt_structure(t)) for t in spaces]
        assert verdicts == [oracle_identification_check(pt_structure(t)) for t in spaces]
        assert verdicts.count(True) == 4 + 5  # the discrete spaces


class TestCptAndFStar:
    def test_membership_trivial_on_discrete(self):
        d = TopSpace.discrete(("1", "2"))
        p = pt_structure(d)
        st = stone_space(d.lattice())
        for values in product((0, 1), repeat=2):
            assert cpt_membership(p, ObservableFunction(st, values))

    def test_non_hausdorff_rejected(self):
        s = sierpinski()
        p = pt_structure(s)
        g = ObservableFunction(stone_space(s.lattice()), [0])
        with pytest.raises(UnsupportedStructureError):
            cpt_membership(p, g)

    def test_f_star_constant(self):
        d = TopSpace.discrete(("1", "2", "3"))
        g = f_star(d, (Fraction(4), Fraction(4), Fraction(4)))
        assert set(g.values) == {Fraction(4)}

    def test_f_star_reads_point_values_on_fibres(self):
        d = TopSpace.discrete(("1", "2", "3", "4"))
        p = pt_structure(d)
        re = [Fraction(k, 2) for k in (0, 1, 2, 3)]
        im = [Fraction(k, 3) for k in (3, 1, 0, 2)]
        g = f_star(d, re, im)
        for k, x in p.pt.items():
            assert g.value(k) == (re[x], im[x])

    def test_f_star_homomorphism_exhaustive_small(self):
        d = TopSpace.discrete(("1", "2"))
        vals = (Fraction(0), Fraction(1))
        for re1 in product(vals, repeat=2):
            for re2 in product(vals, repeat=2):
                g1 = f_star(d, re1, (0, 0))
                g2 = f_star(d, re2, (0, 0))
                s = [a + b for a, b in zip(re1, re2)]
                m = [a * b for a, b in zip(re1, re2)]
                assert f_star(d, s, (0, 0)) == g1 + g2
                assert f_star(d, m, (0, 0)) == g1 * g2

    def test_f_star_is_componentwise_and_the_gelfand_transform(self):
        # every {0, 1} target on discrete(1..4): the real transform reads the
        # point under each quasipoint, and the complex one is the pair of them
        for n in range(1, 5):
            d = TopSpace.discrete(tuple(str(i) for i in range(1, n + 1)))
            p = pt_structure(d)
            real = {}
            for vec in product((Fraction(0), Fraction(1)), repeat=n):
                real[vec] = f_star(d, vec)
                assert all(real[vec].values[k] == vec[x] for k, x in p.pt.items())
            for re, im in product(real, repeat=2):
                assert f_star(d, re, im) == ComplexObservableFunction(real[re], real[im])


def oracle_star_condition_check(space, g):
    """The infimum condition by a scan: for each point, the regular open
    neighbourhoods, then every quasipoint containing all of them."""
    lat = space.r_lattice()
    st = stone_space(lat)
    r = r_function(space, g)
    for p in range(len(space.points)):
        prx = [e for e in range(lat.n) if e != lat.bottom and lat.payload[e] >> p & 1]
        inf_nbhd = min(r[e] for e in prx)
        prx_mask = sum(1 << e for e in prx)
        for k, members in enumerate(st.points):
            if members & prx_mask == prx_mask:
                inf_qp = min(r[e] for e in bits(members) if e != lat.bottom)
                if inf_nbhd != inf_qp:
                    return False, (space.points[p], st.point_name(k))
    return True, None


class TestIncreasingCalculus:
    def test_star_condition_matches_the_scan(self):
        verdicts = {True: 0, False: 0}
        for n in (1, 2, 3, 4):
            for t in all_topologies(n):
                st = stone_space(t.r_lattice())
                for values in product((0, 1, 2), repeat=st.n_points):
                    g = ObservableFunction(st, values)
                    got = star_condition_check(t, g)
                    assert got == oracle_star_condition_check(t, g), (t, values)
                    verdicts[got[0]] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_star_condition_rejects_another_spectrum(self):
        d = TopSpace.discrete(("1", "2"))
        g = ObservableFunction(stone_space(boolean_lattice(3)), [0, 1, 2])
        with pytest.raises(InputError, match="^function lives on a different spectrum$"):
            star_condition_check(d, g)

    def test_r_of_constant(self):
        d = TopSpace.discrete(("1", "2", "3"))
        st = stone_space(d.r_lattice())
        g = ObservableFunction(st, [Fraction(5)] * st.n_points)
        r = r_function(d, g)
        assert set(r.values()) == {Fraction(5)}
        assert completely_increasing_check(d.r_lattice(), r)[0]
        assert star_condition_check(d, g)[0]

    def test_r_is_max_over_base(self):
        d = TopSpace.discrete(("1", "2", "3"))
        lat = d.r_lattice()
        st = stone_space(lat)
        g = ObservableFunction(st, [Fraction(0), Fraction(2), Fraction(1)])
        r = r_function(d, g)
        for e, val in r.items():
            assert val == max(g.values[k] for k in bits(st.base[e]))

    def test_completely_increasing_for_induced_functions(self):
        for t in all_topologies(3):
            lat = t.r_lattice()
            st = stone_space(lat)
            for values in product((0, 1), repeat=st.n_points):
                g = ObservableFunction(st, values)
                ok, witness = completely_increasing_check(lat, r_function(t, g))
                assert ok, (t, values, witness)

    def test_pair_test_matches_the_family_scan(self):
        # r is the max of a random g over each Q_e (completely increasing
        # exactly where the base preserves joins) or a random map into
        # {0, 1, 2}; the witness is the first failing family in bitmask
        # order, which need not be the first failing pair
        rng = random.Random(0)
        lattices = [t.r_lattice() for n in (1, 2, 3) for t in all_topologies(n)]
        lattices += [t.lattice() for t in all_topologies(3)]
        lattices += [boolean_lattice(n) for n in (1, 2, 3)]
        lattices += [mo_lattice(k) for k in (1, 2)] + [chain_lattice(m) for m in range(1, 6)]
        verdicts, sizes = {True: 0, False: 0}, set()
        for lat in lattices:
            st = stone_space(lat)
            nz = [e for e in range(lat.n) if e != lat.bottom]
            for _ in range(10):
                g = [Fraction(rng.randrange(3)) for _ in range(st.n_points)]
                for r in ({e: max(g[k] for k in bits(st.base[e])) for e in nz},
                          {e: rng.randrange(3) for e in nz}):
                    got = completely_increasing_check(lat, r)
                    assert got == oracle_completely_increasing(lat, r), (lat.names, r)
                    verdicts[got[0]] += 1
                    sizes.add(len(got[1] or ()))
        assert verdicts[True] and verdicts[False], verdicts
        assert {0, 2, 3} <= sizes, sizes

    def test_scan_cap(self):
        lat = boolean_lattice(5)  # 31 nonzero elements
        with pytest.raises(InputError,
                           match=r"^completely-increasing scan capped at 20 elements$"):
            completely_increasing_check(lat, {e: 0 for e in range(lat.n)})

    def test_star_condition_matches_membership_on_discrete(self):
        for n in (1, 2, 3):
            d = TopSpace.discrete(tuple(str(i) for i in range(n)))
            p = pt_structure(d)
            st = stone_space(d.r_lattice())
            for values in product((0, HALF, 1), repeat=st.n_points):
                g = ObservableFunction(st, values)
                member = cpt_membership(p, ObservableFunction(p.stone, values))
                assert star_condition_check(d, g)[0] == member


def labelled(points, masks):
    return [[points[i] for i in bits(m)] for m in masks]


class TestGenerated:
    """``TopSpace.generated`` from minimal neighbourhoods against the fixpoint."""

    def test_every_topology_generates_itself(self):
        for n in (1, 2, 3, 4):
            for t in all_topologies(n):
                got = TopSpace.generated(t.points, labelled(t.points, t.opens))
                assert got == oracle_generated(t.points, t.opens) == t

    def test_every_family_of_at_most_two_sets(self):
        for n in (1, 2, 3):
            points = tuple(str(i) for i in range(n))
            for k in (0, 1, 2):
                for masks in combinations(range(1 << n), k):
                    got = TopSpace.generated(points, labelled(points, masks))
                    assert got == oracle_generated(points, masks)

    def test_seeded_random_families(self):
        rng = random.Random(0)
        for _ in range(2000):
            n = rng.randint(1, 6)
            points = tuple(str(i) for i in range(n))
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
            got = TopSpace.generated(points, labelled(points, masks))
            assert got == oracle_generated(points, masks)

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            TopSpace.generated(("1", "2"), [["3"]])

    def test_opens_over_the_cap_rejected_before_they_are_built(self):
        # the discrete space on 6 points has exactly 64 opens, on 40 points 2^40
        six = tuple(str(i) for i in range(6))
        assert len(TopSpace.generated(six, [[p] for p in six]).opens) == MAX_ELEMENTS
        for n in (7, 40):
            points = tuple(str(i) for i in range(n))
            with pytest.raises(InputError, match=rf"more than {MAX_ELEMENTS} open sets \(the cap\)$"):
                TopSpace.generated(points, [[p] for p in points])
        # an explicit list is counted while it is read, before the closure
        # test: the chain topology on 64 points is closed, but has 65 opens
        chain = [(1 << k) - 1 for k in range(65)]
        points = tuple(str(i) for i in range(64))
        with pytest.raises(InputError, match=rf"^more than {MAX_ELEMENTS} open sets \(the cap\)$"):
            TopSpace(points, chain)
        assert len(TopSpace(points[:63], chain[:64]).opens) == MAX_ELEMENTS

    def test_points_over_the_cap_rejected_before_their_neighbourhoods(self):
        points = tuple(range(MAX_POINTS + 1))
        full = (1 << len(points)) - 1
        assert TopSpace(points[:-1], [0, full >> 1])._nbhd[-1] == full >> 1
        why = f"^{MAX_POINTS + 1} points exceed the cap of {MAX_POINTS}$"
        for make in (lambda: TopSpace(points, [0, full]),
                     lambda: TopSpace.from_sets(points, [[], points]),
                     lambda: TopSpace.generated(points, [points]),
                     lambda: TopSpace.discrete(points),
                     lambda: FieldOfSets(points, [full]),
                     lambda: FieldOfSets.from_partition(points, [points]),
                     lambda: FieldOfSets.discrete(points)):
            with pytest.raises(InputError, match=why):
                make()

    def test_discrete_stops_at_the_cap_at_once(self):
        # the singletons' unions stop at the 65th open, never near 2^22 of them
        points = tuple(range(22))
        start = time.perf_counter()
        with pytest.raises(InputError, match=rf"^more than {MAX_ELEMENTS} open sets \(the cap\)$"):
            TopSpace.discrete(points)
        assert time.perf_counter() - start < 0.01


class TestAllTopologies:
    def test_counts(self):
        assert len(all_topologies(1)) == 1
        assert len(all_topologies(2)) == 4
        assert len(all_topologies(3)) == 29
        assert len(all_topologies(4)) == 355

    def test_oracle_brute_force_on_three_points(self):
        # every union/intersection-closed family containing {} and M
        full = 0b111
        subsets = list(range(8))
        count = 0
        for pick in range(1 << 8):
            fam = {s for s in subsets if pick >> s & 1}
            if 0 not in fam or full not in fam:
                continue
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                count += 1
        assert count == 29

    def test_matches_closure_bfs_in_order(self):
        for n in (1, 2, 3, 4):
            spaces = all_topologies(n)
            assert tuple(t.opens for t in spaces) == tuple(oracle_all_topologies(n))
            assert all(t.points == tuple(str(i + 1) for i in range(n)) for t in spaces)

    def test_all_results_valid_and_distinct(self):
        tops = all_topologies(3)
        seen = {t.opens for t in tops}
        assert len(seen) == 29

    def test_five_points(self):
        # OEIS A000798
        spaces = all_topologies(5)
        assert len(spaces) == 6942
        assert len({t.opens for t in spaces}) == 6942

    def test_generated_spaces_equal_checked_construction(self):
        # the generated spaces and fields skip the checks of TopSpace(points,
        # opens); rebuilt through it, and by _of_nbhds from the U_x that the
        # opens alone give, each must come out as the opens alone say, down
        # to the basis order (which fixes lattice ids)
        attrs = ("points", "full", "opens", "_basis", "_nbhd")
        for n in range(1, 6):
            fields = tuple(all_fields(tuple(str(i + 1) for i in range(n)))) if n < 5 else ()
            for t in all_topologies(n) + fields:
                want = oracle_build(t.points, t.opens)
                checked = TopSpace(t.points, t.opens)
                trusted = TopSpace.__new__(TopSpace)._of_nbhds(t.points, want[2])
                for attr in attrs:
                    assert getattr(t, attr) == getattr(checked, attr) == \
                        getattr(trusted, attr), (t.opens, attr)
                assert (t.opens, t._basis, t._nbhd) == want

    def test_size_cap(self):
        with pytest.raises(InputError):
            all_topologies(6)
