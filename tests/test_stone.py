"""Dual ideals, quasipoint enumeration and the spectrum topology.

The oracle enumerates dual ideals by brute force over all element subsets,
independently of the library's closed form (the up-sets of the atoms).
"""

import pytest

from stonespec import (InputError, all_topologies, boolean_lattice, chain_lattice,
                       dual_ideal_intersection_law, enumerate_quasipoints,
                       is_completely_distributive, mo_lattice,
                       principal_dual_ideal, stone_space)
from stonespec.lattice import Lattice, bits
from stonespec.stone import unions


def is_dual_ideal(lat, members):
    """The filter axioms on an element bitmask: nonempty, without the bottom,
    upward closed and closed under meets."""
    if members == 0 or members >> lat.bottom & 1:
        return False
    ids = list(bits(members))
    return (all(lat.up[a] & ~members == 0 for a in ids)
            and all(members >> lat.meet2(a, b) & 1 for a in ids for b in ids))


def oracle_dual_ideals(lat):
    """Every subset satisfying the filter axioms, by exhaustive scan."""
    return [m for m in range(1, 1 << lat.n) if is_dual_ideal(lat, m)]


def oracle_quasipoints(lat):
    ideals = oracle_dual_ideals(lat)
    return sorted((m for m in ideals
                   if not any(other != m and other & m == m for other in ideals)),
                  key=lambda m: tuple(bits(m)))


def oracle_opens(space):
    """Every union of basic sets, by a search from the empty set that adds
    one basic set at a time."""
    acc = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for b in space.base:
            y = x | b
            if y not in acc:
                acc.add(y)
                frontier.append(y)
    return frozenset(acc)


def oracle_closure(space, opens, x):
    """The intersection of the closed sets, the complements of ``opens``,
    that contain x."""
    full = space.all_points
    acc = full
    for o in opens:
        if x & o == 0:
            acc &= full ^ o
    return acc


def spectrum_lattices():
    """790 lattices: Boolean 1-4, MO 1-3, chains 1-5, and both lattices of
    every topology on up to 4 points."""
    lattices = [boolean_lattice(n) for n in (1, 2, 3, 4)]
    lattices += [mo_lattice(k) for k in (1, 2, 3)]
    lattices += [chain_lattice(m) for m in range(1, 6)]
    for n in (1, 2, 3, 4):
        for t in all_topologies(n):
            lattices += [t.lattice(), t.r_lattice()]
    return lattices


class TestPrincipal:
    def test_boolean_upward_closure(self):
        b2 = boolean_lattice(2)
        h = principal_dual_ideal(b2, "x")
        assert h.element_names() == ("x", "1")

    def test_mo2_atom(self):
        mo2 = mo_lattice(2)
        assert principal_dual_ideal(mo2, "a").element_names() == ("a", "1")

    def test_top_gives_singleton(self):
        for lat in (boolean_lattice(2), mo_lattice(2), chain_lattice(4)):
            assert principal_dual_ideal(lat, lat.top).element_names() == \
                (lat.names[lat.top],)

    def test_bottom_rejected(self):
        with pytest.raises(InputError):
            principal_dual_ideal(boolean_lattice(2), "0")

    def test_principal_ideals_satisfy_the_axioms(self):
        for lat in (boolean_lattice(2), mo_lattice(2), chain_lattice(3)):
            for a in range(lat.n):
                if a != lat.bottom:
                    assert is_dual_ideal(lat, principal_dual_ideal(lat, a).members)


class TestEnumeration:
    def test_boolean2_two_quasipoints(self):
        b2 = boolean_lattice(2)
        space = enumerate_quasipoints(b2)
        assert space.n_points == 2
        assert space.points == tuple(oracle_quasipoints(b2))
        names = {space.point_name(k) for k in range(2)}
        assert names == {"Q{x,1}", "Q{y,1}"}

    def test_mo2_four_quasipoints(self):
        mo2 = mo_lattice(2)
        space = enumerate_quasipoints(mo2)
        assert space.n_points == 4
        assert space.points == tuple(oracle_quasipoints(mo2))

    def test_chain3_single_quasipoint(self):
        c3 = chain_lattice(3)
        space = enumerate_quasipoints(c3)
        assert space.n_points == 1
        assert space.point_name(0) == "Q{m1,1}"
        # {1} alone extends to {m1, 1}, hence is not maximal
        assert space.points == tuple(oracle_quasipoints(c3))

    @pytest.mark.parametrize("lat", [boolean_lattice(3), boolean_lattice(4),
                                     mo_lattice(3), chain_lattice(5)],
                             ids=["boolean3", "boolean4", "MO3", "chain5"])
    def test_matches_brute_force(self, lat):
        assert enumerate_quasipoints(lat).points == tuple(oracle_quasipoints(lat))

    def test_pentagon_matches_brute_force(self):
        n5 = Lattice(["0", "a", "c", "b", "1"],
                     [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
        assert enumerate_quasipoints(n5).points == tuple(oracle_quasipoints(n5))

    def test_deterministic(self):
        a = enumerate_quasipoints(mo_lattice(3))
        b = enumerate_quasipoints(mo_lattice(3))
        assert a.points == b.points

    def test_every_point_is_maximal_and_a_filter(self):
        for lat in (boolean_lattice(3), mo_lattice(2)):
            space = enumerate_quasipoints(lat)
            ideals = oracle_dual_ideals(lat)
            for members in space.points:
                assert is_dual_ideal(lat, members)
                assert not any(other != members and other & members == members
                               for other in ideals)

    def test_each_point_is_the_up_set_of_its_stored_atom(self):
        n5 = Lattice(["0", "a", "c", "b", "1"],
                     [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
        for lat in (boolean_lattice(3), mo_lattice(2), chain_lattice(4), n5):
            space = enumerate_quasipoints(lat)
            assert sorted(space.atoms) == sorted(lat.atoms())
            assert space.points == tuple(lat.up[a] for a in space.atoms)

    def test_order_with_a_cycle_has_no_quasipoints(self):
        # a <= b <= a is not a lattice order (validate reports it), so the
        # closed form makes no claim here; it must still terminate.  Neither
        # a nor b is an atom, each having the other below it, so there are
        # no points; a descent from a or b would cycle forever
        lat = Lattice(["0", "a", "b", "1"],
                      [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")])
        assert "antisymmetry" in lat.validate().codes()
        assert enumerate_quasipoints(lat).points == ()

    def test_no_bottom_is_an_input_error(self):
        with pytest.raises(InputError, match="no bottom"):
            enumerate_quasipoints(Lattice(["a", "b"], []))

    def test_boolean_quasipoints_biject_with_atoms(self):
        for n in (2, 3, 4):
            lat = boolean_lattice(n)
            space = enumerate_quasipoints(lat)
            assert {min(bits(m), key=lambda e: len(list(bits(lat.down[e]))))
                    for m in space.points} == set(lat.atoms())
            assert space.n_points == n


class TestTopology:
    def test_base_laws(self):
        for lat in (boolean_lattice(3), mo_lattice(2), chain_lattice(4)):
            space = stone_space(lat)
            assert space.q(lat.bottom) == 0
            assert space.q(lat.top) == space.all_points
            for a in range(lat.n):
                for b in range(lat.n):
                    assert space.q(lat.meet2(a, b)) == space.q(a) & space.q(b)
                    if lat.le(a, b):
                        assert space.q(a) & ~space.q(b) == 0

    def test_boolean2_discrete(self):
        space = stone_space(boolean_lattice(2))
        assert space.opens() == frozenset({0b00, 0b01, 0b10, 0b11})

    def test_mo2_discrete(self):
        space = stone_space(mo_lattice(2))
        assert space.opens() == frozenset(range(16))

    def test_chain3_one_point_space(self):
        space = stone_space(chain_lattice(3))
        assert space.opens() == frozenset({0, 1})

    def test_opens_against_brute_force(self):
        for lat in (boolean_lattice(3), mo_lattice(2), chain_lattice(4)):
            space = stone_space(lat)
            unions = {0}
            for picks in range(1 << lat.n):
                acc = 0
                for a in bits(picks):
                    acc |= space.q(a)
                unions.add(acc)
            assert space.opens() == frozenset(unions)

    @pytest.mark.parametrize("lat", [boolean_lattice(n) for n in range(1, 6)]
                             + [mo_lattice(n) for n in (1, 2, 3)]
                             + [chain_lattice(n) for n in range(2, 6)])
    def test_unions_match_the_bfs(self, lat):
        space = enumerate_quasipoints(lat)
        assert unions(space.base) == space.opens() == oracle_opens(space)

    def test_unions_include_the_empty_union(self):
        assert unions([]) == frozenset({0})
        assert unions([0b01, 0b10, 0b01]) == frozenset({0, 0b01, 0b10, 0b11})

    def test_unions_stop_past_the_cap(self):
        # six singletons give exactly 64 unions; seven would give 128
        assert len(unions([1 << i for i in range(6)])) == 64
        with pytest.raises(InputError, match=r"^more than 64 open sets \(the cap\)$"):
            unions([1 << i for i in range(7)])
        # MO(4) has eight atoms with singleton basic sets: 2^8 opens
        assert len(stone_space(mo_lattice(3)).opens()) == 64
        with pytest.raises(InputError, match="more than 64 open sets"):
            stone_space(mo_lattice(4)).opens()

    def test_closure(self):
        space = stone_space(boolean_lattice(3))
        assert space.closure(space.all_points) == space.all_points
        assert space.closure(0) == 0
        assert space.closure(0b001) == 0b001  # discrete spectrum

    def test_discrete_closed_forms_match_the_basis(self):
        # closure and opens() against the opens generated by the basic sets
        # Q_a, on every lattice of spectrum_lattices()
        lattices = spectrum_lattices()
        assert len(lattices) == 790
        for lat in lattices:
            space = stone_space(lat)
            opens = oracle_opens(space)
            assert space.opens() == opens
            full = space.all_points
            for x in range(full + 1):
                assert space.closure(x) == oracle_closure(space, opens, x)

    def test_closure_smallest_closed_superset(self):
        for lat in (mo_lattice(2), chain_lattice(4)):
            space = stone_space(lat)
            closed = {space.all_points ^ o for o in space.opens()}
            for x in range(space.all_points + 1):
                supersets = [c for c in closed if x & ~c == 0]
                smallest = min(supersets, key=lambda c: (bin(c).count("1"), c))
                assert space.closure(x) == smallest


def oracle_is_completely_distributive(lattice):
    """closure(union of Q_a over S) == Q_(join of S) for every nonempty
    element family S, scanned in subset order, each subset built from the
    one without its lowest element, with the closure read from the opens
    the basic sets generate; returns (bool, the first failing family's
    element names)."""
    space = stone_space(lattice)
    opens = oracle_opens(space)
    closures = {}
    total = 1 << lattice.n
    join_of, union_of = [lattice.bottom] * total, [0] * total
    for s in range(1, total):
        low = s & -s
        e = low.bit_length() - 1
        join_of[s] = lattice.join2(join_of[s ^ low], e)
        union_of[s] = union_of[s ^ low] | space.base[e]
        u = union_of[s]
        if u not in closures:
            closures[u] = oracle_closure(space, opens, u)
        if closures[u] != space.base[join_of[s]]:
            return False, tuple(lattice.names[i] for i in bits(s))
    return True, None


class TestCompleteDistributivity:
    def test_pair_test_matches_the_subset_scan(self):
        lattices = []
        for n in (1, 2, 3, 4):
            for t in all_topologies(n):
                lattices += [t.r_lattice(), t.lattice()]
        lattices += [boolean_lattice(n) for n in (1, 2, 3, 4)]
        lattices += [mo_lattice(k) for k in (1, 2, 3)]
        lattices += [chain_lattice(m) for m in range(1, 8)]
        verdicts = {True: 0, False: 0}
        for lat in lattices:
            got = is_completely_distributive(lat)
            assert got == oracle_is_completely_distributive(lat)
            verdicts[got[0]] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_boolean3_true(self):
        assert is_completely_distributive(boolean_lattice(3)) == (True, None)

    def test_mo2_witness(self):
        ok, witness = is_completely_distributive(mo_lattice(2))
        assert not ok
        assert set(witness) == {"a", "a'"}
        # oracle: the union of the two singleton base sets has 2 points but
        # the base set of the join (the top) has all 4
        space = stone_space(mo_lattice(2))
        u = space.q("a") | space.q("a'")
        assert bin(space.closure(u)).count("1") == 2
        assert bin(space.q("1")).count("1") == 4

    def test_chain4_true(self):
        assert is_completely_distributive(chain_lattice(4)) == (True, None)

    def test_pentagon_passes_the_join_law_but_is_not_distributive(self):
        # N5 has two atoms, a and c, so two quasipoints; a and b lie in the
        # same one, and base[x v y] == base[x] | base[y] on every pair
        n5 = Lattice(["0", "a", "b", "c", "1"],
                     [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
        assert is_completely_distributive(n5) == (True, None)
        assert n5.is_distributive() == (False, ("b", "a", "c"))

    def test_cap(self):
        with pytest.raises(InputError,
                           match=r"^complete-distributivity scan capped at 20 elements$"):
            is_completely_distributive(boolean_lattice(5))  # 32 elements > 20


def oracle_intersection_law(lattice, a):
    """The intersection law by a scan of every quasipoint's members."""
    ia = lattice.eid(a)
    acc, hit = (1 << lattice.n) - 1, False
    for members in stone_space(lattice).points:
        if members >> ia & 1:
            acc &= members
            hit = True
    return hit and acc == lattice.up[ia]


class TestIntersectionLaw:
    def test_matches_the_scan(self):
        verdicts = {True: 0, False: 0}
        for lat in spectrum_lattices():
            for a in range(lat.n):
                if a != lat.bottom:
                    got = dual_ideal_intersection_law(lat, a)
                    assert got == oracle_intersection_law(lat, a), (lat.names, a)
                    verdicts[got] += 1
        assert verdicts[True] and verdicts[False], verdicts

    def test_boolean_all_elements(self):
        for n in (2, 3, 4):
            lat = boolean_lattice(n)
            for a in range(lat.n):
                if a != lat.bottom:
                    assert dual_ideal_intersection_law(lat, a)

    def test_mo2(self):
        mo2 = mo_lattice(2)
        for a in range(mo2.n):
            if a != mo2.bottom:
                assert dual_ideal_intersection_law(mo2, a)

    def test_chain3_fails_at_top(self):
        # the single quasipoint {m1, 1} strictly contains the filter {1},
        # so the law cannot hold at the top of a chain
        c3 = chain_lattice(3)
        assert dual_ideal_intersection_law(c3, "m1")
        assert not dual_ideal_intersection_law(c3, "1")

    def test_bottom_rejected(self):
        with pytest.raises(InputError):
            dual_ideal_intersection_law(boolean_lattice(2), "0")
