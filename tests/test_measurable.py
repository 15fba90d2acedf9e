"""Fields of sets, the function/family bijection, ideals, quotients and the
induced transform.

Oracles here work with frozensets of point labels, independently of the
library's bitmask representation.
"""

from fractions import Fraction
from itertools import product

import pytest

from stonespec import (FieldOfSets, InputError, Lattice, MeasurableFunction, SetIdeal,
                       TopSpace, all_fields, all_topologies, bijection_report, function_of,
                       gamma_transform, ideals_of, is_continuous, lift_spectral_family,
                       observable_function, quotient, riemann_stieltjes,
                       riemann_stieltjes_on_points, spectral_family_of,
                       SpectralFamily, enumerate_families)
from stonespec.checks import GRID3
from stonespec.lattice import bits
from stonespec.measurable import _restrict, atom_grid_values
from test_kernels import level_mask

HALF = Fraction(1, 2)


def pot(*labels):
    return FieldOfSets.discrete(labels)


def oracle_partitions(n):
    """The set partitions of n points as frozensets of block masks, one per
    restricted-growth string."""
    out = []

    def rec(i, code, k):
        if i == n:
            blocks = [0] * k
            for p, c in enumerate(code):
                blocks[c] |= 1 << p
            out.append(frozenset(blocks))
            return
        for c in range(k + 1):
            rec(i + 1, code + [c], max(k, c + 1))
    rec(0, [], 0)
    return out


def label_sets(field, family):
    """The family's jumps as (threshold, frozenset-of-labels) pairs."""
    lat = field.lattice()
    return [(t, frozenset(field.labels_of(lat.payload[v])))
            for t, v in zip(family.thresholds, family.values)]


class TestFieldOfSets:
    def test_partition_and_membership(self):
        f = FieldOfSets.from_partition(("p", "q", "r"), [["p"], ["q", "r"]])
        assert f.contains(f.mask_of(["p"]))
        assert f.contains(f.mask_of(["q", "r"]))
        assert not f.contains(f.mask_of(["q"]))
        assert len(f.members()) == 4

    def test_lattice_is_boolean(self):
        f = FieldOfSets.from_partition(("p", "q", "r"), [["p"], ["q", "r"]])
        lat = f.lattice()
        assert lat.validate().ok
        assert lat.is_distributive()[0]

    @pytest.mark.parametrize("n, bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_all_fields_are_the_restricted_growth_partitions(self, n, bell):
        ground = tuple("pqrstu"[:n])
        fields = all_fields(ground)
        assert len(fields) == len(oracle_partitions(n)) == bell
        assert {frozenset(f.atoms) for f in fields} == set(oracle_partitions(n))
        for f in fields:
            assert f == FieldOfSets(ground, f.atoms) and f.ground == ground
        if n <= 5:  # as the complement-closed topologies come in all_topologies
            assert fields == [FieldOfSets(ground, oracle_field_atoms(t._nbhd))
                              for t in all_topologies(n)
                              if all(t.full ^ u in t.opens for u in t._nbhd)]

    def test_all_fields_stop_where_the_discrete_field_passes_the_lattice_cap(self):
        with pytest.raises(InputError, match="^exhaustive field generation capped at 6 points$"):
            all_fields(tuple("abcdefg"))

    def test_bad_partitions_rejected(self):
        with pytest.raises(InputError):
            FieldOfSets.from_partition(("p", "q"), [["p"]])  # q uncovered
        with pytest.raises(InputError):
            FieldOfSets.from_partition(("p", "q"), [["p", "q"], ["q"]])  # overlap

    @pytest.mark.parametrize("atoms", [[1.0, 2], [1, 2.0], ["1", 2], [True, 2]])
    def test_atom_masks_must_be_ints(self, atoms):
        # a float is never truncated, and a string never parsed, into a mask
        with pytest.raises(InputError, match="is not an int bitmask"):
            FieldOfSets(("p", "q"), atoms)


def oracle_field_atoms(nbhd):
    """The atoms of the field whose U_x are ``nbhd``, in order of lowest point,
    or None if the U_x do not partition the points: each U_x must be the set
    of the points that have it as their U_x."""
    blocks = {}
    for i, u in enumerate(nbhd):
        blocks[u] = blocks.get(u, 0) | 1 << i
    if any(u != block for u, block in blocks.items()):
        return None
    return tuple(blocks)


class TestFieldIsATopology:
    """A field of sets is the topology of its members, so measurable
    functions are the continuous ones; the general topology code is the
    oracle."""

    FIELDS = [f for n in (1, 2, 3, 4) for f in all_fields(tuple(str(i + 1) for i in range(n)))]

    def test_the_same_space_as_the_topology_of_its_members(self):
        for f in self.FIELDS:
            assert isinstance(f, TopSpace) and f.ground == f.points
            space = TopSpace(f.ground, f.members())
            assert f.opens == space.opens and f._nbhd == space._nbhd
            assert all(f.interior(x) == space.interior(x) for x in range(f.full + 1))
            assert all(f.contains(x) == (x in space.opens) for x in range(f.full + 1))

    def test_lattice_is_the_member_lattice_with_complement(self):
        for f in self.FIELDS:
            masks = f.members()
            assert f.lattice() == Lattice.from_sets(masks, map(f.set_name, masks),
                                                    f.full.__xor__)

    def test_measurable_iff_continuous_on_every_grid3_function(self):
        cases = 0
        for f in self.FIELDS:
            space = TopSpace(f.ground, f.members())
            for values in product(GRID3, repeat=len(f.ground)):
                try:
                    MeasurableFunction(f, values)
                    measurable = True
                except InputError:
                    measurable = False
                on_atoms = all(len({values[p] for p in bits(a)}) == 1 for a in f.atoms)
                assert measurable == on_atoms == is_continuous(space, values)
                cases += 1
        assert cases == 3 * 1 + 9 * 2 + 27 * 5 + 81 * 15

    def test_fields_among_all_topologies_match_the_block_scan(self):
        fields = 0
        for n in (1, 2, 3, 4, 5):
            for t in all_topologies(n):
                want = oracle_field_atoms(t._nbhd)
                try:
                    got = FieldOfSets.__new__(FieldOfSets)._of_nbhds(t.points, t._nbhd).atoms
                except InputError as e:
                    assert str(e) == "not closed under complement"
                    got = None
                assert got == want
                fields += got is not None
        assert fields == 1 + 2 + 5 + 15 + 52

    def test_discrete_is_the_power_set_and_generated_needs_complements(self):
        for ground in (("p",), ("p", "q"), tuple("abcdef")):
            f = FieldOfSets.discrete(ground)
            g = FieldOfSets.from_partition(ground, [[p] for p in ground])
            assert f == g and (f.opens, f._basis, f._nbhd) == (g.opens, g._basis, g._nbhd)
        # {}, {p}, {p,q} is a topology, but not closed under complement
        with pytest.raises(InputError, match="^not closed under complement$"):
            FieldOfSets.generated(("p", "q"), [["p"]])
        assert FieldOfSets.generated(("p", "q"), [["p"], ["q"]]) == pot("p", "q")


class TestMeasurableFunction:
    def test_message_names_the_first_nonconstant_atom(self):
        f = FieldOfSets.from_partition(("p", "q", "r", "s"), [["p", "s"], ["q", "r"]])
        with pytest.raises(InputError) as err:
            MeasurableFunction(f, {"p": 1, "q": 0, "r": 2, "s": 3})
        assert str(err.value) == "function is not measurable: not constant on atom {p,s}"
        with pytest.raises(InputError) as err:
            MeasurableFunction(f, {"p": 1, "q": 0, "r": 2, "s": 1})
        assert str(err.value) == "function is not measurable: not constant on atom {q,r}"

    def test_atom_constancy_enforced(self):
        f = FieldOfSets.from_partition(("p", "q"), [["p", "q"]])
        with pytest.raises(InputError):
            MeasurableFunction(f, {"p": 0, "q": 1})
        MeasurableFunction(f, {"p": 1, "q": 1})

    def test_level_sets(self):
        f = pot("p", "q")
        phi = MeasurableFunction(f, {"p": 0, "q": 1})
        assert f.labels_of(level_mask(phi, 0)) == ("p",)
        assert f.labels_of(level_mask(phi, 2)) == ("p", "q")

    def test_an_unknown_point_is_an_input_error(self):
        phi = MeasurableFunction(pot("x", "y"), {"x": 0, "y": 1})
        with pytest.raises(InputError, match="unknown point 'zz'"):
            phi("zz")


class TestLevelSetFamily:
    def test_constant_function(self):
        f = pot("p", "q")
        e = spectral_family_of(MeasurableFunction(f, {"p": 3, "q": 3}))
        assert label_sets(f, e) == [(3, frozenset({"p", "q"}))]

    def test_two_point_example(self):
        f = pot("x", "y")
        e = spectral_family_of(MeasurableFunction(f, {"x": 0, "y": 1}))
        assert label_sets(f, e) == [(0, frozenset({"x"})), (1, frozenset({"x", "y"}))]

    def test_windowed_floor_function(self):
        # floor takes -1, 0, 1 on the points -1/2, 1/2, 3/2
        f = pot("-1/2", "1/2", "3/2")
        phi = MeasurableFunction(f, {"-1/2": -1, "1/2": 0, "3/2": 1})
        e = spectral_family_of(phi)
        assert [t for t, _ in label_sets(f, e)] == [-1, 0, 1]
        assert function_of(f, e)("1/2") == 0

    def test_induced_function_roundtrip(self):
        f = pot("x", "y")
        e = spectral_family_of(MeasurableFunction(f, {"x": 0, "y": 1}))
        phi = function_of(f, e)
        assert phi("x") == 0 and phi("y") == 1

    def test_level_set_identity(self):
        # preimage of (-inf, t] under the induced function recovers each value
        for field in all_fields(("1", "2", "3", "4", "5")):
            for e in enumerate_families(field.lattice(), (0, 1)):
                phi = function_of(field, e)
                lat = field.lattice()
                for t in (Fraction(-1), Fraction(0), HALF, Fraction(1), Fraction(2)):
                    assert level_mask(phi, t) == lat.payload[e.eval(t)]


def oracle_atom_grid_values(field, grid):
    """Each assignment of grid values to the atoms, written onto the points
    atom by atom."""
    for assignment in product(grid, repeat=len(field.atoms)):
        values = [None] * len(field.ground)
        for a, v in zip(field.atoms, assignment):
            for p in bits(a):
                values[p] = v
        yield values


class TestBijection:
    def test_atom_grid_values_match_the_atom_by_atom_scatter(self):
        # every field on <= 5 points, including one whose atoms are not in
        # the order of their lowest points
        fields = [f for n in range(1, 6) for f in all_fields(tuple("12345"[:n]))]
        fields.append(FieldOfSets(("a", "b", "c"), [0b110, 0b001]))
        for f in fields:
            assert list(atom_grid_values(f, GRID3)) == list(oracle_atom_grid_values(f, GRID3))

    def test_trivial_field(self):
        f = FieldOfSets.from_partition(("p", "q"), [["p", "q"]])
        cases, failures = bijection_report(f, (0, HALF, 1))
        assert failures == [] and cases > 0

    def test_power_set_three_points(self):
        cases, failures = bijection_report(pot("1", "2", "3"), (0, HALF, 1))
        assert failures == []

    def test_all_fields_on_four_points(self):
        total = 0
        for f in all_fields(("1", "2", "3", "4")):
            cases, failures = bijection_report(f, (0, HALF, 1))
            assert failures == []
            total += cases
        assert total > 15


class TestIdeals:
    def test_ideal_members_and_perp(self):
        f = pot("1", "2", "3")
        ideal = SetIdeal.from_generators(f, [["1"]])
        assert set(ideal.members()) == {0, f.mask_of(["1"])}
        assert f.mask_of(["2", "3"]) in ideal.perp_members()
        assert f.full in ideal.perp_members()

    def test_ground_set_rejected(self):
        f = pot("1", "2")
        with pytest.raises(InputError):
            SetIdeal.from_generators(f, [["1"], ["2"]])

    @pytest.mark.parametrize("mask", [1.0, True])
    @pytest.mark.parametrize("build", [SetIdeal, lambda f, m: SetIdeal.from_generators(f, [m])],
                             ids=["init", "from_generators"])
    def test_generator_masks_must_be_ints(self, build, mask):
        # 1.0 and True equal the member 1, so a set lookup alone would admit them
        with pytest.raises(InputError, match=f"^ideal generator {mask} is not an int bitmask$"):
            build(pot("1", "2"), mask)

    def test_ideals_enumeration(self):
        assert len(ideals_of(pot("1", "2", "3", "4"))) == 15

    def test_perp_closed_under_intersection(self):
        f = pot("1", "2", "3", "4")
        for ideal in ideals_of(f):
            perp = ideal.perp_members()
            for a in perp:
                for b in perp:
                    assert (a & b) in perp

    def test_downward_closure_oracle(self):
        f = pot("1", "2", "3")
        ideal = SetIdeal.from_generators(f, [["1"], ["2"]])
        members = set(ideal.members())
        for m in f.members():
            for sub in f.members():
                if sub & ~m == 0 and m in members:
                    assert sub in members


def oracle_embedded_point_indices(q):
    """The embedded quasipoints by a lookup of each reduced atom, moved back
    to the original points, among the original atoms."""
    lat = q.field.lattice()
    by_atom = {lat.payload[a]: k for k, a in enumerate(q.field.stone().atoms)}
    keep = [p for p in range(len(q.field.ground)) if q.survivors >> p & 1]
    reduced = q.stone()
    out = []
    for a in reduced.atoms:
        mask = 0
        for i in bits(reduced.lattice.payload[a]):
            mask |= 1 << keep[i]
        out.append(by_atom[mask])
    return tuple(out)


def moved_by_bits(q, mask):
    """``mask`` on the surviving points, each surviving bit p moved to its
    rank among them: the quotient's relabelling, bit by bit."""
    keep = [p for p in range(len(q.field.ground)) if q.survivors >> p & 1]
    return sum(1 << i for i, p in enumerate(keep) if mask >> p & 1)


class TestQuotient:
    @pytest.mark.parametrize("ground", [
        *(tuple(str(i) for i in range(n)) for n in range(1, 5)), ("c", "a", "b")])
    def test_classes_match_the_bit_relabelling(self, ground):
        # every ideal of every field, the non-discrete ones included, on
        # labels in order and on labels that are not sorted
        for f in all_fields(ground):
            for ideal in ideals_of(f):
                q = quotient(f, ideal)
                kept = [a for a in f.atoms if a & q.survivors]
                assert q.reduced == FieldOfSets(f.labels_of(q.survivors),
                                                [moved_by_bits(q, a) for a in kept])
                for m in f.members():
                    assert q.class_of(m) == moved_by_bits(q, m)
                assert q.embedded_point_indices() == oracle_embedded_point_indices(q)

    def test_embedded_indices_match_the_lookup(self):
        count = 0
        for n in range(1, 6):
            for f in all_fields(tuple(str(i) for i in range(n))):
                for ideal in ideals_of(f):
                    q = quotient(f, ideal)
                    assert q.embedded_point_indices() == oracle_embedded_point_indices(q)
                    count += 1
        assert count == 503

    def test_trivial_ideal_is_identity(self):
        f = pot("1", "2", "3")
        q = quotient(f, SetIdeal(f, 0))
        assert q.reduced == f
        assert q.embedded_point_indices() == tuple(range(3))

    def test_atom_deletion(self):
        f = pot("1", "2", "3")
        q = quotient(f, SetIdeal.from_generators(f, [["1"]]))
        assert q.reduced == pot("2", "3")
        assert len(q.embedded_point_indices()) == 2

    def test_classes(self):
        f = pot("1", "2", "3")
        q = quotient(f, SetIdeal.from_generators(f, [["1"]]))
        rep = q.class_of(f.mask_of(["1", "2"]))
        assert q.reduced.labels_of(rep) == ("2",)
        members = {m for m in f.members() if q.class_of(m) == rep}
        assert members == {f.mask_of(["2"]), f.mask_of(["1", "2"])}

    def test_membership_compatible_with_representatives(self):
        f = pot("1", "2", "3")
        lat = f.lattice()
        space = f.stone()
        q = quotient(f, SetIdeal.from_generators(f, [["1"]]))
        for j, k in enumerate(q.embedded_point_indices()):
            for m in f.members():
                in_orig = bool(space.points[k] >> f.element_of(m) & 1)
                rm = q.class_of(m)
                in_quot = bool(q.stone().points[j] >>
                               q.reduced.element_of(rm) & 1)
                assert in_orig == in_quot

    def test_embedded_indices_memoised_and_match_oracle(self):
        def generator_labels(field, members):
            # a quasipoint is the up-set of an atom: its least member
            lat = field.lattice()
            return min((frozenset(field.labels_of(lat.payload[e])) for e in bits(members)),
                       key=len)

        f = pot("1", "2", "3", "4")
        by_atom = {generator_labels(f, m): k for k, m in enumerate(f.stone().points)}
        for ideal in ideals_of(f):
            q = quotient(f, ideal)
            want = tuple(by_atom[generator_labels(q.reduced, m)]
                         for m in q.stone().points)
            first = q.embedded_point_indices()
            assert first == want
            assert q.embedded_point_indices() is first

    def test_perp_is_intersection_of_embedded_quasipoints(self):
        f = pot("1", "2", "3", "4")
        lat = f.lattice()
        space = f.stone()
        for ideal in ideals_of(f):
            q = quotient(f, ideal)
            acc = None
            for k in q.embedded_point_indices():
                members = {lat.payload[e] for e in bits(space.points[k])}
                acc = members if acc is None else acc & members
            assert acc == set(ideal.perp_members())


class TestGamma:
    def test_trivial_ideal_gives_full_observable_function(self):
        f = pot("1", "2")
        phi = MeasurableFunction(f, {"1": 0, "2": 1})
        q = quotient(f, SetIdeal(f, 0))
        assert gamma_transform(phi, q) == \
            observable_function(spectral_family_of(phi))

    def test_representative_independence(self):
        f = pot("1", "2", "3")
        ideal = SetIdeal.from_generators(f, [["1"]])
        phi = MeasurableFunction(f, {"1": 5, "2": 0, "3": 1})
        psi = MeasurableFunction(f, {"1": -2, "2": 0, "3": 1})
        q = quotient(f, ideal)
        assert gamma_transform(phi, q) == gamma_transform(psi, q)

    def test_kernel_law(self):
        f = pot("1", "2", "3")
        ideal = SetIdeal.from_generators(f, [["1"]])
        q = quotient(f, ideal)
        vanishing = MeasurableFunction(f, {"1": 7, "2": 0, "3": 0})
        alive = MeasurableFunction(f, {"1": 0, "2": HALF, "3": 0})
        assert all(v == 0 for v in gamma_transform(vanishing, q).values)
        assert not all(v == 0 for v in gamma_transform(alive, q).values)

    def test_ring_homomorphism(self):
        f = pot("1", "2", "3")
        q = quotient(f, SetIdeal.from_generators(f, [["2"]]))
        grid = (Fraction(0), Fraction(1), Fraction(2))
        for a in product(grid, repeat=3):
            for b in product(grid, repeat=3):
                phi = MeasurableFunction(f, list(a))
                psi = MeasurableFunction(f, list(b))
                s = MeasurableFunction(f, [x + y for x, y in zip(a, b)])
                p = MeasurableFunction(f, [x * y for x, y in zip(a, b)])
                assert gamma_transform(s, q) == \
                    gamma_transform(phi, q) + gamma_transform(psi, q)
                assert gamma_transform(p, q) == \
                    gamma_transform(phi, q) * gamma_transform(psi, q)

    def test_surjective_at_finite_scale(self):
        f = pot("1", "2", "3")
        q = quotient(f, SetIdeal.from_generators(f, [["1"]]))
        space = q.stone()
        for target in product((Fraction(0), HALF, Fraction(1)),
                              repeat=space.n_points):
            values = {"1": 0}
            for j, k in enumerate(q.embedded_point_indices()):
                # the embedded quasipoints sit over the surviving atoms
                label = q.reduced.ground[j]
                values[label] = target[j]
            phi = MeasurableFunction(f, values)
            assert gamma_transform(phi, q).values == tuple(target)

    def test_restriction_is_the_gelfand_transform_on_every_ideal(self):
        # on a field of sets f_E is evaluation at atoms: each quasipoint of
        # the quotient reads phi at the surviving point generating it
        f = pot("1", "2", "3", "4")
        for ideal in ideals_of(f):
            q = quotient(f, ideal)
            reduced = q.stone()
            generators = [q.reduced.labels_of(q.lattice().payload[a]) for a in reduced.atoms]
            for values in product(GRID3, repeat=4):
                phi = MeasurableFunction(f, list(values))
                want = tuple(phi(label) for (label,) in generators)
                assert gamma_transform(phi, q).values == want
                full = observable_function(spectral_family_of(phi))
                assert _restrict(full, q).values == want


class TestLift:
    def test_trivial_ideal_lifts_to_the_induced_function(self):
        f = pot("1", "2")
        q = quotient(f, SetIdeal(f, 0))
        e = spectral_family_of(MeasurableFunction(f, {"1": 0, "2": 1}))
        assert lift_spectral_family(q, e) == function_of(f, e)

    def test_deleted_atom_gets_the_canonical_value(self):
        f = pot("1", "2", "3")
        q = quotient(f, SetIdeal.from_generators(f, [["1"]]))
        lat = q.lattice()
        e = SpectralFamily(lat, [(0, lat.payload.index(q.reduced.mask_of(["2"]))),
                                 (1, lat.top)])
        phi = lift_spectral_family(q, e)
        assert phi("2") == 0 and phi("3") == 1
        assert phi("1") == 1  # the top threshold, by convention

    def test_lift_classes_match(self):
        f = pot("1", "2", "3")
        lat = f.lattice()
        for ideal in ideals_of(f):
            q = quotient(f, ideal)
            for e in enumerate_families(q.lattice(), (0, HALF, 1)):
                phi = lift_spectral_family(q, e)
                back = spectral_family_of(phi)
                for t in (Fraction(-1), Fraction(0), HALF, Fraction(1)):
                    assert q.class_of(lat.payload[back.eval(t)]) == \
                        q.lattice().payload[e.eval(t)]

    def test_gamma_of_lift_is_the_observable_function(self):
        f = pot("1", "2", "3")
        for ideal in ideals_of(f):
            q = quotient(f, ideal)
            for e in enumerate_families(q.lattice(), (0, HALF, 1)):
                assert gamma_transform(lift_spectral_family(q, e), q) == \
                    observable_function(e)


class TestPointIntegration:
    def test_exact_on_threshold_grid(self):
        f = pot("1", "2", "3")
        phi = MeasurableFunction(f, {"1": 0, "2": HALF, "3": 1})
        e = spectral_family_of(phi)
        assert riemann_stieltjes_on_points(f, e, sorted(set(phi.values))) == phi

    def test_epsilon_bound(self):
        f = pot("1", "2", "3", "4")
        phi = MeasurableFunction(f, {"1": Fraction(1, 3), "2": Fraction(2, 3),
                                     "3": Fraction(7, 5), "4": 2})
        e = spectral_family_of(phi)
        eps = Fraction(1, 4)
        grid = [Fraction(k, 4) for k in range(0, 10)]
        s = riemann_stieltjes_on_points(f, e, grid)
        assert max(abs(a - b) for a, b in zip(s.values, phi.values)) <= eps

    def test_float_grid_rejected_by_both_step_sums(self):
        f = pot("1", "2", "3")
        e = spectral_family_of(MeasurableFunction(f, {"1": 0, "2": HALF, "3": 1}))
        grid = [0.0, 0.5, 1.0]
        with pytest.raises(InputError) as on_points:
            riemann_stieltjes_on_points(f, e, grid)
        with pytest.raises(InputError) as on_quasipoints:
            riemann_stieltjes(e, grid)
        assert str(on_points.value) == str(on_quasipoints.value)
