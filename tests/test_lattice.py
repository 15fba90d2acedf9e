"""Lattice construction, operations and validation.

Expected values are computed by independent oracles (plain order scans over
the declared relation) and frozen as literals where small enough.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonespec import dsl
from stonespec import (ComplexSpectralFamily, FieldOfSets, InputError, InvalidFamilyError,
                       Lattice, MeasurableFunction, NoOrthocomplementError, ObservableFunction,
                       SetIdeal, SpectralFamily, TopSpace, boolean_lattice, chain_lattice,
                       enumerate_families, mo_lattice, product_lattice, riemann_stieltjes,
                       riemann_stieltjes_on_points, stone_space)
from stonespec.checks import SuiteResult
from stonespec.lattice import MAX_ELEMENTS, Violation, bits
from test_cli import run_forked


def oracle_meet(lat, ids):
    """Greatest lower bound by scanning all common lower bounds."""
    common = [c for c in range(lat.n) if all(lat.le(c, a) for a in ids)]
    glbs = [m for m in common if all(lat.le(c, m) for c in common)]
    assert len(glbs) == 1
    return glbs[0]


def oracle_join(lat, ids):
    common = [c for c in range(lat.n) if all(lat.le(a, c) for a in ids)]
    lubs = [j for j in common if all(lat.le(j, c) for c in common)]
    assert len(lubs) == 1
    return lubs[0]


def pentagon():
    # 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c
    return Lattice(["0", "a", "c", "b", "1"],
                   [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])


class TestMeetJoin:
    def test_mo2_atoms_meet_to_bottom(self):
        mo2 = mo_lattice(2)
        assert mo2.meet(["a", "b"]) == mo2.eid("0")
        assert mo2.meet(["a", "b"]) == oracle_meet(mo2, [mo2.eid("a"), mo2.eid("b")])

    def test_top_is_meet_identity(self):
        mo2 = mo_lattice(2)
        assert mo2.meet(["a", "1"]) == mo2.eid("a")

    def test_boolean_meet_is_intersection(self):
        b2 = boolean_lattice(2)
        assert b2.meet(["x", "1"]) == b2.eid("x")
        assert b2.names[b2.meet(["x", "y"])] == "0"

    def test_empty_meet_and_join(self):
        b2 = boolean_lattice(2)
        assert b2.meet([]) == b2.top
        assert b2.join([]) == b2.bottom

    def test_meet_join_against_oracle_everywhere(self):
        for lat in (boolean_lattice(3), mo_lattice(3), chain_lattice(4), pentagon()):
            for a in range(lat.n):
                for b in range(lat.n):
                    assert lat.meet2(a, b) == oracle_meet(lat, [a, b])
                    assert lat.join2(a, b) == oracle_join(lat, [a, b])

    def test_unknown_element_is_an_input_error(self):
        with pytest.raises(InputError):
            boolean_lattice(2).meet(["nope"])
        with pytest.raises(InputError):
            boolean_lattice(2).eid(99)

    @pytest.mark.parametrize("e", [1.7, 1.0, True, False, Fraction(1), None, (1,), b"x"])
    def test_element_ids_are_names_or_ints(self, e):
        # a float, bool or other number is never truncated into an id
        b2 = boolean_lattice(2)
        msg = "is neither a name nor an int id"
        for call in (lambda: b2.eid(e), lambda: b2.le(e, "1"), lambda: b2.meet2("x", e)):
            with pytest.raises(InputError, match=msg):
                call()
        assert [b2.eid(i) for i in range(b2.n)] == list(range(b2.n))
        assert b2.eid("x") == b2.index["x"] and b2.le("x", 3)


class TestAlgebraicLaws:
    @pytest.mark.parametrize("lat", [boolean_lattice(3), mo_lattice(2), chain_lattice(4)],
                             ids=["boolean3", "MO2", "chain4"])
    def test_idempotent_commutative_associative_absorption(self, lat):
        rng = range(lat.n)
        for a in rng:
            assert lat.meet2(a, a) == a and lat.join2(a, a) == a
            for b in rng:
                assert lat.meet2(a, b) == lat.meet2(b, a)
                assert lat.join2(a, b) == lat.join2(b, a)
                assert lat.meet2(a, lat.join2(a, b)) == a
                assert lat.join2(a, lat.meet2(a, b)) == a
                for c in rng:
                    assert lat.meet2(a, lat.meet2(b, c)) == lat.meet2(lat.meet2(a, b), c)
                    assert lat.join2(a, lat.join2(b, c)) == lat.join2(lat.join2(a, b), c)

    @pytest.mark.parametrize("lat", [boolean_lattice(3), mo_lattice(2)],
                             ids=["boolean3", "MO2"])
    def test_de_morgan(self, lat):
        for a in range(lat.n):
            for b in range(lat.n):
                assert lat.ortho_of(lat.join2(a, b)) == \
                    lat.meet2(lat.ortho_of(a), lat.ortho_of(b))

    def test_ortho_absent_raises_typed_error(self):
        with pytest.raises(NoOrthocomplementError):
            chain_lattice(3).ortho_of("m1")


class TestValidate:
    def test_boolean_is_valid(self):
        report = boolean_lattice(2).validate()
        assert report.ok

    def test_mo2_valid_and_orthomodular_flag_confirmed(self):
        mo2 = mo_lattice(2)
        report = mo2.validate()
        assert report.ok
        assert "orthomodular" in mo2.flags
        # oracle: a <= b implies b == a v (b ^ a') over all pairs
        for a in range(mo2.n):
            for b in range(mo2.n):
                if mo2.le(a, b):
                    assert mo2.join2(a, mo2.meet2(b, mo2.ortho_of(a))) == b

    def test_pentagon_with_distributive_flag_reports_witness(self):
        n5 = Lattice(["0", "a", "c", "b", "1"],
                     [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
                     flags=("distributive",))
        report = n5.validate()
        assert "distributive" in report.codes()
        (entry,) = [v for v in report.entries if v.code == "distributive"]
        a, b, c = (n5.eid(x) for x in entry.witness)
        assert n5.meet2(a, n5.join2(b, c)) != n5.join2(n5.meet2(a, b), n5.meet2(a, c))

    def test_antisymmetry_violation_reported(self):
        bad = Lattice(["p", "q", "t", "b"],
                      [("p", "q"), ("q", "p"), ("b", "p"), ("b", "q"),
                       ("b", "t"), ("p", "t"), ("q", "t")])
        assert "antisymmetry" in bad.validate().codes()

    def test_missing_bounds_reported(self):
        two = Lattice(["u", "v"], [])
        assert "bounds" in two.validate().codes()

    def test_non_lattice_law_reported(self):
        # two maximal elements below top sharing two lower bounds: no meet
        hexa = Lattice(["0", "p", "q", "r", "s", "1"],
                       [("0", "p"), ("0", "q"), ("p", "r"), ("q", "r"),
                        ("p", "s"), ("q", "s"), ("r", "1"), ("s", "1")])
        report = hexa.validate()
        assert "lattice-law" in report.codes()

    def test_broken_ortho_laws_reported(self):
        lat = Lattice(["0", "x", "y", "1"],
                      [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
                      ortho={"0": "1", "x": "x", "y": "y"})
        codes = lat.validate().codes()
        assert "ortho-complement" in codes


class TestValidateReusesTables:
    @staticmethod
    def count_builds(monkeypatch):
        built = []
        build = Lattice._compute_tables
        monkeypatch.setattr(Lattice, "_compute_tables",
                            lambda self: built.append(self) or build(self))
        return built

    def test_validate_after_meet2_builds_the_tables_once(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        lat = pentagon()
        lat.meet2("a", "b")
        assert lat.validate().ok and lat.validate().ok
        assert built == [lat]

    def test_a_family2_host_is_validated_on_the_tables_it_has(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures",
                            "mo2.lat")
        with open(path, encoding="utf-8") as handle:
            lat = dsl.parse(handle.read()).file.find("MO2").obj
        assert lat.validate().ok
        assert built == [lat]

    def test_reports_are_those_of_fresh_tables(self):
        hexa = Lattice(["0", "p", "q", "r", "s", "1"],
                       [("0", "p"), ("0", "q"), ("p", "r"), ("q", "r"),
                        ("p", "s"), ("q", "s"), ("r", "1"), ("s", "1")])
        lattices = fixture_file_lattices() + [hexa, Lattice(["u", "v"], [])]
        for lat in lattices:
            lat._meet = lat._join = lat._table_failures = None
            fresh = lat.validate()
            try:
                lat.meet2(lat.n - 1, 0)
            except InputError:
                pass
            assert lat.validate() == fresh
        assert "lattice-law" in hexa.validate().codes()


class TestFixtures:
    def test_boolean_sizes_and_flags(self):
        b2 = boolean_lattice(2)
        assert b2.n == 4
        assert b2.is_distributive() == (True, None)
        assert b2.validate().ok

    def test_mo2_shape(self):
        mo2 = mo_lattice(2)
        assert mo2.n == 6
        ok, witness = mo2.is_distributive()
        assert not ok and witness is not None

    def test_mo_n_ge_2_not_distributive_but_orthomodular(self):
        for k in (2, 3):
            mo = mo_lattice(k)
            assert not mo.is_distributive()[0]
            assert mo.is_orthomodular()[0]
            assert mo.validate().ok

    def test_chain3(self):
        c3 = chain_lattice(3)
        assert c3.n == 3 and c3.ortho is None
        assert c3.names == ("0", "m1", "1")
        assert c3.is_distributive()[0]
        assert c3.validate().ok

    def test_zero_size_is_input_error(self):
        for builder in (boolean_lattice, chain_lattice, mo_lattice):
            with pytest.raises(InputError):
                builder(0)

    def test_product_carries_order_and_ortho(self):
        p = product_lattice(boolean_lattice(1), boolean_lattice(1))
        assert p.n == 4 and p.validate().ok
        assert p.is_distributive()[0]
        q = product_lattice(chain_lattice(2), chain_lattice(3))
        assert q.n == 6 and q.ortho is None and q.validate().ok

    def test_element_cap(self):
        with pytest.raises(InputError):
            Lattice([f"e{i}" for i in range(65)], [])
        with pytest.raises(InputError):
            boolean_lattice(7)

    def test_chain_stops_at_the_cap_at_once(self):
        # the cap is checked before any of the n names is built
        start = time.perf_counter()
        with pytest.raises(InputError, match=rf"^1000000 elements exceed the cap of {MAX_ELEMENTS}$"):
            chain_lattice(10**6)
        assert time.perf_counter() - start < 0.01
        assert chain_lattice(MAX_ELEMENTS).n == MAX_ELEMENTS

    def test_atoms(self):
        assert [boolean_lattice(3).names[a] for a in boolean_lattice(3).atoms()] == \
            ["x", "y", "z"]
        assert [mo_lattice(2).names[a] for a in mo_lattice(2).atoms()] == \
            ["a", "a'", "b", "b'"]
        assert [chain_lattice(4).names[a] for a in chain_lattice(4).atoms()] == ["m1"]


def test_bits_iterates_low_to_high():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def oracle_set_lattice(masks, names, complement=None):
    """A lattice of sets the way it was built before ``Lattice.from_sets``:
    every comparable name pair goes to the constructor, which closes the
    order, and the ortho map goes by names."""
    masks = list(masks)
    names = list(names)
    order = [(names[i], names[j])
             for i, a in enumerate(masks) for j, b in enumerate(masks)
             if a & ~b == 0]
    if complement is None:
        lat = Lattice(names, order)
    else:
        ortho = {names[i]: names[masks.index(complement(m))] for i, m in enumerate(masks)}
        lat = Lattice(names, order, ortho=ortho, flags=("distributive", "orthomodular"))
    lat.payload = tuple(masks)
    return lat


def assert_same_set_lattice(got, want):
    assert got == want
    assert (got.down, got.bottom, got.top) == (want.down, want.bottom, want.top)
    assert got.set_ids == {m: i for i, m in enumerate(want.payload)}


class TestFromSets:
    def test_boolean_lattices_match_the_name_pair_builder(self):
        for n in range(1, 7):
            lat = boolean_lattice(n)
            full = (1 << n) - 1
            assert lat.payload == tuple(range(1 << n))
            assert_same_set_lattice(lat, oracle_set_lattice(
                lat.payload, lat.names, full.__xor__))
            assert lat.validate().ok

    def test_fields_match_the_name_pair_builder(self):
        from stonespec import all_fields
        count = 0
        for n in range(1, 5):
            for f in all_fields(tuple(str(i) for i in range(1, n + 1))):
                masks = f.members()
                want = oracle_set_lattice(masks, [f.set_name(m) for m in masks],
                                          f.full.__xor__)
                assert_same_set_lattice(f.lattice(), want)
                count += 1
        assert count == 1 + 2 + 5 + 15

    def test_topologies_match_the_name_pair_builder(self):
        from stonespec import all_topologies
        count = 0
        for n in range(1, 5):
            for t in all_topologies(n):
                opens = sorted(t.opens)
                assert_same_set_lattice(t.lattice(), oracle_set_lattice(
                    opens, [t.set_name(m) for m in opens]))
                regular = t.regular_opens()
                assert_same_set_lattice(t.r_lattice(), oracle_set_lattice(
                    regular, [t.set_name(m) for m in regular], t.pseudocomplement))
                count += 1
        assert count == 1 + 4 + 29 + 355

    def test_without_complement_no_ortho_and_no_flags(self):
        lat = Lattice.from_sets([0b0, 0b1, 0b11], ["e", "a", "ab"])
        assert lat.ortho is None and lat.flags == frozenset()
        assert lat.set_ids == {0: 0, 1: 1, 3: 2}
        assert lat.up == (0b111, 0b110, 0b100)
        assert lat.validate().ok

    def test_rejects_partial_complement_and_duplicates(self):
        with pytest.raises(InputError, match="ortho map is not total"):
            Lattice.from_sets([0b0, 0b1, 0b11], ["e", "a", "ab"], (0b11).__xor__)
        with pytest.raises(InputError, match="duplicate sets"):
            Lattice.from_sets([0b0, 0b1, 0b1], ["e", "a", "b"])
        with pytest.raises(InputError, match="duplicate element names"):
            Lattice.from_sets([0b0, 0b1], ["e", "e"])

    @pytest.mark.parametrize("masks", [[0, "1"], [0, 1.0], [0, None], [0, [1]], [0, -1], [-2]])
    def test_rejects_a_mask_that_is_not_a_non_negative_int(self, masks):
        names = [f"e{i}" for i in range(len(masks))]
        with pytest.raises(InputError, match="^sets must be non-negative int masks$"):
            Lattice.from_sets(masks, names)

    @pytest.mark.parametrize("masks, names", [([0, 1], ["e"]), ([0], ["e", "a"])])
    def test_rejects_names_unlike_the_sets_in_number(self, masks, names):
        with pytest.raises(InputError, match=f"^{len(masks)} sets for {len(names)} element names$"):
            Lattice.from_sets(masks, names)

    def test_other_lattices_carry_no_set_ids(self):
        assert chain_lattice(3).set_ids is None and mo_lattice(2).set_ids is None


B1 = boolean_lattice(1)


P1 = FieldOfSets(["p"], [1])
B2 = boolean_lattice(2)

# each constructor and the arguments of one call it accepts
CONSTRUCTORS = {
    "Lattice": (lambda names, order, ortho, flags: Lattice(names, order, ortho=ortho,
                                                           flags=flags),
                (["0", "1"], [("0", "1")], ["1", "0"], ["distributive"])),
    "Lattice.from_sets": (lambda masks, names: Lattice.from_sets(masks, names, (1).__xor__),
                          ([0, 1], ["0", "1"])),
    "TopSpace": (TopSpace, (["p", "q"], [0, 1, 3])),
    "FieldOfSets": (FieldOfSets, (["p", "q"], [1, 2])),
    "SpectralFamily": (SpectralFamily, (B2, [(0, "x"), (1, "1")])),
    "ComplexSpectralFamily": (ComplexSpectralFamily,
                              (B2, [0, 1], [0, 1], [["0", "x"], ["y", "1"]])),
}
# the opens of a space and the atoms of a field are read as they stream in
STREAMED = {("TopSpace", 1), ("FieldOfSets", 1)}


def refusal_code(name, *args, out, err):
    """0 if the constructor ``name`` returns on ``args`` and 2 if it refuses
    them: an ``InputError``, or the ``InvalidFamilyError`` of a family that
    breaks a family law.  Any other exception reaches ``run_forked``."""
    try:
        CONSTRUCTORS[name][0](*args)
    except (InputError, InvalidFamilyError):
        return 2
    return 0


# what a hostile caller might pass: huge ints, masks that are not ints,
# non-iterables, None, foreign lattices, and iterables of them
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(1 << 64, 1 << 4096),
    st.floats(allow_nan=True), st.decimals(allow_nan=True), st.fractions(),
    st.text(max_size=3), st.sampled_from(["0", "1", "x", "p", "1/2", "1e99999999"]),
    st.sampled_from([B2, chain_lattice(3), mo_lattice(1), Lattice(["a", "b"], [])]))
HOSTILE = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner), st.iterables(inner, max_size=4),
    st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
# long iterables: more items than any cap, each of them valid or not
LONG = st.sampled_from([range(1 << 16), ["0"] * (1 << 14), [("0", "1")] * (1 << 14),
                        [(0, "1")] * (1 << 12), [[0, 1]] * (1 << 14)])


@st.composite
def hostile_calls(draw):
    """A constructor's name and the arguments of its valid call with some of
    them, or one item of them, swapped for what a hostile caller passes."""
    name = draw(st.sampled_from(sorted(CONSTRUCTORS)))
    args = list(CONSTRUCTORS[name][1])
    for i in draw(st.sets(st.integers(0, len(args) - 1), min_size=1)):
        bad = HOSTILE | LONG
        if (name, i) in STREAMED:
            bad |= st.builds(itertools.count, st.integers(-1, 2))  # endless
        if isinstance(args[i], list) and draw(st.booleans()):
            args[i] = list(args[i])
            args[i][draw(st.integers(0, len(args[i]) - 1))] = draw(bad)
        else:
            args[i] = draw(bad)
    return (name, *args)


class TestLibraryBoundary:
    """A fault in the arguments of a public constructor is an ``InputError``
    that names it, not whatever the first operation on it raises."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: Lattice(["0", "1"], [("0", "1", "x")]),
                     "order item ('0', '1', 'x') is not a pair", id="order-triple"),
        pytest.param(lambda: Lattice(["0", "1"], [5]), "order item 5 is not a pair",
                     id="order-non-iterable"),
        pytest.param(lambda: Lattice([1, 0], [(1, 0)]), "element name 1 is not a str",
                     id="int-names"),
        pytest.param(lambda: Lattice([["a"]], []), "element name ['a'] is not a str",
                     id="unhashable-names"),
        pytest.param(lambda: Lattice.from_sets([0, 1], [0, 1]), "element name 0 is not a str",
                     id="from-sets-int-names"),
        pytest.param(lambda: SpectralFamily(B1, [5]),
                     "jump 5 is not a (threshold, value) pair", id="jump-non-iterable"),
        pytest.param(lambda: SpectralFamily(B1, [(0, "1", "x")]),
                     "jump (0, '1', 'x') is not a (threshold, value) pair", id="jump-triple"),
        pytest.param(lambda: SpectralFamily(None, [(0, "1")]),
                     "a family needs a Lattice host, got NoneType", id="host-none"),
        pytest.param(lambda: ComplexSpectralFamily(B1, [0], [0], [5]),
                     "value matrix must be rows of values", id="row-non-iterable"),
        pytest.param(lambda: TopSpace.from_sets(5, []),
                     "point labels must be an iterable of hashable values", id="labels-int"),
        pytest.param(lambda: FieldOfSets([["p"], ["q"]], [1, 2]),
                     "point labels must be an iterable of hashable values",
                     id="labels-unhashable"),
    ])
    def test_each_fault_is_an_input_error(self, make, message):
        with pytest.raises(InputError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: Lattice(["0", "1"], [("0", "x")]), "unknown element 'x'"),
        (lambda: Lattice(["a", "a"], []), "duplicate element names"),
        (lambda: SpectralFamily(B1, [("x", "1")]), "exact rationals required, got str 'x'"),
        (lambda: SpectralFamily(B1, []), "a bounded family needs at least one jump"),
        (lambda: ComplexSpectralFamily(B1, [0], [0], [["z"]]), "unknown element 'z'"),
        (lambda: TopSpace.from_sets(["p", "p"], []), "duplicate point labels"),
    ])
    def test_neighbouring_faults_keep_their_messages(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: Lattice(5, []), "element names must be iterable, got int",
                     id="names"),
        pytest.param(lambda: Lattice(["0"], 5), "order must be iterable, got int", id="order"),
        pytest.param(lambda: Lattice(["0"], [], ortho=5), "ortho must be iterable, got int",
                     id="ortho"),
        pytest.param(lambda: Lattice(["0", "1"], [("0", "1")], ortho=["1", "0", "0"]),
                     "ortho map has more than 2 entries", id="ortho-too-long"),
        pytest.param(lambda: Lattice(["0"], [], flags=5),
                     "lattice flags must be an iterable of strs", id="flags"),
        pytest.param(lambda: Lattice(["0"], [], flags=[["x"]]),
                     "lattice flags must be an iterable of strs", id="flags-unhashable"),
        pytest.param(lambda: Lattice(["0"], [], flags=["x", 1]),
                     "lattice flags must be an iterable of strs", id="flags-unordered"),
        pytest.param(lambda: Lattice.from_sets(5, ["0"]), "sets must be iterable, got int",
                     id="from-sets-masks"),
        pytest.param(lambda: Lattice.from_sets([0], 5),
                     "element names must be iterable, got int", id="from-sets-names"),
        pytest.param(lambda: SpectralFamily(B1, 5), "jumps must be iterable, got int",
                     id="jumps"),
        pytest.param(lambda: riemann_stieltjes(SpectralFamily(B1, [(0, "1")]), 5),
                     "grid must be iterable, got int", id="riemann-stieltjes-grid"),
        pytest.param(lambda: riemann_stieltjes_on_points(
                         P1, SpectralFamily(P1.lattice(), [(0, "{p}")]), 5),
                     "grid must be iterable, got int", id="riemann-stieltjes-on-points-grid"),
        pytest.param(lambda: enumerate_families(B1, 5), "grid must be iterable, got int",
                     id="enumerate-families-grid"),
        pytest.param(lambda: TopSpace(["p"], 5), "opens must be iterable, got int",
                     id="opens"),
        pytest.param(lambda: TopSpace.from_sets(["p"], 5), "sets must be iterable, got int",
                     id="from-sets-sets"),
        pytest.param(lambda: TopSpace.generated(["p"], 5), "sets must be iterable, got int",
                     id="generated-sets"),
        pytest.param(lambda: TopSpace.from_sets(["p"], [5]),
                     "a set of points must be iterable, got int", id="from-sets-a-set"),
        pytest.param(lambda: TopSpace.from_sets(["p"], [[["p"]]]), "unknown point ['p']",
                     id="from-sets-unhashable-label"),
        pytest.param(lambda: FieldOfSets(["p"], 5), "atoms must be iterable, got int",
                     id="atoms"),
        pytest.param(lambda: ComplexSpectralFamily(B1, 5, [0], [["1"]]),
                     "xs must be iterable, got int", id="xs"),
        pytest.param(lambda: ComplexSpectralFamily(B1, [0], 5, [["1"]]),
                     "ys must be iterable, got int", id="ys"),
        pytest.param(lambda: ComplexSpectralFamily(None, [0], [0], [["1"]]),
                     "a two-parameter family needs a Lattice host, got NoneType",
                     id="two-parameter-host"),
        pytest.param(lambda: ObservableFunction(stone_space(B1), 5),
                     "values must be iterable, got int", id="observable-values"),
        pytest.param(lambda: MeasurableFunction(P1, 5), "values must be iterable, got int",
                     id="measurable-values"),
        pytest.param(lambda: ObservableFunction(None, [0]),
                     "an observable function needs a StoneSpace, got NoneType",
                     id="observable-space"),
        pytest.param(lambda: MeasurableFunction(None, [0]),
                     "a measurable function needs a FieldOfSets, got NoneType",
                     id="measurable-field"),
        pytest.param(lambda: SetIdeal(None, 0), "an ideal needs a FieldOfSets, got NoneType",
                     id="ideal-field"),
        pytest.param(lambda: SetIdeal.from_generators(None, [["p"]]),
                     "an ideal needs a FieldOfSets, got NoneType", id="generators-field"),
        pytest.param(lambda: SetIdeal.from_generators(TopSpace.discrete(["p"]), [["p"]]),
                     "an ideal needs a FieldOfSets, got TopSpace", id="generators-space"),
    ])
    def test_each_unreadable_argument_is_an_input_error(self, make, message):
        # each row raised TypeError, AttributeError or IndexError before
        with pytest.raises(InputError) as err:
            make()
        assert str(err.value) == message

    @settings(max_examples=60, deadline=None)
    @given(hostile_calls())
    def test_hostile_arguments_return_or_refuse_within_the_caps(self, call):
        # each call runs in a forked child capped at 1 s of CPU and 256 MB
        # more address space; a raise other than a refusal is a traceback
        code, output = run_forked(partial(refusal_code, *call), 1, 256 << 20)
        assert code in (0, 2), (call[0], output)


def oracle_is_distributive(lat):
    """The O(n^3) triple scan on its own, the witness being the first
    failing triple."""
    meet, join = lat._tables()
    for a in range(lat.n):
        for b in range(lat.n):
            for c in range(lat.n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return False, (lat.names[a], lat.names[b], lat.names[c])
    return True, None


def fixture_file_lattices():
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
    out = []
    for name in sorted(os.listdir(here)):
        if name.endswith(".lat"):
            with open(os.path.join(here, name), encoding="utf-8") as handle:
                blocks = dsl.parse(handle.read()).file.blocks
            out += [b.lattice() for b in blocks if b.kind in ("lattice", "field", "topology")]
    return out


def seeded_sublattices(count, seed=0):
    """Intersection-closed families of subsets holding the empty and the full
    set: lattices of sets, many of them not distributive."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, 5)
        masks = {0, (1 << k) - 1} | {rng.randrange(1 << k) for _ in range(rng.randint(0, 8))}
        grown = True
        while grown:
            meets = {a & b for a in masks for b in masks}
            grown = not meets <= masks
            masks |= meets
        masks = sorted(masks)
        out.append(Lattice.from_sets(masks, map(str, masks)))
    return out


def oracle_closure(n, pairs):
    """Reflexive transitive closure of id pairs by the fixpoint: widen each
    up-set by the up-sets of its members until nothing changes."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return tuple(up)


class TestOrderClosure:
    def test_matches_the_fixpoint_on_random_orders_with_cycles(self):
        rng = random.Random(13)
        cyclic = 0
        for _ in range(2000):
            n = rng.randint(1, 12)
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            want = oracle_closure(n, pairs)
            names = [str(i) for i in range(n)]
            assert Lattice(names, [(names[a], names[b]) for a, b in pairs]).up == want
            cyclic += any(want[i] >> j & 1 and want[j] >> i & 1
                          for i in range(n) for j in range(i))
        assert cyclic > 100

    def test_long_chain_given_by_its_covers(self):
        lat = chain_lattice(64)
        assert lat.up == oracle_closure(64, [(i, i + 1) for i in range(63)])
        assert lat.up[lat.bottom] == (1 << 64) - 1


class TestDistributive:
    def lattices(self):
        return ([boolean_lattice(n) for n in range(1, 7)]
                + [mo_lattice(n) for n in range(1, 5)]
                + [chain_lattice(n) for n in range(1, 8)]
                + [pentagon(), product_lattice(chain_lattice(3), mo_lattice(2)),
                   product_lattice(chain_lattice(3), chain_lattice(4))]
                + fixture_file_lattices() + seeded_sublattices(300))

    def test_join_prime_test_matches_the_triple_scan(self):
        verdicts = set()
        for lat in self.lattices():
            want = oracle_is_distributive(lat)
            assert lat._join_irreducibles_are_prime(lat._tables()[1]) == want[0]
            assert lat.is_distributive() == want
            verdicts.add(want[0])
        assert verdicts == {True, False}

    def test_an_order_that_is_not_antisymmetric_takes_the_scan(self):
        # p and q are mutually comparable; the tables still exist
        bad = Lattice(["b", "p", "q", "t"],
                      [("b", "p"), ("p", "q"), ("q", "p"), ("p", "t")])
        assert not bad._join_irreducibles_are_prime(bad._tables()[1])
        assert bad.is_distributive() == oracle_is_distributive(bad)


class TestRecord:
    """The plain records behave as the dataclasses they replace did."""

    def test_positional_fields_defaults_and_repr(self):
        v = Violation("bounds", "no top")
        assert (v.code, v.message, v.witness) == ("bounds", "no top", ())
        assert repr(v) == "Violation(code='bounds', message='no top', witness=())"
        with pytest.raises(TypeError):
            Violation("bounds")
        with pytest.raises(TypeError):
            Violation("bounds", "no top", (), "extra")

    def test_frozen_records_are_immutable_and_hash_their_fields(self):
        v = Violation("bounds", "no top", (1,))
        with pytest.raises(AttributeError):
            v.code = "other"
        with pytest.raises(AttributeError):
            del v.code
        assert v == Violation("bounds", "no top", (1,)) and v != Violation("bounds", "no top")
        assert hash(v) == hash(("bounds", "no top", (1,)))

    def test_mutable_records_get_their_own_list_defaults(self):
        a, b = SuiteResult("a"), SuiteResult("a")
        a.failures.append("x")
        a.cases += 1
        assert b.failures == [] and b.notes == [] and b.cases == 0
        assert a != b and (a.failures, a.cases) == (["x"], 1)
        with pytest.raises(TypeError):
            hash(b)
