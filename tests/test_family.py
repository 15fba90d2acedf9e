"""Spectral families, observable functions, the transferred algebra,
two-parameter families and step-sum integration."""

import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonespec import (ComplexSpectralFamily, FieldOfSets, InputError, InvalidFamilyError,
                       Lattice, ObservableFunction, SpectralFamily, TopSpace,
                       UnsupportedStructureError, bijection_report, boolean_lattice,
                       chain_lattice, decompose, enumerate_families,
                       from_observable_function, mo_lattice,
                       observable_function, observable_function_complex,
                       product_family, riemann_stieltjes,
                       spectrum_of, stone_space)
from stonespec import family as fam
from stonespec.lattice import bits
from test_kernels import oracle_observable_function_complex

HALF = Fraction(1, 2)


def oracle_family_init(lattice, jumps):
    """``SpectralFamily.__init__`` as it was before the thresholds and values
    were kept in separate lists; returns (thresholds, values)."""
    jumps = [(fam._as_fraction(t), lattice.eid(v)) for t, v in jumps]
    if not jumps:
        raise InvalidFamilyError("a bounded family needs at least one jump")
    for (t1, _), (t2, _) in zip(jumps, jumps[1:]):
        if not t1 < t2:
            raise InvalidFamilyError(f"thresholds not strictly increasing at {t2}")
    up = lattice.up
    for (_, v1), (_, v2) in zip(jumps, jumps[1:]):
        if not up[v1] >> v2 & 1:
            raise InvalidFamilyError(
                f"values not monotone: {lattice.names[v1]} then {lattice.names[v2]}")
    if jumps[-1][1] != lattice.top:
        raise InvalidFamilyError("family is not bounded above (last value must be top)")
    canonical = []
    for t, v in jumps:
        if v == lattice.bottom and lattice.top != lattice.bottom:
            continue
        if canonical and canonical[-1][1] == v:
            continue
        canonical.append((t, v))
    return tuple(t for t, _ in canonical), tuple(v for _, v in canonical)


def jump_lists(lat, rng):
    """Valid families spelled in every accepted form, then broken variants."""
    yield []
    yield [(0, lat.bottom)]
    yield [(0, lat.bottom), (1, lat.names[lat.bottom])]
    yield [(0, lat.top), (0, lat.top)]
    spell_t = (lambda t: t, lambda t: str(t), lambda t: int(t) if t.denominator == 1 else t,
               lambda t: float(t), lambda t: Decimal(t.numerator) / t.denominator)
    spell_v = (lambda v: v, lambda v: lat.names[v], lambda v: bool(v) if v < 2 else v)
    bad_t = ("x", "1/0", 0.25, None)
    bad_v = (-1, lat.n, lat.n + 3, "nope", 1.0, Fraction(1))
    grid = [Fraction(k, 2) for k in range(-1, 4)]
    for e in enumerate_families(lat, grid):
        for _ in range(3):
            jumps = [[t, v] for t, v in zip(e.thresholds, e.values)]
            if rng.random() < 0.3:
                jumps.insert(0, [e.thresholds[0] - 1, lat.bottom])
            jumps = [[rng.choice(spell_t)(t), rng.choice(spell_v)(v)] for t, v in jumps]
            kind = rng.randrange(8)
            i = rng.randrange(len(jumps))
            if kind == 0 and len(jumps) > 1:
                jumps.reverse()  # unsorted thresholds
            elif kind == 1:
                jumps.insert(i, [jumps[i][0], jumps[i][1]])  # equal thresholds
            elif kind == 2:
                jumps.pop()  # missing top
            elif kind == 3:
                jumps[i][1] = rng.randrange(lat.n)  # possibly non-monotone
            elif kind == 4:
                jumps[i][0] = rng.choice(bad_t)
            elif kind == 5:
                jumps[i][1] = rng.choice(bad_v)
            yield [tuple(j) for j in jumps]


class TestConstructorAgainstOracle:
    def test_same_family_or_same_error(self):
        rng = random.Random(0)
        outcomes = set()
        for lat in (boolean_lattice(2), mo_lattice(2), chain_lattice(3)):
            for jumps in jump_lists(lat, rng):
                try:
                    want = oracle_family_init(lat, jumps)
                except Exception as exc:  # the oracle's exact failure
                    want = (type(exc), str(exc))
                try:
                    e = SpectralFamily(lat, jumps)
                    got = (e.thresholds, e.values)
                    assert all(type(t) is Fraction for t in e.thresholds)
                    assert all(type(v) is int for v in e.values)
                except Exception as exc:
                    got = (type(exc), str(exc))
                assert got == want, jumps
                outcomes.add(want[0] if isinstance(want[0], type) else "ok")
        # "x", "1/0" and None are input errors too, not bare ValueError,
        # ZeroDivisionError and TypeError from Fraction
        assert outcomes == {"ok", InputError, InvalidFamilyError}


def oracle_canonical(lattice, thresholds, values):
    """The canonical form as a filter: drop bottom jumps (unless top is
    bottom) and values equal to the last one kept."""
    top, bottom = lattice.top, lattice.bottom
    ts, vs = [], []
    for t, v in zip(thresholds, values):
        if (v != bottom or top == bottom) and (not vs or vs[-1] != v):
            ts.append(t)
            vs.append(v)
    return tuple(ts), tuple(vs)


def test_canonical_form_matches_the_filter():
    rng = random.Random(0)
    kept = set()
    for lat in (chain_lattice(1), chain_lattice(2), chain_lattice(4),
                boolean_lattice(2), boolean_lattice(3), mo_lattice(2)):
        for _ in range(400):
            # a monotone walk with repeats, from any element, of any length
            values = []
            v = rng.randrange(lat.n)
            for _ in range(rng.randrange(7)):
                values.append(v)
                v = rng.choice(list(bits(lat.up[v])))
            thresholds = [Fraction(k, 2) for k in range(len(values))]
            e = SpectralFamily._canonical(lat, thresholds, values)
            want = oracle_canonical(lat, thresholds, values)
            assert (e.thresholds, e.values) == want
            kept.add(len(want[1]) - len(values))
    assert len(kept) > 3


class TestEval:
    def test_step_semantics(self):
        mo2 = mo_lattice(2)
        e = SpectralFamily(mo2, [(0, "a"), (1, "1")])
        assert e.eval(HALF) == mo2.eid("a")
        assert e.eval(0) == mo2.eid("a")
        assert e.eval(-7) == mo2.bottom
        assert e.eval(1) == mo2.eid("1")
        assert e.eval(100) == mo2.eid("1")

    def test_windowed_floor_family(self):
        # jumps drawn from t -> (-inf, floor(t)) over the points -1/2, 1/2, 3/2:
        # empty below 0, then {-1/2}, then {-1/2, 1/2}, then everything
        b3 = boolean_lattice(3)  # atoms x ~ -1/2, y ~ 1/2, z ~ 3/2
        e = SpectralFamily(b3, [(0, "x"), (1, "xy"), (2, "1")])
        assert b3.names[e.eval(Fraction(12, 10))] == "xy"
        assert e.eval(Fraction(-1, 2)) == b3.bottom
        assert b3.names[e.eval(2)] == "1"

    def test_canonical_form_drops_vacuous_jumps(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(-1, "0"), (0, "x"), (HALF, "x"), (1, "1")])
        assert e.thresholds == (Fraction(0), Fraction(1))
        assert [b2.names[v] for v in e.values] == ["x", "1"]

    def test_invalid_families_rejected(self):
        b2 = boolean_lattice(2)
        with pytest.raises(InvalidFamilyError):
            SpectralFamily(b2, [(1, "x"), (0, "1")])  # thresholds not increasing
        with pytest.raises(InvalidFamilyError):
            SpectralFamily(b2, [(0, "x"), (1, "y")])  # values not monotone
        with pytest.raises(InvalidFamilyError):
            SpectralFamily(b2, [(0, "x")])  # not bounded above
        with pytest.raises(InvalidFamilyError):
            SpectralFamily(b2, [])

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            SpectralFamily(boolean_lattice(2), [(0.5, "1")])

    def test_thresholds_normalised_to_fraction(self):
        class Sub(Fraction):
            pass

        b2 = boolean_lattice(2)
        for t in (1, "1", Fraction(1), Decimal(1), Sub(1)):
            e = SpectralFamily(b2, [(t, "x"), (Fraction(3, 2), "1")])
            assert [type(s) for s in e.thresholds] == [Fraction, Fraction]
            assert e.thresholds == (Fraction(1), Fraction(3, 2))
        assert SpectralFamily(b2, [(1, "1")]) == SpectralFamily(b2, [(Fraction(1), "1")])
        assert e.eval(Decimal("1.5")) == b2.top
        with pytest.raises(InputError):
            SpectralFamily(b2, [(Fraction(0), "x"), (1.0, "1")])


    @pytest.mark.parametrize("v", [1.9, 3.2, True, Fraction(3)])
    def test_values_are_names_or_int_ids(self, v):
        # 1.9 was read as element 1 and 3.2 as the top
        b2 = boolean_lattice(2)
        with pytest.raises(InputError, match="is neither a name nor an int id"):
            SpectralFamily(b2, [(0, v), (1, "1")])
        with pytest.raises(InputError, match="is neither a name nor an int id"):
            ComplexSpectralFamily(b2, [0, 1], [0], [[v], ["1"]])
        assert SpectralFamily(b2, [(0, 1), (1, 3)]) == SpectralFamily(b2, [(0, "x"), (1, "1")])


# a float, two values that are not numbers, decimals whose exact value takes
# seconds to build and is too long to print, and a decimal with no exact value
NOT_RATIONAL = (0.1, None, (1, 1), "1e3000000", Decimal("1e3000000"), Decimal("Infinity"))


def float_entry_points(x):
    """Each public entry point that takes a rational, called with ``x``."""
    from stonespec import (FieldOfSets, MeasurableFunction, TopSpace, bijection_report,
                           is_continuous)
    from stonespec.family import point_values

    b2 = boolean_lattice(2)
    space = stone_space(b2)
    e = SpectralFamily(b2, [(0, "x"), (1, "1")])
    field = FieldOfSets.from_partition(("1", "2"), [["1"], ["2"]])
    point = TopSpace(("1",), [0, 1])
    return {
        "point_values": lambda: point_values(("a",), [x]),
        "ObservableFunction": lambda: ObservableFunction(space, [0, x]),
        "ObservableFunction.scale": lambda: observable_function(e).scale(x),
        "family.scale": lambda: fam.scale(x, e),
        "MeasurableFunction": lambda: MeasurableFunction(field, [0, x]),
        "SpectralFamily": lambda: SpectralFamily(b2, [(x, "1")]),
        "SpectralFamily.eval": lambda: e.eval(x),
        "ComplexSpectralFamily.xs": lambda: ComplexSpectralFamily(b2, [x], [0], [["1"]]),
        "ComplexSpectralFamily.ys": lambda: ComplexSpectralFamily(b2, [0], [x], [["1"]]),
        "is_continuous": lambda: is_continuous(point, [x]),
        "bijection_report": lambda: bijection_report(field, [0, x]),
    }


@pytest.mark.parametrize("name", sorted(float_entry_points(0.1)))
def test_floats_rejected_at_every_entry_point(name):
    for x in NOT_RATIONAL:
        call = float_entry_points(x)[name]
        start = time.perf_counter()
        with pytest.raises(InputError, match=re.escape(
                f"exact rationals required, got {type(x).__name__} {x!r}")):
            call()
        assert time.perf_counter() - start < 0.5, x


class TestObservableFunction:
    def test_mo2_example(self):
        mo2 = mo_lattice(2)
        g = observable_function(SpectralFamily(mo2, [(0, "a"), (1, "1")]))
        assert g.as_dict() == {"Q{a,1}": 0, "Q{a',1}": 1, "Q{b,1}": 1, "Q{b',1}": 1}

    def test_constant_jump(self):
        mo2 = mo_lattice(2)
        g = observable_function(SpectralFamily(mo2, [(Fraction(3, 2), "1")]))
        assert set(g.values) == {Fraction(3, 2)}

    def test_boolean_matches_atom_values(self):
        b2 = boolean_lattice(2)
        g = observable_function(SpectralFamily(b2, [(0, "x"), (1, "1")]))
        assert g.as_dict() == {"Q{x,1}": 0, "Q{y,1}": 1}

    def test_inf_characterization(self):
        # f_E(B) <= t iff E(u) in B for every u > t; probe around thresholds
        for lat in (mo_lattice(2), boolean_lattice(2)):
            space = stone_space(lat)
            for e in enumerate_families(lat, (0, 1, 2)):
                g = observable_function(e)
                for k, members in enumerate(space.points):
                    for t in (Fraction(-1), Fraction(0), HALF, Fraction(1),
                              Fraction(3, 2), Fraction(2)):
                        probes = [t + Fraction(1, q) for q in (2, 3, 7)] + [t + 1, t + 3]
                        rhs = all(members >> e.eval(u) & 1 for u in probes)
                        assert (g.values[k] <= t) == rhs


class TestInverseTransform:
    def test_two_atom_example(self):
        b2 = boolean_lattice(2)
        space = stone_space(b2)
        g = ObservableFunction(space, [0, 1])  # Q{x,1} -> 0, Q{y,1} -> 1
        e = from_observable_function(g)
        assert e == SpectralFamily(b2, [(0, "x"), (1, "1")])

    def test_constant(self):
        b2 = boolean_lattice(2)
        g = ObservableFunction(stone_space(b2), [Fraction(5), Fraction(5)])
        assert from_observable_function(g) == SpectralFamily(b2, [(5, "1")])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([Fraction(0), HALF, Fraction(1)]),
                    min_size=3, max_size=3))
    def test_roundtrip_is_identity_on_boolean3(self, values):
        b3 = boolean_lattice(3)
        space = stone_space(b3)
        g = ObservableFunction(space, values)
        assert observable_function(from_observable_function(g)) == g

    def test_every_family_roundtrips(self):
        for n in (1, 2, 3):
            lat = boolean_lattice(n)
            for e in enumerate_families(lat, (0, HALF, 1)):
                assert from_observable_function(observable_function(e)) == e

    @staticmethod
    def assert_refused(lat, reason):
        """The inverse and ``star`` both refuse ``lat``, naming ``reason``."""
        e = SpectralFamily(lat, [(0, lat.top)])
        message = f"the inverse transform needs a finite Boolean algebra ({reason})"
        for call in (lambda: from_observable_function(observable_function(e)),
                     lambda: fam.star(e)):
            with pytest.raises(UnsupportedStructureError) as err:
                call()
            assert str(err.value) == message

    def test_non_boolean_rejected(self):
        self.assert_refused(mo_lattice(2), "not distributive")
        self.assert_refused(chain_lattice(3), "no ortho present")
        # a Boolean order without its ortho map
        self.assert_refused(TopSpace.discrete(("p", "q")).lattice(), "no ortho present")

    def test_ortho_that_does_not_complement_rejected(self):
        # distributive with an ortho map, but m <-> m is not a complement
        c3 = Lattice(["0", "m", "1"], [("0", "m"), ("m", "1")], ortho={"0": "1", "m": "m"})
        self.assert_refused(c3, "the ortho map does not complement")


class TestTransferredAlgebra:
    def test_additive_identity(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(0, "x"), (1, "1")])
        zero = SpectralFamily(b2, [(0, "1")])
        assert fam.add(e, zero) == e

    def test_star_is_identity_on_real_families(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(0, "x"), (1, "1")])
        assert fam.star(e) == e

    def test_product_of_complementary_indicators_vanishes(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(0, "x"), (1, "1")])  # atom values (0, 1)
        f = SpectralFamily(b2, [(0, "y"), (1, "1")])  # atom values (1, 0)
        assert fam.mul(e, f) == SpectralFamily(b2, [(0, "1")])

    def test_ring_laws_exhaustively(self):
        b2 = boolean_lattice(2)
        families = enumerate_families(b2, (0, 1))
        for e in families:
            for f in families:
                assert fam.add(e, f) == fam.add(f, e)
                assert fam.mul(e, f) == fam.mul(f, e)
                for g in families:
                    assert fam.add(fam.add(e, f), g) == fam.add(e, fam.add(f, g))
                    assert fam.mul(fam.mul(e, f), g) == fam.mul(e, fam.mul(f, g))
                    assert fam.mul(e, fam.add(f, g)) == \
                        fam.add(fam.mul(e, f), fam.mul(e, g))

    def test_scale_and_norm(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(-2, "x"), (1, "1")])
        assert fam.sup_norm(e) == 2
        assert fam.sup_norm(fam.scale(HALF, e)) == 1


def complex_values(e):
    """The pointwise (re, im) values of a family's observable function; a
    real family has imaginary part 0."""
    if isinstance(e, ComplexSpectralFamily):
        g = observable_function_complex(e)
        return [g.value(k) for k in range(len(g.re.values))]
    return [(v, Fraction(0)) for v in observable_function(e).values]


class TestComplexAlgebra:
    def test_operations_pull_back_pointwise_complex_arithmetic(self):
        # every pair of the 16 product families of boolean(2) on the grid
        # {0, 1}, and each of them against the 4 real families either side
        b2 = boolean_lattice(2)
        reals = enumerate_families(b2, (0, 1))
        assert len(reals) == 4
        cplx = [product_family(e1, e2) for e1 in reals for e2 in reals]
        pairs = [(e, f) for e in cplx for f in cplx]
        pairs += [(e, r) for e in cplx for r in reals] + [(r, e) for e in cplx for r in reals]
        for e, f in pairs:
            ve, vf = complex_values(e), complex_values(f)
            total, product = fam.add(e, f), fam.mul(e, f)
            assert isinstance(total, ComplexSpectralFamily)
            assert complex_values(total) == [(a + c, b + d) for (a, b), (c, d) in zip(ve, vf)]
            assert complex_values(product) == [(a * c - b * d, a * d + b * c)
                                               for (a, b), (c, d) in zip(ve, vf)]
        scalars = [(Fraction(2), Fraction(-1)), (Fraction(0), Fraction(1)),
                   (Fraction(1, 2), Fraction(3))]
        for e in cplx:
            g = observable_function_complex(e)
            ve = complex_values(e)
            assert fam.from_complex_observable_function(g) == e
            assert complex_values(fam.star(e)) == [(a, -b) for a, b in ve]
            for alpha, beta in scalars:
                want = [(alpha * a - beta * b, alpha * b + beta * a) for a, b in ve]
                assert complex_values(fam.scale((alpha, beta), e)) == want
                scaled = g.scale(alpha, beta)
                assert [scaled.value(k) for k in range(len(ve))] == want
                assert complex_values(fam.scale(alpha, e)) == [(alpha * a, alpha * b)
                                                               for a, b in ve]
            for f in cplx:
                diff = g.re - observable_function_complex(f).re
                assert list(diff.values) == [a - c for (a, _), (c, _) in
                                             zip(ve, complex_values(f))]


class TestSpectrum:
    def test_jump_set(self):
        mo2 = mo_lattice(2)
        d = spectrum_of(SpectralFamily(mo2, [(0, "a"), (1, "1")]))
        assert d.spectrum == (Fraction(0), Fraction(1))
        assert d.resolvent == ((None, Fraction(0)), (Fraction(0), Fraction(1)),
                               (Fraction(1), None))

    def test_constant_jump(self):
        d = spectrum_of(SpectralFamily(boolean_lattice(2), [(Fraction(7, 2), "1")]))
        assert d.spectrum == (Fraction(7, 2),)

    def test_spectrum_equals_image_of_induced_function_on_fields(self):
        from stonespec import FieldOfSets, function_of
        f = FieldOfSets.from_partition(("p", "q", "r"), [["p"], ["q"], ["r"]])
        for e in enumerate_families(f.lattice(), (0, HALF, 1)):
            image = sorted(set(function_of(f, e).values))
            assert tuple(image) == spectrum_of(e).spectrum


class TestSpectralize:
    """A jump list read as "v on (t_i, t_{i+1}]" and as "v on [t_i, t_{i+1})"
    is the same list, so the constructor's right-continuous reading is the
    only conversion there is; these cases check it directly."""

    def test_idempotent_on_canonical_families(self):
        mo2 = mo_lattice(2)
        e = SpectralFamily(mo2, [(0, "a"), (1, "1")])
        assert SpectralFamily(mo2, list(zip(e.thresholds, e.values))) == e
        assert SpectralFamily(mo2, e.jumps()) == e

    def test_open_convention_single_jump(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(Fraction(3), "1")])
        assert e.eval(3) == b2.top and e.eval(3 - Fraction(1, 100)) == b2.bottom

    def test_strict_level_sets_spectralize_to_the_closed_family(self):
        # pairs (t, preimage of (-inf, t)) reinterpreted match the level-set family
        from stonespec import (FieldOfSets, MeasurableFunction,
                               spectral_family_of)
        f = FieldOfSets.from_partition(("p", "q", "r", "s"),
                                       [["p"], ["q"], ["r"], ["s"]])
        lat = f.lattice()
        for values in [(0, 0, 1, 2), (1, 1, 1, 1), (0, HALF, HALF, 3)]:
            phi = MeasurableFunction(f, [Fraction(v) for v in values])
            pairs = []
            for t in sorted(set(phi.values)):
                below = 0
                for i, v in enumerate(phi.values):
                    if v < t:
                        below |= 1 << i
                pairs.append((t, lat.payload.index(below)))
            # the strict level set at each threshold is the closed level set
            # of the previous step; on reinterpretation they coincide
            strict = [(t, m) for (t, _), (_, m) in zip(pairs, pairs[1:])]
            strict.append((pairs[-1][0], lat.top))
            got = SpectralFamily(lat, strict)
            assert got == spectral_family_of(phi)

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidFamilyError):
            SpectralFamily(boolean_lattice(2), [(0, "x"), (1, "y")])


def oracle_decompositions(xs, ys, matrix, candidates):
    """Brute force: all component pairs whose product takes the matrix's
    value at every grid point."""
    want = [v for row in matrix for v in row]
    return [(f1, f2) for f1 in candidates for f2 in candidates
            if [product_family(f1, f2).eval(x, y) for x in xs for y in ys] == want]


def oracle_meet_law_failure(lattice, matrix):
    """The scan over every pair of cells that ``ComplexSpectralFamily`` ran
    before it read only the generating pairs: the first failing pair, or None."""
    cells = [(i, j) for i in range(len(matrix)) for j in range(len(matrix[0]))]
    for (i, j), (k, l) in combinations(cells, 2):
        if lattice.meet2(matrix[i][j], matrix[k][l]) != matrix[min(i, k)][min(j, l)]:
            return (i, j), (k, l)
    return None


def oracle_kept_lines(lines, bottom):
    """The grid lines the canonical form kept before it was read from the
    margins: leading all-bottom lines go (but never the last line), and so
    does each line equal to the kept line before it."""
    start = 0
    while start < len(lines) - 1 and all(v == bottom for v in lines[start]):
        start += 1
    keep = [start]
    for i in range(start + 1, len(lines)):
        if lines[i] != lines[keep[-1]]:
            keep.append(i)
    return keep


# every grid up to 3 x 2 and 2 x 3
GRID_SHAPES = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3) if r * c <= 6]


class TestGeneratingPairs:
    """The constructor reads the meet law on the generating pairs and the
    canonical grid from the margins; on every matrix of the small grids it
    must agree with the all-pairs scan and with ``oracle_kept_lines``, and
    the function of its margins with the row and column scan."""

    @pytest.mark.parametrize("lattice", [boolean_lattice(2), mo_lattice(2), chain_lattice(3),
                                         boolean_lattice(3)], ids=["B2", "MO2", "C3", "B3"])
    def test_every_matrix_against_the_all_pairs_scan(self, lattice):
        space = stone_space(lattice)
        failed = valid = 0
        for rows, cols in GRID_SHAPES:
            xs = tuple(Fraction(i) for i in range(rows))
            ys = tuple(Fraction(j) for j in range(cols))
            for flat in product(range(lattice.n), repeat=rows * cols):
                matrix = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
                failing = oracle_meet_law_failure(lattice, matrix)
                try:
                    e = ComplexSpectralFamily(lattice, xs, ys, matrix)
                except InvalidFamilyError as err:
                    if failing is None:
                        assert matrix[-1][-1] != lattice.top
                        assert str(err) == "family is not bounded above (corner must be top)"
                        continue
                    # grid line k sits at k, so the message names cell indices
                    i, j, k, l = map(int, re.fullmatch(
                        r"meet law fails at grid cells \((\d+),(\d+)\) and \((\d+),(\d+)\)",
                        str(err)).groups())
                    assert lattice.meet2(matrix[i][j], matrix[k][l]) != \
                        matrix[min(i, k)][min(j, l)]
                    failed += 1
                    continue
                assert failing is None and matrix[-1][-1] == lattice.top
                keep_r = oracle_kept_lines(matrix, lattice.bottom)
                keep_c = oracle_kept_lines(list(zip(*(matrix[i] for i in keep_r))),
                                           lattice.bottom)
                assert e.xs == tuple(xs[i] for i in keep_r)
                assert e.ys == tuple(ys[j] for j in keep_c)
                assert e.matrix == tuple(tuple(matrix[i][j] for j in keep_c) for i in keep_r)
                g = observable_function_complex(e)
                assert (g.re.values, g.im.values) == oracle_observable_function_complex(e, space)
                valid += 1
        assert failed and valid

    def test_a_non_lattice_host_fails_as_before(self):
        # a and b have two minimal upper bounds; a 1 x 1 grid reads no meet
        host = Lattice(["0", "a", "b", "c", "d", "1"],
                       [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                        ("b", "d"), ("c", "1"), ("d", "1")])
        e = ComplexSpectralFamily(host, (0,), (0,), [["1"]])
        assert e.matrix == ((host.top,),)
        assert [e.eval(x, y) for x in (-1, 0) for y in (-1, 0)] == [host.bottom] * 3 + [host.top]
        # a product needs the meet table whatever its components, as before
        with pytest.raises(InputError, match="not a lattice"):
            product_family(*decompose(e))
        for rows, cols in ((1, 2), (2, 1), (2, 2)):
            for flat in product(range(host.n), repeat=rows * cols):
                matrix = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
                with pytest.raises(InputError, match="not a lattice") as want:
                    oracle_meet_law_failure(host, matrix)
                with pytest.raises(InputError) as got:
                    ComplexSpectralFamily(host, range(rows), range(cols), matrix)
                assert str(got.value) == str(want.value)

    def test_the_witness_is_a_generating_pair(self):
        # x & 0 != x fails first on all pairs; the generating pairs first read
        # the margins (chains here) and then the cell (0,0) against them
        b2 = boolean_lattice(2)
        matrix = [["x", "0"], ["y", "1"]]
        assert oracle_meet_law_failure(b2, [[b2.eid(v) for v in row] for row in matrix]) \
            == ((0, 0), (0, 1))
        with pytest.raises(InvalidFamilyError) as err:
            ComplexSpectralFamily(b2, (0, 1), (0, 1), matrix)
        assert str(err.value) == "meet law fails at grid cells (0,1) and (1,0)"

    def test_one_element_lattice_keeps_the_first_line(self):
        # top is bottom: like SpectralFamily, the canonical grid keeps the
        # first line of each margin
        one = chain_lattice(1)
        e = ComplexSpectralFamily(one, (0, 1), (0, 1, 2), [["0"] * 3] * 2)
        assert (e.xs, e.ys, e.matrix) == ((0,), (0,), ((0,),))
        assert e.xs == SpectralFamily(one, [(0, "0"), (1, "0")]).thresholds


class TestComplexFamilies:
    def test_meet_law_enforced(self):
        b2 = boolean_lattice(2)
        with pytest.raises(InvalidFamilyError):
            # row and column values meet to x, not to the claimed bottom
            ComplexSpectralFamily(b2, (0, 1), (0, 1), [["0", "x"], ["x", "1"]])
        with pytest.raises(InvalidFamilyError):
            # x & y = 0 but the low corner claims x
            ComplexSpectralFamily(b2, (0, 1), (0, 1), [["x", "x"], ["y", "1"]])

    def test_corner_must_be_top(self):
        b2 = boolean_lattice(2)
        with pytest.raises(InvalidFamilyError):
            ComplexSpectralFamily(b2, (0,), (0,), [["x"]])

    def test_eval(self):
        b2 = boolean_lattice(2)
        e = ComplexSpectralFamily(b2, (0, 1), (0, 1),
                                  [["0", "x"], ["y", "1"]])
        assert e.eval(-1, 5) == b2.bottom
        assert b2.names[e.eval(0, 1)] == "x"
        assert b2.names[e.eval(1, 0)] == "y"
        assert b2.names[e.eval(5, 5)] == "1"

    def test_roundtrip_from_components(self):
        mo2 = mo_lattice(2)
        e1 = SpectralFamily(mo2, [(0, "a"), (1, "1")])
        e2 = SpectralFamily(mo2, [(HALF, "a"), (2, "1")])
        p = product_family(e1, e2)
        e = ComplexSpectralFamily(mo2, p.xs, p.ys, p.matrix)
        assert decompose(e) == (e1, e2)

    def test_exhaustive_decomposition_uniqueness_on_boolean2(self):
        b2 = boolean_lattice(2)
        candidates = enumerate_families(b2, (0, 1))
        for v12 in range(b2.n):
            for v21 in range(b2.n):
                matrix = [[b2.meet2(v12, v21), v12], [v21, b2.top]]
                e = ComplexSpectralFamily(b2, (0, 1), (0, 1), matrix)
                e1, e2 = decompose(e)
                assert (e1, e2) == (SpectralFamily(b2, [(0, v12), (1, b2.top)]),
                                    SpectralFamily(b2, [(0, v21), (1, b2.top)]))
                assert oracle_decompositions((0, 1), (0, 1), matrix, candidates) == [(e1, e2)]

    def test_component_functions(self):
        mo2 = mo_lattice(2)
        space = stone_space(mo2)
        e1 = SpectralFamily(mo2, [(0, "a"), (1, "1")])
        e = product_family(e1, e1)
        g = observable_function_complex(e)
        assert g.re == observable_function(e1)
        assert g.im == observable_function(e1)
        assert (g.re.values, g.im.values) == oracle_observable_function_complex(e, space)
        assert g.value(space.points.index(mo2.up[mo2.eid("a")])) == (0, 0)

    def test_all_top_components(self):
        b2 = boolean_lattice(2)
        c = Fraction(4)
        e = ComplexSpectralFamily(b2, (c,), (c,), [["1"]])
        g = observable_function_complex(e)
        assert all(v == (c, c) for v in (g.value(k) for k in range(2)))

    def test_complex_function_splits_componentwise(self):
        # the defining existential formulas agree with the decomposition
        b2 = boolean_lattice(2)
        for v12 in range(b2.n):
            for v21 in range(b2.n):
                matrix = [[b2.meet2(v12, v21), v12], [v21, b2.top]]
                e = ComplexSpectralFamily(b2, (0, 1), (0, 1), matrix)
                e1, e2 = decompose(e)
                g = observable_function_complex(e)
                assert g.re == observable_function(e1)
                assert g.im == observable_function(e2)


class TestStepIntegration:
    def test_exact_on_threshold_grid(self):
        b3 = boolean_lattice(3)
        e = SpectralFamily(b3, [(0, "x"), (HALF, "xy"), (1, "1")])
        g = observable_function(e)
        assert riemann_stieltjes(e, e.thresholds) == g

    def test_quantizes_up_within_epsilon(self):
        b2 = boolean_lattice(2)
        space = stone_space(b2)
        e = SpectralFamily(b2, [(Fraction(1, 3), "x"), (1, "1")])
        grid = [Fraction(k, 4) for k in range(0, 6)]
        s = riemann_stieltjes(e, grid)
        g = observable_function(e)
        diffs = [a - b for a, b in zip(s.values, g.values)]
        assert all(0 <= d <= Fraction(1, 4) for d in diffs)
        assert s.values[space.points.index(b2.up[b2.eid("x")])] == HALF

    def test_literal_increment_sum_oracle(self):
        # the library value equals the sum of tag * indicator increments
        b3 = boolean_lattice(3)
        space = stone_space(b3)
        e = SpectralFamily(b3, [(0, "x"), (HALF, "xy"), (1, "1")])
        grid = [Fraction(k, 4) for k in range(-1, 6)]
        s = riemann_stieltjes(e, grid)
        for k, members in enumerate(space.points):
            total = Fraction(0)
            prev = 0
            for t in grid:
                cur = 1 if members >> e.eval(t) & 1 else 0
                total += t * (cur - prev)
                prev = cur
            assert total == s.values[k]

    def test_grid_must_cover_support(self):
        b2 = boolean_lattice(2)
        e = SpectralFamily(b2, [(0, "x"), (1, "1")])
        with pytest.raises(InputError):
            riemann_stieltjes(e, [HALF, 1])
        with pytest.raises(InputError):
            riemann_stieltjes(e, [0, HALF])


def test_enumerate_families_counts():
    # chain(3): the chains ending at the top are [1] and [m1, 1]
    assert len(enumerate_families(chain_lattice(3), (0, 1, 2))) == 3 + 3
    assert len(enumerate_families(boolean_lattice(2), (0, 1))) == 4
    # boolean(4): 3 one-jump + 42 two-jump + 36 three-jump families
    assert len(enumerate_families(boolean_lattice(4), (0, 1, 2))) == 81


def test_enumerate_families_needs_a_bottom_and_a_top():
    # two minimal and two maximal elements: no bottom, no top
    crown = Lattice(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    with pytest.raises(InputError, match="bottom and a top"):
        enumerate_families(crown, (0, 1))


def test_a_grid_value_written_twice_is_one_threshold():
    # the grid is read as exact values before its repeats go: 0 and "0" are one
    # threshold, where a repeat kept would give a family two equal thresholds
    b2 = boolean_lattice(2)
    assert enumerate_families(b2, [0, "0", Fraction(1), "1"]) == enumerate_families(b2, [0, 1])
    f = FieldOfSets(("p", "q"), [1, 2])
    assert bijection_report(f, [0, "0", "1/1", 1]) == bijection_report(f, [0, 1])
