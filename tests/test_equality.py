"""Equality of the value classes.

Each class compares a fixed tuple of its fields, cheap ones first, and only
with an object of its own class.  Lattices and fields of sets compare by
value: objects built on equal but distinct hosts are equal.  None of the
classes is hashable.  Every guard that two objects share a lattice, a
spectrum or a field accepts an equal one built separately.
"""

import io

import pytest

from stonespec import (ComplexObservableFunction, ComplexSpectralFamily, FieldOfSets,
                       InputError, Lattice, MeasurableFunction, ObservableFunction,
                       SetIdeal, SpectralFamily, TopSpace, boolean_lattice, cpt_membership,
                       gamma_transform, induced_function, product_family, pt_structure,
                       quotient, r_function, star_condition_check, stone_space)
from stonespec.cli import cmd_lift
from stonespec.dsl import BlockInfo


def square():
    """boolean(2) without its ortho map: the same names, another lattice."""
    return Lattice(["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])


def field(blocks=(("p",), ("q", "r"))):
    return FieldOfSets.from_partition(("p", "q", "r"), blocks)


def observable(values):
    return ObservableFunction(stone_space(boolean_lattice(2)), values)


def family(jumps=((0, "x"), (1, "1")), lattice=None):
    return SpectralFamily(lattice or boolean_lattice(2), jumps)


def host(names=("0", "x", "y", "1"), order=((0, 1), (0, 2), (1, 3), (2, 3)),
         ortho=(3, 2, 1, 0), flags=("distributive", "orthomodular")):
    """boolean(2) built from its order by element ids rather than from its
    sets, so without a payload."""
    return Lattice(names, order, ortho=ortho, flags=flags)


def grid(xs=(0, 1), ys=(0, 2), matrix=(("0", "x"), ("y", "1")), lattice=None):
    return ComplexSpectralFamily(lattice or boolean_lattice(2), xs, ys, matrix)


# class: (its fields in comparison order, a fresh object on fresh hosts,
# objects that differ from it in exactly one field)
CASES = {
    SetIdeal: (("field", "mask"), lambda: SetIdeal(field(), 0b001), [
        SetIdeal(field(), 0b110),
        SetIdeal(field((("p",), ("q",), ("r",))), 0b001)]),
    MeasurableFunction: (("field", "values"), lambda: MeasurableFunction(field(), (1, 2, 2)), [
        MeasurableFunction(field(), (1, 3, 3)),
        MeasurableFunction(field((("p",), ("q",), ("r",))), (1, 2, 2))]),
    FieldOfSets: (("ground", "atoms"), field, [
        FieldOfSets.from_partition(("p", "q", "s"), [["p"], ["q", "s"]]),
        field((("p", "q"), ("r",)))]),
    TopSpace: (("points", "opens"), lambda: TopSpace(("1", "2"), [0, 1, 3]), [
        TopSpace(("1", "3"), [0, 1, 3]),
        TopSpace(("1", "2"), [0, 2, 3])]),
    ComplexObservableFunction: (
        ("re", "im"), lambda: ComplexObservableFunction(observable((1, 2)), observable((0, 5))), [
            ComplexObservableFunction(observable((1, 3)), observable((0, 5))),
            ComplexObservableFunction(observable((1, 2)), observable((0, 4)))]),
    SpectralFamily: (("thresholds", "values", "lattice"), family, [
        family(jumps=((0, "x"), (2, "1"))),
        family(jumps=((0, "y"), (1, "1"))),
        family(lattice=square())]),
    # a changed matrix or lattice changes both margins; SpectralFamily's
    # entry covers those fields
    ComplexSpectralFamily: (("first", "second"), grid, [
        grid(xs=(0, 3)),
        grid(ys=(0, 3))]),
    Lattice: (("names", "up", "ortho", "flags", "payload"), host, [
        host(names=("0", "x", "z", "1")),
        host(order=((0, 1), (1, 2), (2, 3))),
        host(ortho=(3, 1, 2, 0)),
        host(flags=()),
        boolean_lattice(2)]),
}
CLASSES = list(CASES)
IDS = [cls.__name__ for cls in CLASSES]


class Recorder:
    """A field value that logs its name whenever it is compared, and always
    compares equal, so that every field of the object is reached."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def __eq__(self, other):
        self.log.append(self.name)
        return True


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_in_comparison_order(cls):
    fields, make, _ = CASES[cls]
    a, b = make(), make()
    log = []
    for f in fields:
        setattr(a, f, Recorder(f, log))
        setattr(b, f, Recorder(f, log))
    assert a == b
    assert tuple(log) == fields


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_on_equal_but_distinct_hosts(cls):
    a, b = CASES[cls][1](), CASES[cls][1]()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_unequal_when_one_field_differs(cls):
    fields, make, variants = CASES[cls]
    a = make()
    for v in variants:
        differing = [f for f in fields if getattr(a, f) != getattr(v, f)]
        assert len(differing) == 1
        assert a != v and not a == v


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_never_equal_to_another_type(cls):
    assert (CASES[cls][1]() == object()) is False


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_unhashable(cls):
    with pytest.raises(TypeError):
        hash(CASES[cls][1]())


# --- the guards that two objects share a lattice, a spectrum or a field ------------


def two_points():
    return TopSpace.discrete(("1", "2"))


def on(space):
    """A constant function on a Stone space."""
    return ObservableFunction(space, [0] * space.n_points)


def top_family(lat):
    return SpectralFamily(lat, [(0, lat.top)])


def discrete_field():
    return FieldOfSets.discrete(("p", "q", "r"))


def lift(f):
    """``lift`` with its field and ideal on a discrete field and the family in ``f``."""
    home = discrete_field()
    return cmd_lift(None, None, io.StringIO(), BlockInfo("field", "F", None, home),
                    BlockInfo("ideal", "I", "F", SetIdeal(home, 0b001)),
                    BlockInfo("family", "E", "G", top_family(f.lattice())))


def guard(name, message, use, equal, foreign):
    """A guard's row: its ``message``, a call ``use`` that reads its argument
    against a fresh home, and makers of an equal argument built separately
    and of a foreign one."""
    return pytest.param(message, use, equal, foreign, id=name)


SPECTRUM = "function lives on a different spectrum"
GUARDS = [
    guard("family_payloads", "family does not live in this space's open-set lattice",
          lambda lat: induced_function(two_points(), top_family(lat)),
          lambda: two_points().lattice(), lambda: boolean_lattice(2)),
    guard("cpt_membership", SPECTRUM,
          lambda st: cpt_membership(pt_structure(two_points()), on(st)),
          lambda: stone_space(two_points().lattice()), lambda: stone_space(boolean_lattice(3))),
    guard("r_function", SPECTRUM, lambda st: r_function(two_points(), on(st)),
          lambda: stone_space(two_points().r_lattice()), lambda: stone_space(boolean_lattice(3))),
    guard("star_condition_check", SPECTRUM,
          lambda st: star_condition_check(two_points(), on(st)),
          lambda: stone_space(two_points().r_lattice()), lambda: stone_space(boolean_lattice(3))),
    guard("same_space", "observable functions live on different spectra",
          lambda st: on(stone_space(boolean_lattice(2))) + on(st),
          lambda: stone_space(boolean_lattice(2)), lambda: stone_space(boolean_lattice(3))),
    guard("product_family", "components live in different lattices",
          lambda lat: product_family(top_family(boolean_lattice(2)), top_family(lat)),
          lambda: boolean_lattice(2), lambda: boolean_lattice(3)),
    guard("QuotientAlgebra", "ideal belongs to a different field",
          lambda f: quotient(discrete_field(), SetIdeal(f, 0b001)), discrete_field, field),
    guard("gamma_transform", "quotient belongs to a different field",
          lambda f: gamma_transform(MeasurableFunction(discrete_field(), (1, 2, 3)),
                                    quotient(f, SetIdeal(f, 0b001))),
          discrete_field, field),
    guard("cmd_lift", "the family must live in the named field", lift, discrete_field, field),
]


@pytest.mark.parametrize("message, use, equal, foreign", GUARDS)
def test_each_guard_accepts_an_equal_host_and_names_a_foreign_one(message, use, equal, foreign):
    use(equal())
    with pytest.raises(InputError) as err:
        use(foreign())
    assert str(err.value) == message
