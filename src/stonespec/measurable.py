"""Finite fields of sets, measurable functions, ideals and quotients.

A field of sets is the finite topology whose opens are its members and
whose minimal neighbourhoods are its atoms, so measurability of a point
function is continuity: constancy on atoms.  Quotients by an ideal are realized by deleting the
ideal's atoms, which keeps every class canonical (each class is represented
by its union of surviving atoms).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import InputError
from .family import (ObservableFunction, SpectralFamily, _as_fraction, _step_sum,
                     enumerate_families, observable_function, point_values)
from .lattice import MAX_ELEMENTS, Lattice, _eq_by, _iter, _require_same, _require_type, bits
from .stone import StoneSpace, stone_space
from .topology import (TopSpace, _first_nonconstant, _min_nbhds, _points, induced_function,
                       spectral_family_of_continuous)


class FieldOfSets(TopSpace):
    """A finite algebra of subsets of a finite ground set.

    It is the topology whose opens are its members: each member is clopen
    and the minimal neighbourhood of a point is its atom, so the members are
    the regular opens, the pseudocomplement is the complement, and a
    measurable function is a continuous one.  ``ground`` is ``points``.
    """

    def __init__(self, ground, atoms):
        ground = _points(ground)
        kept, union = [], 0
        for a in _iter(atoms, "atoms"):  # each checked as it is read, so a fault stops the read
            if type(a) is not int:
                raise InputError(f"atom {a!r} is not an int bitmask")
            if a == 0:
                raise InputError("empty atom")
            if a & union:
                raise InputError("atoms overlap")
            union |= a
            kept.append(a)
        if union != (1 << len(ground)) - 1:
            raise InputError("atoms do not cover the ground set")
        self._of_nbhds(ground, _min_nbhds(kept, len(ground)))  # each point's atom

    def _of_nbhds(self, points: tuple, nbhd) -> "FieldOfSets":
        """The topology's build for U_x that partition the points (a topology
        is a field iff it is closed under complement); the U_x are the atoms."""
        if _first_nonconstant(nbhd, nbhd) >= 0:  # some U_y inside U_x is smaller
            raise InputError("not closed under complement")
        # first seen at its lowest point, so in order of lowest point
        self.ground, self.atoms = points, tuple(dict.fromkeys(nbhd))
        return super()._of_nbhds(points, nbhd)

    # the inherited from_sets: a partition given as iterables of point labels
    from_partition = TopSpace.__dict__["from_sets"]
    lattice = TopSpace.r_lattice

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.ground[i] for i in bits(mask))

    def union_of(self, combo: int) -> int:
        """The union of the atoms picked by the set bits of ``combo``."""
        m = 0
        for i in bits(combo):
            m |= self.atoms[i]
        return m

    def members(self) -> tuple:
        """Every union of atoms, sorted by mask value."""
        return self._basis

    def contains(self, mask: int) -> bool:
        return mask in self.opens

    def stone(self) -> StoneSpace:
        return stone_space(self.lattice())

    def element_of(self, mask: int) -> int:
        """Lattice id of a member set."""
        try:
            return self.lattice().set_ids[mask]
        except KeyError:
            raise InputError(f"{self.set_name(mask)} is not in the field") from None

    def __repr__(self):
        return f"FieldOfSets({len(self.ground)} points, {len(self.atoms)} atoms)"

    __eq__ = _eq_by("ground", "atoms")


def all_fields(ground) -> list:
    """Every field of sets on the ground set, one per partition of it into
    atoms (1, 2, 5, 15, 52, 203 for 1..6 points), ordered as
    ``all_topologies`` orders spaces: by member count, then by the sorted
    member masks.  Capped where the discrete field, of 2^n members, would
    pass the lattice cap: at 6 points."""
    ground = _points(ground)
    n = len(ground)
    if 1 << n > MAX_ELEMENTS:
        raise InputError("exhaustive field generation capped at "
                         f"{MAX_ELEMENTS.bit_length() - 1} points")
    partitions = [()]
    for i in range(n):  # point i joins a block of the points before it, or starts one
        partitions = [p[:k] + (b | 1 << i,) + p[k + 1:] for p in partitions
                      for k, b in enumerate(p)] + [p + (1 << i,) for p in partitions]
    return sorted((FieldOfSets(ground, p) for p in partitions),
                  key=lambda f: (len(f.opens), f._basis))


class MeasurableFunction:
    """A rational point function constant on every atom of its field."""

    __slots__ = ("field", "values")

    def __init__(self, field: FieldOfSets, values):
        _require_type(field, FieldOfSets, "a measurable function needs a FieldOfSets")
        values = point_values(field.ground, values)
        i = _first_nonconstant(field._nbhd, values)
        if i >= 0:
            raise InputError("function is not measurable: not constant on atom "
                             + field.set_name(field._nbhd[i]))
        self.field = field
        self.values = values

    def __call__(self, point) -> Fraction:
        return self.values[self.field.index_of(point)]

    def __repr__(self):
        pairs = ", ".join(f"{p}: {v}" for p, v in zip(self.field.ground, self.values))
        return "MeasurableFunction{" + pairs + "}"

    __eq__ = _eq_by("field", "values")
    sup_norm = ObservableFunction.sup_norm


def spectral_family_of(phi: MeasurableFunction) -> SpectralFamily:
    """Level sets of phi as a family in the field's lattice: E at t is
    the preimage of (-inf, t]; every level set is a member, hence open."""
    return spectral_family_of_continuous(phi.field, phi.values)


def function_of(field: FieldOfSets, family: SpectralFamily) -> MeasurableFunction:
    """The point function induced by a family in a field of sets: each point
    maps to the least threshold whose value contains it."""
    return MeasurableFunction(field, induced_function(field, family))


def atom_grid_values(field: FieldOfSets, grid):
    """Yield the point values of every function that is constant on the
    field's atoms with values from ``grid``, in product order over the atoms."""
    which = {a: i for i, a in enumerate(field.atoms)}
    for assignment in product(grid, repeat=len(field.atoms)):
        yield [assignment[which[u]] for u in field._nbhd]  # U_x is x's atom


def bijection_report(field: FieldOfSets, grid):
    """Round-trip both transforms over every function and family on a grid.

    Returns (cases, failures); an empty failure list realizes the bijection
    between measurable functions and bounded spectral families.
    """
    grid = sorted({_as_fraction(g) for g in _iter(grid, "grid")})
    failures = []
    cases = 0
    for values in atom_grid_values(field, grid):
        phi = MeasurableFunction(field, values)
        cases += 1
        if function_of(field, spectral_family_of(phi)) != phi:
            failures.append(f"function round trip fails for {phi!r}")
    for fam in enumerate_families(field.lattice(), grid):
        cases += 1
        if spectral_family_of(function_of(field, fam)) != fam:
            failures.append(f"family round trip fails for {fam!r}")
    return cases, failures


class SetIdeal:
    """A downward closed, union closed subfamily of a field (never the whole
    ground set); principal over its union at finite scale."""

    __slots__ = ("field", "mask")

    def __init__(self, field: FieldOfSets, mask: int):
        _require_type(field, FieldOfSets, "an ideal needs a FieldOfSets")
        _require_member(field, mask)
        if mask == field.full:
            raise InputError("the ground set may not belong to an ideal")
        self.field = field
        self.mask = mask

    @classmethod
    def from_generators(cls, field: FieldOfSets, sets) -> "SetIdeal":
        _require_type(field, FieldOfSets, "an ideal needs a FieldOfSets")
        m = 0
        for s in _iter(sets, "generators"):
            sm = field.mask_of(s) if hasattr(s, "__iter__") else s
            _require_member(field, sm)
            m |= sm
        return cls(field, m)

    def members(self) -> tuple:
        return tuple(m for m in self.field.members() if m & ~self.mask == 0)

    def __contains__(self, mask: int) -> bool:
        return self.field.contains(mask) and mask & ~self.mask == 0

    def perp_members(self) -> tuple:
        """The dual filter: members whose complement lies in the ideal."""
        c = self.field.full ^ self.mask
        return tuple(m for m in self.field.members() if c & ~m == 0)

    def __repr__(self):
        return f"SetIdeal({self.field.set_name(self.mask)})"

    __eq__ = _eq_by("field", "mask")


def _require_member(field: FieldOfSets, mask) -> None:
    # a float or bool equal to a member would pass the set lookup
    if type(mask) is not int:
        raise InputError(f"ideal generator {mask!r} is not an int bitmask")
    if not field.contains(mask):
        raise InputError("ideal generator is not a member of the field")


def ideals_of(field: FieldOfSets) -> list:
    """Every ideal of the field, ordered by the atom subsets generating them."""
    # the full combination, which gives the ground set, is excluded
    return [SetIdeal(field, field.union_of(combo))
            for combo in range((1 << len(field.atoms)) - 1)]


class QuotientAlgebra:
    """The field modulo an ideal, realized on the surviving points.

    Classes under symmetric-difference-in-the-ideal equivalence biject with
    the members of the reduced field; ``class_of`` sends a member to its
    canonical representative (its union of surviving atoms).
    """

    def __init__(self, field: FieldOfSets, ideal: SetIdeal):
        _require_type(field, FieldOfSets, "a quotient needs a FieldOfSets")
        _require_type(ideal, SetIdeal, "a quotient needs a SetIdeal")
        _require_same(ideal.field, field, "ideal belongs to a different field")
        self.field = field
        self.ideal = ideal
        self.survivors = field.full ^ ideal.mask
        kept = [a for a in field.atoms if a & self.survivors]
        self.reduced = FieldOfSets.from_partition(field.labels_of(self.survivors),
                                                  map(field.labels_of, kept))
        # both fields list atoms by lowest point, and the labels keep their order
        self._atom_pairs = tuple(zip(kept, self.reduced.atoms))
        payload = field.lattice().payload
        self._embedded = tuple(k for k, a in enumerate(field.stone().atoms)
                               if payload[a] & ~self.survivors == 0)

    def class_of(self, mask: int) -> int:
        """Canonical representative (as a reduced-field mask) of a member."""
        if not self.field.contains(mask):
            raise InputError("not a member of the field")
        m = 0
        for a, r in self._atom_pairs:
            if a & mask:  # a member holds each atom it meets
                m |= r
        return m

    def lattice(self) -> Lattice:
        return self.reduced.lattice()

    def stone(self) -> StoneSpace:
        return self.reduced.stone()

    def embedded_point_indices(self) -> tuple:
        """Indices, into the original Stone space, of the quasipoints containing
        the ideal's dual filter: those of the atoms inside the survivors, in the
        reduced space's order (both list points by atom mask)."""
        return self._embedded


def quotient(field: FieldOfSets, ideal: SetIdeal) -> QuotientAlgebra:
    """Form the quotient algebra; rejects ideals containing the ground set."""
    return QuotientAlgebra(field, ideal)


def gamma_transform(phi: MeasurableFunction, q: QuotientAlgebra) -> ObservableFunction:
    """Observable function of the level-set family of phi, restricted to the
    quasipoints over the quotient; independent of the representative."""
    _require_same(q.field, phi.field, "quotient belongs to a different field")
    return _restrict(observable_function(spectral_family_of(phi)), q)


def _restrict(full: ObservableFunction, q: QuotientAlgebra) -> ObservableFunction:
    """A transform on the field's whole spectrum, read on the quasipoints
    over the quotient."""
    return ObservableFunction._of(q.stone(), [full.values[k] for k in q.embedded_point_indices()])


def lift_spectral_family(q: QuotientAlgebra, family: SpectralFamily) -> MeasurableFunction:
    """A point function on the whole ground set whose level-set classes
    reproduce a family in the quotient.

    The surviving points take the induced values; deleted points receive the
    top threshold, a canonical choice that keeps the level sets bounded.
    Any two lifts differ by a function vanishing outside the ideal.
    """
    reduced = iter(function_of(q.reduced, family).values)  # in survivor order
    top_t = family.thresholds[-1]
    return MeasurableFunction(q.field, [next(reduced) if q.survivors >> p & 1 else top_t
                                        for p in range(len(q.field.ground))])


def riemann_stieltjes_on_points(field: FieldOfSets, family: SpectralFamily,
                                grid) -> MeasurableFunction:
    """Pointwise step sum along a grid: the induced function rounded up to the
    grid, so within its largest gap, and exact when the grid holds every threshold."""
    return MeasurableFunction(field, _step_sum(family, grid, induced_function(field, family)))
