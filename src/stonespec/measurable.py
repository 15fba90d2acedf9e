"""Finite fields of sets, measurable functions, ideals and quotients.

A field of sets is stored by its atom partition: membership, complement and
union are block operations, and measurability of a point function is
constancy on atoms.  Quotients by an ideal are realized by deleting the
ideal's atoms, which keeps every class canonical (each class is represented
by its union of surviving atoms).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import InputError
from .family import (ObservableFunction, SpectralFamily, _as_fraction, _step_sum,
                     first_hits, level_sets, observable_function, point_values)
from .lattice import Lattice, bits, label_masks
from .stone import StoneSpace, stone_space


class FieldOfSets:
    """A finite algebra of subsets of a finite ground set."""

    def __init__(self, ground, atoms):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise InputError("duplicate points in the ground set")
        if not self.ground:
            raise InputError("ground set must be nonempty")
        self.full = (1 << len(self.ground)) - 1
        atoms = list(atoms)
        for a in atoms:
            if type(a) is not int:
                raise InputError(f"atom {a!r} is not an int bitmask")
        atoms = sorted(atoms, key=lambda m: m & -m)
        union = 0
        for a in atoms:
            if a == 0:
                raise InputError("empty atom")
            if a & union:
                raise InputError("atoms overlap")
            union |= a
        if union != self.full:
            raise InputError("atoms do not cover the ground set")
        if len(atoms) > 6:
            raise InputError("fields capped at 6 atoms (64-element lattice cap)")
        self.atoms = tuple(atoms)
        self._lattice = None

    @classmethod
    def from_partition(cls, ground, blocks) -> "FieldOfSets":
        """Build from a partition given as iterables of point labels."""
        ground = tuple(ground)
        return cls(ground, label_masks(ground, blocks))

    @classmethod
    def from_family(cls, ground, sets) -> "FieldOfSets":
        """Build from an explicit family, validating the closure laws."""
        ground = tuple(ground)
        full = (1 << len(ground)) - 1
        fam = set(label_masks(ground, sets))
        if 0 not in fam or full not in fam:
            raise InputError("a field of sets must contain the empty set and the ground set")
        for m in fam:
            if full ^ m not in fam:
                raise InputError("family is not closed under complement")
        for a in fam:
            for b in fam:
                if a | b not in fam:
                    raise InputError("family is not closed under union")
        atoms = []
        for m in sorted(fam):
            if m and not any(other and other & ~m == 0 and other != m for other in fam):
                atoms.append(m)
        field = cls(ground, atoms)
        if set(field.members()) != fam:
            raise InputError("family is not generated by its minimal members")
        return field

    def mask_of(self, points) -> int:
        return label_masks(self.ground, [points])[0]

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.ground[i] for i in bits(mask))

    def set_name(self, mask: int) -> str:
        return "{" + ",".join(str(self.ground[i]) for i in bits(mask)) + "}"

    def union_of(self, combo: int) -> int:
        """The union of the atoms picked by the set bits of ``combo``."""
        m = 0
        for i in bits(combo):
            m |= self.atoms[i]
        return m

    def members(self) -> tuple:
        """Every union of atoms, sorted by mask value."""
        return tuple(sorted(map(self.union_of, range(1 << len(self.atoms)))))

    def contains(self, mask: int) -> bool:
        covered = 0
        for a in self.atoms:
            if a & mask:
                if a & ~mask:
                    return False
                covered |= a
        return covered == mask

    def lattice(self) -> Lattice:
        """The member sets as a Boolean lattice, complement as ortho."""
        if self._lattice is None:
            masks = self.members()
            self._lattice = Lattice.from_sets(
                masks, map(self.set_name, masks), self.full.__xor__)
        return self._lattice

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.atoms) == (other.ground, other.atoms)


def all_fields(ground) -> list:
    """Every field of sets on the ground set, one per partition."""
    ground = tuple(ground)
    n = len(ground)
    out = []
    # restricted-growth strings enumerate set partitions canonically
    def rec(i, code, k):
        if i == n:
            blocks = [0] * k
            for p, c in enumerate(code):
                blocks[c] |= 1 << p
            out.append(FieldOfSets(ground, blocks))
            return
        for c in range(k + 1):
            rec(i + 1, code + [c], max(k, c + 1))
    rec(0, [], 0)
    return out


class MeasurableFunction:
    """A rational point function constant on every atom of its field."""

    __slots__ = ("field", "values")

    def __init__(self, field: FieldOfSets, values):
        values = point_values(field.ground, values)
        for a in field.atoms:
            low = a & -a
            first = values[low.bit_length() - 1]
            if any(values[p] != first for p in bits(a ^ low)):
                raise InputError(
                    f"function is not measurable: not constant on atom {field.set_name(a)}")
        self.field = field
        self.values = values

    def __call__(self, point) -> Fraction:
        return self.values[self.field.ground.index(point)]

    def level_mask(self, t) -> int:
        """The member set of points with value <= t."""
        t = _as_fraction(t)
        m = 0
        for i, v in enumerate(self.values):
            if v <= t:
                m |= 1 << i
        return m

    def __repr__(self):
        pairs = ", ".join(f"{p}: {v}" for p, v in zip(self.field.ground, self.values))
        return "MeasurableFunction{" + pairs + "}"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.values) == (other.field, other.values)

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)


def spectral_family_of(phi: MeasurableFunction) -> SpectralFamily:
    """Level sets of phi as a family in the field's lattice: E at t is
    the preimage of (-inf, t]."""
    lat = phi.field.lattice()
    levels = level_sets(phi.values)
    # sorted distinct values, growing level sets ending at the ground set
    return SpectralFamily._canonical(lat, [phi.values[i] for i, _ in levels],
                                     [lat.set_ids[mask] for _, mask in levels])


def function_of(field: FieldOfSets, family: SpectralFamily) -> MeasurableFunction:
    """The point function induced by a family in a field of sets: each point
    maps to the least threshold whose value contains it."""
    lat = field.lattice()
    if family.lattice is not lat and family.lattice != lat:
        raise InputError("family does not live in this field's lattice")
    values, missed = first_hits(family.thresholds,
                                [lat.payload[v] for v in family.values], len(field.ground))
    if missed:
        raise InputError("family is not bounded above")
    return MeasurableFunction(field, values)


def atom_grid_values(field: FieldOfSets, grid):
    """Yield the point values of every function that is constant on the
    field's atoms with values from ``grid``, in product order over the atoms."""
    for assignment in product(grid, repeat=len(field.atoms)):
        values = [None] * len(field.ground)
        for a, v in zip(field.atoms, assignment):
            for p in bits(a):
                values[p] = v
        yield values


def bijection_report(field: FieldOfSets, grid):
    """Round-trip both transforms over every function and family on a grid.

    Returns (cases, failures); an empty failure list realizes the bijection
    between measurable functions and bounded spectral families.
    """
    from .family import enumerate_families

    grid = sorted(_as_fraction(g) for g in set(grid))
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
        if not field.contains(mask):
            raise InputError("ideal generator is not a member of the field")
        if mask == field.full:
            raise InputError("the ground set may not belong to an ideal")
        self.field = field
        self.mask = mask

    @classmethod
    def from_generators(cls, field: FieldOfSets, sets) -> "SetIdeal":
        m = 0
        for s in sets:
            sm = s if isinstance(s, int) else field.mask_of(s)
            if not field.contains(sm):
                raise InputError("ideal generator is not a member of the field")
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.mask) == (other.field, other.mask)


def ideals_of(field: FieldOfSets) -> list:
    """Every ideal of the field, ordered by the atom subsets generating them."""
    # the full combination, which gives the ground set, is excluded
    return [SetIdeal(field, field.union_of(combo))
            for combo in range((1 << len(field.atoms)) - 1)]


def _moved(mask: int, where) -> int:
    """``mask`` with each set bit p moved to bit ``where[p]``."""
    m = 0
    for p in bits(mask):
        m |= 1 << where[p]
    return m


class QuotientAlgebra:
    """The field modulo an ideal, realized on the surviving points.

    Classes under symmetric-difference-in-the-ideal equivalence biject with
    the members of the reduced field; ``class_of`` sends a member to its
    canonical representative (its union of surviving atoms).
    """

    def __init__(self, field: FieldOfSets, ideal: SetIdeal):
        if ideal.field != field:
            raise InputError("ideal belongs to a different field")
        self.field = field
        self.ideal = ideal
        self.survivors = field.full ^ ideal.mask
        keep_points = [p for p in range(len(field.ground)) if self.survivors >> p & 1]
        ground = tuple(field.ground[p] for p in keep_points)
        self._shift = {p: i for i, p in enumerate(keep_points)}
        self.reduced = FieldOfSets(ground, [_moved(a, self._shift) for a in field.atoms
                                            if a & self.survivors])
        self._unshift = keep_points
        self._embedded = None

    def class_of(self, mask: int) -> int:
        """Canonical representative (as a reduced-field mask) of a member."""
        if not self.field.contains(mask):
            raise InputError("not a member of the field")
        return _moved(mask & self.survivors, self._shift)

    def class_members(self, reduced_mask: int) -> tuple:
        """All original members in the class of a reduced member."""
        return tuple(m for m in self.field.members()
                     if self.class_of(m) == reduced_mask)

    def lattice(self) -> Lattice:
        return self.reduced.lattice()

    def stone(self) -> StoneSpace:
        return self.reduced.stone()

    def embedded_point_indices(self) -> tuple:
        """Indices, into the original Stone space, of the quasipoints containing
        the ideal's dual filter, ordered to match the reduced Stone space."""
        if self._embedded is None:
            space = self.field.stone()
            lat = self.field.lattice()
            perp_ids = [lat.set_ids[m] for m in self.ideal.perp_members()]
            # order by the generating atom, matching the reduced enumeration
            by_atom = {lat.payload[a]: k for k, (a, members)
                       in enumerate(zip(space.atoms, space.points))
                       if all(members >> e & 1 for e in perp_ids)}
            reduced = self.stone()
            self._embedded = tuple(by_atom[_moved(reduced.lattice.payload[a], self._unshift)]
                                   for a in reduced.atoms)
        return self._embedded


def quotient(field: FieldOfSets, ideal: SetIdeal) -> QuotientAlgebra:
    """Form the quotient algebra; rejects ideals containing the ground set."""
    return QuotientAlgebra(field, ideal)


def gamma_transform(phi: MeasurableFunction, q) -> ObservableFunction:
    """Observable function of the level-set family of phi, restricted to the
    quasipoints over the quotient; independent of the representative."""
    if isinstance(q, SetIdeal):
        q = QuotientAlgebra(phi.field, q)
    if q.field != phi.field:
        raise InputError("quotient belongs to a different field")
    return _restrict(observable_function(spectral_family_of(phi), phi.field.stone()), q)


def _restrict(full: ObservableFunction, q: QuotientAlgebra) -> ObservableFunction:
    """A transform on the field's whole spectrum, read on the quasipoints
    over the quotient."""
    return ObservableFunction(q.stone(), [full.values[k] for k in q.embedded_point_indices()])


def lift_spectral_family(q: QuotientAlgebra, family: SpectralFamily) -> MeasurableFunction:
    """A point function on the whole ground set whose level-set classes
    reproduce a family in the quotient.

    The surviving points take the induced values; deleted points receive the
    top threshold, a canonical choice that keeps the level sets bounded.
    Any two lifts differ by a function vanishing outside the ideal.
    """
    reduced_phi = function_of(q.reduced, family)
    top_t = family.thresholds[-1]
    values = []
    for p in range(len(q.field.ground)):
        if q.survivors >> p & 1:
            values.append(reduced_phi.values[q._shift[p]])
        else:
            values.append(top_t)
    return MeasurableFunction(q.field, values)


def riemann_stieltjes_on_points(field: FieldOfSets, family: SpectralFamily,
                                grid) -> MeasurableFunction:
    """Pointwise step sum along a grid; within the largest gap of the induced
    function, exact when the grid contains all thresholds."""
    lat = field.lattice()
    if family.lattice is not lat and family.lattice != lat:
        raise InputError("family does not live in this field's lattice")
    return MeasurableFunction(field, _step_sum(family, grid, lat.payload, len(field.ground)))
