"""Stone spectra of finite lattices.

A dual ideal (filter) is a nonempty, upward closed, meet closed element set
not containing the bottom.  In a finite lattice every dual ideal is the up-set
of its least element, and a larger filter has a smaller least element, so the
quasipoints (maximal dual ideals) are exactly the up-sets of the atoms.  They
are enumerated in that closed form, each point keeping its generating atom;
the brute-force scan over all element subsets is the oracle in the test
suite.
"""

from __future__ import annotations

from .errors import InputError
from .lattice import MAX_ELEMENTS, Lattice, Record, bits

# element count above which a scan over all 2^n element families is refused
SCAN_CAP = 20


class DualIdeal(Record, frozen=True):
    """A filter, stored as a bitmask of element ids."""

    lattice: Lattice
    members: int

    def __contains__(self, e) -> bool:
        return bool(self.members >> self.lattice.eid(e) & 1)

    def element_names(self) -> tuple:
        return tuple(self.lattice.names[i] for i in bits(self.members))


def principal_dual_ideal(lattice: Lattice, a) -> DualIdeal:
    """The up-set of a single nonzero element."""
    ia = lattice.eid(a)
    if ia == lattice.bottom:
        raise InputError("a dual ideal may not contain the bottom element")
    return DualIdeal(lattice, lattice.up[ia])


def unions(masks) -> frozenset:
    """Every union of some of the masks, 0 included; stops with an error as
    soon as there are more than ``MAX_ELEMENTS`` of them."""
    acc = {0}
    for m in masks:
        acc |= {o | m for o in acc}
        if len(acc) > MAX_ELEMENTS:
            raise InputError(f"more than {MAX_ELEMENTS} open sets (the cap)")
    return frozenset(acc)


class StoneSpace:
    """All quasipoints of a lattice plus the basic open sets Q_a.

    ``atoms[k]`` is the atom generating the k-th quasipoint and ``points[k]``
    its member bitmask, the up-set of that atom; points are sorted by the tuple
    of member ids so two enumerations always agree.  ``base[a]`` is the
    bitmask, over point indices, of the quasipoints containing element a.
    The topology is discrete: Q_a of an atom a holds only the quasipoint
    that a generates, so every set of points is open and closed.
    """

    def __init__(self, lattice: Lattice, atoms):
        self.lattice = lattice
        self.atoms = tuple(atoms)
        self.points = tuple(lattice.up[a] for a in self.atoms)
        base = [0] * lattice.n
        for k, members in enumerate(self.points):
            for a in bits(members):
                base[a] |= 1 << k
        self.base = tuple(base)
        self.all_points = (1 << len(self.points)) - 1

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_name(self, k: int) -> str:
        names = self.lattice.names
        return "Q{" + ",".join(names[i] for i in bits(self.points[k])) + "}"

    def q(self, a) -> int:
        """The basic open set of quasipoints containing element a."""
        return self.base[self.lattice.eid(a)]

    def closure(self, x: int) -> int:
        """Smallest closed superset: the points of x, every set being closed."""
        return x & self.all_points

    def opens(self) -> frozenset:
        """Every open set of the spectrum: all sets of points, at most
        ``MAX_ELEMENTS`` of them."""
        return unions(1 << k for k in range(self.n_points))


def enumerate_quasipoints(lattice: Lattice) -> StoneSpace:
    """Every maximal dual ideal, as the up-sets of the atoms, deterministically."""
    up = lattice.up
    atoms = sorted(lattice.atoms(), key=lambda a: tuple(bits(up[a])))
    return StoneSpace(lattice, atoms)


def stone_space(lattice: Lattice) -> StoneSpace:
    """Memoized :func:`enumerate_quasipoints`."""
    if lattice._stone is None:
        lattice._stone = enumerate_quasipoints(lattice)
    return lattice._stone


def dual_ideal_intersection_law(lattice: Lattice, a) -> bool:
    """Does the intersection of all quasipoints containing a equal its up-set?

    True on atomistic lattices (all Boolean ones); fails e.g. at the top of a
    three-element chain, whose single quasipoint is strictly larger than {1}.
    """
    ia = lattice.eid(a)
    if ia == lattice.bottom:
        raise InputError("no quasipoint contains the bottom element")
    space = stone_space(lattice)
    acc = (1 << lattice.n) - 1
    for k in bits(space.base[ia]):
        acc &= space.points[k]
    return acc == lattice.up[ia]


def is_completely_distributive(lattice: Lattice):
    """Test closure(union of Q_a over a family) == Q_(join of family) for every family.

    The spectrum is discrete, so the closure is the union itself and this is
    the join law of ``base`` under ``|``: checked on pairs, with the subset
    scan only for the first failing family as element names; returns
    (bool, witness), capped at ``SCAN_CAP`` elements.  That law sees only
    the atoms, so on a finite lattice it is not complete distributivity,
    which there is distributivity: the pentagon N5 passes it.
    """
    if lattice.n > SCAN_CAP:
        raise InputError(f"complete-distributivity scan capped at {SCAN_CAP} elements")
    witness = lattice._first_unjoined(range(lattice.n), stone_space(lattice).base, int.__or__)
    return witness is None, witness
