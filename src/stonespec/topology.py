"""Finite topological spaces and the continuous-function correspondence.

Open-set lattices, regular open Boolean algebras, strongly regular step
families, quasipoints over points, the point-fibre function algebra and the
completely increasing calculus all live here.  The only finite Hausdorff
spaces are the discrete ones, so every fibre-based statement is exercised on
discrete spaces; everything else works for arbitrary finite topologies.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_

from .errors import InputError, UnsupportedStructureError
from .family import (ComplexObservableFunction, ObservableFunction,
                     SpectralFamily, first_hits, level_sets, observable_function,
                     point_values)
from .lattice import (MAX_ELEMENTS, Lattice, Record, _capped, _eq_by, _iter, _require_same,
                      _require_type, bits, label_masks)
from .stone import SCAN_CAP, StoneSpace, stone_space, unions


MAX_POINTS = 4096


def _points(points) -> tuple:
    """The labels as a tuple: distinct, nonempty and at most ``MAX_POINTS``."""
    try:
        points = tuple(_capped(points, MAX_POINTS, "point labels",
                               f"{{}} points exceed the cap of {MAX_POINTS}"))
        distinct = len(set(points))
    except TypeError:
        raise InputError("point labels must be an iterable of hashable values") from None
    if distinct != len(points):
        raise InputError("duplicate point labels")
    if not points:
        raise InputError("a space needs at least one point")
    return points


def _min_nbhds(masks, n: int) -> list:
    """For each of n points, the intersection of the masks that contain it
    (all n points if none does): its minimal open neighbourhood U_x when the
    masks are the opens of a topology, or generate one."""
    nbhd = [(1 << n) - 1] * n
    for m in masks:
        for i in bits(m):
            nbhd[i] &= m
    return nbhd


class TopSpace:
    """A finite topology, opens stored as point bitmasks."""

    def __init__(self, points, opens):
        self.points = points = _points(points)
        full = (1 << len(points)) - 1
        seen = set()
        for o in _iter(opens, "opens"):
            if type(o) is not int:
                raise InputError(f"open set {o!r} is not an int bitmask")
            seen.add(o)
            if len(seen) > MAX_ELEMENTS:
                raise InputError(f"more than {MAX_ELEMENTS} open sets (the cap)")
        if any(o < 0 or o > full for o in seen):
            raise InputError("open set outside the point set")
        if 0 not in seen or full not in seen:
            raise InputError("a topology must contain the empty set and the whole space")
        seq = sorted(seen)
        for a in seq:
            for b in seq:
                if a | b not in seen:
                    raise InputError(
                        f"not closed under union: {self.set_name(a)}, {self.set_name(b)}")
                if a & b not in seen:
                    raise InputError(
                        f"not closed under intersection: {self.set_name(a)}, {self.set_name(b)}")
        self._of_nbhds(points, _min_nbhds(seq, len(points)))

    def _of_nbhds(self, points: tuple, nbhd) -> "TopSpace":
        """The space whose minimal open neighbourhoods are ``nbhd`` and whose opens
        are their unions, trusted: points from ``_points``, U_x a preorder.  Every
        constructor ends here, on ``cls.__new__(cls)`` if it skips ``__init__``."""
        self.points = points
        self.full = (1 << len(points)) - 1
        self.opens = unions(nbhd)
        self._basis = tuple(sorted(self.opens))
        self._nbhd = tuple(nbhd)
        self._interior = {}
        self._lattice = self._r_lattice = None
        return self

    @classmethod
    def from_sets(cls, points, sets) -> "TopSpace":
        points = _points(points)
        return cls(points, label_masks({p: i for i, p in enumerate(points)}, sets))

    @classmethod
    def discrete(cls, points) -> "TopSpace":
        points = _points(points)
        return cls.__new__(cls)._of_nbhds(points, [1 << i for i in range(len(points))])

    @classmethod
    def generated(cls, points, sets) -> "TopSpace":
        """The least topology containing the sets: each point's minimal open
        neighbourhood is the intersection of the sets around it, and the opens
        are the unions of those neighbourhoods, built only up to the cap.
        The sets have no cap: they are read to their end."""
        points = _points(points)
        index = {p: i for i, p in enumerate(points)}
        nbhd = _min_nbhds(label_masks(index, sets), len(points))
        return cls.__new__(cls)._of_nbhds(points, nbhd)

    @cached_property
    def _index(self) -> dict:
        """Each point label's bit, built on the first lookup."""
        return {p: i for i, p in enumerate(self.points)}

    def index_of(self, label) -> int:
        """The bit of one point label; an unknown label is an input error."""
        return self.mask_of([label]).bit_length() - 1

    def mask_of(self, labels) -> int:
        return next(label_masks(self._index, [labels]))

    def set_name(self, mask: int) -> str:
        return "{" + ",".join(str(self.points[i]) for i in bits(mask)) + "}"

    @property
    def is_discrete(self) -> bool:
        """Computed Hausdorff flag: a finite space is Hausdorff iff discrete."""
        return len(self.opens) == self.full + 1

    def interior(self, x: int) -> int:
        """Largest open subset: the points p with U_p inside x."""
        try:
            return self._interior[x]
        except KeyError:
            acc = 0
            for p in bits(x & self.full):
                if self._nbhd[p] & ~x == 0:
                    acc |= 1 << p
            self._interior[x] = acc
            return acc

    def closure(self, x: int) -> int:
        """Smallest closed superset (complement of the interior of the complement)."""
        return self.full ^ self.interior(self.full ^ x)

    def pseudocomplement(self, u: int) -> int:
        """The complement of the closure; the ortho map of the regular opens."""
        return self.full ^ self.closure(u)

    def is_regular_open(self, u: int) -> bool:
        return u in self.opens and self.interior(self.closure(u)) == u

    def regular_opens(self) -> tuple:
        return tuple(filter(self.is_regular_open, self._basis))

    def lattice(self) -> Lattice:
        """The open sets ordered by inclusion (no orthocomplement)."""
        if self._lattice is None:
            masks = self._basis
            self._lattice = Lattice.from_sets(masks, map(self.set_name, masks))
        return self._lattice

    def r_lattice(self) -> Lattice:
        """The regular opens as a Boolean lattice, pseudocomplement as ortho."""
        if self._r_lattice is None:
            masks = self.regular_opens()
            self._r_lattice = Lattice.from_sets(
                masks, map(self.set_name, masks), self.pseudocomplement)
        return self._r_lattice

    def __repr__(self):
        return f"TopSpace({len(self.points)} points, {len(self.opens)} opens)"

    __eq__ = _eq_by("points", "opens")


# --- continuity and the induced families -------------------------------------


def _first_nonconstant(blocks, keys) -> int:
    """The index of the first of the masks ``blocks`` that ``keys`` is not
    constant on, or -1: continuity, measurability, fields, fibres and the
    infimum condition.  Only key equality is read."""
    for i, u in enumerate(blocks):
        k = keys[(u & -u).bit_length() - 1]
        for j in bits(u & (u - 1)):
            if keys[j] != k:
                return i
    return -1


def is_continuous(space: TopSpace, values) -> bool:
    """f is continuous iff it is constant on every minimal open neighbourhood.

    If y lies in U_x then x lies in the closure of {y}, so f(x) lies in the
    closure of {f(y)}, which is {f(y)} because the reals are T1.  Conversely,
    if f is constant on each U_x, the preimage of any set is the union of the
    U_x over its points, hence open (Alexandroff 1937; Stong 1966).
    Equivalently, every fibre is open: a fibre is the preimage of an open
    interval that isolates its value, and every preimage is a union of fibres.
    """
    _require_type(space, TopSpace, "a continuity check needs a TopSpace")
    return _first_nonconstant(space._nbhd, point_values(space.points, values)) < 0


def _family_of_levels(space: TopSpace, thresholds, masks) -> SpectralFamily:
    """The step family t -> interior({f <= t}) from ``level_sets`` of f's
    values: the level sets increase to the whole space, which is open, so
    their interiors do too, and the family is bounded and monotone."""
    lat = space.lattice()
    ids = lat.set_ids
    interior = space.interior
    return SpectralFamily._canonical(lat, thresholds, [ids[interior(m)] for m in masks])


def spectral_family_of_continuous(space: TopSpace, values):
    """The step family t -> interior(preimage of (-inf, t]).

    For continuous inputs this is strongly regular and induces the function
    back; for arbitrary inputs it is still a bounded family at finite scale.
    """
    _require_type(space, TopSpace, "a family of level sets needs a TopSpace")
    return _family_of_levels(space, *level_sets(point_values(space.points, values)))


def _family_payloads(space: TopSpace, family: SpectralFamily) -> list:
    lat = space.lattice()
    _require_same(family.lattice, lat, "family does not live in this space's open-set lattice")
    return [lat.payload[v] for v in family.values]


def is_strongly_regular(space: TopSpace, family: SpectralFamily):
    """closure(E at s) inside (E at t) for every s < t; returns (bool, witness).

    With step semantics the condition over all real pairs reduces to every
    step value being closed (pairs inside one step force closure(v) inside v;
    consecutive-step pairs follow by monotonicity).  The witness is a real
    pair (threshold, point inside the same step).
    """
    i = _first_unclosed(space, _family_payloads(space, family))
    if i < 0:
        return True, None
    ts = family.thresholds  # i is not the last: that value, the whole space, is closed
    return False, (ts[i], (ts[i] + ts[i + 1]) / 2)


def _first_unclosed(space: TopSpace, masks) -> int:
    """The index of the first mask that is not closed, or -1."""
    closure = space.closure
    return next((i for i, m in enumerate(masks) if closure(m) != m), -1)


def classify_family(space: TopSpace, family: SpectralFamily) -> str:
    """"strongly-regular", "regular" (all values regular open) or "neither"."""
    masks = _family_payloads(space, family)
    if _first_unclosed(space, masks) < 0:
        return "strongly-regular"
    if all(space.is_regular_open(m) for m in masks):
        return "regular"
    return "neither"


def induced_function(space: TopSpace, family: SpectralFamily) -> tuple:
    """The least threshold whose value contains each point (total, since the
    last value of a bounded family is the whole space)."""
    masks = _family_payloads(space, family)
    return tuple(first_hits(family.thresholds, masks, len(space.points)))


# --- quasipoints over points ---------------------------------------------------


class PtStructure(Record):
    """Quasipoints sorted by the points they sit over.

    ``q_x[i]`` is ``base[U_x]``, the quasipoints over the i-th point x: x lies
    in the closure of an atom A, a least nonempty open, iff U_x meets A iff A
    lies in U_x.  ``pt`` is the fibre map when the space is Hausdorff
    (discrete); otherwise fibres may overlap and no function is claimed.
    """

    space: TopSpace
    stone: StoneSpace
    q_x: tuple
    q_pt: int
    pt: dict | None

    def fibres(self) -> dict:
        out = {}
        for i, mask in enumerate(self.q_x):
            out[self.space.points[i]] = tuple(bits(mask))
        return out


def pt_structure(space: TopSpace) -> PtStructure:
    _require_type(space, TopSpace, "a point structure needs a TopSpace")
    lat = space.lattice()
    st = stone_space(lat)
    q_x = tuple(st.base[lat.set_ids[u]] for u in space._nbhd)
    q_pt = reduce(or_, q_x)
    pt = None
    if space.is_discrete:  # each quasipoint then lies over exactly one point
        pt = {k: i for i, mask in enumerate(q_x) for k in bits(mask)}
    return PtStructure(space, st, q_x, q_pt, pt)


def identification_check(p: PtStructure) -> bool:
    """A set is open iff its fibre preimage is open in the subspace of
    quasipoints over points.  Every preimage lies inside that subspace, and
    the spectrum is discrete, so every preimage is open: the check holds iff
    every set of points is open, i.e. the space is discrete."""
    return p.space.is_discrete


def covers_spectrum(p: PtStructure) -> bool:
    """Every quasipoint lies over some point (finite spaces are compact)."""
    return p.q_pt == p.stone.all_points


def cpt_membership(p: PtStructure, g: ObservableFunction) -> bool:
    """Is g constant on every fibre?  Needs a Hausdorff (discrete) space for
    the fibres to partition the spectrum."""
    if not p.space.is_discrete:
        raise UnsupportedStructureError(
            "fibre membership needs a Hausdorff (finite: discrete) space")
    _require_same(g.space.points, p.stone.points, "function lives on a different spectrum")
    return _first_nonconstant(p.q_x, g.values) < 0


def f_star(space: TopSpace, re_values, im_values=None):
    """Send a point function to the observable function of its level-set
    family; complex inputs go componentwise."""
    fr = observable_function(spectral_family_of_continuous(space, re_values))
    if im_values is None:
        return fr
    return ComplexObservableFunction(
        fr, observable_function(spectral_family_of_continuous(space, im_values)))


# --- the completely increasing calculus ----------------------------------------


def r_function(space: TopSpace, g: ObservableFunction) -> dict:
    """For g on the spectrum of the regular opens: r_g(U) is the maximum of g
    over the quasipoints containing U, for every nonzero regular open U."""
    lat = space.r_lattice()
    st = stone_space(lat)
    _require_same(g.space.points, st.points, "function lives on a different spectrum")
    return {e: max(g.values[k] for k in bits(st.base[e]))
            for e in range(lat.n) if e != lat.bottom}


def completely_increasing_check(lat: Lattice, r: dict):
    """r(join of a family) == max over the family, for every nonempty family
    of nonzero elements, capped at ``SCAN_CAP`` of them; returns (bool, witness)."""
    nz = [e for e in range(lat.n) if e != lat.bottom]
    if len(nz) > SCAN_CAP:
        raise InputError(f"completely-increasing scan capped at {SCAN_CAP} elements")
    witness = lat._first_unjoined(nz, r, max)
    return witness is None, witness


def star_condition_check(space: TopSpace, g: ObservableFunction):
    """For every point x and quasipoint over x (in the regular-open lattice):
    the infimum of r_g over the regular open neighbourhoods of x equals the
    infimum over the quasipoint.  Returns (bool, witness).  Each such
    neighbourhood contains V_x = int(cl(U_x)), itself one, so the first is
    r_g(V_x), the maximum of g over ``base[V_x]``, the quasipoints over x; the
    second is g there, at the atom: g must be constant on ``base[V_x]``."""
    lat = space.r_lattice()
    st = stone_space(lat)
    _require_same(g.space.points, st.points, "function lives on a different spectrum")
    blocks = [st.base[lat.set_ids[space.interior(space.closure(u))]] for u in space._nbhd]
    p = _first_nonconstant(blocks, g.values)
    if p < 0:
        return True, None
    inf_nbhd = max(g.values[k] for k in bits(blocks[p]))
    k = next(k for k in bits(blocks[p]) if g.values[k] != inf_nbhd)
    return False, (space.points[p], st.point_name(k))


# --- exhaustive topology generation --------------------------------------------


_TOPOLOGY_CACHE = {}


def all_topologies(n: int) -> tuple:
    """Every topology on n labeled points (1, 4, 29, 355, 6942 for n = 1..5).

    A finite topology is fixed by its minimal open neighbourhoods U_x, and
    the vectors (U_1, ..., U_n) that occur are exactly those with x in U_x
    and y in U_x => U_y inside U_x, i.e. the preorders on the points (Stong
    1966).  The vectors are built point by point, each new U_x checked
    against the ones before it; the opens are the unions of the U_x.
    """
    if n < 1:
        raise InputError("need at least one point")
    if n > 5:
        raise InputError("exhaustive topology generation capped at 5 points")
    if n in _TOPOLOGY_CACHE:
        return _TOPOLOGY_CACHE[n]
    labels = tuple(str(i + 1) for i in range(n))
    spaces = []
    nbhd = []

    def extend(i: int) -> None:
        if i == n:
            spaces.append(TopSpace.__new__(TopSpace)._of_nbhds(labels, nbhd))
            return
        for u in range(1 << n):
            if u >> i & 1 and all(
                    (not u >> j & 1 or v & ~u == 0) and (not v >> i & 1 or u & ~v == 0)
                    for j, v in enumerate(nbhd)):
                nbhd.append(u)
                extend(i + 1)
                nbhd.pop()

    extend(0)
    spaces = tuple(sorted(spaces, key=lambda t: (len(t.opens), t._basis)))
    _TOPOLOGY_CACHE[n] = spaces
    return spaces
