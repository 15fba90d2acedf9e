"""Finite bounded lattices with optional orthocomplement.

Element ids are dense integers backed by a name table, and every element set
is a bitmask, so lattices are capped at ``MAX_ELEMENTS`` (64) elements.
Meet and join are resolved through tables computed once per lattice; all
values are immutable after construction.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import InputError, NoOrthocomplementError

MAX_ELEMENTS = 64

_ATOM_LETTERS = "xyzwvu"
_PAIR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def bits(mask: int):
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def label_masks(index, sets):
    """Yield the bitmask of each set of point labels as it is read, bit
    ``index[p]`` standing for label p."""
    for s in _iter(sets, "sets"):
        m = 0
        for p in _iter(s, "a set of points"):
            try:
                m |= 1 << index[p]
            except (KeyError, TypeError):  # an unhashable label is unknown too
                raise InputError(f"unknown point {p!r}") from None
        yield m


def _iter(x, what: str):
    """``iter(x)``, so an iterable streams; anything else is an ``InputError``."""
    try:
        return iter(x)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {type(x).__name__}") from None


def _eq_by(*fields):
    """The ``__eq__`` of a value class: its ``fields`` (dotted paths allowed)
    compared in order, with an object of the same class only.  A class that
    sets it in its body is unhashable, as with a hand-written ``__eq__``."""
    key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)
    return __eq__


def _require_type(x, cls, message: str) -> None:
    """Raise ``InputError(message)``, naming the type of ``x``, unless it is a ``cls``."""
    if not isinstance(x, cls):
        raise InputError(f"{message}, got {type(x).__name__}")


def _require_same(a, b, message: str) -> None:
    """Raise ``InputError(message)`` unless ``a`` and ``b`` are one object or
    equal: the guard that two values share a lattice, a spectrum or a field."""
    if a is not b and a != b:
        raise InputError(message)


class Record:
    """A record declared like a dataclass, without the start-up cost of
    :mod:`dataclasses`: a subclass's annotated names are its positional fields,
    a value given to one is its default (a list is copied per record), repr and
    equality follow the fields, and ``class R(Record, frozen=True)`` records
    are immutable and hashable."""

    __hash__ = None  # __eq__ is set per subclass, after its class is made

    def __init_subclass__(cls, frozen=False):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls.__eq__ = _eq_by(*cls._fields)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._frozen
            cls.__hash__ = lambda self: hash(tuple(getattr(self, f) for f in self._fields))

    def __init__(self, *args):
        fields = self._fields
        if not len(fields) - len(self._defaults) <= len(args) <= len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(zip(fields, args))
        for f in fields[len(args):]:
            d = self._defaults[f]
            self.__dict__[f] = d.copy() if type(d) is list else d

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")


class Violation(Record, frozen=True):
    code: str
    message: str
    witness: tuple = ()


class ValidationReport(Record):
    entries: list

    @property
    def ok(self) -> bool:
        return not self.entries

    def codes(self) -> set:
        return {v.code for v in self.entries}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"{v.code}: {v.message}" for v in self.entries)


class Lattice:
    """A finite bounded poset with meet/join tables and an optional ortho map.

    ``order`` is any set of pairs (a, b) meaning a <= b; the reflexive
    transitive closure is taken, so covering pairs suffice.  ``flags`` are
    claimed properties ("distributive", "orthomodular") checked by
    :meth:`validate`.  Lattices of sets (:meth:`from_sets`) store their masks
    in ``payload`` and map them back to ids through ``set_ids``; both are
    None on every other lattice.
    """

    def __init__(self, names: Sequence[str], order: Iterable[tuple], *,
                 ortho=None, flags: Iterable[str] = ()):
        self._set_names(names)
        n = self.n
        up = [1 << i for i in range(n)]
        for pair in _iter(order, "order"):
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise InputError(f"order item {pair!r} is not a pair") from None
            up[self.eid(a)] |= 1 << self.eid(b)
        # Warshall: after step k, up[i] has every element reached from i
        # through intermediates among 0..k
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        if ortho is not None:
            omap = [None] * n
            if isinstance(ortho, Mapping):
                for a, b in ortho.items():
                    ia, ib = self.eid(a), self.eid(b)
                    omap[ia], omap[ib] = ib, ia
            else:
                for ia, b in enumerate(_iter(ortho, "ortho")):
                    if ia == n:
                        raise InputError(f"ortho map has more than {n} entries")
                    omap[ia] = self.eid(b)
            ortho = omap
        self._set_order(up, ortho, flags)

    @classmethod
    def from_sets(cls, masks, names, complement=None) -> "Lattice":
        """The sets ``masks`` ordered by inclusion, as a lattice of sets.

        ``payload`` holds the masks and ``set_ids`` maps each back to its id.
        With a ``complement`` map on masks the lattice carries it as ortho and
        is claimed Boolean (flags "distributive" and "orthomodular").
        """
        lat = cls.__new__(cls)
        lat._set_names(names)
        masks = tuple(_iter(masks, "sets"))
        if len(masks) != lat.n:
            raise InputError(f"{len(masks)} sets for {lat.n} element names")
        try:
            ids = {m: i for i, m in enumerate(masks)}
            if len(ids) != len(masks):
                raise InputError("duplicate sets")
            up = []
            for a in masks:
                if a < 0:  # refused with the masks that are not ints
                    raise TypeError
                u = 0
                for j, b in enumerate(masks):
                    if a & ~b == 0:
                        u |= 1 << j
                up.append(u)
        except TypeError:
            raise InputError("sets must be non-negative int masks") from None
        if complement is None:
            lat._set_order(up, None, ())
        else:
            lat._set_order(up, [ids.get(complement(m)) for m in masks],
                           ("distributive", "orthomodular"))
        lat.payload, lat.set_ids = masks, ids
        return lat

    def _set_names(self, names):
        names = tuple(_iter(names, "element names"))
        if not names:
            raise InputError("a lattice needs at least one element")
        if len(names) > MAX_ELEMENTS:
            raise InputError(f"{len(names)} elements exceed the cap of {MAX_ELEMENTS}")
        for s in names:
            if not isinstance(s, str):
                raise InputError(f"element name {s!r} is not a str")
        if len(set(names)) != len(names):
            raise InputError("duplicate element names")
        self.names = names
        self.index = {s: i for i, s in enumerate(names)}
        self.n = len(names)

    def _set_order(self, up, ortho, flags):
        """Finish construction from the closed order ``up`` and the ortho ids."""
        n = self.n
        self.up = tuple(up)
        down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                down[j] |= 1 << i
        self.down = tuple(down)

        full = (1 << n) - 1
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        self.bottom = bottoms[0] if len(bottoms) == 1 else None
        self.top = tops[0] if len(tops) == 1 else None

        if ortho is not None and None in ortho:
            missing = [self.names[i] for i, o in enumerate(ortho) if o is None]
            raise InputError(f"ortho map is not total; missing: {missing}")
        self.ortho = None if ortho is None else tuple(ortho)

        try:
            self.flags = frozenset(flags)
            unknown = sorted(self.flags - {"distributive", "orthomodular"})
        except TypeError:  # not iterable, or flags that do not hash or sort
            raise InputError("lattice flags must be an iterable of strs") from None
        if unknown:
            raise InputError(f"unknown lattice flags: {unknown}")
        self.payload = self.set_ids = None

        self._meet = None
        self._join = None
        self._table_failures = None
        self._stone = None

    # -- identity ---------------------------------------------------------

    def eid(self, e) -> int:
        """Resolve an element name (or int id) to its dense id."""
        if type(e) is int:
            if not 0 <= e < self.n:
                raise InputError(f"element id {e} out of range")
            return e
        if not isinstance(e, str):
            raise InputError(f"element {e!r} is neither a name nor an int id")
        try:
            return self.index[e]
        except KeyError:
            raise InputError(f"unknown element {e!r}") from None

    __eq__ = _eq_by("names", "up", "ortho", "flags", "payload")

    def __repr__(self):
        return f"Lattice({self.n} elements, bottom={self.names[self.bottom] if self.bottom is not None else '?'})"

    # -- order and operations ----------------------------------------------

    def le(self, a, b) -> bool:
        return bool(self.up[self.eid(a)] >> self.eid(b) & 1)

    def _tables(self):
        if self._meet is None:
            self._compute_tables()
        if self._table_failures:
            a, b, kind = self._table_failures[0]
            raise InputError(
                f"not a lattice: {self.names[a]}, {self.names[b]} have no {kind}")
        return self._meet, self._join

    def _compute_tables(self):
        n = self.n
        by_down = {self.down[i]: i for i in range(n)}
        by_up = {self.up[i]: i for i in range(n)}
        meet = [[None] * n for _ in range(n)]
        join = [[None] * n for _ in range(n)]
        failures = []
        for a in range(n):
            da, ua = self.down[a], self.up[a]
            for b in range(a, n):
                m = by_down.get(da & self.down[b])
                j = by_up.get(ua & self.up[b])
                meet[a][b] = meet[b][a] = m
                join[a][b] = join[b][a] = j
                if m is None:
                    failures.append((a, b, "greatest lower bound"))
                if j is None:
                    failures.append((a, b, "least upper bound"))
        self._meet, self._join, self._table_failures = meet, join, failures

    def meet2(self, a, b) -> int:
        meet, _ = self._tables()
        return meet[self.eid(a)][self.eid(b)]

    def join2(self, a, b) -> int:
        _, join = self._tables()
        return join[self.eid(a)][self.eid(b)]

    def meet(self, elements: Iterable) -> int:
        """Greatest lower bound of a set of elements; meet of nothing is top."""
        if self.top is None:
            raise InputError("lattice has no top")
        return self._fold(self._tables()[0], self.top, elements)

    def join(self, elements: Iterable) -> int:
        """Least upper bound of a set of elements; join of nothing is bottom."""
        if self.bottom is None:
            raise InputError("lattice has no bottom")
        return self._fold(self._tables()[1], self.bottom, elements)

    def _fold(self, table, acc: int, elements) -> int:
        for e in elements:
            acc = table[acc][self.eid(e)]
        return acc

    def _first_unjoined(self, elements, image, plus):
        """The first nonempty family of ``elements`` whose join ``image``
        does not send to the ``plus`` of its images, as element names, or
        None if there is none.

        With ``elements`` closed under join and ``plus`` associative,
        commutative and idempotent, the law holds for every family iff it
        holds for every pair, by induction on the family size.  Only if a
        pair fails are the families scanned, in bitmask order over
        ``elements``, each built from the one without its lowest member.
        """
        _, join = self._tables()
        if all(image[join[a][b]] == plus(image[a], image[b])
               for i, a in enumerate(elements) for b in elements[i + 1:]):
            return None
        total = 1 << len(elements)
        join_of, plus_of = [None] * total, [None] * total
        for s in range(1, total):
            low = s & -s
            e = elements[low.bit_length() - 1]
            rest = s ^ low
            join_of[s] = join[join_of[rest]][e] if rest else e
            plus_of[s] = plus(plus_of[rest], image[e]) if rest else image[e]
            if image[join_of[s]] != plus_of[s]:
                return tuple(self.names[elements[j]] for j in bits(s))
        return None

    def ortho_of(self, a) -> int:
        if self.ortho is None:
            raise NoOrthocomplementError("lattice carries no orthocomplement")
        return self.ortho[self.eid(a)]

    def atoms(self) -> tuple:
        """Minimal nonzero elements, in id order."""
        if self.bottom is None:
            raise InputError("lattice has no bottom")
        b = self.bottom
        return tuple(
            a for a in range(self.n)
            if a != b and self.down[a] == (1 << a) | (1 << b))

    # -- structural checks ---------------------------------------------------

    def _join_irreducibles_are_prime(self, join) -> bool:
        """Is every join-irreducible j join-prime (j <= a|b implies j <= a or
        j <= b)?  On a finite lattice this is equivalent to distributivity
        (Birkhoff), in O(n^2) mask operations.  False on an order that is
        not antisymmetric, whose tables may exist without it being a lattice."""
        down = self.down
        if len(set(down)) != self.n:
            return False
        irreducible = 0
        for j in range(self.n):
            below = None  # the join of the elements strictly below j
            for e in bits(down[j] ^ 1 << j):
                below = e if below is None else join[below][e]
            if below is not None and below != j:
                irreducible |= 1 << j
        for a in range(self.n):
            da, ja = down[a], join[a]
            for b in range(a + 1, self.n):
                if down[ja[b]] & irreducible != (da | down[b]) & irreducible:
                    return False
        return True

    def is_distributive(self):
        """a&(b|c) == (a&b)|(a&c) for all triples; returns (bool, witness).

        The O(n^2) join-prime test settles the distributive case; the O(n^3)
        triple scan runs only to find the witness of a failure."""
        meet, join = self._tables()
        if self._join_irreducibles_are_prime(join):
            return True, None
        rng = range(self.n)
        for a in rng:
            ma = meet[a]
            for b in rng:
                ab = ma[b]
                for c in rng:
                    if ma[join[b][c]] != join[ab][ma[c]]:
                        return False, (self.names[a], self.names[b], self.names[c])
        return True, None

    def is_orthomodular(self):
        """a <= b implies b == a | (b & a^perp); returns (bool, witness)."""
        if self.ortho is None:
            return False, None
        meet, join = self._tables()
        for a in range(self.n):
            oa = self.ortho[a]
            for b in bits(self.up[a]):
                if join[a][meet[b][oa]] != b:
                    return False, (self.names[a], self.names[b])
        return True, None

    def validate(self) -> ValidationReport:
        """Check every structural invariant; violations become report entries.

        Reflexivity and transitivity hold by construction (the constructor
        closes the order), so the order axioms reduce to antisymmetry here.
        """
        entries = []
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if self.up[a] >> b & 1 and self.up[b] >> a & 1:
                    entries.append(Violation(
                        "antisymmetry",
                        f"{self.names[a]} and {self.names[b]} are mutually comparable",
                        (self.names[a], self.names[b])))
        if self.bottom is None:
            entries.append(Violation("bounds", "no unique bottom element"))
        if self.top is None:
            entries.append(Violation("bounds", "no unique top element"))
        if entries:
            return ValidationReport(entries)

        if self._meet is None:
            self._compute_tables()
        for a, b, kind in self._table_failures:
            entries.append(Violation(
                "lattice-law", f"{self.names[a]}, {self.names[b]} have no {kind}",
                (self.names[a], self.names[b])))
        if entries:
            return ValidationReport(entries)

        if self.ortho is not None:
            o = self.ortho
            for a in range(self.n):
                if o[o[a]] != a:
                    entries.append(Violation(
                        "ortho-involution", f"ortho is not involutive at {self.names[a]}",
                        (self.names[a],)))
                for b in bits(self.up[a]):
                    if not self.up[o[b]] >> o[a] & 1:
                        entries.append(Violation(
                            "ortho-antitone",
                            f"{self.names[a]} <= {self.names[b]} but complements are not reversed",
                            (self.names[a], self.names[b])))
                if self.meet2(a, o[a]) != self.bottom or self.join2(a, o[a]) != self.top:
                    entries.append(Violation(
                        "ortho-complement",
                        f"{self.names[a]} and {self.names[o[a]]} are not complements",
                        (self.names[a],)))

        if "orthomodular" in self.flags:
            if self.ortho is None:
                entries.append(Violation(
                    "orthomodular", "flagged orthomodular but carries no ortho map"))
            else:
                ok, witness = self.is_orthomodular()
                if not ok:
                    a, b = witness
                    entries.append(Violation(
                        "orthomodular", f"orthomodular law fails at {a} <= {b}",
                        witness))
        if "distributive" in self.flags:
            ok, witness = self.is_distributive()
            if not ok:
                entries.append(Violation(
                    "distributive",
                    "distributive law fails at ({}, {}, {})".format(*witness),
                    witness))
        return ValidationReport(entries)


# --- standard constructions ------------------------------------------------


def boolean_lattice(n: int) -> Lattice:
    """Power set of n atoms (n <= 6 under the 64-element cap)."""
    if n < 1:
        raise InputError("boolean lattice needs at least one atom")
    if n > len(_ATOM_LETTERS):
        raise InputError(f"boolean lattice capped at {len(_ATOM_LETTERS)} atoms")
    letters = _ATOM_LETTERS[:n]
    full = (1 << n) - 1

    def label(mask):
        if mask == 0:
            return "0"
        if mask == full:
            return "1"
        return "".join(letters[i] for i in bits(mask))

    masks = range(1 << n)
    return Lattice.from_sets(masks, map(label, masks), full.__xor__)


def chain_lattice(n: int) -> Lattice:
    """Total order 0 < m1 < ... < 1 with n elements; no orthocomplement."""
    if n < 1:
        raise InputError("chain needs at least one element")
    if n > MAX_ELEMENTS:
        raise InputError(f"{n} elements exceed the cap of {MAX_ELEMENTS}")
    names = ["0", *(f"m{i}" for i in range(1, n - 1)), "1"][:n]
    order = [(names[i], names[i + 1]) for i in range(n - 1)]
    return Lattice(names, order, flags=("distributive",))


def mo_lattice(n: int) -> Lattice:
    """0 and 1 plus n orthocomplementary pairs of pairwise incomparable atoms."""
    if n < 1:
        raise InputError("MO lattice needs at least one atom pair")
    if n > len(_PAIR_LETTERS):
        raise InputError(f"MO lattice capped at {len(_PAIR_LETTERS)} pairs")
    mids = []
    for i in range(n):
        mids += [_PAIR_LETTERS[i], _PAIR_LETTERS[i] + "'"]
    names = ["0"] + mids + ["1"]
    order = [("0", m) for m in mids] + [(m, "1") for m in mids] + [("0", "1")]
    ortho = {"0": "1"}
    for i in range(n):
        ortho[_PAIR_LETTERS[i]] = _PAIR_LETTERS[i] + "'"
    flags = ("orthomodular", "distributive") if n == 1 else ("orthomodular",)
    return Lattice(names, order, ortho=ortho, flags=flags)


def product_lattice(l1: Lattice, l2: Lattice) -> Lattice:
    """Componentwise order; ortho carried over when both factors have one."""
    names = [f"({a}|{b})" for a in l1.names for b in l2.names]
    pairs = [(a1, a2, b1, b2)
             for a1 in range(l1.n) for a2 in range(l2.n)
             for b1 in range(l1.n) for b2 in range(l2.n)
             if l1.le(a1, b1) and l2.le(a2, b2)]
    order = [(names[a1 * l2.n + a2], names[b1 * l2.n + b2]) for a1, a2, b1, b2 in pairs]
    ortho = None
    if l1.ortho is not None and l2.ortho is not None:
        ortho = [l1.ortho[i // l2.n] * l2.n + l2.ortho[i % l2.n]
                 for i in range(l1.n * l2.n)]
    return Lattice(names, order, ortho=ortho, flags=l1.flags & l2.flags)
