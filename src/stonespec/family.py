"""Bounded step spectral families and their observable functions.

A family is a finite list of strictly increasing rational thresholds with
monotone lattice values, read as "value v_i on [t_i, t_{i+1})", bottom below
the first threshold and (by the boundedness requirement) top from the last
one on.  All scalars are exact rationals; the canonical form drops vacuous
jumps so equality of families is plain equality of representations.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from functools import partialmethod
from itertools import combinations
from math import lcm

from .errors import InputError, InvalidFamilyError, UnsupportedStructureError
from .lattice import Lattice, Record, _eq_by, _iter, _require_same, _require_type, bits
from .stone import StoneSpace, stone_space


def parse_rational(x):
    """The exact value of a ``Fraction`` (shared, as it is immutable), an int,
    a ``Decimal`` or a string ``p/q`` or finite decimal; None for anything
    else, floats included.  ``Fraction`` expands a decimal exponent e into
    10**|e|, in unbounded time, so a decimal whose mantissa length plus |e|
    reaches the int-to-str digit limit, past which it could not be printed,
    is refused first."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        return None
    try:
        if isinstance(x, (str, Decimal)):
            mantissa, e, exponent = str(x).strip().lower().partition("e")
            if e and abs(int(exponent)) + len(mantissa) >= (
                    sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits):
                return None
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return None


def _as_fraction(x) -> Fraction:
    q = parse_rational(x)
    if q is None:
        raise InputError(f"exact rationals required, got {type(x).__name__} {x!r}")
    return q


def point_values(labels, values) -> tuple:
    """One exact value per point label, from a sequence or a label -> value dict."""
    if isinstance(values, dict):
        try:
            values = [values[p] for p in labels]
        except KeyError as e:
            raise InputError(f"no value for point {e.args[0]!r}") from None
    # Fractions are immutable, so exact inputs are shared rather than rebuilt
    values = tuple([v if type(v) is Fraction else _as_fraction(v)
                    for v in _iter(values, "values")])
    if len(values) != len(labels):
        raise InputError("one value per point required")
    return values


class SpectralFamily:
    """A bounded monotone step map from the rationals into a lattice."""

    __slots__ = ("lattice", "thresholds", "values")

    def __init__(self, lattice: Lattice, jumps):
        _require_type(lattice, Lattice, "a family needs a Lattice host")
        n = lattice.n
        ts = []
        vs = []
        for jump in _iter(jumps, "jumps"):
            try:
                t, v = jump
            except (TypeError, ValueError):
                raise InputError(f"jump {jump!r} is not a (threshold, value) pair") from None
            ts.append(t if type(t) is Fraction else _as_fraction(t))
            vs.append(v if type(v) is int and 0 <= v < n else lattice.eid(v))
        if not ts:
            raise InvalidFamilyError("a bounded family needs at least one jump")
        for t1, t2 in zip(ts, ts[1:]):
            if not t1 < t2:
                raise InvalidFamilyError(f"thresholds not strictly increasing at {t2}")
        up = lattice.up
        for v1, v2 in zip(vs, vs[1:]):
            if not up[v1] >> v2 & 1:
                raise InvalidFamilyError(
                    f"values not monotone: {lattice.names[v1]} then {lattice.names[v2]}")
        if vs[-1] != lattice.top:
            raise InvalidFamilyError("family is not bounded above (last value must be top)")
        self._set_canonical(lattice, ts, vs)

    @classmethod
    def _canonical(cls, lattice: Lattice, thresholds, values) -> "SpectralFamily":
        """The family with these jumps, trusted: for callers whose construction
        already guarantees exact strictly increasing thresholds, monotone
        value ids and a last value equal to the top.  Only the canonical form
        is applied; ``__init__`` is the checking path."""
        self = cls.__new__(cls)
        self._set_canonical(lattice, thresholds, values)
        return self

    def _set_canonical(self, lattice: Lattice, ts, vs) -> None:
        """Store the canonical form: drop bottom jumps (unless top is bottom)
        and repeats, i.e. keep each (monotone) value unlike the last one kept."""
        last = None if lattice.top == lattice.bottom else lattice.bottom
        thresholds, values = [], []
        for t, v in zip(ts, vs):
            if v != last:
                thresholds.append(t)
                values.append(v)
                last = v
        self.lattice = lattice
        self.thresholds = tuple(thresholds)
        self.values = tuple(values)

    def eval(self, lam) -> int:
        """E at lam: bottom below the first threshold, else the step value."""
        i = bisect_right(self.thresholds, _as_fraction(lam)) - 1
        return self.lattice.bottom if i < 0 else self.values[i]

    def jumps(self):
        return tuple(zip(self.thresholds, self.values))

    def bounds(self):
        return self.thresholds[0], self.thresholds[-1]

    def __repr__(self):
        parts = ", ".join(f"{t}: {self.lattice.names[v]}" for t, v in self.jumps())
        return "SpectralFamily{" + parts + "}"

    __eq__ = _eq_by("thresholds", "values", "lattice")


class ObservableFunction:
    """A total rational-valued map on the quasipoints of a Stone space."""

    __slots__ = ("space", "values")

    def __init__(self, space: StoneSpace, values):
        _require_type(space, StoneSpace, "an observable function needs a StoneSpace")
        values = tuple(map(_as_fraction, _iter(values, "values")))
        if len(values) != space.n_points:
            raise InputError("one value per quasipoint required")
        self.space = space
        self.values = values

    @classmethod
    def _of(cls, space: StoneSpace, values) -> "ObservableFunction":
        """The function with these values, trusted: they are ``Fraction``s,
        one per quasipoint, by the caller's construction; ``__init__`` checks."""
        self = cls.__new__(cls)
        self.space = space
        self.values = tuple(values)
        return self

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def _same_space(self, other):
        _require_same(self.space.points, other.space.points,
                      "observable functions live on different spectra")

    __eq__ = _eq_by("values", "space.points")

    def _pointwise(self, op, other) -> "ObservableFunction":
        self._same_space(other)
        return self._of(self.space, list(map(op, self.values, other.values)))

    __add__ = partialmethod(_pointwise, operator.add)
    __sub__ = partialmethod(_pointwise, operator.sub)
    __mul__ = partialmethod(_pointwise, operator.mul)

    def scale(self, alpha) -> "ObservableFunction":
        alpha = _as_fraction(alpha)
        return self._of(self.space, [alpha * v for v in self.values])

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def as_dict(self) -> dict:
        return {self.space.point_name(k): v for k, v in enumerate(self.values)}

    def __repr__(self):
        return "ObservableFunction(" + ", ".join(
            f"{self.space.point_name(k)}: {v}" for k, v in enumerate(self.values)) + ")"


class ComplexObservableFunction:
    """A pair of observable functions read as real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: ObservableFunction, im: ObservableFunction):
        re._same_space(im)
        self.re = re
        self.im = im

    __eq__ = _eq_by("re", "im")

    def __add__(self, other):
        return ComplexObservableFunction(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return ComplexObservableFunction(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re)

    def conj(self) -> "ComplexObservableFunction":
        return ComplexObservableFunction(self.re, self.im.scale(-1))

    def scale(self, alpha, beta=0) -> "ComplexObservableFunction":
        return ComplexObservableFunction(
            self.re.scale(alpha) - self.im.scale(beta),
            self.re.scale(beta) + self.im.scale(alpha))

    def sup_norm_squared(self) -> Fraction:
        return max(a * a + b * b for a, b in zip(self.re.values, self.im.values))

    def value(self, k: int):
        return self.re.values[k], self.im.values[k]


def first_hits(thresholds, masks, n: int) -> tuple:
    """Each of n points' least threshold whose mask contains it.

    One pass over the (threshold, mask) pairs in increasing threshold order:
    a point is settled by the first mask that contains it.  Returns the list
    of thresholds, None where no mask contains the point.
    """
    out = [None] * n
    todo = (1 << n) - 1
    for t, m in zip(thresholds, masks):
        hit = m & todo
        todo ^= hit
        while hit:
            low = hit & -hit
            out[low.bit_length() - 1] = t
            hit ^= low
    return out


def level_sets(keys) -> tuple:
    """The sorted distinct keys and, for each, the mask of the points whose key
    is at most it: ``first_hits(*level_sets(keys), len(keys))`` gives keys back.

    One sort and one pass; ties are grouped, so a level set is reported only
    once it is complete.  Keys that are all ``Fraction`` are sorted as the
    integers they become over their common denominator: the same order and
    ties, with integer comparisons instead of ``Fraction.__lt__``.
    """
    exact = keys
    if keys and all(type(k) is Fraction for k in keys):
        ratios = [k.as_integer_ratio() for k in keys]
        d = lcm(*[q for _, q in ratios])
        exact = [p * (d // q) for p, q in ratios]
    order = sorted(range(len(keys)), key=exact.__getitem__)
    thresholds, masks = [], []
    mask = 0
    for i, j in zip(order, order[1:] + [None]):
        mask |= 1 << i
        if j is None or exact[j] != exact[i]:
            thresholds.append(keys[i])
            masks.append(mask)
    return thresholds, masks


def observable_function(family: SpectralFamily) -> ObservableFunction:
    """f_E on the spectrum of the family's lattice: each quasipoint maps to
    the least threshold whose value it contains.

    The infimum over all reals collapses to a minimum over the jump list
    because membership of the values in a filter is upward closed along the
    family and the last value, the top, lies in every filter.
    """
    space = stone_space(family.lattice)
    values = first_hits(family.thresholds, [space.base[v] for v in family.values],
                        space.n_points)
    return ObservableFunction._of(space, values)


def _require_boolean(lattice: Lattice) -> None:
    """Reject a lattice that is not a Boolean algebra under its ortho map: a
    distributive lattice whose ortho map complements every element."""
    o = lattice.ortho
    if o is None:
        reason = "no ortho present"
    elif not lattice.is_distributive()[0]:
        reason = "not distributive"
    else:
        meet, join = lattice._tables()
        if all(meet[a][o[a]] == lattice.bottom and join[a][o[a]] == lattice.top
               for a in range(lattice.n)):
            return
        reason = "the ortho map does not complement"
    raise UnsupportedStructureError(
        f"the inverse transform needs a finite Boolean algebra ({reason})")


def from_observable_function(g: ObservableFunction) -> SpectralFamily:
    """The unique family with the given observable function, on a Boolean lattice.

    E at t is the element whose quasipoints are those with a value <= t: on
    a Boolean lattice ``base`` is a bijection from the elements onto the
    sets of quasipoints, so each level set is read back through its inverse.
    Restricted to Boolean lattices; elsewhere no inverse is attempted.
    """
    lattice = g.space.lattice
    _require_boolean(lattice)
    element = {m: e for e, m in enumerate(g.space.base)}
    return SpectralFamily(lattice, [(t, element[m]) for t, m in zip(*level_sets(g.values))])


# --- the transferred C*-style algebra ---------------------------------------


def add(e, f):
    """Pullback of pointwise addition of the observable functions."""
    return _transfer2(e, f, lambda a, b: a + b)


def mul(e, f):
    """Pullback of pointwise multiplication (complex multiplication when 2-parameter)."""
    return _transfer2(e, f, lambda a, b: a * b)


def scale(alpha, e):
    """Pullback of scalar multiplication."""
    if isinstance(e, ComplexSpectralFamily):
        args = alpha if isinstance(alpha, tuple) else (alpha,)
        return from_complex_observable_function(observable_function_complex(e).scale(*args))
    return from_observable_function(observable_function(e).scale(alpha))


def star(e):
    """Pullback of pointwise conjugation; the identity on real families."""
    if isinstance(e, ComplexSpectralFamily):
        return from_complex_observable_function(observable_function_complex(e).conj())
    _require_boolean(e.lattice)
    return e


def sup_norm(e) -> Fraction:
    """Sup norm of the (real) observable function."""
    return observable_function(e).sup_norm()


def _transfer2(e, f, op):
    if isinstance(e, ComplexSpectralFamily) or isinstance(f, ComplexSpectralFamily):
        ge = _as_complex_function(e)
        gf = _as_complex_function(f)
        return from_complex_observable_function(op(ge, gf))
    ge = observable_function(e)
    gf = observable_function(f)
    return from_observable_function(op(ge, gf))


def _as_complex_function(e):
    if isinstance(e, ComplexSpectralFamily):
        return observable_function_complex(e)
    g = observable_function(e)
    zero = ObservableFunction(g.space, [0] * g.space.n_points)
    return ComplexObservableFunction(g, zero)


# --- spectrum and resolvent --------------------------------------------------


class SpectrumDecomposition(Record, frozen=True):
    """The jump set of a canonical family and its complementary open intervals."""

    spectrum: tuple
    resolvent: tuple

    def __str__(self):
        sp = "{" + ", ".join(str(t) for t in self.spectrum) + "}"
        iv = " u ".join(
            f"({'-inf' if lo is None else lo}, {'inf' if hi is None else hi})"
            for lo, hi in self.resolvent)
        return f"sp = {sp}; resolvent = {iv}"


def spectrum_of(family: SpectralFamily) -> SpectrumDecomposition:
    """Points where the family is not locally constant: exactly its jump set."""
    ts = family.thresholds
    return SpectrumDecomposition(ts, tuple(zip((None,) + ts, ts + (None,))))


# --- two-parameter (complex) families ----------------------------------------


class ComplexSpectralFamily:
    """A bounded step map on a rational grid, monotone with the strong meet law.

    ``matrix[i][j]`` is the value on [xs[i], xs[i+1]) x [ys[j], ys[j+1]);
    bottom applies whenever either coordinate lies below its first grid line.
    The meet law  E(s) & E(t) == E(min s, min t)  holds on the whole grid iff
    the margins (last column and last row) are chains and every cell is the
    meet of its two margin cells, E(i, j) == E(i, c) & E(r, j); only those
    pairs are checked, and the corner value must be the top.  Only the two
    margins are kept, as canonical families; the rest is read off them.
    """

    __slots__ = ("first", "second")

    def __init__(self, lattice: Lattice, xs, ys, matrix):
        _require_type(lattice, Lattice, "a two-parameter family needs a Lattice host")
        xs = tuple(_as_fraction(x) for x in _iter(xs, "xs"))
        ys = tuple(_as_fraction(y) for y in _iter(ys, "ys"))
        if not xs or not ys:
            raise InvalidFamilyError("grids must be nonempty")
        if any(not a < b for a, b in zip(xs, xs[1:])) or \
           any(not a < b for a, b in zip(ys, ys[1:])):
            raise InvalidFamilyError("grid lines must be strictly increasing")
        try:
            matrix = [[lattice.eid(v) for v in row] for row in matrix]
        except TypeError:
            raise InputError("value matrix must be rows of values") from None
        if len(matrix) != len(xs) or any(len(row) != len(ys) for row in matrix):
            raise InvalidFamilyError("value matrix does not match the grids")
        r, c = len(xs) - 1, len(ys) - 1
        pairs = [((i, c), (i + 1, c)) for i in range(r)]
        pairs += [((r, j), (r, j + 1)) for j in range(c)]
        pairs += [((i, c), (r, j)) for i in range(r) for j in range(c)]
        for (i, j), (k, l) in pairs:
            got = lattice.meet2(matrix[i][j], matrix[k][l])
            want = matrix[min(i, k)][min(j, l)]
            if got != want:
                raise InvalidFamilyError(
                    f"meet law fails at grid cells ({xs[i]},{ys[j]}) and ({xs[k]},{ys[l]})")
        if matrix[-1][-1] != lattice.top:
            raise InvalidFamilyError("family is not bounded above (corner must be top)")

        self.first = SpectralFamily._canonical(lattice, xs, [row[c] for row in matrix])
        self.second = SpectralFamily._canonical(lattice, ys, matrix[r])

    lattice = property(lambda self: self.first.lattice)
    xs = property(lambda self: self.first.thresholds)
    ys = property(lambda self: self.second.thresholds)

    @property
    def matrix(self) -> tuple:
        return tuple(tuple(self._meet(a, b) for b in self.second.values)
                     for a in self.first.values)

    def eval(self, lam, mu) -> int:
        return self._meet(self.first.eval(lam), self.second.eval(mu))

    def _meet(self, a: int, b: int) -> int:
        # equal values and the top meet without the table; a 1 x 1 grid, whose
        # constructor reads no meet, holds no others, so any host will do
        lat = self.first.lattice
        return a if a == b or b == lat.top else b if a == lat.top else lat.meet2(a, b)

    def __repr__(self):
        return f"ComplexSpectralFamily(xs={self.xs}, ys={self.ys})"

    __eq__ = _eq_by("first", "second")


def product_family(e1: SpectralFamily, e2: SpectralFamily) -> ComplexSpectralFamily:
    """The family (lam, mu) -> E1(lam) & E2(mu): its margins are E1 and E2."""
    _require_same(e1.lattice, e2.lattice, "components live in different lattices")
    e1.lattice._tables()  # fails on a non-lattice host, as the product's meets would
    e = ComplexSpectralFamily.__new__(ComplexSpectralFamily)
    e.first, e.second = e1, e2
    return e


def decompose(e: ComplexSpectralFamily):
    """Split into the unique pair of one-parameter families: its margins.

    The first component is the map at the top of the second grid and vice
    versa; the meet law makes E(lam, mu) == E1(lam) & E2(mu) everywhere.
    """
    return e.first, e.second


def observable_function_complex(e: ComplexSpectralFamily) -> ComplexObservableFunction:
    """The margins' observable functions as real + imaginary parts: a filter,
    being upward closed, holds a cell of a grid line iff it holds its margin cell."""
    return ComplexObservableFunction(observable_function(e.first),
                                     observable_function(e.second))


def from_complex_observable_function(g: ComplexObservableFunction) -> ComplexSpectralFamily:
    """Inverse of the complex transform on a Boolean lattice, componentwise."""
    e1 = from_observable_function(g.re)
    e2 = from_observable_function(g.im)
    return product_family(e1, e2)


# --- step-function integration ----------------------------------------------


def riemann_stieltjes(family: SpectralFamily, grid) -> ObservableFunction:
    """Step sum of the indicator increments of Q_(E at t) along a grid.

    Each quasipoint receives the grid tag at which the family first enters it,
    i.e. the sum  sum_k t_k (chi(t_k) - chi(t_{k-1}))  with tags at the jump
    being summed.  The result is within the largest grid gap of f_E, and
    equals f_E exactly whenever the grid contains every threshold.
    """
    g = observable_function(family)
    return ObservableFunction(g.space, _step_sum(family, grid, g.values))


def _step_sum(family: SpectralFamily, grid, hits) -> list:
    """The step sum of a family along an exact, strictly increasing grid that
    covers its thresholds, given its transform ``hits``, each point's least
    threshold whose value contains it: each point's least grid tag whose
    value contains it.  The values grow, so that is the least grid point at
    or above the point's hit.
    """
    grid = [_as_fraction(t) for t in _iter(grid, "grid")]
    if any(not a < b for a, b in zip(grid, grid[1:])):
        raise InputError("grid must be strictly increasing")
    lo, hi = family.bounds()
    if not grid or grid[0] > lo or grid[-1] < hi:
        raise InputError("grid does not cover the family's support")
    return [grid[bisect_left(grid, t)] for t in hits]


# --- exhaustive generation ----------------------------------------------------


def enumerate_families(lattice: Lattice, grid) -> list:
    """All canonical bounded families with thresholds from a fixed grid.

    Jump value chains are the strictly increasing chains ending at the top and
    avoiding the bottom; each chain of length k is combined with every
    k-subset of the grid.  Deterministic order.
    """
    if lattice.bottom is None or lattice.top is None:
        raise InputError("families need a lattice with a bottom and a top")
    grid = sorted({_as_fraction(t) for t in _iter(grid, "grid")})
    down = lattice.down
    chains = [[lattice.top]]
    frontier = [[lattice.top]]
    while frontier:
        chain = frontier.pop()
        if len(chain) == len(grid):
            continue
        head = chain[0]
        for e in bits(down[head] & ~(1 << head | 1 << lattice.bottom)):
            longer = [e] + chain
            chains.append(longer)
            frontier.append(longer)
    chains.sort(key=lambda c: (len(c), c))
    # sorted distinct thresholds with strictly increasing chains ending at
    # the top: canonical by construction
    canonical = SpectralFamily._canonical
    return [canonical(lattice, ts, chain)
            for chain in chains for ts in combinations(grid, len(chain))]
