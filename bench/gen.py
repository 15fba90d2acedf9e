"""Seeded instance files and the CLI call list of the ``files`` workload.

The generator writes the text format directly and never imports stonespec,
so the program under test receives only the files.  The seed changes names,
thresholds, values, partitions, opens and generators.  The block kinds and
counts, and the sizes of the lattices and fields, are the same for every seed
(only the small topologies vary in their number of opens), so the work per
call does not drift with the seed.

Run ``python3 bench/gen.py --seed 3 --out DIR`` to write the files.
"""

from __future__ import annotations

import argparse
import os
import random
import re
from fractions import Fraction

FIXTURES = ("boolean2.lat", "chain3.lat", "mo2.lat", "quotient.lat", "spaces.lat")
GENERATED = ("g_fixture.lat", "g_cap64.lat", "g_fields.lat", "g_many.lat")

# `integrate --eps` is (hi - lo) / INTEGRATE_STEPS: about 10^4 grid points.
INTEGRATE_STEPS = 10000

# `quasipoints` runs on at most this many hosts of one file.
MAX_QUASIPOINT_HOSTS = 4

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _rational(rng, lo=-8, hi=8, den=4):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _thresholds(rng, k):
    pool = sorted({_rational(rng) for _ in range(4 * k + 8)})
    return sorted(rng.sample(pool, k))


def _block(head, clauses):
    body = "".join(f"  {c} ;\n" for c in clauses)
    return f"{head} {{\n{body}}}\n"


def _setlit(labels):
    return "{" + ", ".join(labels) + "}"


# --- lattices ------------------------------------------------------------------


class _Lat:
    """A generated lattice: names, order predicate and the emitted block."""

    def __init__(self, name, elements, covers, le, top, bottom, ortho=None, meet=None):
        self.name, self.elements, self.le = name, elements, le
        self.top, self.bottom, self.meet = top, bottom, meet
        clauses = ["elements: " + ", ".join(elements),
                   "order: " + ", ".join(f"{a} < {b}" for a, b in covers)]
        if ortho:
            clauses.append("ortho: " + ", ".join(f"{a} <-> {b}" for a, b in ortho))
        self.text = _block(f"lattice {name}", clauses)

    def chain_to_top(self, rng, length):
        """A strictly increasing chain of non-bottom elements ending at top."""
        chain = [self.top]
        while len(chain) < length:
            below = [e for e in self.elements
                     if e not in (self.bottom, chain[0]) and self.le(e, chain[0])]
            if not below:
                break
            chain.insert(0, rng.choice(below))
        return chain


def boolean(name, rng, n):
    atoms = rng.sample(LETTERS, n)

    def label(s):
        return "0" if not s else ("1" if len(s) == n else "".join(sorted(s)))

    subsets = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
               for m in range(1 << n)]
    elements = [label(s) for s in subsets]
    rng.shuffle(elements)
    covers = [(label(s), label(s | {a})) for s in subsets for a in atoms if a not in s]
    ortho = [(label(s), label(frozenset(atoms) - s)) for s in subsets
             if label(s) < label(frozenset(atoms) - s)]

    def parse(e):
        return frozenset() if e == "0" else frozenset(atoms) if e == "1" else frozenset(e)

    return _Lat(name, elements, covers, lambda a, b: parse(a) <= parse(b), "1", "0",
                ortho=ortho, meet=lambda a, b: label(parse(a) & parse(b)))


def mo(name, rng, k):
    pairs = [(f"p{i}", f"p{i}'") for i in range(k)]
    atoms = [x for p in pairs for x in p]
    elements = ["0", "1"] + atoms
    rng.shuffle(elements)
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return _Lat(name, elements, covers,
                lambda a, b: a == b or a == "0" or b == "1", "1", "0",
                ortho=[("0", "1")] + pairs)


def chain(name, rng, n):
    elements = [f"c{i}" for i in range(n)]
    covers = list(zip(elements, elements[1:]))
    shuffled = elements[:]
    rng.shuffle(shuffled)
    return _Lat(name, shuffled, covers,
                lambda a, b: int(a[1:]) <= int(b[1:]), elements[-1], elements[0])


def grid_product(name, rng, n):
    def el(i, j):
        return f"x{i}y{j}"

    def coords(e):
        x, y = e[1:].split("y")
        return int(x), int(y)

    elements = [el(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(elements)
    covers = ([(el(i, j), el(i + 1, j)) for i in range(n - 1) for j in range(n)]
              + [(el(i, j), el(i, j + 1)) for i in range(n) for j in range(n - 1)])

    def le(a, b):
        (ai, aj), (bi, bj) = coords(a), coords(b)
        return ai <= bi and aj <= bj

    return _Lat(name, elements, covers, le, el(n - 1, n - 1), el(0, 0))


def family(name, host, rng, jumps):
    values = host.chain_to_top(rng, jumps)
    ts = _thresholds(rng, len(values))
    return _block(f"family {name} in {host.name}",
                  [f"{t}: {v}" for t, v in zip(ts, values)])


def family2(name, host, rng):
    """The product of two one-parameter families: it obeys the meet law."""
    first, second = host.chain_to_top(rng, 3), host.chain_to_top(rng, 3)
    xs, ys = _thresholds(rng, len(first)), _thresholds(rng, len(second))
    return _block(f"family2 {name} in {host.name}",
                  [f"{x},{y}: {host.meet(a, b)}"
                   for x, a in zip(xs, first) for y, b in zip(ys, second)])


# --- set-based hosts ------------------------------------------------------------


class _SetHost:
    """A field of sets or a topology: its members as frozensets of labels."""

    def __init__(self, name, points, members, text):
        self.name, self.points, self.members, self.text = name, points, members, text

    def chain_to_top(self, rng, length):
        full = frozenset(self.points)
        chain = [full]
        while len(chain) < length:
            below = [m for m in self.members if m and m < chain[0]]
            if not below:
                break
            chain.insert(0, rng.choice(below))
        return chain


def _set_family(name, host, rng, jumps):
    values = host.chain_to_top(rng, jumps)
    ts = _thresholds(rng, len(values))
    return _block(f"family {name} in {host.name}",
                  [f"{t}: {_setlit(sorted(v))}" for t, v in zip(ts, values)])


def field(name, rng, n_points, n_atoms, prefix):
    points = [f"{prefix}{i}" for i in range(n_points)]
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n_points), n_atoms - 1))
    atoms = [points[a:b] for a, b in zip([0] + cuts, cuts + [n_points])]
    members = [frozenset(p for i, a in enumerate(atoms) if m >> i & 1 for p in a)
               for m in range(1 << n_atoms)]
    text = _block(f"field {name} on {_setlit(sorted(points))}",
                  ["atoms: " + ", ".join(_setlit(a) for a in atoms)])
    return _SetHost(name, points, members, text)


def topology(name, rng, n_points, prefix, as_opens):
    points = [f"{prefix}{i}" for i in range(n_points)]
    full = (1 << n_points) - 1
    gens = {rng.randint(1, full - 1) for _ in range(rng.randint(1, 3))}
    opens = {0, full} | gens
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                for c in (a | b, a & b):
                    if c not in opens:
                        opens.add(c)
                        changed = True

    def labels(m):
        return [p for i, p in enumerate(points) if m >> i & 1]

    sets = sorted(opens) if as_opens else sorted(gens)
    clause = ("opens: " if as_opens else "generators: ") + ", ".join(
        _setlit(labels(m)) for m in sets)
    text = _block(f"topology {name} on {_setlit(points)}", [clause])
    return _SetHost(name, points, [frozenset(labels(m)) for m in sorted(opens)], text)


def function(name, host, rng):
    return _block(f"function {name} on {host.name}",
                  [f"{p}: {_rational(rng)}" for p in host.points])


def ideal(name, host, rng):
    full = frozenset(host.points)
    proper = [m for m in host.members if m and m != full]
    gens = rng.sample(proper, 2)
    if gens[0] | gens[1] == full:
        gens = gens[:1]
    return _block(f"ideal {name} in {host.name}",
                  ["generators: " + ", ".join(_setlit(sorted(g)) for g in gens)])


# --- the four generated files ----------------------------------------------------


def g_fixture(rng):
    """Fixture size: a few small hosts and one block of each kind."""
    b3 = boolean("B3", rng, 3)
    f4 = field("F4", rng, 4, 4, "q")
    t3 = topology("T3", rng, 3, "s", as_opens=True)
    parts = [b3.text, family("E1", b3, rng, 3), family("E2", b3, rng, 2),
             family2("G1", b3, rng), f4.text, ideal("I1", f4, rng),
             _set_family("EF", f4, rng, 3), function("phi", f4, rng),
             t3.text, _set_family("ET", t3, rng, 2), function("g", t3, rng)]
    return parts


def g_cap64(rng):
    """Four lattices at the 64-element cap, with families on each."""
    hosts = [boolean("B6", rng, 6), mo("MO31", rng, 31), chain("C64", rng, 64),
             grid_product("P8x8", rng, 8)]
    parts = [h.text for h in hosts]
    for h in hosts:
        for k in range(6):
            parts.append(family(f"E_{h.name}_{k}", h, rng, 2 + k % 3))
    parts += [family2(f"G{k}", hosts[0], rng) for k in range(3)]
    return parts


def g_fields(rng):
    """Fields on six points, ideals, functions, topologies on four points."""
    f6 = field("F6", rng, 6, 6, "p")
    f6c = field("F6c", rng, 6, 3, "p")
    parts = [f6.text, f6c.text]
    for k in range(3):
        parts.append(ideal(f"I{k}", f6, rng))
    for k in range(8):
        parts.append(_set_family(f"EF{k}", f6, rng, 2 + k % 4))
    parts += [_set_family(f"EC{k}", f6c, rng, 2) for k in range(3)]
    parts += [function(f"phi{k}", f6, rng) for k in range(4)]
    for k in range(6):
        t = topology(f"T{k}", rng, 4, "s", as_opens=k % 2 == 0)
        parts += [t.text, function(f"g{k}", t, rng), _set_family(f"ET{k}", t, rng, 2)]
    return parts


def g_many(rng):
    """Hundreds of blocks over two 64-element hosts."""
    b6 = boolean("B6", rng, 6)
    f6 = field("F6", rng, 6, 6, "p")
    parts = [b6.text, f6.text]
    for k in range(120):
        parts.append(family(f"E{k}", b6, rng, 2 + k % 4))
    for k in range(120):
        parts.append(_set_family(f"EF{k}", f6, rng, 2 + k % 4))
    parts += [function(f"phi{k}", f6, rng) for k in range(40)]
    parts += [ideal(f"I{k}", f6, rng) for k in range(20)]
    parts += [family2(f"G{k}", b6, rng) for k in range(10)]
    return parts


BUILDERS = {"g_fixture.lat": g_fixture, "g_cap64.lat": g_cap64,
            "g_fields.lat": g_fields, "g_many.lat": g_many}


def generate(seed: int, out_dir: str) -> list:
    """Write the generated files for ``seed``; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name in GENERATED:
        rng = random.Random(f"{seed}:{name}")
        text = f"# generated for seed {seed}\n" + "\n".join(BUILDERS[name](rng))
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths


# --- the call list ----------------------------------------------------------------

_HEADER = re.compile(r"^(lattice|topology|field|family2|family|function|ideal)\s+(\S+)"
                     r"(?:\s+(?:in|on)\s+(\S+))?", re.M)
_THRESHOLD = re.compile(r"^\s*([-0-9/.]+)\s*:", re.M)


def _blocks(text):
    """(kind, name, host, body) for each block.

    Relies on the layout of the fixtures and of :func:`generate`: the header
    opens the block on its own line and a line holding only ``}`` closes it.
    """
    out = []
    for m in _HEADER.finditer(text):
        body_start = text.index("\n", m.end()) + 1
        body_end = text.index("\n}", body_start - 1)
        out.append((m.group(1), m.group(2), m.group(3), text[body_start:body_end]))
    return out


def calls_for(path: str) -> list:
    """Every subcommand that applies to the file, on its first suitable objects."""
    with open(path, encoding="utf-8") as handle:
        blocks = _blocks(handle.read())
    hosts = [b for b in blocks if b[0] in ("lattice", "field", "topology")]
    families = [b for b in blocks if b[0] == "family"]
    pairs = [b for b in blocks if b[0] == "family2"]
    ideals = [b for b in blocks if b[0] == "ideal"]
    calls = [["validate", path]]
    for _, name, _, _ in hosts[:MAX_QUASIPOINT_HOSTS]:
        calls.append(["quasipoints", path, name])
    calls.append(["quasipoints", path, hosts[0][1], "--json"])
    if families:
        fam = families[0][1]
        calls += [["observable", path, fam], ["observable", path, fam, "--json"],
                  ["spectrum", path, fam], ["emit", "json", path, fam]]
        for _, name, _, body in families:
            ts = [Fraction(t) for t in _THRESHOLD.findall(body)]
            if len(ts) >= 2:
                eps = (ts[-1] - ts[0]) / INTEGRATE_STEPS
                calls.append(["integrate", path, name, "--eps", str(eps)])
                break
    if pairs:
        calls += [["observable", path, pairs[0][1], "--json"],
                  ["decompose", path, pairs[0][1]]]
    if ideals:
        _, iname, field_name, _ = ideals[0]
        calls.append(["quotient", path, field_name, iname])
        in_field = [b for b in families if b[2] == field_name]
        if in_field:
            calls.append(["lift", path, field_name, iname, in_field[0][1]])
    calls += [["emit", "json", path, hosts[0][1]], ["emit", "dot", path, hosts[0][1]]]
    return calls


def call_list(generated_dir: str) -> list:
    """The calls of one ``files`` sample: fixtures first, then generated files."""
    paths = [os.path.join("fixtures", f) for f in FIXTURES]
    paths += [os.path.join(generated_dir, f) for f in GENERATED]
    return [c for p in paths for c in calls_for(p)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for path in generate(args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
