"""Line-oriented text format for lattices, spaces, functions and families.

Grammar (comments run from ``#`` to end of line; clauses end with ``;``)::

    lattice NAME { elements: a, b ; order: a < b ; ortho: a <-> b ; }
    topology NAME on {p, q} { opens: {}, {p}, {p,q} ; }
    field NAME on {p, q, r} { atoms: {p}, {q,r} ; }
    family NAME in HOST { 0: a ; 1: 1 ; }            # or set literals for
    family2 NAME in HOST { 0,0: a ; 0,1: b ; ... }   # field/topology hosts
    function NAME on HOST { p: 1/2 ; q: 1 ; }
    ideal NAME in FIELD { generators: {p} ; }

Rationals are written ``p/q`` or as finite decimals and are converted
exactly; a decimal exponent so large that the exact value could not be
printed is rejected as malformed.  Parsing is total: the result is either a
resolved instance file or a nonempty diagnostic list, never both.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .errors import InputError, InvalidFamilyError
from .family import ComplexSpectralFamily, SpectralFamily, parse_rational
from .lattice import Lattice, Record, bits
from .measurable import FieldOfSets, MeasurableFunction, SetIdeal
from .topology import TopSpace

KINDS = ("lattice", "topology", "field", "family", "family2", "function", "ideal")
_HOSTS = ("lattice", "topology", "field")
# the diagnostic code of each kind's refusal by its constructor; a family2 is
# refused with an InputError too when its host lacks a meet the grid reads
_REFUSED = {"lattice": "bad-lattice", "topology": "bad-topology", "field": "bad-field",
            "family": "invalid-family", "family2": "invalid-family",
            "function": "bad-function", "ideal": "bad-ideal"}

_RESERVED = "{},;:<#"
_WS = re.compile(r"\s*")  # \s matches exactly the characters str.isspace accepts
_TOKEN = re.compile(f"[^{_RESERVED}\\s]*")  # a maximal run of non-reserved, non-space text
_BRACE = re.compile("[{}]")


class Diagnostic(Record, frozen=True):
    severity: str
    line: int
    column: int
    code: str
    message: str
    suggestion: str | None = None

    def __str__(self):
        s = f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"
        if self.suggestion:
            s += f" (hint: {self.suggestion})"
        return s


class PointFunction(Record, frozen=True):
    """A rational point function on a topological space (no measurability
    constraint applies there)."""

    space: TopSpace
    values: tuple

    def __call__(self, point):
        return self.values[self.space.index_of(point)]


class BlockInfo(Record):
    kind: str
    name: str
    host: str | None
    obj: object

    def lattice(self) -> Lattice:
        """The lattice of a lattice block, or the lattice of a topology's
        opens or a field's members."""
        return self.obj if self.kind == "lattice" else self.obj.lattice()


class InstanceFile(Record):
    blocks: list

    def objects(self) -> dict:
        return {b.name: b.obj for b in self.blocks}

    def find(self, name: str) -> BlockInfo | None:
        for b in self.blocks:
            if b.name == name:
                return b
        return None


class ParseResult(Record):
    file: InstanceFile | None
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.file is not None


# --- scanning ----------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        # each comment becomes as many spaces, so offsets, lines and columns
        # stay, and no block, clause or name ever sees comment text
        self.text = re.sub("#[^\n]*", lambda c: " " * len(c[0]), text)
        self.n = len(text)
        self.i = 0
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def linecol(self, i: int) -> tuple:
        row = bisect_right(self.line_starts, i) - 1
        return row + 1, i - self.line_starts[row] + 1

    def token(self) -> tuple:
        self.peek()
        m = _TOKEN.match(self.text, self.i)
        self.i = m.end()
        return m[0], m.start()

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        self.i = _WS.match(self.text, self.i).end()
        return self.text[self.i:self.i + 1]

    def expect(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def body(self) -> tuple:
        """Consume text up to the matching close brace (the open brace has
        been consumed); returns (raw, start_index, balanced)."""
        start = pos = self.i
        depth = 1
        while (j := self.text.find("}", pos)) >= 0:
            depth += self.text.count("{", pos, j) - 1  # the opens since the last close
            pos = j + 1
            if depth == 0:
                self.i = pos
                return self.text[start:j], start, True
        self.i = self.n
        return self.text[start:], start, False

    def skip_to_close(self):
        """Consume through the next brace, and through the block it opens if any."""
        m = _BRACE.search(self.text, self.i)
        self.i = m.end() if m else self.n
        if m and m[0] == "{":
            self.body()


class _RawBlock(Record):
    kind: str
    name: str
    host: str | None      # host name, when the link argument is a name
    host_set: tuple | None  # point labels, when the link argument is a set
    clauses: list         # (text, absolute index)
    at: int


def _split_top(text: str, sep: str):
    """Yield the parts between separators at brace depth zero, with offsets."""
    depth = start = pos = 0
    while (j := text.find(sep, pos)) >= 0:
        depth += text.count("{", pos, j) - text.count("}", pos, j)
        pos = j + 1
        if depth == 0:
            yield text[start:j], start
            start = pos
    yield text[start:], start


def _pieces(text: str, sep: str, at: int):
    """Yield the parts of ``_split_top(text, sep)`` stripped, each with the
    absolute offset of its first character when ``text`` starts at ``at``; a
    blank part's offset is that of the separator or end that closes it."""
    for part, off in _split_top(text, sep):
        stripped = part.lstrip()
        yield stripped.rstrip(), at + off + len(part) - len(stripped)


def _items(text: str) -> tuple:
    """The stripped nonempty parts of a comma list at brace depth zero."""
    return tuple(t for t, _ in _pieces(text, ",", 0) if t)


class _Rejected(Exception):
    """Raised by ``_Builder.reject``: the scan or the build abandons the
    block, whose diagnostics are already recorded."""


def _raw_block(sc: _Scanner, reject) -> _RawBlock:
    """The next block's header and clauses; a malformed header goes to ``reject``."""
    kind, at = sc.token()
    if kind not in KINDS:
        reject("unknown-block", f"unknown block kind {kind or sc.peek()!r}", at,
               "expected one of: " + ", ".join(KINDS))
    name, name_at = sc.token()
    if not name:
        reject("malformed-header", f"{kind} block is missing a name", name_at)
    host = host_set = None
    if sc.peek() not in "{":  # at the end of the text peek() is "", which is in it
        link, link_at = sc.token()
        if link not in ("on", "in"):
            reject("malformed-header", "expected 'on', 'in' or '{' after the name", link_at)
        if sc.expect("{"):
            raw, raw_at, ok = sc.body()
            if not ok:
                reject("malformed-header", "unterminated point set",
                       _WS.match(sc.text, raw_at).end())
            host_set = _items(raw)
        else:
            host, _ = sc.token()
            if not host:
                reject("malformed-header", f"missing host name after '{link}'", link_at)
    if not sc.expect("{"):
        reject("malformed-header", f"expected '{{' to open the {kind} body", sc.i)
    raw, raw_at, ok = sc.body()
    if not ok:
        reject("malformed-header", f"unterminated {kind} block", at)
    # clauses keep their blanks, so a blank payload lands on the ';' that closes it
    clauses = [(t, raw_at + off) for t, off in _split_top(raw, ";") if t.strip()]
    return _RawBlock(kind, name, host, host_set, clauses, at)


def _scan(sc: _Scanner, reject):
    """Split the text into raw blocks, resuming past the block of each header fault."""
    blocks = []
    while sc.peek():
        try:
            blocks.append(_raw_block(sc, reject))
        except _Rejected:  # an unterminated body or point set has read to the end
            sc.skip_to_close()
    return blocks


# --- construction --------------------------------------------------------------


def _parse_setlit(text: str):
    if not (text.startswith("{") and text.endswith("}")):
        return None
    return _items(text[1:-1])


class _Builder:
    def __init__(self, scanner_text: str):
        self.sc = _Scanner(scanner_text)
        self.diags = []
        self.by_name = {}

    def diag(self, code, msg, at, suggestion=None):
        line, col = self.sc.linecol(at)
        self.diags.append(Diagnostic("error", line, col, code, msg, suggestion))

    def reject(self, code, msg, at, suggestion=None):
        """Record a diagnostic and abandon the block being scanned or built."""
        self.diag(code, msg, at, suggestion)
        raise _Rejected

    def set_list(self, payload: str, at: int, unique: bool):
        """Yield the set literals of a comma-separated clause payload as they
        are parsed; with ``unique``, a literal written again is read once, and
        a part whose text was read before is not parsed again."""
        seen, texts = set(), set()
        for text, text_at in _pieces(payload, ",", at):
            if not text or text in texts:
                continue
            lit = _parse_setlit(text)
            if lit is None:
                self.reject("malformed-clause", f"expected a set literal, got {text!r}", text_at)
            if lit in seen:
                continue
            if unique:
                seen.add(lit)
                texts.add(text)
            yield lit

    def set_clause(self, rb: _RawBlock, allowed, missing):
        """The key and set literals of the one clause of a block whose clause
        keys are ``allowed``; ``missing`` is reported unless there is exactly one."""
        cm = self.clause_map(rb, allowed)
        if len(cm) != 1:
            self.reject("malformed-clause", missing, rb.at)
        (key, clause), = cm.items()
        # opens and generators are sets of sets; a repeated atom must still overlap
        return key, self.set_list(*clause, unique=key != "atoms")

    def clause_map(self, rb: _RawBlock, allowed):
        out = {}
        ok = True
        for text, at in rb.clauses:
            parts = list(_pieces(text, ":", at))
            if len(parts) != 2:  # the first part starts at the clause's first token
                self.diag("malformed-clause", f"expected 'key: payload' in {text.strip()!r}",
                          parts[0][1])
                ok = False
                continue
            (key, key_at), payload = parts
            if key not in allowed:
                self.diag("malformed-clause", f"unknown clause {key!r} in a {rb.kind} block",
                          key_at, "expected one of: " + ", ".join(allowed))
                ok = False
                continue
            if key in out:
                self.diag("malformed-clause", f"duplicate clause {key!r}", key_at)
                ok = False
                continue
            out[key] = payload
        if not ok:
            raise _Rejected
        return out

    def entries(self, rb: _RawBlock, form: str):
        """Yield each clause split at its colon as the pieces (key, key_at)
        and (payload, payload_at); a clause without exactly one colon is
        rejected as not of the ``form``."""
        for text, at in rb.clauses:
            parts = list(_pieces(text, ":", at))
            if len(parts) != 2:
                self.reject("malformed-clause", f"expected '{form}'", parts[0][1])
            yield parts

    def rational(self, text: str, at: int, shown=None):
        """The exact value of a rational token; ``shown`` names it in the
        diagnostic instead of the token."""
        value = parse_rational(text)
        if value is None:
            self.reject("malformed-rational",
                        f"malformed rational {shown or repr(text)}", at)
        return value

    def resolve(self, rb: _RawBlock, kinds):
        info = self.by_name.get(rb.host)
        if info is None or info.kind not in kinds:
            self.reject("dangling-reference",
                        f"{rb.kind} {rb.name!r} refers to unknown {' or '.join(kinds)} {rb.host!r}",
                        rb.at)
        return info

    def points(self, rb: _RawBlock):
        """The point labels of an 'on {points}' header."""
        if rb.host_set is None:
            self.reject("malformed-header",
                        f"{rb.kind} blocks need 'on {{points}}' before the body", rb.at)
        return rb.host_set

    # -- per-kind builders

    def build_lattice(self, rb: _RawBlock):
        cm = self.clause_map(rb, ("elements", "order", "ortho"))
        if "elements" not in cm:
            self.reject("malformed-clause", "lattice block needs an 'elements' clause", rb.at)
        payload, _ = cm["elements"]
        names = _items(payload)
        order = self.pairs(cm, "order", "<")
        ortho = dict(self.pairs(cm, "ortho", "<->")) if "ortho" in cm else None
        return Lattice(names, order, ortho=ortho)

    def pairs(self, cm, key: str, sep: str):
        """The 'a SEP b' pairs of a lattice clause, none when it is absent."""
        out = []
        payload, at = cm.get(key, ("", 0))
        for part, part_at in _pieces(payload, ",", at):
            if not part:
                continue
            halves = part.split(sep)
            if len(halves) != 2 or sep == "<" and "->" in part:
                self.reject("malformed-clause",
                            f"expected 'a {sep} b' in {key} clause, got {part!r}", part_at)
            out.append((halves[0].strip(), halves[1].strip()))
        return out

    def build_topology(self, rb: _RawBlock):
        points = self.points(rb)
        key, sets = self.set_clause(
            rb, ("opens", "generators"),
            "topology block needs exactly one of 'opens' or 'generators'")
        make = TopSpace.generated if key == "generators" else TopSpace.from_sets
        return make(points, sets)

    def build_field(self, rb: _RawBlock):
        points = self.points(rb)
        _, blocks = self.set_clause(rb, ("atoms",), "field block needs an 'atoms' clause")
        return FieldOfSets.from_partition(points, blocks)

    def _resolve_value(self, info: BlockInfo, token_text: str, at):
        lat = info.lattice()
        if info.kind == "lattice":
            if token_text in lat.index:
                return lat.index[token_text]
            self.reject("unknown-element", f"unknown element {token_text!r}", at)
        lit = _parse_setlit(token_text)
        if lit is None:
            self.reject("malformed-clause",
                        f"values over a {info.kind} are set literals, got {token_text!r}", at)
        try:
            return lat.set_ids[info.obj.mask_of(lit)]
        except (InputError, KeyError):
            self.reject("unknown-element",
                        f"{token_text!r} is not a member of {info.name!r}", at)

    def build_family(self, rb: _RawBlock):
        info = self.resolve(rb, ("lattice", "field", "topology"))
        jumps = []
        last_t = None
        for (t_text, t_at), (v_text, v_at) in self.entries(rb, "threshold: value"):
            t = self.rational(t_text, t_at)
            if last_t is not None and t <= last_t:
                self.reject("non-monotone-family",
                            f"non-increasing thresholds: {t} after {last_t}", t_at)
            last_t = t
            jumps.append((t, self._resolve_value(info, v_text, v_at)))
        return SpectralFamily(info.lattice(), jumps)

    def build_family2(self, rb: _RawBlock):
        info = self.resolve(rb, ("lattice", "field", "topology"))
        entries = {}
        for (key, key_at), (v_text, v_at) in self.entries(rb, "x,y: value"):
            key_parts = list(_pieces(key, ",", key_at))
            if len(key_parts) != 2:
                self.reject("malformed-clause", "grid keys are pairs 'x,y'", key_at)
            x, y = (self.rational(k, k_at, f"in {key!r}") for k, k_at in key_parts)
            if (x, y) in entries:  # the same cell by exact value, however written
                self.reject("malformed-clause", f"duplicate entry at {x},{y}", key_at)
            entries[(x, y)] = self._resolve_value(info, v_text, v_at)
        xs = sorted({x for x, _ in entries})
        ys = sorted({y for _, y in entries})
        if len(entries) < len(xs) * len(ys):  # walk at most len(entries) + 1 cells
            x, y = next((x, y) for x in xs for y in ys if (x, y) not in entries)
            self.reject("malformed-clause",
                        f"grid is not complete; missing entry at {x},{y}", rb.at)
        matrix = [[entries[(x, y)] for y in ys] for x in xs]
        return ComplexSpectralFamily(info.lattice(), xs, ys, matrix)

    def build_function(self, rb: _RawBlock):
        info = self.resolve(rb, ("field", "topology"))
        ground = info.obj.points
        values = {}
        for (p, p_at), (v_text, v_at) in self.entries(rb, "point: value"):
            if p not in info.obj._index:
                self.reject("unknown-element", f"unknown point {p!r}", p_at)
            if p in values:
                self.reject("malformed-clause", f"duplicate value for point {p!r}", p_at)
            values[p] = self.rational(v_text, v_at)
        missing = [p for p in ground if p not in values]
        if missing:
            self.reject("malformed-clause", f"missing value for point {missing[0]!r}", rb.at)
        make = MeasurableFunction if info.kind == "field" else PointFunction
        return make(info.obj, tuple(values[p] for p in ground))

    def build_ideal(self, rb: _RawBlock):
        info = self.resolve(rb, ("field",))
        _, sets = self.set_clause(rb, ("generators",), "ideal block needs a 'generators' clause")
        return SetIdeal.from_generators(info.obj, sets)


def parse(text: str) -> ParseResult:
    """Parse an instance file; returns either a resolved file or diagnostics."""
    builder = _Builder(text)
    raw_blocks = _scan(builder.sc, builder.reject)
    infos = [None] * len(raw_blocks)
    # hosts first; the sort is stable, so each group keeps the file's order
    for i in sorted(range(len(raw_blocks)), key=lambda i: raw_blocks[i].kind not in _HOSTS):
        rb = raw_blocks[i]
        if rb.name in builder.by_name:
            builder.diag("duplicate-name",
                         f"block name {rb.name!r} is already in use", rb.at)
            continue
        try:
            obj = getattr(builder, f"build_{rb.kind}")(rb)
        except _Rejected:
            continue
        except (InputError, InvalidFamilyError) as e:  # the constructor refused the block
            builder.diag(_REFUSED[rb.kind], str(e), rb.at)
            continue
        info = BlockInfo(rb.kind, rb.name, rb.host, obj)
        builder.by_name[rb.name] = info
        infos[i] = info
    if builder.diags:
        return ParseResult(None, builder.diags)
    return ParseResult(InstanceFile([x for x in infos if x is not None]), [])


# --- emission ------------------------------------------------------------------


def _covers(lat: Lattice):
    """Transitive reduction of the order for compact emission."""
    out = []
    for a in range(lat.n):
        for b in bits(lat.up[a] & ~(1 << a)):
            between = lat.up[a] & lat.down[b] & ~(1 << a) & ~(1 << b)
            if between == 0:
                out.append((a, b))
    return out


def emit_text(file: InstanceFile) -> str:
    """Canonical text form, rendered from each block's JSON form;
    parse(emit_text(parse(x))) is a fixpoint.  A name the text would not
    read back unchanged raises :class:`InputError`."""
    return "\n".join(_text_block(_json_block(b, file)) for b in file.blocks)


def _check_writable(d: dict) -> None:
    """Raise :class:`InputError` on the first name of the JSON form ``d``
    that would not read back unchanged: block and host names must be one
    scanner token, element names and point labels stripped text without a
    reserved character, and element names free of the ``->`` an order
    clause rejects."""
    names = [("block name", d["name"])] + [("host name", d[k]) for k in ("in", "on") if k in d]
    for what, name in names:
        if not name or not _TOKEN.fullmatch(name):
            raise InputError(f"cannot write {what} {name!r} as text")
    for what, label in ([("element name", e) for e in d.get("elements", ())]
                        + [("point label", p) for p in d.get("points", ())]):
        if (not label or label != label.strip() or any(ch in _RESERVED for ch in label)
                or what == "element name" and "->" in label):
            raise InputError(f"cannot write {what} {label!r} as text")


def _text_block(d: dict) -> str:
    """One block of the text form, from its JSON form."""
    _check_writable(d)
    kind = d["kind"]
    if kind == "lattice":
        head = f"lattice {d['name']}"
        clauses = [("elements", ", ".join(d["elements"]))]
        if d["order"]:
            clauses.append(("order", ", ".join(f"{a} < {b}" for a, b in d["order"])))
        if d["ortho"] is not None:
            clauses.append(("ortho", ", ".join(f"{a} <-> {b}" for a, b in d["ortho"])))
    elif kind in ("topology", "field"):
        head = f"{kind} {d['name']} on {{{', '.join(d['points'])}}}"
        key = "opens" if kind == "topology" else "atoms"
        clauses = [(key, ", ".join(d[key]))]
    else:
        link = "on" if kind == "function" else "in"
        head = f"{kind} {d['name']} {link} {d[link]}"
        if kind == "family":
            clauses = d["jumps"]
        elif kind == "family2":
            clauses = [(f"{x},{y}", v) for x, row in zip(d["grid_x"], d["matrix"])
                       for y, v in zip(d["grid_y"], row)]
        elif kind == "function":
            clauses = d["values"].items()
        else:
            clauses = [("generators", ", ".join(d["generators"]))]
    return "\n".join([head + " {"] + [f"  {k}: {v} ;" for k, v in clauses] + ["}"])


def _value_text(host_info: BlockInfo | None, lat: Lattice, v: int) -> str:
    if host_info is not None and host_info.kind in ("field", "topology"):
        return host_info.obj.set_name(lat.payload[v])
    return lat.names[v]


def emit_json(b: BlockInfo, file: InstanceFile) -> dict:
    """A JSON-ready dict for one block; rationals appear as exact strings."""
    d = _json_block(b, file)
    if b.kind == "lattice":
        d["bottom"], d["top"] = b.obj.names[b.obj.bottom], b.obj.names[b.obj.top]
    return d


def _json_block(b: BlockInfo, file: InstanceFile) -> dict:
    """:func:`emit_json` without a lattice's bottom and top, which the text
    form leaves out and an unvalidated lattice may lack."""
    if b.kind == "lattice":
        lat = b.obj
        return {
            "kind": "lattice", "name": b.name,
            "elements": list(lat.names),
            "order": [[lat.names[a], lat.names[x]] for a, x in _covers(lat)],
            "ortho": None if lat.ortho is None else
                     [[lat.names[a], lat.names[o]] for a, o in enumerate(lat.ortho) if a <= o],
        }
    if b.kind == "topology":
        t = b.obj
        return {"kind": "topology", "name": b.name,
                "points": [str(p) for p in t.points],
                "opens": [t.set_name(m) for m in sorted(t.opens)]}
    if b.kind == "field":
        f = b.obj
        return {"kind": "field", "name": b.name,
                "points": [str(p) for p in f.ground],
                "atoms": [f.set_name(a) for a in f.atoms]}
    host_info = file.find(b.host) if b.host else None
    if b.kind == "family":
        fam = b.obj
        return {"kind": "family", "name": b.name, "in": b.host,
                "jumps": [[str(t), _value_text(host_info, fam.lattice, v)]
                          for t, v in zip(fam.thresholds, fam.values)]}
    if b.kind == "family2":
        fam = b.obj
        return {"kind": "family2", "name": b.name, "in": b.host,
                "grid_x": [str(x) for x in fam.xs],
                "grid_y": [str(y) for y in fam.ys],
                "matrix": [[_value_text(host_info, fam.lattice, v) for v in row]
                           for row in fam.matrix]}
    if b.kind == "function":
        return {"kind": "function", "name": b.name, "on": b.host,
                "values": {str(p): str(v) for p, v in zip(host_info.obj.points, b.obj.values)}}
    if b.kind == "ideal":
        ideal = b.obj
        return {"kind": "ideal", "name": b.name, "in": b.host,
                "generators": [ideal.field.set_name(ideal.mask)]}
    raise InputError(f"cannot emit block kind {b.kind!r}")


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID, its backslashes and quotes escaped."""
    return '"' + re.sub(r'(["\\])', r"\\\1", name) + '"'


def emit_dot(b: BlockInfo) -> str:
    """Hasse diagram of a lattice, topology or field as a DOT digraph."""
    if b.kind not in ("lattice", "topology", "field"):
        raise InputError(f"cannot draw block kind {b.kind!r}")
    lat = b.lattice()
    ids = [_dot_id(name) for name in lat.names]
    lines = [f"digraph {_dot_id(b.name)} {{", "  rankdir=BT;"] + [f"  {i};" for i in ids]
    lines += [f"  {ids[a]} -> {ids[x]};" for a, x in _covers(lat)]
    return "\n".join(lines + ["}"])
