"""Command line interface.

Exit codes: 0 success / all checks pass, 1 check-suite failure (the
counterexample is printed), 2 input error (bad file, unknown object, invalid
lattice, bad arguments).  All output ordering is canonical; ``--seed`` is
echoed so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

from . import checks, dsl
from . import family as fam
from . import measurable as mea
from .errors import InputError, InvalidFamilyError, UnsupportedStructureError
from .lattice import _require_same, bits
from .stone import stone_space


MAX_INPUT = 4 << 20  # characters read from a file at most, far above any real one


def _load(path: str) -> dsl.InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_INPUT + 1)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 text ({e.reason})") from None
    if len(text) > MAX_INPUT:
        raise InputError(f"cannot read {path}: longer than {MAX_INPUT} characters")
    result = dsl.parse(text)
    if not result.ok:
        lines = "\n".join(f"{path}:{d}" for d in result.diagnostics)
        raise InputError(f"parse failed:\n{lines}")
    return result.file


def _resolve(file: dsl.InstanceFile, name: str, kinds) -> dsl.BlockInfo:
    """The object called ``name``, of one of ``kinds``.  A lattice block, or
    a family over one, is validated first: subcommands assume a lattice."""
    info = file.find(name)
    if info is None:
        raise InputError(f"no object named {name!r} in the file")
    if info.kind not in kinds:
        raise InputError(f"{name!r} is a {info.kind}, expected {' or '.join(kinds)}")
    host = file.find(info.host) if info.kind in ("family", "family2") else info
    if host.kind == "lattice":
        report = host.obj.validate()
        if not report.ok:
            raise InputError(f"lattice {host.name!r} is invalid "
                             f"({', '.join(sorted(report.codes()))}); see 'stonespec validate'")
    return info


def cmd_validate(args, file, out) -> int:
    if not file.blocks:
        raise InputError(f"{args.file}: nothing to validate (empty instance file)")
    bad = 0
    for b in file.blocks:
        # every other block, a space's lattice included, is valid by construction
        entries = b.obj.validate().entries if b.kind == "lattice" else []
        print(f"{b.kind} {b.name}: {'INVALID' if entries else 'ok'}", file=out)
        for v in entries:
            print(f"  {v.code}: {v.message}", file=out)
        bad += bool(entries)
    return 1 if bad else 0


def cmd_quasipoints(args, file, out, info) -> int:
    lat = info.lattice()
    space = stone_space(lat)
    names = [space.point_name(k) for k in range(space.n_points)]
    points = {name: [lat.names[i] for i in bits(space.points[k])]
              for k, name in enumerate(names)}
    base = {lat.names[a]: [names[k] for k in bits(space.base[a])] for a in range(lat.n)}
    if args.json:
        print(json.dumps({"points": points, "base": base}, sort_keys=True), file=out)
        return 0
    for name, members in points.items():
        print(f"{name}: " + ", ".join(members), file=out)
    print(f"{space.n_points} quasipoints", file=out)
    print("base sets:", file=out)
    for a, hits in base.items():
        print(f"  Q_{a}: {', '.join(hits) or '-'}", file=out)
    return 0


def cmd_observable(args, file, out, info) -> int:
    # one row per quasipoint: its value, or its real part and imaginary part
    if info.kind == "family":
        g = fam.observable_function(info.obj)
        space, rows = g.space, [[v] for v in g.values]
    else:
        g = fam.observable_function_complex(info.obj)
        space, rows = g.re.space, [[a, f"{b}i"] for a, b in zip(g.re.values, g.im.values)]
    names = [space.point_name(k) for k in range(space.n_points)]
    if args.json:
        print(json.dumps({name: "+".join(map(str, row)) for name, row in zip(names, rows)},
                         sort_keys=True), file=out)
    else:
        for name, row in zip(names, rows):
            print(f"{name}: " + " + ".join(map(str, row)), file=out)
    return 0


def cmd_spectrum(args, file, out, info) -> int:
    print(str(fam.spectrum_of(info.obj)), file=out)
    return 0


def cmd_decompose(args, file, out, info) -> int:
    names = info.obj.lattice.names
    for label, e in zip(("first: ", "second:"), fam.decompose(info.obj)):
        print(f"{label} " + "; ".join(f"{t}: {names[v]}" for t, v in e.jumps()), file=out)
    return 0


def cmd_quotient(args, file, out, f_info, i_info) -> int:
    q = mea.quotient(f_info.obj, i_info.obj)
    print("classes: " + ", ".join(
        q.reduced.set_name(m) for m in q.reduced.members()), file=out)
    space = q.stone()
    for j, k in enumerate(q.embedded_point_indices()):
        orig = f_info.obj.stone()
        print(f"{space.point_name(j)} ~ {orig.point_name(k)}", file=out)
    return 0


def cmd_lift(args, file, out, f_info, i_info, fm_info) -> int:
    field = f_info.obj
    q = mea.quotient(field, i_info.obj)
    lat = field.lattice()
    _require_same(fm_info.obj.lattice, lat, "the family must live in the named field")
    reduced_lat = q.lattice()
    jumps = [(t, reduced_lat.set_ids[q.class_of(lat.payload[v])]) for t, v in fm_info.obj.jumps()]
    quotient_family = fam.SpectralFamily(reduced_lat, jumps)
    phi = mea.lift_spectral_family(q, quotient_family)
    for p, v in zip(field.ground, phi.values):
        print(f"{p}: {v}", file=out)
    return 0


def cmd_integrate(args, file, out, info) -> int:
    e = info.obj
    eps = dsl.parse_rational(args.eps)
    if eps is None:
        raise InputError(f"malformed rational --eps {args.eps!r}")
    if eps <= 0:
        raise InputError("--eps must be positive")
    lo, _ = e.bounds()
    g = fam.observable_function(e)
    # the step sum along lo, lo + eps, ... tags each quasipoint with the least
    # grid point at or above its value under f_E; the grid is never built
    tags = [lo + math.ceil((v - lo) / eps) * eps for v in g.values]
    err = max((abs(a - b) for a, b in zip(tags, g.values)), default=0)
    try:
        lines = [f"{g.space.point_name(k)}: {tags[k]}" for k in range(g.space.n_points)]
        lines.append(f"max deviation from f_E: {err} (eps = {eps})")
    except ValueError:  # a numerator or denominator beyond str's digit limit
        raise InputError(f"--eps {args.eps}: the step sums are too long to print") from None
    print("\n".join(lines), file=out)
    return 0


def cmd_check(args, file, out) -> int:
    names = sorted(checks.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        checks.suite(name)  # an unknown name fails before any output
    print(f"seed: {args.seed}", file=out)
    print(f"max-size: {args.max_size}", file=out)
    total_fail = 0
    total_cases = 0
    for name in names:
        result = checks.run_suite(name, max_size=args.max_size, seed=args.seed)
        for line in result.lines():
            print(line, file=out)
        total_fail += len(result.failures)
        total_cases += result.cases
    print(f"TOTAL: {total_fail} failures / {total_cases} cases", file=out)
    return 1 if total_fail else 0


def cmd_emit(args, file, out, info) -> int:
    if args.format == "json":
        print(json.dumps(dsl.emit_json(info, file), sort_keys=True, indent=2),
              file=out)
    else:
        print(dsl.emit_dot(info), file=out)
    return 0


def _positive_int(text: str) -> int:
    """An integer argument of at least 1, such as ``--max-size``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


_JSON = ("--json", {"action": "store_true"})

# Each subcommand once: name, help, handler and its arguments in order.  An
# argument is a plain positional, an option with its argparse keywords, or an
# object positional with the block kinds it accepts; ``main`` loads the file
# and resolves the objects, and passes them to the handler in this order.
COMMANDS = (
    ("validate", "parse a file and validate every block", cmd_validate, ["file"]),
    ("quasipoints", "table of the Stone spectrum of an object", cmd_quasipoints,
     ["file", ("object", ("lattice", "field", "topology")), _JSON]),
    ("observable", "f_E table of a family", cmd_observable,
     ["file", ("family", ("family", "family2")), _JSON]),
    ("spectrum", "spectrum and resolvent of a family", cmd_spectrum,
     ["file", ("family", ("family",))]),
    ("decompose", "split a two-parameter family", cmd_decompose,
     ["file", ("family", ("family2",))]),
    ("quotient", "quotient a field by an ideal", cmd_quotient,
     ["file", ("field", ("field",)), ("ideal", ("ideal",))]),
    ("lift", "lift a family through a quotient", cmd_lift,
     ["file", ("field", ("field",)), ("ideal", ("ideal",)), ("family", ("family",))]),
    ("integrate", "step-sum integration along an eps grid", cmd_integrate,
     ["file", ("family", ("family",)), ("--eps", {"required": True})]),
    ("check", "run a theorem-check suite (or 'all')", cmd_check,
     ["suite", ("--max-size", {"type": _positive_int, "default": 4, "dest": "max_size"}),
      ("--seed", {"type": int, "default": 0})]),
    ("emit", "emit an object as JSON or DOT", cmd_emit,
     [("format", {"choices": ("json", "dot")}), "file", ("object", dsl.KINDS)]),
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stonespec",
        description="Stone spectra, spectral families and observable functions "
                    "for finite lattices.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        objects = []
        for a in arguments:
            if isinstance(a, str):
                sp.add_argument(a)
            elif isinstance(a[1], dict):
                sp.add_argument(a[0], **a[1])
            else:
                sp.add_argument(a[0])
                objects.append(a)
        sp.set_defaults(func=handler, objects=objects)
    return p


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        file = _load(args.file) if "file" in args else None
        infos = [_resolve(file, getattr(args, name), kinds) for name, kinds in args.objects]
        return args.func(args, file, out, *infos)
    except (InputError, InvalidFamilyError, UnsupportedStructureError) as e:
        print(f"error: {e}", file=err)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
