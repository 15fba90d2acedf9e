"""One workload sample, run inside a fresh interpreter.

    python bench/child.py sweep   --seed N --report R.json [--trace S.json]
    python bench/child.py algebra --seed N --report R.json [--trace S.json]
    python bench/child.py files   --calls C.json --report R.json [--trace S.json]

``sweep`` runs ``stonespec.cli.main`` on ``check all --max-size 4`` in-process
and prints its stdout; ``algebra`` runs the eight suites that never enumerate
topologies through ``stonespec.checks.run_suite`` and prints their result
lines; ``files`` runs each CLI call of the list through ``stonespec.cli.main``
and stores each exit code and stdout in the report.  The report holds
``work_s``, the time from after the imports (and the tracer's installation)
to the return of the last request.  With ``--trace`` the entry points are
wrapped and the spans are written to that file after the work.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from time import perf_counter

ALGEBRA_SUITES = ("bijection", "quotient", "point-isomorphism", "spectral-theorem",
                  "injectivity", "complex-decomposition", "continuity",
                  "counterexamples")
SWEEP_ARGV = ("check", "all", "--max-size", "4", "--seed")
MAX_SIZE = 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=("sweep", "algebra", "files"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--calls")
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    import stonespec.checks
    import stonespec.cli

    plain_main = stonespec.cli.main
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    report = {}
    code = 0
    start = perf_counter()
    if args.workload == "sweep":
        # cli.main stays unwrapped here: each suite is a request of its own.
        code = plain_main([*SWEEP_ARGV, str(args.seed)], out=sys.stdout)
        report["work_s"] = perf_counter() - start
    elif args.workload == "algebra":
        lines = []
        for name in ALGEBRA_SUITES:
            lines += stonespec.checks.run_suite(name, MAX_SIZE, args.seed).lines()
        report["work_s"] = perf_counter() - start
        sys.stdout.write("".join(line + "\n" for line in lines))
    else:
        with open(args.calls, encoding="utf-8") as handle:
            calls = json.load(handle)
        results = []
        for index, call in enumerate(calls):
            out, err = io.StringIO(), io.StringIO()
            if tracer is None:
                rc = stonespec.cli.main(call, out=out, err=err)
            else:
                rc = tracer.request_root(index, stonespec.cli.main, call, out=out, err=err)
            results.append([rc, out.getvalue()])
        report["work_s"] = perf_counter() - start
        report["calls"] = results
    sys.stdout.flush()

    if tracer is not None:
        tracer.dump(args.trace, {"workload": args.workload})
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
