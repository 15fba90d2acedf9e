"""The stonespec benchmark: one workload at one seed, end to end or traced.

    python3 bench/run.py --workload sweep|algebra|files|all --seed N \\
        --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory.  Every
workload is a closed loop with one client: each process starts after the
previous one has exited.  Samples repeat until the next one would overrun
``--seconds`` (at least two are taken).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the run environment and a readable summary, and the same
record is written to ``.bench_work/results/``.

``--trace 0`` reports the end-to-end metrics, measured on the untraced
program.  ``--trace 1`` runs the workload in fresh processes with the entry
points of every module wrapped (see ``tracer.py``) and reports per-layer
calls and self times, plus ``trace.overhead_ratio`` against the same
in-process run without wrappers.

``--write-goldens`` stores the seed-0 outputs of the current program as the
expected outputs; use it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from child import ALGEBRA_SUITES, SWEEP_ARGV  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PYCACHE = os.path.join(WORK, "pycache")
FILES_DIR = os.path.join(".bench_work", "files")  # relative: it appears in argv
GOLDENS = os.path.join(BENCH, "goldens")
SWEEP_GOLDEN = os.path.join(GOLDENS, "sweep_seed0.txt")
FILES_GOLDEN = os.path.join(GOLDENS, "files_seed0.json")
CHILD = os.path.join(BENCH, "child.py")
PY = sys.executable

SETUP_REPEATS = 16
IMPORT = "import stonespec"
MIN_SAMPLES = 2
# A child still running after this long is killed, so that a run ends well
# within the three minutes it is allowed; its operations then count as failed.
CHILD_TIMEOUT_S = 120
WORKLOADS = ("sweep", "algebra", "files")
WAITING = ("not applicable: every layer runs on one thread, with no queues and "
           "no I/O beyond reading one input file")

# The children see only this environment.  Bytecode caching is switched on
# (the caller's environment may disable it) with the cache kept in the
# benchmark's own directory; the hash seed is pinned so set order, and with
# it every count, repeats.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": SRC,
    "PYTHONPYCACHEPREFIX": PYCACHE,
    "PYTHONHASHSEED": "0",
    "PYTHONIOENCODING": "utf-8",
    "LC_ALL": "C.UTF-8",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a crashed helper)."""


class Proc:
    """One finished child: wall time from spawn to exit, exit code, stdout
    and peak resident set size (from ``os.wait4``)."""

    def __init__(self, elapsed, code, stdout, rss_mb):
        self.elapsed, self.code, self.stdout, self.rss_mb = elapsed, code, stdout, rss_mb


def spawn(argv) -> Proc:
    err_path = os.path.join(WORK, "stderr.txt")
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(elapsed, proc.returncode, out.decode("utf-8", "replace"),
                usage.ru_maxrss / 1024)


def helper(argv) -> Proc:
    """A child whose failure means the benchmark itself cannot go on."""
    p = spawn(argv)
    if p.code not in (0, 1):
        with open(os.path.join(WORK, "stderr.txt"), encoding="utf-8",
                  errors="replace") as handle:
            tail = handle.read()[-2000:]
        raise BenchError(f"{' '.join(argv[1:3])} exited with {p.code}:\n{tail}")
    return p


def repeat(seconds, one_sample) -> list:
    """Closed loop: take samples until the next one would overrun."""
    out, longest, start = [], 0.0, perf_counter()
    while True:
        t = perf_counter()
        out.append(one_sample())
        longest = max(longest, perf_counter() - t)
        if len(out) >= MIN_SAMPLES and perf_counter() - start + longest > seconds:
            return out


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)


# --- set-up ---------------------------------------------------------------------


def prepare() -> dict:
    """Check the sources, warm the bytecode cache; returns the environment."""
    if not os.path.isfile(os.path.join(SRC, "stonespec", "__init__.py")):
        raise BenchError(f"no stonespec sources under {SRC}")
    for name in gen.FIXTURES:
        if not os.path.isfile(os.path.join(ROOT, "fixtures", name)):
            raise BenchError(f"fixture {name} is missing")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    # Warm-up: compiles the package, the CLI entry and the helpers.
    where = helper([PY, "-c", IMPORT + ", sys; "
                    "sys.path.insert(0, sys.argv[1]); import child, tracer; "
                    "print(stonespec.__file__)", BENCH]).stdout.strip()
    if os.path.dirname(os.path.dirname(where)) != SRC:
        raise BenchError(f"imported stonespec from {where}, not from {SRC}")
    helper([PY, "-m", "stonespec", "--help"])
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "bytecode_cache": "on, warmed before timing",
        "waiting": WAITING,
    }


def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def elapsed(code, repeats=SETUP_REPEATS) -> list:
    """Spawn-to-exit times of ``python -c code``."""
    return [spawn([PY, "-c", code]).elapsed for _ in range(repeats)]


def sweep_golden(seed):
    if seed != 0:
        return None
    with open(SWEEP_GOLDEN, encoding="utf-8") as handle:
        return handle.read()


def files_inputs(seed) -> tuple:
    """Generate the files; returns (calls, expected [exit, sha256] per call).

    Fixture calls are checked against the goldens at every seed; calls on
    generated files against the goldens at seed 0 and otherwise against an
    in-process run of the same calls made before timing.
    """
    gen.generate(seed, os.path.join(ROOT, FILES_DIR))
    calls = gen.call_list(FILES_DIR)
    calls_path = os.path.join(WORK, "calls.json")
    write_json(calls_path, calls)
    goldens = read_json(FILES_GOLDEN)
    keys = [" ".join(c) for c in calls]
    if seed == 0:
        if set(keys) != set(goldens):
            raise BenchError("the call list does not match the stored goldens")
        return calls, [goldens[k] for k in keys]
    p, report = run_child([PY, CHILD, "files", "--calls", calls_path])
    if p.code != 0 or report is None:
        raise BenchError(f"the in-process reference run exited with {p.code}")
    fixtures = os.path.join("fixtures", "")
    return calls, [goldens[k] if any(a.startswith(fixtures) for a in call)
                   else [0, gate.digest(out)]
                   for k, call, (_, out) in zip(keys, calls, report["calls"])]


def run_child(argv):
    """Run ``child.py`` with a fresh report file; returns (Proc, report or None)."""
    path = os.path.join(WORK, "report.json")
    if os.path.exists(path):
        os.remove(path)
    p = spawn(argv + ["--report", path])
    return p, (read_json(path) if p.code in (0, 1) and os.path.exists(path) else None)


# --- untraced samples -----------------------------------------------------------


def run_end_to_end(workload, seed, seconds) -> dict:
    """Untraced samples; returns metrics, operation counts and sample data."""
    attempted = failed = 0
    wall, calls, rss = [], [], []
    if workload == "files":
        call_list, expected = files_inputs(seed)
    # Half of the set-up samples before the workload and half after it, so
    # that a slow minute on a shared machine does not decide set-up alone.
    setup = elapsed(IMPORT, SETUP_REPEATS // 2)

    def sweep():
        p = spawn([PY, "-m", "stonespec", *SWEEP_ARGV, str(seed)])
        bad = gate.judge_sweep(p.stdout, p.code, seed, sweep_golden(seed))
        wall.append(p.elapsed)
        calls.append(p.elapsed)
        rss.append(p.rss_mb)
        return len(gate.SWEEP_SUITES), len(bad)

    def algebra():
        p, report = run_child([PY, CHILD, "algebra", "--seed", str(seed)])
        bad = gate.judge_suites(p.stdout, ALGEBRA_SUITES, sweep_golden(seed))
        if p.code != 0 or report is None:
            bad = ALGEBRA_SUITES
        else:
            wall.append(report["work_s"])
        calls.append(p.elapsed)
        rss.append(p.rss_mb)
        return len(ALGEBRA_SUITES), len(bad)

    def files():
        start, peak, bad = perf_counter(), 0.0, 0
        for call, want in zip(call_list, expected):
            p = spawn([PY, "-m", "stonespec", *call])
            bad += not gate.judge_call(want, p.code, p.stdout)
            calls.append(p.elapsed)
            peak = max(peak, p.rss_mb)
        wall.append(perf_counter() - start)
        rss.append(peak)
        return len(call_list), bad

    for n, bad in repeat(seconds, {"sweep": sweep, "algebra": algebra,
                                   "files": files}[workload]):
        attempted += n
        failed += bad
    if not wall:
        raise BenchError(f"every {workload} sample failed")
    setup += elapsed(IMPORT, SETUP_REPEATS - len(setup))
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "call_p50_ms": (statistics.median(calls) * 1000, "ms"),
        "call_p90_ms": (p90(calls) * 1000, "ms"),
    }
    samples = {"samples": len(wall), "calls": len(calls), "wall_s": wall}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "samples": samples}


# --- traced samples -------------------------------------------------------------


def layer_metrics(doc) -> dict:
    calls, self_s, requests = tracer.summarize(doc)
    counts = doc["counts"]
    out = {}
    for name in tracer.ENTRY_POINTS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    n = calls["stone.stone_space"]
    out["stone.stone_space.hit_ratio"] = (
        counts["stone.stone_space.hits"] / n if n else 0.0, "ratio")
    out["fractions.Fraction.calls"] = (counts["fractions.Fraction.calls"], "count")
    out["checks.repr.calls"] = (counts["checks.repr.calls"], "count")
    for suite in gate.SWEEP_SUITES:
        out[f"checks.{suite}.s"] = (requests.get(suite, 0.0), "s")
        out[f"checks.{suite}.cases"] = (doc["cases"].get(suite, 0), "count")
    return out


def run_traced(workload, seed, seconds) -> dict:
    """Pairs of in-process children, without and with the tracer."""
    attempted = failed = 0
    if workload == "files":
        call_list, expected = files_inputs(seed)
        calls_path = os.path.join(WORK, "calls.json")
    interpreter_s = statistics.median(elapsed("pass"))
    import_s = statistics.median(elapsed(IMPORT))
    spans = os.path.join(WORK, "spans.json")
    plain, traced, layers = [], [], []

    def judge(p, report):
        """(operations, failed operations) of one child."""
        if workload == "sweep":
            return len(gate.SWEEP_SUITES), len(gate.judge_sweep(
                p.stdout, p.code, seed, sweep_golden(seed)))
        if workload == "algebra":
            bad = gate.judge_suites(p.stdout, ALGEBRA_SUITES, sweep_golden(seed))
            return len(ALGEBRA_SUITES), len(ALGEBRA_SUITES if p.code else bad)
        if p.code != 0 or report is None:
            return len(call_list), len(call_list)
        return len(call_list), sum(not gate.judge_call(w, rc, out)
                                   for w, (rc, out) in zip(expected, report["calls"]))

    def pair():
        base = [PY, CHILD, workload, "--seed", str(seed)]
        if workload == "files":
            base += ["--calls", calls_path]
        n = bad = 0
        for times, extra in ((plain, []), (traced, ["--trace", spans])):
            if os.path.exists(spans):
                os.remove(spans)
            p, report = run_child(base + extra)
            ops, wrong = judge(p, report)
            n, bad = n + ops, bad + wrong
            if report is not None:
                times.append(report["work_s"])
        if os.path.exists(spans):
            layers.append(layer_metrics(read_json(spans)))
            os.remove(spans)
        return n, bad

    for n, bad in repeat(seconds, pair):
        attempted += n
        failed += bad
    if not (layers and plain):
        raise BenchError(f"every traced {workload} sample failed")
    metrics = {}
    for key, (_, unit) in layers[0].items():
        values = [layer[key][0] for layer in layers]
        if unit == "count":
            if len(set(values)) != 1:
                failed += 1  # a count that does not repeat is a tracing fault
            metrics[key] = (values[0], unit)
        else:
            metrics[key] = (statistics.median(values), unit)
    metrics["setup.interpreter_s"] = (interpreter_s, "s")
    metrics["setup.import_s"] = (import_s - interpreter_s, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    samples = {"samples": len(traced), "plain_work_s": plain, "traced_work_s": traced}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "samples": samples}


# --- goldens --------------------------------------------------------------------


def write_goldens():
    p = spawn([PY, "-m", "stonespec", *SWEEP_ARGV, "0"])
    with open(SWEEP_GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(p.stdout)
    gen.generate(0, os.path.join(ROOT, FILES_DIR))
    goldens = {}
    for call in gen.call_list(FILES_DIR):
        q = spawn([PY, "-m", "stonespec", *call])
        goldens[" ".join(call)] = [q.code, gate.digest(q.stdout)]
    write_json(FILES_GOLDEN, goldens)


# --- entry ----------------------------------------------------------------------


def run_one(workload, seed, seconds, trace, env) -> dict:
    result = (run_traced if trace else run_end_to_end)(workload, seed, seconds)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, **result}
    write_json(os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}.json"),
               record)
    m = result["metrics"]
    rate = result["failed"] / result["attempted"]
    shown = ("wall_s", "setup_s", "peak_rss_mb", "call_p50_ms", "call_p90_ms") \
        if not trace else ("trace.overhead_ratio", "setup.import_s",
                           "fractions.Fraction.calls")
    print(f"{workload} seed={seed} samples={result['samples']['samples']} "
          + " ".join(f"{k}={m[k][0]:.6g} {m[k][1]}" for k in shown)
          + f" error_rate={rate:.6g} ratio ({result['failed']}/{result['attempted']})")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stonespec benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_goldens and args.workload is None:
        ap.error("--workload is required")
    try:
        env = prepare()
        if args.write_goldens:
            write_goldens()
            return 0
        print("env: " + json.dumps(env, sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            line = run_one(workload, args.seed, args.seconds, args.trace, env)
            print(json.dumps(line, sort_keys=True), flush=True)
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
