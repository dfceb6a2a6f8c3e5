"""Benchmark of the zccs package: one workload per process, one caller in
a closed loop, no threads.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see benchmarks/README.md).  The last line of standard output is one
JSON object; the lines before it are a readable report.  Full results and,
when traced, every span go to ``.bench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "zccs")
OUT = os.path.join(ROOT, ".bench_out")
LAYERS = ("algebra", "boolfn", "construct", "correlate", "verify", "cli")
LOC_MODULES = LAYERS + ("errors",)
# Set-up repeats at least SETUP_MIN times and until SETUP_BUDGET_S is spent
# (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 25, 1.0


def fresh_import():
    """Import the package from this checkout's src/, discarding any earlier
    import so that every set-up repetition pays the import again."""
    for name in [n for n in sys.modules if n == "zccs" or n.startswith("zccs.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("zccs")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != PACKAGE:
        raise ImportError(f"zccs imported from {pkg.__file__}, not from {PACKAGE}")
    return SimpleNamespace(**{m: importlib.import_module("zccs." + m) for m in LAYERS})


def run_phase(workload, seconds: float, tracer=None) -> dict:
    """Run whole passes until ``seconds`` have elapsed (at least one pass).
    Only the program calls are timed; output checks run between them."""
    passes, op_s, failures = [], [], []
    attempted = verdict_errors = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        done = []
        for op in workload.ops(index):
            attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = op.run()
                    elapsed = time.perf_counter() - t0
                else:
                    with tracer.operation(op.kind):
                        t0 = time.perf_counter()
                        out = op.run()
                        elapsed = time.perf_counter() - t0
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                out, elapsed = None, time.perf_counter() - t0
                problem = f"{op.kind} {op.group}: raised {type(exc).__name__}: {exc}"
            else:
                problem = op.check(out)
            done.append((op.kind, op.group, elapsed))
            op_s.append(elapsed)
            if problem:
                failures.append(problem)
                verdict_errors += op.well_formed
        passes.append(done)
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {"passes": passes, "op_s": op_s, "attempted": attempted,
            "failures": failures, "verdict_errors": verdict_errors}


def median_pass(passes, kinds=None) -> float:
    return statistics.median(sum(t for k, _, t in p if kinds is None or k in kinds) for p in passes)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def workload_metrics(name: str, phase: dict) -> dict:
    """The metrics named for one workload: {name: (value, unit, samples)}."""
    passes, n = phase["passes"], len(phase["passes"])
    if name == "sweep_small":
        return {"sweep_points_per_s": (statistics.median(len(p) / sum(t for *_, t in p) for p in passes), "1/s", n)}
    if name == "verify_large":
        return {f"{kind}_s": (median_pass(passes, {kind}), "s", n)
                for kind in ("generate", "verify", "verify_max_zcz", "corr")}
    times = phase["op_s"]
    return {"reject_s.p50": (percentile(times, 50), "s", len(times)),
            "reject_s.p90": (percentile(times, 90), "s", len(times))}


def op_medians(phase: dict) -> dict:
    """Median seconds of each (kind, group) of operation."""
    by_op = {}
    for p in phase["passes"]:
        for kind, group, t in p:
            by_op.setdefault(f"{kind} {group}", []).append(t)
    return {key: statistics.median(ts) for key, ts in sorted(by_op.items())}


def end_to_end(phase: dict, setup: list[float]) -> dict:
    """The metrics every workload reports, {name: (value, unit, samples)}."""
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "pass_s": (median_pass(phase["passes"]), "s", len(phase["passes"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_frac": (1 - len(phase["failures"]) / phase["attempted"], "frac", phase["attempted"]),
    }


def loc_metrics() -> dict:
    """Non-blank source lines per module of the package, and in total."""
    def lines(path):
        with open(path) as fh:
            return sum(1 for line in fh if line.strip())

    out = {f"loc.{m}": (lines(p) if os.path.exists(p := os.path.join(PACKAGE, m + ".py")) else 0, "lines")
           for m in LOC_MODULES}
    out["loc.total"] = (sum(lines(os.path.join(PACKAGE, f)) for f in os.listdir(PACKAGE) if f.endswith(".py")), "lines")
    return out


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unavailable' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def context(args, workload) -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_commit": git_commit(), "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "inputs": workload.shape(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep_small", "verify_large", "reject_corrupt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"benchmark: no zccs package at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(PACKAGE))
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = []
        while len(setup) < SETUP_MIN or (sum(setup) < SETUP_BUDGET_S and len(setup) < SETUP_MAX):
            t0 = time.perf_counter()
            z = fresh_import()
            workload = WORKLOADS[args.workload](z, args.seed, args.size, workdir)
            setup.append(time.perf_counter() - t0)

        plain = run_phase(workload, args.seconds if not args.trace else args.seconds / 2)
        phases = [plain]
        if args.trace:
            tracer = Tracer()
            tracer.install(z)
            try:
                traced = run_phase(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            metrics = dict(tracer.summary())
            metrics.update(loc_metrics())
            metrics["trace.overhead_frac"] = (median_pass(traced["passes"]) / median_pass(plain["passes"]) - 1, "frac")
            error = tracer.accounting_error()
            if error > 1e-6:
                traced["failures"].append(f"self times miss an operation's wall time by {error:.3g} s")
                traced["verdict_errors"] += 1
            shown = {k: v + (None,) for k, v in metrics.items()}
        else:
            shown = dict(end_to_end(plain, setup))
            shown.update(workload_metrics(args.workload, plain))
            shown["failed_frac"] = (len(plain["failures"]) / plain["attempted"], "frac", plain["attempted"])

        attempted = sum(p["attempted"] for p in phases)
        failures = [f for p in phases for f in p["failures"]]
        correct = not any(p["verdict_errors"] for p in phases)
        ctx = context(args, workload)
        if args.trace:
            ctx["trace_targets_missing"] = tracer.missing
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.write(stem + ".spans.csv.gz")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": shown[m["name"]][0], "unit": shown[m["name"]][1]} for m in declared},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"context": ctx, "failures": failures, "result": result, "op_medians_s": op_medians(plain),
                   "report": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in shown.items()}},
                  fh, indent=1)

    print(f"# zccs benchmark: {json.dumps(ctx)}")
    for key, (value, unit, n) in shown.items():
        print(f"metric {key} = {value:.6g} {unit}" + (f" (n={n})" if n is not None else ""))
    for problem in sorted(set(failures)):
        print(f"failed ({failures.count(problem)}x): {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
