#!/usr/bin/env python3
"""multidom benchmark: one seeded workload per process, every output checked.

Run from the repository root; nothing is installed, ``src`` goes on the path:

    python3 perfbench/run.py --workload construct-large --seed 1 --seconds 15 --trace 0

Workloads: construct-large, exact-small, cli-pipeline (see README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the layer
boundaries and reports the per-layer metrics instead. ``--quick`` runs the
workload at toy size with every check. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
result file (and, when traced, a span file) goes to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

# One compute thread: BLAS pools are sized when numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5  # this process plus four fresh ones; setup_s is their median
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "weight_per_bound": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="keep starting rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="toy sizes, all checks")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    return ap.parse_args(argv)


def import_multidom():
    """Import multidom from this checkout's src, never from elsewhere."""
    init = os.path.join(SRC, "multidom", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} is missing; run from the root of a multidom checkout")
    sys.path.insert(0, SRC)
    import multidom
    import multidom.cli  # noqa: F401  (the cli-pipeline entry point)

    if os.path.abspath(multidom.__file__) != init:
        sys.exit(f"perfbench: imported multidom from {multidom.__file__}, not {init}")
    return multidom


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def environment(md) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba": bool(md.USING_NUMBA),
        "platform": platform.platform(),
    }


def run_rounds(wl, seconds: float):
    """Whole rounds of every operation; a new round starts only while the
    time left exceeds the last round's operation time. Every later round
    must reproduce round 1's outputs exactly; round 1's outputs are
    returned for the reference checks."""
    first = [None] * len(wl.ops)
    op_times, round_times, errors = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        spent = 0.0
        for i, op in enumerate(wl.ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted as failed; the run goes on
                failed += 1
                errors.append(f"op {i} failed: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            op_times.append(dt)
            spent += dt
            if first[i] is None:
                first[i] = out
            elif out != first[i]:
                errors.append(f"op {i}: output differs from round 1")
        round_times.append(spent)
        if deadline - time.perf_counter() < spent:
            break
    return attempted, failed, op_times, round_times, errors, first


def check_outputs(wl, outputs, tracer) -> list[str]:
    """Check round 1's outputs against the reference computations."""
    errors = []
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        for i, out in enumerate(outputs):
            if out is None:
                continue
            try:
                wl.check(i, out)
            except Exception as exc:  # a wrong output, not a failed operation
                errors.append(f"op {i} check: {type(exc).__name__}: {exc}")
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    md = import_multidom()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.build(args.workload, md, args.seed, args.quick, OUT)
    setup_s = time.perf_counter() - T0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.phase = "run"
        attempted, failed, op_times, round_times, errors, outputs = run_rounds(wl, args.seconds)
        # before the checks, which load scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors += check_outputs(wl, outputs, tracer)
    finally:
        wl.close()
    if wl.bound_total <= 0:
        errors.append("no instance has an applicable bound; weight_per_bound is undefined")
    e2e = {
        "wall_s": statistics.median(round_times),
        "op_p50_ms": 1e3 * statistics.median(op_times) if op_times else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "weight_per_bound": wl.weight_total / wl.bound_total if wl.bound_total > 0 else 0.0,
    }
    if tracer is None:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        e2e["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        setups = [setup_s]
        metrics = tracer.layer_metrics(len(round_times), wl.output_bytes_per_round)
    correct = not errors
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    with open(os.path.join(OUT, stem + ".result.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "env": environment(md),
            "correct": correct, "attempted": attempted, "failed": failed, "errors": errors,
            "rounds": len(round_times), "round_times_s": round_times, "setups_s": setups,
            "op_times_s": op_times,
            "end_to_end": e2e, "metrics": metrics,
        }, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT, stem + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    for line in errors[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
