"""Benchmark entry point.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  BLAS threads are pinned before numpy
is imported.  The program is imported from ``src/`` of the same
checkout; outputs go to ``.bench_build/perfbench/``.  An earlier
stdout line carries the provenance block; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-desk", "train-longseq")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads_effective(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args):
    import numpy as np
    import scipy
    from diffumamba import util

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "blas": {"library": blas.get("name"), "version": blas.get("version"),
                     "threads_pinned": BLAS_THREADS,
                     "threads_effective": blas_threads_effective(np)},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "build_id": util.build_id(),
            "machine": platform.machine(), "platform": platform.platform()}


def spread(values):
    """Median, quartiles and sample count of a list of samples."""
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "values": values}


def run_ops(wl, seconds):
    """Closed loop: ops back to back until ``seconds`` have passed."""
    start = now = time.perf_counter()
    deadline = start + seconds
    n = 0
    while n == 0 or now < deadline:
        wl.op()
        n += 1
        now = time.perf_counter()
    return now - start, n


def untraced(wl, seconds):
    wl.setup()
    window_s, n_ops = run_ops(wl, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": (statistics.median(wl.setup_s), "s")}
    detail = {"setup_s": spread(wl.setup_s), "window_s": window_s, "ops": n_ops}
    for name, phases in wl.work.items():
        # work completed per second over every timed phase of the run
        items = sum(n for n, _ in phases)
        busy_s = sum(s for _, s in phases)
        values[name] = (items / busy_s if busy_s else 0.0, "1/s")
        detail[name] = {"items": items, "seconds": busy_s,
                        "per_phase": spread([n / s for n, s in phases])}
    values["peak_rss_mb"] = (peak_mb, "MB")
    return values, detail


def traced(wl, seconds, out_dir):
    """Ops alternate untraced and traced until ``seconds`` have passed, so
    the overhead compares ops run under the same machine conditions."""
    from tracer import Tracer

    tracer = Tracer()
    wl.setup()
    walls = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while not (walls[True] and time.perf_counter() >= deadline):
        on = len(walls[False]) > len(walls[True])
        if on:
            tracer.step = len(walls[True])
            tracer.install()
        try:
            t0 = time.perf_counter()
            wl.op()
            walls[on].append(time.perf_counter() - t0)
        finally:
            if on:
                tracer.uninstall()
    n_ops = len(walls[True])
    window_s = sum(walls[True])
    values, check = tracer.summarize(window_s, n_ops)
    wall, reference = statistics.median(walls[True]), statistics.median(walls[False])
    values.update({"trace.wall_s": (window_s / n_ops, "s"),
                   "trace.untraced_wall_s": (sum(walls[False]) / len(walls[False]), "s"),
                   "trace.overhead_s": (wall - reference, "s"),
                   "trace.overhead_pct": (100.0 * (wall - reference) / reference, "%")})
    check.update(unowned_tape_nodes=tracer.unowned_nodes, traced_op_s=walls[True],
                 untraced_op_s=walls[False])
    spans_path = os.path.join(out_dir, "spans.csv")
    tracer.write_spans(spans_path)
    return values, {"trace_check": check, "spans": os.path.relpath(spans_path, ROOT)}


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"     # leave the checkout as found
    sys.dont_write_bytecode = True
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "diffumamba", "__init__.py")):
        print(f"run.py: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import workloads

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    info = provenance(args)
    print(json.dumps({"provenance": info}), flush=True)
    wl = workloads.Workload(args.workload, args.seed, out_dir)
    if args.trace:
        values, detail = traced(wl, args.seconds, out_dir)
    else:
        values, detail = untraced(wl, args.seconds)

    result = {"correct": wl.failed == 0 and wl.attempted > 0,
              "attempted": wl.attempted, "failed": wl.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "result": result, "detail": detail,
                   "problems": wl.problems}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
