"""Benchmark of optiprecond's default solve paths, end to end and by layer.

    python3 perfbench/run.py --workload right|left|twosided --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Each run repeats the workload's fixed set of solves (each followed by PCG
under the returned scaling) in a closed loop from one process, in whole
passes, until ``--seconds`` have gone by. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics (medians
over the passes). With ``--trace 1`` one further pass runs under the tracer
and the JSON holds the per-layer metrics instead; the spans go to
``perfbench/out/``. The BLAS thread count in effect is printed before it.
BLAS threads are left as the package ships them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "kappa_gmean": "kappa",
                    "pcg_iters": "count"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("right", "left", "twosided"))
    p.add_argument("--seed", type=int, default=0,
                   help="0 uses the bundled gauss_cov_s0..s3 draws")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def seconds_since_start() -> float:
    """Wall time since this process started, as the kernel recorded it.

    The start time is field 22 of /proc/self/stat, in clock ticks since
    boot, so the reading includes interpreter start-up and imports.
    """
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def blas_threads() -> str:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    import numpy.linalg._umath_linalg as numpy_lapack
    import scipy.linalg._flapack as scipy_lapack

    found = []
    for owner, module in (("numpy", numpy_lapack), ("scipy", scipy_lapack)):
        lib = ctypes.CDLL(module.__file__)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found.append(f"{owner}={fn()}")
                break
        else:
            found.append(f"{owner}=unknown")
    return " ".join(found)


def gmean(values) -> float:
    """Geometric mean; inf if any value is not a finite positive number."""
    values = list(values)
    if not all(math.isfinite(v) and v > 0 for v in values):
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "kappa_gmean": statistics.median(
            gmean(o.kappa for o in p) for p in passes),
        "pcg_iters": statistics.median(
            sum(o.pcg_iters for o in p) for p in passes),
    }


def report_pass(outcomes) -> None:
    for o in outcomes:
        status = "ok" if not o.failed else (
            "FAILED (known fault)" if o.expected else "FAILED")
        print(f"  {o.case.entry:9s} {o.case.label:15s} kappa {o.kappa:10.5g}"
              f"  pcg {o.pcg_iters:4d}  {o.wall_s:7.3f} s  {status}")
        for reason in o.failures:
            print(f"      {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "optiprecond" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    import workloads

    cases = workloads.load(args.workload, args.seed)
    threads = blas_threads()
    setup_s = seconds_since_start()
    print(f"blas_threads {threads}")

    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append([workloads.run_case(c) for c in cases])
        if len(passes) == 1:
            # after a fixed amount of work, since memory that leaks grows
            # with the number of passes
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = " ".join(f"{sum(o.wall_s for o in p):.3f}" for p in passes)
    print(f"{args.workload}: {len(passes)} passes, wall_s {walls}; first:")
    report_pass(passes[0])
    metrics = end_to_end(passes, setup_s, peak_rss_mb)
    units = END_TO_END_UNITS
    outcomes = [o for p in passes for o in p]
    OUT.mkdir(exist_ok=True)

    if args.trace:
        import tracer

        with tracer.Tracer() as tr:
            traced = [workloads.run_case(c)
                      for c in workloads.load(args.workload, args.seed)]
        outcomes += traced
        untraced_wall_s = metrics["wall_s"]
        metrics = tracer.layer_metrics(tr.spans)
        metrics["trace.overhead_s"] = (sum(o.wall_s for o in traced)
                                       - untraced_wall_s)
        units = {name: "count" if not name.endswith("_s") else "s"
                 for name in metrics}
        tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 workload=args.workload, seed=args.seed, blas_threads=threads)

    result = {
        "correct": workloads.correct(outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
