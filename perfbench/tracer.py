"""Spans around calls into each layer, recorded from outside the package.

A ``Tracer`` replaces each traced function at every name its callers look it
up by: the attribute of its home module and every module of the package that
imported it. Package layers are named by module (``optimal``, ``potential``,
``dsdp``, ``barrier``, ``linalg``, ``bench``, ``matrixio``); ``lapack`` is the
numpy/scipy boundary below them. Private helpers are not wrapped, so the
spans survive refactors that rename them.

A span is ``[name, start, end, parent, count]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``count`` is an iteration count read from
the call's returned report, where the layer has one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from optiprecond import barrier, bench, dsdp, linalg, matrixio, optimal
from optiprecond import potential


def _report_iterations(index):
    return lambda result: int(result[index].iterations)


# (home module, function, span name or namer, count reader)
PACKAGE_TARGETS = (
    (optimal, "optimal_right", "optimal.right", None),
    (optimal, "optimal_left", "optimal.left", None),
    (optimal, "bisect_two_sided", "optimal.bisect", _report_iterations(1)),
    (optimal, "alternate_two_sided", "optimal.alternate",
     _report_iterations(1)),
    (potential, "solve_right_pr", "potential.solve", _report_iterations(1)),
    (dsdp, "barrier_path_solve", lambda p, *a, **k: f"dsdp.{p.side}",
     _report_iterations(2)),
    (barrier, "two_sided_feasibility", "barrier.feasibility", None),
    (linalg, "condition_number", "linalg.kappa", None),
    (bench, "pcg", "bench.pcg", None),
    (matrixio, "read_matrix_market", "matrixio.read", None),
    (matrixio, "gram_matrix", "matrixio.gram", None),
)

# The numpy/scipy entry points the package calls, or would call once it
# binds LAPACK directly, grouped by the kernel they run.
LAPACK_TARGETS = {
    "lapack.chol": ((np.linalg, "cholesky"), (scipy.linalg, "cholesky"),
                    (scipy.linalg, "cho_factor"),
                    (scipy.linalg.lapack, "dpotrf")),
    "lapack.potri": ((scipy.linalg.lapack, "dpotri"),),
    "lapack.solve": ((scipy.linalg, "solve"), (np.linalg, "solve"),
                     (scipy.linalg, "cho_solve"),
                     (scipy.linalg.lapack, "dposv")),
    "lapack.lstsq": ((scipy.linalg, "lstsq"), (np.linalg, "lstsq")),
    "lapack.eig": ((scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                   (np.linalg, "eigh"), (np.linalg, "eigvalsh")),
    "lapack.trsm": ((scipy.linalg, "solve_triangular"),),
}


class Tracer:
    """Collects spans while installed; restores every name on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, count_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(*args, **kwargs),
                    clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_of is not None:
                span[4] = count_of(result)
            return result
        return traced

    def _patch(self, home, attr, name, count_of):
        original = getattr(home, attr)
        traced = self._wrap(original, name, count_of)
        homes = [home] + [m for key, m in list(sys.modules.items())
                          if key.split(".")[0] == "optiprecond"]
        for module in homes:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._restore.append((module, key, original))

    def __enter__(self):
        for home, attr, name, count_of in PACKAGE_TARGETS:
            self._patch(home, attr, name, count_of)
        for name, entries in LAPACK_TARGETS.items():
            for home, attr in entries:
                self._patch(home, attr, name, None)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()
        return False

    def write(self, path, **header) -> None:
        """Write the spans, times relative to the first, as one JSON file."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p, c]
                for n, s, e, p, c in self.spans]
        with open(path, "w") as fh:
            json.dump({**header, "span_fields":
                       ["name", "start", "end", "parent", "count"],
                       "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(spans) -> dict:
    """Times, call counts, iteration counts and self times by layer."""
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent, count in spans:
        total[name] += end - start
        calls[name] += 1
        counts[name] += count or 0
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name.split(".")[0]] += end - start - child[i]

    out = {
        "optimal.right_s": total["optimal.right"],
        "optimal.left_s": total["optimal.left"],
        "optimal.bisect_s": total["optimal.bisect"],
        "optimal.alternate_s": total["optimal.alternate"],
        "optimal.self_s": self_s["optimal"],
        "optimal.bisect_levels": counts["optimal.bisect"],
        "optimal.alternate_rounds": counts["optimal.alternate"],
        "potential.solve_s": total["potential.solve"],
        "potential.pr_steps": counts["potential.solve"],
        "potential.self_s": self_s["potential"],
        "dsdp.right_s": total["dsdp.right"],
        "dsdp.left_s": total["dsdp.left"],
        "dsdp.stages": counts["dsdp.right"] + counts["dsdp.left"],
        "dsdp.self_s": self_s["dsdp"],
        "barrier.feasibility_s": total["barrier.feasibility"],
        "barrier.feasibility_calls": calls["barrier.feasibility"],
        "barrier.self_s": self_s["barrier"],
        "linalg.kappa_s": total["linalg.kappa"],
        "linalg.kappa_calls": calls["linalg.kappa"],
        "bench.pcg_s": total["bench.pcg"],
        "matrixio.read_s": total["matrixio.read"],
        "matrixio.gram_s": total["matrixio.gram"],
    }
    for kernel in ("chol", "potri", "solve", "lstsq", "eig", "trsm"):
        out[f"lapack.{kernel}_calls"] = calls[f"lapack.{kernel}"]
        if kernel != "lstsq":
            out[f"lapack.{kernel}_s"] = total[f"lapack.{kernel}"]
    return out
