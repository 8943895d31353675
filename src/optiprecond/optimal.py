"""Facade for the three optimal-preconditioning entry points.

Combines the feasibility oracle, the potential-reduction solver, and the
dual-SDP path follower into right, left, and two-sided solves. Each ends in
``heuristics.finish_solve``: scalings normalized to max 1, kappa re-measured
and never worse than unscaled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .barrier import _BOUNDARY_TOL, two_sided_feasibility
from .dsdp import barrier_path_solve, build_left, build_right
from .heuristics import (
    DiagScaling,
    SIDE_LEFT,
    SIDE_RIGHT,
    apply_scaling,
    finish_solve,
)
from .linalg import (SymMatrix, NotPositiveDefiniteError, condition_number,
                     serial_blas)
from .matrixio import RectMatrix, SolveReport
from .potential import PRConfig, solve_right_pr

# Alternation stops after 20 rounds, or once a round improves kappa by less
# than 0.1 %.
_MAX_ROUNDS = 20
_IMPROVEMENT_TOL = 1e-3


@dataclass
class OptimalRequest:
    """How to solve: method, tolerance, optional warm start."""

    # read by no solver; stays only because perfbench/workloads.py::_request
    # passes it
    side: str = "right"
    # optimal_right reads it: auto | potential_reduction | dsdp
    method: str = "auto"
    epsilon: float = 1e-2
    warm_start: DiagScaling | None = None
    pr_config: PRConfig | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@serial_blas()
def optimal_right(m: SymMatrix, req: OptimalRequest | None = None
                  ) -> tuple[DiagScaling, SolveReport]:
    """Optimal right preconditioner of a PD Gram matrix.

    auto dispatches to potential reduction for n <= 200 and the dual SDP
    solver above that. The result's condition number is re-measured and
    never exceeds kappa(M).
    """
    req = req or OptimalRequest()
    t0 = time.perf_counter()
    kappa_before = condition_number(m)
    method = req.method
    if method == "auto":
        method = "potential_reduction" if m.order <= 200 else "dsdp"
    if method == "potential_reduction":
        scaling, inner = solve_right_pr(m, req.pr_config)
    elif method == "dsdp":
        _, d, inner = barrier_path_solve(build_right(m))
        scaling = DiagScaling(d, side=SIDE_RIGHT)
    else:
        raise ValueError(f"unsupported right-side method {method!r}")
    return finish_solve(f"optimal_right[{method}]", t0, m, kappa_before,
                        scaling, inner.iterations, inner.extra)


@serial_blas()
def optimal_left(a: RectMatrix, req: OptimalRequest | None = None
                 ) -> tuple[DiagScaling, SolveReport]:
    """Optimal left preconditioner D1 minimizing kappa(A^T D1 A).

    Nothing in ``req`` changes this solve; it is taken for a signature
    shared with the other entry points.
    """
    t0 = time.perf_counter()
    x = a.tall()
    kappa_before = condition_number(SymMatrix(x.T @ x))
    _, d, inner = barrier_path_solve(build_left(RectMatrix(x)))
    return finish_solve("optimal_left[dsdp]", t0, a, kappa_before,
                        DiagScaling(d, side=SIDE_LEFT), inner.iterations,
                        inner.extra)


def _warm_kappa(m: SymMatrix, warm: DiagScaling | None) -> float | None:
    if warm is None:
        return None
    try:
        return condition_number(apply_scaling(m, warm))
    except (ValueError, NotPositiveDefiniteError):
        return None


@serial_blas()
def bisect_two_sided(a: RectMatrix, req: OptimalRequest | None = None
                     ) -> tuple[DiagScaling, SolveReport]:
    """Classic bisection on kappa over the two-sided SDP feasibility oracle.

    Starts from kappa_0 = kappa(A^T A), the choice that is always feasible
    (improved by a warm-start scaling when provided), and halves the
    bracket until its width drops below epsilon. Returns the last feasible
    witness pair.
    """
    req = req or OptimalRequest()
    t0 = time.perf_counter()
    x = a.tall()
    if max(x.shape) > 300:
        raise ValueError("two-sided bisection is limited to max(m, n) <= 300")
    rect = RectMatrix(x)
    gram = SymMatrix(x.T @ x)
    kappa_before = condition_number(gram)

    kappa0 = kappa_before
    warm = _warm_kappa(gram, req.warm_start)
    if warm is not None and warm < kappa0:
        kappa0 = warm

    # the always-feasible witness at kappa_0: D1 = I, D2 = lambda_min(M) I
    lamn = float(scipy.linalg.eigvalsh(gram.mat)[0])
    best_d1 = np.ones(x.shape[0])
    best_d2 = np.full(x.shape[1], lamn)

    res0 = two_sided_feasibility(rect, kappa0)
    if res0.margin >= -_BOUNDARY_TOL:
        best_d1, best_d2 = res0.witness_left, res0.witness
    fallbacks = res0.newton_fallbacks
    lo, hi = 1.0, kappa0
    iterations = 0
    while hi - lo >= req.epsilon:
        iterations += 1
        mid = 0.5 * (lo + hi)
        res = two_sided_feasibility(rect, mid)
        fallbacks += res.newton_fallbacks
        if res.margin >= -_BOUNDARY_TOL:
            hi = mid
            best_d1, best_d2 = res.witness_left, res.witness
        else:
            lo = mid
    bound = math.ceil(math.log2(max((kappa0 - 1.0) / req.epsilon, 1.0))) \
        if kappa0 > 1.0 else 0
    return finish_solve(
        "bisect_two_sided", t0, a, kappa_before,
        DiagScaling.pair(best_d1, best_d2), iterations,
        {"kappa0": kappa0, "bracket": [lo, hi], "iteration_bound": bound,
         "newton_fallbacks": fallbacks})


@serial_blas()
def alternate_two_sided(a: RectMatrix, req: OptimalRequest | None = None
                        ) -> tuple[DiagScaling, SolveReport]:
    """Two-sided preconditioner by alternating one-sided optimal solves.

    Odd steps solve the left problem on the running scaled matrix, even
    steps the right problem, accumulating the scalings. Any fixed point
    solves the two-sided problem; each one-sided solve can only improve or
    hold the condition number. Nothing in ``req`` changes this solve.
    """
    t0 = time.perf_counter()
    x = a.tall()
    kappa_before = condition_number(SymMatrix(x.T @ x))

    d1_total = np.ones(x.shape[0])
    d2_total = np.ones(x.shape[1])
    current = x.copy()
    kappa_track = [kappa_before]
    rounds = 0
    for _ in range(_MAX_ROUNDS):
        rounds += 1
        left_scaling, _ = optimal_left(RectMatrix(current))
        d1_total *= left_scaling.values
        current = np.sqrt(left_scaling.values)[:, None] * current

        right_gram = SymMatrix(current.T @ current)
        right_scaling, _ = optimal_right(right_gram,
                                         OptimalRequest(method="dsdp"))
        d2_total *= right_scaling.values
        current = current / np.sqrt(right_scaling.values)[None, :]

        kappa_now = condition_number(current.T @ current)
        kappa_track.append(kappa_now)
        gain = kappa_track[-2] - kappa_now
        if kappa_now <= 1 + 1e-9 or gain < _IMPROVEMENT_TOL * kappa_track[-2]:
            break

    return finish_solve("alternate_two_sided", t0, a, kappa_before,
                        DiagScaling.pair(d1_total, d2_total), rounds,
                        {"kappa_per_round": kappa_track})
