"""Facade for the three optimal-preconditioning entry points.

Combines the feasibility oracle, the potential-reduction solver, and the
dual-SDP path follower into right, left, and two-sided solves. Returned
scalings are normalized so max d_i = 1 (solutions are scale invariant).
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
    apply_pair,
    apply_scaling,
)
from .linalg import (SymMatrix, NotPositiveDefiniteError, blas_backend,
                     condition_number, serial_blas)
from .matrixio import RectMatrix, SolveReport
from .potential import PRConfig, solve_right_pr

# Alternation stops after 20 rounds, or once a round improves kappa by less
# than 0.1 %.
_MAX_ROUNDS = 20
_IMPROVEMENT_TOL = 1e-3


@dataclass
class OptimalRequest:
    """What to solve and how: side, method, tolerance, optional warm start."""

    side: str = "right"                   # left | right | two_sided
    # optimal_right reads it: auto | potential_reduction | dsdp
    method: str = "auto"
    epsilon: float = 1e-2
    warm_start: DiagScaling | None = None
    pr_config: PRConfig | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _normalized(values: np.ndarray) -> np.ndarray:
    return values / values.max()


@serial_blas()
def optimal_right(m: SymMatrix, req: OptimalRequest | None = None
                  ) -> tuple[DiagScaling, SolveReport]:
    """Optimal right preconditioner of a PD Gram matrix.

    auto dispatches to potential reduction for n <= 200 and the dual SDP
    solver above that. The result's condition number is re-measured and
    never exceeds kappa(M).
    """
    req = req or OptimalRequest(side="right")
    t0 = time.perf_counter()
    kappa_before = condition_number(m)
    method = req.method
    if method == "auto":
        method = "potential_reduction" if m.order <= 200 else "dsdp"
    if method == "potential_reduction":
        scaling, inner = solve_right_pr(m, req.pr_config)
        d = scaling.values
    elif method == "dsdp":
        _, d, inner = barrier_path_solve(build_right(m))
    else:
        raise ValueError(f"unsupported right-side method {method!r}")
    d = _normalized(d)
    kappa_after = condition_number(
        apply_scaling(m, DiagScaling(d, side=SIDE_RIGHT)))
    if kappa_after > kappa_before:
        d = np.ones(m.order)
        kappa_after = kappa_before
    report = SolveReport(
        matrix="", method=f"optimal_right[{method}]",
        kappa_before=kappa_before, kappa_after=kappa_after,
        iterations=inner.iterations,
        wall_time_seconds=time.perf_counter() - t0,
        extra=inner.extra)
    return DiagScaling(d, side=SIDE_RIGHT), report


@serial_blas()
def optimal_left(a: RectMatrix, req: OptimalRequest | None = None
                 ) -> tuple[DiagScaling, SolveReport]:
    """Optimal left preconditioner D1 minimizing kappa(A^T D1 A)."""
    req = req or OptimalRequest(side="left")
    t0 = time.perf_counter()
    x = a.tall()
    rect = RectMatrix(x)
    gram = SymMatrix(x.T @ x)
    kappa_before = condition_number(gram)
    _, d, inner = barrier_path_solve(build_left(rect))
    d = _normalized(d)
    scaling = DiagScaling(d, side=SIDE_LEFT)
    scaled = x.T @ (d[:, None] * x)
    kappa_after = condition_number(0.5 * (scaled + scaled.T))
    if kappa_after > kappa_before:
        scaling = DiagScaling(np.ones(x.shape[0]), side=SIDE_LEFT)
        kappa_after = kappa_before
    report = SolveReport(
        matrix="", method="optimal_left[dsdp]",
        kappa_before=kappa_before, kappa_after=kappa_after,
        iterations=inner.iterations,
        wall_time_seconds=time.perf_counter() - t0,
        extra=inner.extra)
    return scaling, report


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
    req = req or OptimalRequest(side="two_sided")
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
    scaling = DiagScaling.pair(_normalized(best_d1), _normalized(best_d2))
    kappa_after = condition_number(apply_pair(rect, scaling))
    if kappa_after > kappa_before:
        scaling = DiagScaling.pair(np.ones(x.shape[0]), np.ones(x.shape[1]))
        kappa_after = kappa_before
    bound = math.ceil(math.log2(max((kappa0 - 1.0) / req.epsilon, 1.0))) \
        if kappa0 > 1.0 else 0
    report = SolveReport(
        matrix="", method="bisect_two_sided",
        kappa_before=kappa_before, kappa_after=kappa_after,
        iterations=iterations,
        wall_time_seconds=time.perf_counter() - t0,
        extra={"kappa0": kappa0, "bracket": [lo, hi],
               "iteration_bound": bound, "newton_fallbacks": fallbacks,
               "blas_backend": blas_backend()})
    return scaling, report


@serial_blas()
def alternate_two_sided(a: RectMatrix, req: OptimalRequest | None = None
                        ) -> tuple[DiagScaling, SolveReport]:
    """Two-sided preconditioner by alternating one-sided optimal solves.

    Odd steps solve the left problem on the running scaled matrix, even
    steps the right problem, accumulating the scalings. Any fixed point
    solves the two-sided problem; each one-sided solve can only improve or
    hold the condition number.
    """
    req = req or OptimalRequest(side="two_sided")
    t0 = time.perf_counter()
    x = a.tall()
    rect = RectMatrix(x)
    gram = SymMatrix(x.T @ x)
    kappa_before = condition_number(gram)

    d1_total = np.ones(x.shape[0])
    d2_total = np.ones(x.shape[1])
    current = x.copy()
    kappa_track = [kappa_before]
    rounds = 0
    for _ in range(_MAX_ROUNDS):
        rounds += 1
        left_scaling, _ = optimal_left(RectMatrix(current), req)
        d1_total *= left_scaling.values
        current = np.sqrt(left_scaling.values)[:, None] * current

        right_gram = SymMatrix(current.T @ current)
        right_scaling, _ = optimal_right(right_gram, OptimalRequest(
            method="dsdp", epsilon=req.epsilon))
        d2_total *= right_scaling.values
        current = current / np.sqrt(right_scaling.values)[None, :]

        kappa_now = condition_number(current.T @ current)
        kappa_track.append(kappa_now)
        gain = kappa_track[-2] - kappa_now
        if kappa_now <= 1 + 1e-9 or gain < _IMPROVEMENT_TOL * kappa_track[-2]:
            break

    scaling = DiagScaling.pair(_normalized(d1_total), _normalized(d2_total))
    kappa_after = condition_number(apply_pair(rect, scaling))
    if kappa_after > kappa_before:
        scaling = DiagScaling.pair(np.ones(x.shape[0]), np.ones(x.shape[1]))
        kappa_after = kappa_before
    report = SolveReport(
        matrix="", method="alternate_two_sided",
        kappa_before=kappa_before, kappa_after=kappa_after,
        iterations=rounds,
        wall_time_seconds=time.perf_counter() - t0,
        extra={"kappa_per_round": kappa_track,
               "blas_backend": blas_backend()})
    return scaling, report
