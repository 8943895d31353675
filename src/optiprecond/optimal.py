"""Facade for the three optimal-preconditioning entry points.

Combines the feasibility oracle, the potential-reduction solver, and the
primal-dual one-sided SDP solver into right, left, and two-sided solves.
Each ends in ``heuristics.finish_solve``: scalings normalized to max 1,
kappa re-measured and never worse than unscaled.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .barrier import two_sided_feasibility
from .dsdp import barrier_path_solve, build_left, build_right
from .heuristics import (
    DiagScaling,
    SIDE_LEFT,
    SIDE_RIGHT,
    finish_solve,
    scaled_condition,
)
from .linalg import SymMatrix, condition_number, serial_blas
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
    method = req.method
    if method == "auto":
        method = "potential_reduction" if m.order <= 200 else "dsdp"
    if method == "potential_reduction":
        scaling, report = solve_right_pr(m, req.pr_config)
        report.method = "optimal_right[potential_reduction]"
        return scaling, report
    if method != "dsdp":
        raise ValueError(f"unsupported right-side method {method!r}")
    t0 = time.perf_counter()
    problem = build_right(m)
    _, d, inner = barrier_path_solve(problem)
    return finish_solve("optimal_right[dsdp]", t0, m, problem.kappa_before,
                        DiagScaling(d, side=SIDE_RIGHT), inner.iterations,
                        inner.extra)


@serial_blas()
def optimal_left(a: RectMatrix, req: OptimalRequest | None = None
                 ) -> tuple[DiagScaling, SolveReport]:
    """Optimal left preconditioner D1 minimizing kappa(A^T D1 A).

    Solves on the nonzero rows; a zero row, which no weight can change,
    gets the largest weight of the others. Nothing in ``req`` changes this
    solve; it is taken for a signature shared with the other entry points.
    """
    t0 = time.perf_counter()
    x = a.tall()
    nonzero = np.any(x != 0, axis=1)
    problem = build_left(RectMatrix(x[nonzero]))
    _, d_nonzero, inner = barrier_path_solve(problem)
    d = np.full(len(x), d_nonzero.max())
    d[nonzero] = d_nonzero
    return finish_solve("optimal_left[dsdp]", t0, a, problem.kappa_before,
                        DiagScaling(d, side=SIDE_LEFT), inner.iterations,
                        inner.extra)


@serial_blas()
def bisect_two_sided(a: RectMatrix, req: OptimalRequest | None = None
                     ) -> tuple[DiagScaling, SolveReport]:
    """Bisection on kappa over the two-sided SDP feasibility oracle.

    Starts from kappa_0 = kappa(A^T A), which is always feasible with the
    all-ones pair as witness, and halves the bracket until its width drops
    below epsilon; a feasible level lowers the upper end to its witness's
    kappa, and the next level works on A rescaled by that witness. Returns
    the last witness pair. A warm start (a pair, or a left or right scaling
    with the other side all ones) replaces kappa_0 and the first witness
    when it scales A better; one whose lengths do not fit A raises
    ValueError. An undecided level moves the lower end without proof and
    makes extra["certified"] False.
    """
    req = req or OptimalRequest()
    t0 = time.perf_counter()
    x = a.tall()
    if max(x.shape) > 300:
        raise ValueError("two-sided bisection is limited to max(m, n) <= 300")
    rect = RectMatrix(x)
    gram = SymMatrix(x.T @ x)
    kappa_before = kappa0 = condition_number(gram)
    best_d1, best_d2 = np.ones(x.shape[0]), np.ones(x.shape[1])
    warm = req.warm_start
    if warm is not None:
        if warm.side == SIDE_RIGHT:
            warm = DiagScaling.pair(best_d1, warm.values)
        elif warm.side == SIDE_LEFT:
            warm = DiagScaling.pair(warm.values, best_d2)
        kappa_warm = scaled_condition(rect, warm)
        if kappa_warm < kappa0:
            kappa0 = kappa_warm
            best_d1, best_d2 = warm.left_values, warm.values

    lo, hi = 1.0, kappa0
    kappa_lb = 1.0
    iterations = steps = fallbacks = undecided = 0
    while hi - lo >= req.epsilon:
        iterations += 1
        mid = 0.5 * (lo + hi)
        res = two_sided_feasibility(rect, mid, (best_d1, best_d2))
        steps += res.newton_steps
        fallbacks += res.newton_fallbacks
        if res.feasible:
            hi = min(mid, res.kappa)
            best_d1, best_d2 = res.witness_left, res.witness
        else:
            lo = mid
            if res.certificate is not None:
                kappa_lb = mid
            else:
                undecided += 1
    bound = math.ceil(math.log2(max((kappa0 - 1.0) / req.epsilon, 1.0))) \
        if kappa0 > 1.0 else 0
    return finish_solve(
        "bisect_two_sided", t0, a, kappa_before,
        DiagScaling.pair(best_d1, best_d2), iterations,
        {"kappa0": kappa0, "bracket": [lo, hi], "iteration_bound": bound,
         "kappa_lower_bound": kappa_lb, "certified_gap": hi / kappa_lb - 1,
         "certified": undecided == 0, "undecided_levels": undecided,
         "newton_steps": steps, "newton_fallbacks": fallbacks})


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
