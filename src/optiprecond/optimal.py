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
from .dsdp import GAP_FLOOR, barrier_path_solve, build_left, build_right
from .heuristics import (
    DiagScaling,
    SIDE_LEFT,
    SIDE_RIGHT,
    finish_solve,
)
from .linalg import SymMatrix, condition_number, serial_blas
from .matrixio import RectMatrix, SolveReport
from .potential import solve_right_pr

# Alternation stops after 20 rounds, or once a round improves kappa by less
# than 0.1 %.
_MAX_ROUNDS = 20
_IMPROVEMENT_TOL = 1e-3


@dataclass
class OptimalRequest:
    """How to solve: method and tolerance.

    epsilon is the relative gap kappa / kappa_lower_bound - 1 at which the
    dsdp routes stop (never below dsdp.GAP_FLOOR) and at which bisection
    stops (hi / lo - 1 < epsilon). optimal_right's potential-reduction
    route ignores it: it runs at PRConfig's defaults and stops on their
    kappa_tol; solve_right_pr(m, config) takes another PRConfig.
    """

    # read by no solver; stays only because perfbench/workloads.py::_request
    # passes it
    side: str = "right"
    # optimal_right reads it: auto | potential_reduction | dsdp
    method: str = "auto"
    epsilon: float = 1e-2

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be a finite positive number")


@serial_blas()
def optimal_right(m: SymMatrix, req: OptimalRequest | None = None
                  ) -> tuple[DiagScaling, SolveReport]:
    """Optimal right preconditioner of a PD Gram matrix.

    auto dispatches to potential reduction for n <= 200 and the dual SDP
    solver (dsdp.build_right, d = 1/w) above that; the dual SDP solver stops
    at a certified gap of ``req.epsilon`` (never below dsdp.GAP_FLOOR). The
    result's condition number is re-measured and never exceeds kappa(M).
    """
    req = req or OptimalRequest()
    method = req.method
    if method == "auto":
        method = "potential_reduction" if m.order <= 200 else "dsdp"
    if method == "potential_reduction":
        scaling, report = solve_right_pr(m)
        report.method = "optimal_right[potential_reduction]"
        return scaling, report
    if method != "dsdp":
        raise ValueError(f"unsupported right-side method {method!r}")
    t0 = time.perf_counter()
    problem = build_right(m)
    _, w, inner = barrier_path_solve(problem, req.epsilon)
    return finish_solve("optimal_right[dsdp]", t0, m, problem.kappa_before,
                        DiagScaling(1.0 / w, side=SIDE_RIGHT),
                        inner.iterations, inner.extra)


@serial_blas()
def optimal_left(a: RectMatrix, req: OptimalRequest | None = None
                 ) -> tuple[DiagScaling, SolveReport]:
    """Optimal left preconditioner D1 minimizing kappa(A^T D1 A).

    Solves on the nonzero rows; a zero row, which no weight can change,
    gets the largest weight of the others. The solve stops at a certified
    gap of ``req.epsilon`` (never below dsdp.GAP_FLOOR); the other fields
    of ``req`` do not change it.
    """
    req = req or OptimalRequest()
    t0 = time.perf_counter()
    x = a.tall()
    nonzero = np.any(x != 0, axis=1)
    problem = build_left(RectMatrix(x[nonzero]))
    _, d_nonzero, inner = barrier_path_solve(problem, req.epsilon)
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
    all-ones pair as witness, and halves the bracket [lo, hi] until its
    relative gap hi / lo - 1 drops below epsilon, so a certified pair has
    kappa <= (1 + epsilon) * kappa_lower_bound; a feasible level lowers the
    upper end to its witness's kappa, and the next level works on A
    rescaled by that witness. Each level is one primal-dual solve of
    two_sided_feasibility, which stops at a witness or a Farkas
    certificate. Returns the last witness pair. An undecided level moves
    the lower end without proof and makes extra["certified"] False.
    """
    req = req or OptimalRequest()
    t0 = time.perf_counter()
    x = a.tall()
    rect = RectMatrix(x)
    kappa0 = condition_number(SymMatrix(x.T @ x))
    best_d1, best_d2 = np.ones(x.shape[0]), np.ones(x.shape[1])
    lo, hi = 1.0, kappa0
    kappa_lb = 1.0
    iterations = steps = reductions = undecided = 0
    while hi / lo - 1 >= req.epsilon:
        iterations += 1
        mid = 0.5 * (lo + hi)
        res = two_sided_feasibility(rect, mid, (best_d1, best_d2))
        steps += res.newton_steps
        reductions += res.step_reductions
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
        "bisect_two_sided", t0, a, kappa0,
        DiagScaling.pair(best_d1, best_d2), iterations,
        {"kappa0": kappa0, "bracket": [lo, hi], "iteration_bound": bound,
         "kappa_lower_bound": kappa_lb, "certified_gap": hi / kappa_lb - 1,
         "gap_tolerance": req.epsilon, "certified": undecided == 0,
         "undecided_levels": undecided,
         "newton_steps": steps, "step_reductions": reductions})


@serial_blas()
def alternate_two_sided(a: RectMatrix, req: OptimalRequest | None = None
                        ) -> tuple[DiagScaling, SolveReport]:
    """Two-sided preconditioner by alternating one-sided optimal solves.

    Odd steps solve the left problem on the running scaled matrix, even
    steps the right problem, accumulating the scalings. Any fixed point
    solves the two-sided problem; each one-sided solve can only improve or
    hold the condition number. Each one-sided solve runs to the gap
    dsdp.GAP_FLOOR; nothing in ``req`` changes this solve. The fixed point
    carries no certificate, and the CLI runs bisect_two_sided instead; this
    function stays only because perfbench/workloads.py calls it.
    """
    t0 = time.perf_counter()
    x = a.tall()
    kappa_before = condition_number(SymMatrix(x.T @ x))

    d1_total = np.ones(x.shape[0])
    d2_total = np.ones(x.shape[1])
    current = x.copy()
    inner = OptimalRequest(method="dsdp", epsilon=GAP_FLOOR)
    kappa_track = [kappa_before]
    rounds = 0
    for _ in range(_MAX_ROUNDS):
        rounds += 1
        left_scaling, _ = optimal_left(RectMatrix(current), inner)
        d1_total *= left_scaling.values
        current = np.sqrt(left_scaling.values)[:, None] * current

        right_gram = SymMatrix(current.T @ current)
        right_scaling, _ = optimal_right(right_gram, inner)
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
