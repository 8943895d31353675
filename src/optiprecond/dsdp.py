"""Primal-dual interior point for the one-sided dual SDP reformulation.

After the change of variable tau = 1/kappa, the left problem maximizes tau
over linear matrix inequalities in (tau, d):

  sum_i d_i a_i a_i^T >= tau I,  <= I,  d >= 0   (d in R^m, rows a_i of A)

Its primal SDP over X1, X2 >= 0 is min tr X2 s.t. tr X1 = 1, a_i^T X1 a_i
<= a_i^T X2 a_i. The right problem, min kappa(D^-1/2 M D^-1/2), is the same
problem on a Cholesky factor M = L L^T: D^-1/2 M D^-1/2 has the spectrum of
L^T D^-1 L, so build_right poses build_left on the rows of L, whose row
weights w give d = 1/w. ``barrier_path_solve`` runs
barrier.primal_dual_ascent, Mehrotra's predictor-corrector on the HKM
direction (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996;
Todd, Toh & Tutuncu, SIAM J. Optim. 1998), from strictly feasible starts
on both sides, and stops on the gap to a primal point repaired to exact
feasibility, which bounds tau* from above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .barrier import LmiBarrier, Term, primal_dual_ascent
from .linalg import (NotPositiveDefiniteError, SymMatrix, blas_backend,
                     chol_pd, extreme_eigenvalues, serial_blas)
from .matrixio import RectMatrix, SolveReport

# The tightest certified gap kappa_after / kappa_lower_bound - 1 a solve
# stops at: looser requests stop sooner, tighter ones stop here.
GAP_FLOOR = 1e-8
_MAX_ITER = 100


@dataclass
class DsdpProblem:
    """One-sided dual SDP over x = (tau, d): its barrier, strictly feasible
    dual and primal starts, the repaired primal objective (a bound on tau*)
    and kappa of the unscaled Gram matrix."""

    side: str                  # 'left' | 'right'
    barrier: LmiBarrier
    start: np.ndarray
    primal_start: tuple[list[np.ndarray], np.ndarray]
    tau_bound: Callable[[list[np.ndarray]], float]
    kappa_before: float


def build_left(a: RectMatrix) -> DsdpProblem:
    """max tau s.t. tau I <= A^T D A <= I over row weights d, for full
    column rank and no zero row; the dual start is built on the rows of A
    scaled to norm 1."""
    x = a.mat.copy()
    m_rows, n = x.shape
    lamn, lam1 = extreme_eigenvalues(x.T @ x)
    if m_rows < n:
        raise ValueError("left problem expects a tall matrix (m >= n)")
    norms = np.einsum("ij,ij->i", x, x)
    if not norms.min() > 0:
        raise ValueError("left problem expects no zero row")
    tau, d = slice(0, 1), slice(1, m_rows + 1)
    eye = np.eye(n)
    barrier = LmiBarrier(
        m_rows + 1,
        [(np.zeros((n, n)),
          (Term(d, 1.0, rows=x), Term(tau, -1.0, eye=True))),
         (eye, (Term(d, -1.0, rows=x),))],
        d)

    def tau_bound(xs):
        # scale X1 to tr X1 = 1, then add c I to X2 so that no a_i^T (X2 -
        # X1) a_i is negative
        x1, x2 = xs
        short = np.einsum("ij,ij->i", x @ (x1 / np.trace(x1) - x2), x)
        return float(np.trace(x2) + n * max(0.0, np.max(short / norms)))

    w0 = 1.0 / norms
    ln0, l10 = extreme_eigenvalues(x.T @ (w0[:, None] * x))
    return DsdpProblem("left", barrier,
                       np.concatenate([[ln0 / (4.0 * l10)],
                                       w0 / (2.0 * l10)]),
                       ([eye / n, 2.0 * eye / n], norms / n), tau_bound,
                       lam1 / lamn)


def build_right(m: SymMatrix) -> DsdpProblem:
    """build_left on the rows of L, M = L L^T, whose weights w give d = 1/w;
    raises NotPositiveDefiniteError when M does not factor."""
    lower = chol_pd(m.mat)
    if lower is None:
        raise NotPositiveDefiniteError("Gram matrix is not numerically PD")
    return replace(build_left(RectMatrix(lower)), side="right")


@serial_blas()
def barrier_path_solve(p: DsdpProblem, gap_tol: float = GAP_FLOOR
                       ) -> tuple[float, np.ndarray, SolveReport]:
    """Primal-dual solve to (tau*, d*) by barrier.primal_dual_ascent; the
    report has kappa = 1/tau* and the lower bound 1 / p.tau_bound(X), and
    the solve stops once kappa <= (1 + gap_tol) times that bound, gap_tol
    raised to GAP_FLOOR. extra["step_reductions"] counts the cones whose
    step length took an eigensolve (see linalg.max_step_chol)."""
    t0 = time.perf_counter()
    gap_tol = max(gap_tol, GAP_FLOOR)
    y, xs, iterations, reductions = primal_dual_ascent(
        p.barrier, p.start, *p.primal_start,
        lambda y, xs: p.tau_bound(xs) - y[0] <= gap_tol * y[0], _MAX_ITER)
    upper = p.tau_bound(xs)
    report = SolveReport(
        matrix="", method=f"dsdp_{p.side}",
        kappa_before=p.kappa_before, kappa_after=1.0 / y[0],
        iterations=iterations, wall_time_seconds=time.perf_counter() - t0,
        extra={"kappa_lower_bound": 1.0 / upper,
               "certified_gap": upper / y[0] - 1.0,
               "certified": upper - y[0] <= gap_tol * y[0],
               "gap_tolerance": gap_tol,
               "newton_steps": iterations,
               "step_reductions": reductions,
               "blas_backend": blas_backend()})
    return float(y[0]), y[1:].copy(), report
