"""Barrier path-following for the one-sided dual SDP reformulations.

After the change of variable tau = 1/kappa, both one-sided problems maximize
tau over linear matrix inequalities in (tau, d):

  right:  D <= M,          tau M <= D,  d >= 0   (d in R^n, D = diag(d))
  left:   sum_i A_i A_i^T d_i >= tau I, <= I,  d >= 0   (d in R^m, rows A_i)

The solver follows the central path of tau + mu * (sum of cone log-dets)
with ``barrier.follow_path``, shrinking mu geometrically and warm-starting
each stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .barrier import (CenteringError, InfeasiblePointError, LmiBarrier, Term,
                      follow_path)
from .linalg import (SymMatrix, blas_backend, extreme_eigenvalues,
                     serial_blas)
from .matrixio import RectMatrix, SolveReport


@dataclass
class DsdpProblem:
    """One-sided dual SDP over x = (tau, d): its barrier, a strictly
    feasible start, and kappa of the unscaled Gram matrix."""

    side: str                  # 'left' | 'right'
    barrier: LmiBarrier
    start: np.ndarray
    kappa_before: float


def build_right(m: SymMatrix) -> DsdpProblem:
    """max tau s.t. D <= M, tau M <= D over diagonal D, for full-rank M."""
    m_arr = m.mat.copy()
    lamn, lam1 = extreme_eigenvalues(m_arr)
    n = m.order
    tau, d = slice(0, 1), slice(1, n + 1)
    barrier = LmiBarrier(
        n + 1, [(m_arr, (Term(d, -1.0),)),
                (np.zeros((n, n)),
                 (Term(d, 1.0), Term(tau, 1.0, dense=-m_arr)))],
        d)
    kappa0 = 2.0 * lam1 / lamn
    c = np.sqrt(lam1 * lamn / kappa0)
    return DsdpProblem("right", barrier,
                       np.concatenate([[1.0 / kappa0], np.full(n, c)]),
                       lam1 / lamn)


def build_left(a: RectMatrix) -> DsdpProblem:
    """max tau s.t. tau I <= A^T D A <= I over row weights d; requires
    full column rank."""
    x = a.mat.copy()
    m_rows, n = x.shape
    if m_rows < n:
        raise ValueError("left problem expects a tall matrix (m >= n)")
    lamn, lam1 = extreme_eigenvalues(x.T @ x)
    tau, d = slice(0, 1), slice(1, m_rows + 1)
    eye = np.eye(n)
    barrier = LmiBarrier(
        m_rows + 1,
        [(np.zeros((n, n)),
          (Term(d, 1.0, rows=x), Term(tau, 1.0, dense=-eye))),
         (eye, (Term(d, -1.0, rows=x),))],
        d)
    return DsdpProblem("left", barrier,
                       np.concatenate([[lamn / (4.0 * lam1)],
                                       np.full(m_rows, 1.0 / (2.0 * lam1))]),
                       lam1 / lamn)


@serial_blas()
def barrier_path_solve(p: DsdpProblem
                       ) -> tuple[float, np.ndarray, SolveReport]:
    """Follow the central path to (tau*, d*); returns kappa = 1/tau* in the report."""
    t0 = time.perf_counter()
    try:
        res, mu, path = follow_path(p.barrier, p.start)
    except InfeasiblePointError:
        raise CenteringError("strictly feasible start recipe failed at "
                             "mu=1") from None
    if res.status == "stalled":
        raise CenteringError(f"line search failed at mu={mu:.3g}",
                             grad_norm=res.grad_norm)
    x = res.x
    report = SolveReport(
        matrix="", method=f"dsdp_{p.side}",
        kappa_before=p.kappa_before, kappa_after=1.0 / x[0],
        iterations=len(path), wall_time_seconds=time.perf_counter() - t0,
        extra={"mu_final": mu, "duality_gap_proxy": mu * p.barrier.dim,
               "tau_path": path, "newton_steps": res.steps,
               "newton_fallbacks": res.fallbacks,
               "blas_backend": blas_backend()})
    return float(x[0]), x[1:].copy(), report
