"""Barrier path-following for the one-sided dual SDP reformulations.

After the change of variable tau = 1/kappa, both one-sided problems maximize
tau over linear matrix inequalities in (tau, d):

  right:  D <= M,          tau M <= D,  d >= 0   (d in R^n, D = diag(d))
  left:   sum_i A_i A_i^T d_i >= tau I, <= I,  d >= 0   (d in R^m, rows A_i)

The solver follows the central path of tau + mu * (sum of cone log-dets),
shrinking mu geometrically and warm-starting each stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .barrier import Bound, LmiBarrier, Term, newton_ascent
from .linalg import (SymMatrix, NotPositiveDefiniteError, blas_backend,
                     serial_blas)
from .matrixio import RectMatrix, SolveReport


class NewtonFailureError(RuntimeError):
    """Inner Newton maximization failed; carries mu and residual info."""

    def __init__(self, message, mu=None, residual=None):
        super().__init__(message)
        self.mu = mu
        self.residual = residual


@dataclass
class DsdpConfig:
    """Path-following schedule: mu_0 = 1 shrinks by mu_factor down to mu_min."""

    mu_init: float = 1.0
    mu_factor: float = 5.0
    mu_min: float = 1e-9
    newton_cap: int = 50
    decrement_tol: float = 1e-10   # relative to 1 + |stage objective|


@dataclass
class DsdpProblem:
    """One-sided dual SDP over x = (tau, d): its barrier, a strictly
    feasible start, and kappa of the unscaled Gram matrix."""

    side: str                  # 'left' | 'right'
    barrier: LmiBarrier
    start: np.ndarray
    kappa_before: float


def build_right(m: SymMatrix) -> DsdpProblem:
    """max tau s.t. D <= M, tau M <= D for diagonal D; requires M PD."""
    m_arr = m.mat.copy()
    w = scipy.linalg.eigvalsh(m_arr)
    lamn, lam1 = float(w[0]), float(w[-1])
    if lamn <= 1e-12 * max(lam1, 0.0):
        raise NotPositiveDefiniteError("right problem needs M PD")
    n = m.order
    tau, d = slice(0, 1), slice(1, n + 1)
    barrier = LmiBarrier(
        n + 1, [(m_arr, (Term(d, -1.0),)),
                (np.zeros((n, n)),
                 (Term(d, 1.0), Term(tau, 1.0, dense=-m_arr)))],
        [Bound(d)])
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
    w = scipy.linalg.eigvalsh(x.T @ x)
    lamn, lam1 = float(w[0]), float(w[-1])
    if lamn <= 1e-12 * max(lam1, 0.0):
        raise ValueError("matrix is rank deficient")
    tau, d = slice(0, 1), slice(1, m_rows + 1)
    eye = np.eye(n)
    barrier = LmiBarrier(
        m_rows + 1,
        [(np.zeros((n, n)),
          (Term(d, 1.0, rows=x), Term(tau, 1.0, dense=-eye))),
         (eye, (Term(d, -1.0, rows=x),))],
        [Bound(d)])
    return DsdpProblem("left", barrier,
                       np.concatenate([[lamn / (4.0 * lam1)],
                                       np.full(m_rows, 1.0 / (2.0 * lam1))]),
                       lam1 / lamn)


@serial_blas()
def barrier_path_solve(p: DsdpProblem, config: DsdpConfig | None = None
                       ) -> tuple[float, np.ndarray, SolveReport]:
    """Follow the central path to (tau*, d*); returns kappa = 1/tau* in the report."""
    config = config or DsdpConfig()
    t0 = time.perf_counter()
    barrier, x = p.barrier, p.start
    if barrier.factor(x) is None:
        raise NewtonFailureError("strictly feasible start recipe failed",
                                 mu=config.mu_init)
    objective = np.zeros(x.size)
    objective[0] = 1.0
    mu = config.mu_init
    stages = fallbacks = 0
    taus = []   # per-stage central path points; tau is monotone along them
    while True:
        res = newton_ascent(barrier, x, config.newton_cap,
                            dec_tol=config.decrement_tol,
                            c=objective, mu=mu)
        fallbacks += res.fallbacks
        if res.status == "stalled":
            raise NewtonFailureError("line search failed", mu=mu,
                                     residual=res.grad_norm)
        x = res.x
        taus.append(x[0])
        stages += 1
        if mu <= config.mu_min:
            break
        mu /= config.mu_factor
    report = SolveReport(
        matrix="", method=f"dsdp_{p.side}",
        kappa_before=p.kappa_before, kappa_after=1.0 / x[0],
        iterations=stages, wall_time_seconds=time.perf_counter() - t0,
        extra={"mu_final": mu,
               "duality_gap_proxy": mu * barrier.dim,
               "tau_path": taus, "newton_fallbacks": fallbacks,
               "blas_backend": blas_backend()})
    return float(x[0]), x[1:].copy(), report
