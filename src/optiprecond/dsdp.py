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
                     condition_number, serial_blas)
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
    """One-sided dual SDP instance over (tau, d)."""

    side: str                  # 'left' | 'right'
    gram: np.ndarray | None    # right: M
    a: np.ndarray | None       # left: the (tall) data matrix
    dim_d: int


@dataclass
class PathState:
    """Central-path iterate: barrier weight and strictly feasible (tau, d)."""

    tau: float
    d: np.ndarray
    mu: float


def build_right(m: SymMatrix) -> DsdpProblem:
    """max tau s.t. D <= M, tau M <= D for diagonal D; requires M PD."""
    w = scipy.linalg.eigvalsh(m.mat)
    if w[0] <= 1e-12 * max(w[-1], 0.0):
        raise NotPositiveDefiniteError("right problem needs M PD")
    return DsdpProblem(side="right", gram=m.mat.copy(), a=None,
                       dim_d=m.order)


def build_left(a: RectMatrix) -> DsdpProblem:
    """Left problem over row weights d in R^m; requires full column rank."""
    x = a.mat
    if x.shape[0] < x.shape[1]:
        raise ValueError("left problem expects a tall matrix (m >= n)")
    w = scipy.linalg.eigvalsh(x.T @ x)
    if w[0] <= 1e-12 * max(w[-1], 0.0):
        raise ValueError("matrix is rank deficient")
    return DsdpProblem(side="left", gram=None, a=x.copy(), dim_d=x.shape[0])


def _right_path(m):
    """Cones M - D, D - tau M and bound d > 0 over x = (tau, d), with a
    strictly feasible start."""
    n = m.shape[0]
    tau, d = slice(0, 1), slice(1, n + 1)
    barrier = LmiBarrier(
        n + 1, [(m, (Term(d, -1.0),)),
                (np.zeros((n, n)), (Term(d, 1.0), Term(tau, 1.0, dense=-m)))],
        [Bound(d)])
    w = scipy.linalg.eigvalsh(m)
    lamn, lam1 = float(w[0]), float(w[-1])
    kappa0 = 2.0 * lam1 / lamn
    c = np.sqrt(lam1 * lamn / kappa0)
    return barrier, np.concatenate([[1.0 / kappa0], np.full(n, c)])


def _left_path(a):
    """Cones G(d) - tau I, I - G(d) with G = A^T diag(d) A and bound d > 0
    over x = (tau, d), with a strictly feasible start."""
    m_rows, n = a.shape
    tau, d = slice(0, 1), slice(1, m_rows + 1)
    eye = np.eye(n)
    barrier = LmiBarrier(
        m_rows + 1,
        [(np.zeros((n, n)),
          (Term(d, 1.0, rows=a), Term(tau, 1.0, dense=-eye))),
         (eye, (Term(d, -1.0, rows=a),))],
        [Bound(d)])
    w = scipy.linalg.eigvalsh(a.T @ a)
    lamn, lam1 = float(w[0]), float(w[-1])
    return barrier, np.concatenate([[lamn / (4.0 * lam1)],
                                    np.full(m_rows, 1.0 / (2.0 * lam1))])


@serial_blas()
def barrier_path_solve(p: DsdpProblem, config: DsdpConfig | None = None
                       ) -> tuple[float, np.ndarray, SolveReport]:
    """Follow the central path to (tau*, d*); returns kappa = 1/tau* in the report."""
    config = config or DsdpConfig()
    t0 = time.perf_counter()
    barrier, x = _right_path(p.gram) if p.side == "right" else \
        _left_path(p.a)
    if barrier.factor(x) is None:
        raise NewtonFailureError("strictly feasible start recipe failed",
                                 mu=config.mu_init)
    objective = np.zeros(x.size)
    objective[0] = 1.0
    state = PathState(tau=x[0], d=x[1:], mu=config.mu_init)
    stages = fallbacks = 0
    taus = []   # per-stage central path points; tau is monotone along them
    while True:
        res = newton_ascent(barrier, x, config.newton_cap,
                            dec_tol=config.decrement_tol,
                            c=objective, mu=state.mu)
        fallbacks += res.fallbacks
        if res.status == "stalled":
            raise NewtonFailureError("line search failed", mu=state.mu,
                                     residual=res.grad_norm)
        x = res.x
        state = PathState(tau=x[0], d=x[1:], mu=state.mu)
        taus.append(state.tau)
        stages += 1
        if state.mu <= config.mu_min:
            break
        state.mu /= config.mu_factor
    kappa_before = condition_number(
        p.gram if p.side == "right" else p.a.T @ p.a)
    report = SolveReport(
        matrix="", method=f"dsdp_{p.side}",
        kappa_before=kappa_before, kappa_after=1.0 / state.tau,
        iterations=stages, wall_time_seconds=time.perf_counter() - t0,
        extra={"mu_final": state.mu,
               "duality_gap_proxy": state.mu * barrier.dim,
               "tau_path": taus, "newton_fallbacks": fallbacks,
               "blas_backend": blas_backend()})
    return float(state.tau), state.d.copy(), report
