"""Primal-dual interior point for the one-sided dual SDP reformulations.

After the change of variable tau = 1/kappa, both one-sided problems maximize
tau over linear matrix inequalities in (tau, d):

  right:  D <= M,          tau M <= D,  d >= 0   (d in R^n, D = diag(d))
  left:   sum_i A_i A_i^T d_i >= tau I, <= I,  d >= 0   (d in R^m, rows A_i)

Their primal SDPs over X_k >= 0, one per cone, are min tr(M X1) s.t.
tr(M X2) = 1, diag X1 >= diag X2 (right) and min tr X2 s.t. tr X1 = 1,
a_i^T X1 a_i <= a_i^T X2 a_i (left). ``barrier_path_solve`` runs Mehrotra's
predictor-corrector on the HKM direction (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 1996; Todd, Toh & Tutuncu, SIAM J. Optim. 1998)
from strictly feasible starts on both sides, and stops on the gap to a
primal point repaired to exact feasibility, which bounds tau* from above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .barrier import CenteringError, LmiBarrier, Term
from .linalg import (NotPositiveDefiniteError, SymMatrix, blas_backend,
                     chol_pd, extreme_eigenvalues, max_step_pd, serial_blas,
                     solve_chol, solve_pd)
from .matrixio import RectMatrix, SolveReport

# Stop at a certified gap kappa_after / kappa_lower_bound - 1 of 1e-8.
_GAP_TOL = 1e-8
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


def build_right(m: SymMatrix) -> DsdpProblem:
    """max tau s.t. D <= M, tau M <= D over diagonal D, for full-rank M;
    the dual start is built on J = diag(M)^-1/2 M diag(M)^-1/2."""
    m_arr = m.mat.copy()
    lamn, lam1 = extreme_eigenvalues(m_arr)
    n = m.order
    tau, d = slice(0, 1), slice(1, n + 1)
    barrier = LmiBarrier(
        n + 1, [(m_arr, (Term(d, -1.0),)),
                (np.zeros((n, n)),
                 (Term(d, 1.0), Term(tau, 1.0, dense=-m_arr)))],
        d)
    eye = np.eye(n) / np.trace(m_arr)

    def tau_bound(xs):
        # scale X2 to tr(M X2) = 1, then lift diag X1 to diag X2
        x1, x2 = xs
        lift = np.diag(x2) / np.sum(m_arr * x2) - np.diag(x1)
        return float(np.sum(m_arr * x1) + m_arr.diagonal() @
                     np.maximum(lift, 0.0))

    jd = m_arr.diagonal()
    jn, j1 = extreme_eigenvalues(m_arr / np.sqrt(np.outer(jd, jd)))
    return DsdpProblem("right", barrier,
                       np.concatenate([[jn / (4.0 * j1)], 0.5 * jn * jd]),
                       ([2.0 * eye, eye], np.diag(eye).copy()), tau_bound,
                       lam1 / lamn)


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
          (Term(d, 1.0, rows=x), Term(tau, 1.0, dense=-eye))),
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


def _sym(a):
    return 0.5 * (a + a.T)


def _max_step(mats, deltas, v, dv):
    """Largest step keeping every cone matrix PSD and v >= 0, capped at 1."""
    return min([1.0, *(v[dv < 0] / -dv[dv < 0]),
                *(max_step_pd(a, da) for a, da in zip(mats, deltas))])


@serial_blas()
def barrier_path_solve(p: DsdpProblem
                       ) -> tuple[float, np.ndarray, SolveReport]:
    """Primal-dual solve to (tau*, d*); the report has kappa = 1/tau* and
    the lower bound 1 / p.tau_bound(X). Each iteration factors the Schur
    matrix once and solves it for the predictor, then the corrector; an X
    or dual step that is no longer numerically PD ends the solve."""
    t0 = time.perf_counter()
    b, pos = p.barrier, p.barrier.positive
    c = np.eye(1, b.nvar)[0]
    y = p.start.copy()
    state = b.factor(y)
    if state is None:
        raise CenteringError("strictly feasible start recipe failed")
    xs, v = [x.copy() for x in p.primal_start[0]], p.primal_start[1].copy()
    iterations = fallbacks = 0
    while (upper := p.tau_bound(xs)) - y[0] > _GAP_TOL * y[0] and \
            iterations < _MAX_ITER:
        iterations += 1
        factors, z = state
        zs = [f.lower @ f.lower.T for f in factors]
        zinv = [f.inv for f in factors]
        mu = (sum(np.sum(x * zm) for x, zm in zip(xs, zs)) + v @ z) / b.dim
        schur = b.kernel_sum([(zi, x) for zi, x in zip(zinv, xs)], v / z)
        lower = chol_pd(schur)
        fallbacks += lower is None

        def direction(rhs, tzs, tv):
            # the step to T (T Z^-1 per cone, T / z) with A(X + dX) = -c
            dy = solve_chol(lower, rhs) if lower is not None \
                else solve_pd(schur, rhs)[0]
            dzs = b.linear(dy)
            dxs = [tz - x - _sym(x @ dz @ zi)
                   for tz, x, dz, zi in zip(tzs, xs, dzs, zinv)]
            dv = tv - v - v * dy[pos] / z
            return (dy, dzs, dxs, dv), (_max_step(xs, dxs, v, dv),
                                        _max_step(zs, dzs, z, dy[pos]))

        try:
            (dy, dzs, dxs, dv), (alpha, beta) = direction(
                c, [0.0] * len(xs), 0.0)
            ratio = (sum(np.sum((x + alpha * dx) * (zm + beta * dz))
                         for x, dx, zm, dz in zip(xs, dxs, zs, dzs))
                     + (v + alpha * dv) @ (z + beta * dy[pos])) / (mu * b.dim)
            least = min(alpha, beta)
            sigma = min(1.0, max(ratio, 0.0) ** max(1.0, 3.0 * least ** 2))
            tzs = [_sym(sigma * mu * zi - dx @ dz @ zi)
                   for dx, dz, zi in zip(dxs, dzs, zinv)]
            tv = (sigma * mu - dv * dy[pos]) / z
            (dy, dzs, dxs, dv), (alpha, beta) = direction(
                b.adjoint(tzs, tv) + c, tzs, tv)
        except NotPositiveDefiniteError:
            break
        del lower   # free the factor before the next Schur assembly
        gamma = 0.9 + 0.09 * least
        if (new_state := b.factor(y + gamma * beta * dy)) is None:
            break
        xs = [x + gamma * alpha * dx for x, dx in zip(xs, dxs)]
        v = v + gamma * alpha * dv
        y, state = y + gamma * beta * dy, new_state
    report = SolveReport(
        matrix="", method=f"dsdp_{p.side}",
        kappa_before=p.kappa_before, kappa_after=1.0 / y[0],
        iterations=iterations, wall_time_seconds=time.perf_counter() - t0,
        extra={"kappa_lower_bound": 1.0 / upper,
               "certified_gap": upper / y[0] - 1.0,
               "certified": upper - y[0] <= _GAP_TOL * y[0],
               "newton_steps": iterations, "newton_fallbacks": fallbacks,
               "blas_backend": blas_backend()})
    return float(y[0]), y[1:].copy(), report
