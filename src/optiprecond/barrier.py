"""Log-det barrier over linear matrix inequalities, and its Newton ascent.

Every interior-point solver in the package maximizes c.x + mu * phi(x), where
phi is the log-det barrier of LMIs F(x) = F0 + sum_j x_j F_j > 0 plus
elementwise bounds on x. The coefficients F_j come in three kinds: diagonal
e_j e_j^T, rank-one rows a_j a_j^T, or one dense matrix on a single variable.

For a PD matrix M and a level kappa, the scaling region is
{d > 0 : M - D > 0, kappa D - M > 0} with D = diag(d). The barrier over this
region has the analytic center as its unique maximizer; a phase-I variant
with uniformly shifted cones yields the feasibility margin that the two-sided
bisection consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .linalg import (SymMatrix, chol_pd, inv_from_chol, logdet_from_chol,
                     max_step_cone, serial_blas, solve_pd)
from .matrixio import RectMatrix

# A line-search trial is accepted when it loses at most this fraction of
# (1 + |value|): the rounding noise of the barrier value near a center.
_ACCEPT_RTOL = 1e-12

# Phase-I margin search: at most 30 re-centerings, each a Newton ascent of at
# most 80 steps to a gradient of 1e-10. Callers count a margin of at least
# -1e-7 as feasible; d1 is boxed below 1e6 in the two-sided problem.
_OUTER_STEPS = 30
_NEWTON_TOL = 1e-10
_NEWTON_CAP = 80
_BOUNDARY_TOL = 1e-7
_BOX_BOUND = 1e6

# compute_center takes at most 200 Newton steps.
_CENTER_NEWTON_CAP = 200


class InfeasiblePointError(ValueError):
    """A point violates strict feasibility of the barrier cones."""


class CenteringError(RuntimeError):
    """Newton centering failed; carries the last gradient norm."""

    def __init__(self, message, grad_norm=None):
        super().__init__(message)
        self.grad_norm = grad_norm


@dataclass
class FeasibilityResult:
    """Max-margin outcome: s*, its witness, and a convergence flag.

    margin > tol means strictly feasible, margin < -tol infeasible, and
    |margin| <= tol is boundary (treated as feasible by callers). For the
    two-sided problem the witness is d2 and witness_left is d1.
    newton_fallbacks counts Newton systems solved by least squares.
    """

    margin: float
    witness: np.ndarray
    converged: bool
    witness_left: np.ndarray | None = None
    newton_fallbacks: int = 0


@dataclass(frozen=True)
class Term:
    """Variables x[sl] entering one LMI, x_j as coef * F_j.

    F_j = e_j e_j^T by default, a_j a_j^T for row j of ``rows``, or the
    matrix ``dense`` when sl holds a single variable.
    """

    sl: slice
    coef: float
    rows: np.ndarray | None = None
    dense: np.ndarray | None = None

    def matrix(self, xs):
        """sum_j coef * xs_j F_j."""
        if self.dense is not None:
            return (self.coef * xs[0]) * self.dense
        if self.rows is None:
            return np.diag(self.coef * xs)
        g = self.rows.T @ ((self.coef * xs)[:, None] * self.rows)
        return 0.5 * (g + g.T)

    def kernels(self, p):
        """tr(P F_j) per variable, and the image P B (dense) or U P, where
        U is ``rows`` or the identity."""
        if self.dense is not None:
            img = p @ self.dense
            return np.trace(img), img
        if self.rows is None:
            return np.diag(p), p
        img = self.rows @ p
        return np.einsum("ij,ij->i", img, self.rows), img


def _cross(ti, pi, tj, pj):
    """tr(P F_a P F_b) for F_a of term ti and F_b of tj, as a 2-d block."""
    if ti.dense is not None and tj.dense is not None:
        return np.array([[np.sum(pi * pj.T)]])
    if ti.dense is not None:
        return _cross(tj, pj, ti, pi).T
    if tj.dense is not None:
        upb = pj if ti.rows is None else ti.rows @ pj
        return np.einsum("ij,ij->i", upb, pi)[:, None]
    w = pi if tj.rows is None else pi @ tj.rows.T
    return w * w


def _linear(terms, x):
    """sum_j x_j F_j over the terms of one LMI."""
    return sum(t.matrix(x[t.sl]) for t in terms)


@dataclass(frozen=True)
class Bound:
    """Elementwise slack sign * (x[sl] - ref) > 0."""

    sl: slice
    sign: float = 1.0
    ref: float = 0.0

    def slack(self, x):
        return self.sign * (x[self.sl] - self.ref)


class LmiBarrier:
    """sum of log det F(x) over the cones + sum log of the bound slacks.

    Each cone is a pair (F0, terms) with F(x) = F0 + sum_j x_j F_j. With
    P = F^{-1}, d phi/dx_j = tr(P F_j) and d2 phi/dx_j dx_k = -tr(P F_j P F_k)
    (Vandenberghe & Boyd, Semidefinite Programming, SIAM Rev. 1996). A
    factored point, or state, is (Cholesky factors, bound slacks).
    """

    def __init__(self, nvar, cones, bounds):
        self.nvar = nvar
        self.cones = cones
        self.bounds = bounds

    @property
    def dim(self) -> int:
        """Barrier parameter: total cone order plus bound count."""
        return (sum(f0.shape[0] for f0, _ in self.cones)
                + sum(b.sl.stop - b.sl.start for b in self.bounds))

    def factor(self, x):
        """State at x, or None when x is not strictly feasible."""
        slacks = [b.slack(x) for b in self.bounds]
        if any(s.min() <= 0 for s in slacks):
            return None
        # numpy and scipy each run their own BLAS thread pool; grouping the
        # calls of each library avoids paying for a hand-over per cone
        mats = [_linear(terms, x) + f0 for f0, terms in self.cones]
        chols = []
        for mat in mats:
            chols.append(chol_pd(mat))
            if chols[-1] is None:
                return None
        return chols, slacks

    def value(self, state):
        chols, slacks = state
        return sum([*map(logdet_from_chol, chols),
                    *(float(np.sum(np.log(s))) for s in slacks)])

    def derivatives(self, state):
        """Gradient and negated (positive definite) Hessian."""
        chols, slacks = state
        g = np.zeros(self.nvar)
        nh = np.zeros((self.nvar, self.nvar))
        for (_, terms), p in zip(self.cones, list(map(inv_from_chol, chols))):
            ker = [t.kernels(p) for t in terms]
            for i, (ti, (tr, pi)) in enumerate(zip(terms, ker)):
                g[ti.sl] += ti.coef * tr
                for tj, (_, pj) in zip(terms[i:], ker[i:]):
                    k = (ti.coef * tj.coef) * _cross(ti, pi, tj, pj)
                    nh[ti.sl, tj.sl] += k
                    if tj is not ti:
                        nh[tj.sl, ti.sl] += k.T
        for b, s in zip(self.bounds, slacks):
            g[b.sl] += b.sign / s
            idx = np.arange(b.sl.start, b.sl.stop)
            nh[idx, idx] += 1.0 / s ** 2
        return g, nh

    def max_step(self, state, dx):
        """Largest alpha keeping x + alpha dx feasible (inf if unbounded)."""
        chols, slacks = state
        deltas = [-_linear(terms, dx) for _, terms in self.cones]
        alpha = min(map(max_step_cone, chols, deltas))
        for b, s in zip(self.bounds, slacks):
            rate = b.sign * dx[b.sl]
            neg = rate < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(s[neg] / -rate[neg])))
        return alpha


def _min_slack(barrier, x):
    """Smallest eigenvalue over the cones and smallest bound slack at x.

    Only the first bound counts: phase-I barriers shift it with the cones
    and keep their other bounds unshifted.
    """
    return float(min(
        min(scipy.linalg.eigvalsh(_linear(t, x) + f0)[0]
            for f0, t in barrier.cones),
        barrier.bounds[0].slack(x).min()))


class NewtonResult(NamedTuple):
    """newton_ascent's last iterate; status is 'converged', 'max_iter' or
    'stalled' (no trial passed the line search), and fallbacks counts Newton
    systems that were not numerically PD and were solved by least squares."""

    x: np.ndarray
    status: str
    grad_norm: float
    fallbacks: int


def newton_ascent(barrier: LmiBarrier, x0, max_iter, *, grad_tol=None,
                  dec_tol=None, c=None, mu=1.0) -> NewtonResult:
    """Damped Newton maximization of c.x + mu * barrier from a feasible x0.

    barrier is an LmiBarrier: the only barrier any solver in the package
    builds. Stops when the gradient's infinity norm is at most grad_tol, or
    when the Newton decrement g.dx is at most dec_tol * (1 + |value|). Each
    step tries the full Newton step, then 0.9 of the step to the nearest
    boundary, then halves (at most 40 trials).
    """
    x = np.array(x0, dtype=float)
    state = barrier.factor(x)
    if state is None:
        raise InfeasiblePointError("start is not strictly feasible")

    def objective(x, state):
        v = mu * barrier.value(state)
        return v if c is None else float(c @ x) + v

    val = objective(x, state)
    fallbacks = 0
    gnorm = np.inf
    for _ in range(max_iter):
        g, nh = barrier.derivatives(state)
        g, nh = mu * g, mu * nh
        if c is not None:
            g += c
        gnorm = float(np.abs(g).max())
        if grad_tol is not None and gnorm <= grad_tol:
            return NewtonResult(x, "converged", gnorm, fallbacks)
        step, pd = solve_pd(nh, g)
        fallbacks += not pd
        if dec_tol is not None and \
                float(g @ step) <= dec_tol * (1.0 + abs(val)):
            return NewtonResult(x, "converged", gnorm, fallbacks)
        # try the full step before paying for the exact boundary computation
        alpha = 1.0
        for attempt in range(40):
            x_new = x + alpha * step
            s_new = barrier.factor(x_new)
            if s_new is not None:
                v_new = objective(x_new, s_new)
                if v_new >= val - _ACCEPT_RTOL * (1.0 + abs(val)):
                    x, state, val = x_new, s_new, v_new
                    break
            if attempt == 0:
                bound = 0.9 * barrier.max_step(state, step)
                alpha = bound if bound < alpha else 0.5 * alpha
            else:
                alpha *= 0.5
        else:
            return NewtonResult(x, "stalled", gnorm, fallbacks)
    return NewtonResult(x, "max_iter", gnorm, fallbacks)


def _one_sided(m_arr, kappa, shift=0.0) -> LmiBarrier:
    """Cones (M - sI) - D, kappa D - (M + sI) and bound d > s, over d."""
    n = m_arr.shape[0]
    d = slice(0, n)
    shift_eye = shift * np.eye(n)
    return LmiBarrier(n, [(m_arr - shift_eye, (Term(d, -1.0),)),
                          (-(m_arr + shift_eye), (Term(d, kappa),))],
                      [Bound(d, 1.0, shift)])


def _two_sided(a_arr, kappa, shift) -> LmiBarrier:
    """Cones A^T D1 A - D2 - sI, kappa D2 - A^T D1 A - sI over (d1, d2).

    Bounds d1 > 1 + s (first: it bounds the margin), d1 < _BOX_BOUND and
    d2 > 0; the box and positivity stay unshifted, and the box bounds the
    otherwise scale-unbounded region.
    """
    m_rows, n = a_arr.shape
    d1, d2 = slice(0, m_rows), slice(m_rows, m_rows + n)
    f0 = -shift * np.eye(n)
    return LmiBarrier(
        m_rows + n,
        [(f0, (Term(d1, 1.0, rows=a_arr), Term(d2, -1.0))),
         (f0, (Term(d2, kappa), Term(d1, -1.0, rows=a_arr)))],
        [Bound(d1, 1.0, 1.0 + shift), Bound(d1, -1.0, _BOX_BOUND),
         Bound(d2)])


class BarrierPoint:
    """Strictly feasible point (d, kappa) with its cached barrier state."""

    __slots__ = ("m", "kappa", "d", "state")

    def __init__(self, m: SymMatrix, kappa: float, d):
        d = np.asarray(d, dtype=float)
        if d.shape != (m.order,):
            raise ValueError("d has the wrong length")
        state = _one_sided(m.mat, kappa).factor(d)
        if state is None:
            raise InfeasiblePointError(
                f"(d, kappa={kappa:.6g}) is not strictly feasible")
        self.m = m
        self.kappa = float(kappa)
        self.d = d
        self.state = state


def barrier_value(m: SymMatrix, p: BarrierPoint) -> float:
    """log det(M-D) + log det(kappa D - M) + log det D."""
    return _one_sided(m.mat, p.kappa).value(p.state)


def barrier_gradient(m: SymMatrix, p: BarrierPoint) -> np.ndarray:
    """Per-coordinate derivative -[(M-D)^{-1}]_ii + kappa[(kD-M)^{-1}]_ii + 1/d_i."""
    return _one_sided(m.mat, p.kappa).derivatives(p.state)[0]


def barrier_hessian(m: SymMatrix, p: BarrierPoint) -> SymMatrix:
    """Hessian over the diagonal coordinates; negative definite."""
    return SymMatrix(-_one_sided(m.mat, p.kappa).derivatives(p.state)[1])


def compute_center(m: SymMatrix, kappa: float, start: BarrierPoint,
                   tol: float = 1e-8) -> BarrierPoint:
    """Analytic center of the region at level kappa from a feasible start."""
    res = newton_ascent(_one_sided(m.mat, kappa), start.d, _CENTER_NEWTON_CAP,
                        grad_tol=tol)
    if res.status != "converged":
        raise CenteringError(
            f"centering did not reach tol={tol:.1e} "
            f"(last gradient norm {res.grad_norm:.3e})",
            grad_norm=res.grad_norm)
    return BarrierPoint(m, kappa, res.x)


def initial_feasible_point(m: SymMatrix, kappa: float) -> BarrierPoint:
    """Uniform strictly feasible start d = c * ones, c = sqrt(lam1*lamn/kappa)."""
    w = scipy.linalg.eigvalsh(m.mat)
    lamn, lam1 = float(w[0]), float(w[-1])
    if lamn <= 0:
        raise InfeasiblePointError("matrix must be positive definite")
    if kappa <= lam1 / lamn:
        raise InfeasiblePointError(
            f"kappa={kappa:.6g} is not above the condition number "
            f"{lam1 / lamn:.6g}")
    c = np.sqrt(lam1 * lamn / kappa)
    return BarrierPoint(m, kappa, np.full(m.order, c))


@serial_blas()
def _margin_ascent(make_barrier, x0, stop_above=None):
    """Max-margin search by repeated centering at the current best slack.

    Centering the s-shifted region from a witness with slack > s lands
    roughly halfway between s and the max margin, so iterating the achieved
    slack converges geometrically. stop_above ends the climb early once the
    margin's sign is unambiguous (all a bisection caller needs).
    """
    base = make_barrier(0.0)
    w = np.asarray(x0, dtype=float).copy()
    sig = _min_slack(base, w)
    converged = False
    fallbacks = 0
    for _ in range(_OUTER_STEPS):
        if stop_above is not None and sig > stop_above:
            converged = True
            break
        pad = 1e-9 * max(1.0, abs(sig))
        try:
            res = newton_ascent(make_barrier(sig - pad), w, _NEWTON_CAP,
                                grad_tol=_NEWTON_TOL, dec_tol=1e-12)
        except InfeasiblePointError:
            break
        fallbacks += res.fallbacks
        sig_new = _min_slack(base, res.x)
        if sig_new > sig:
            w, climb = res.x, sig_new - sig
            sig = sig_new
            if climb <= 10 * pad:
                converged = True
                break
        else:
            converged = True
            break
    return FeasibilityResult(margin=sig, witness=w, converged=converged,
                             newton_fallbacks=fallbacks)


def feasibility_margin(m: SymMatrix, kappa: float) -> FeasibilityResult:
    """Largest uniform slack s with M-D >= sI, kD-M >= sI, D >= sI feasible.

    The sign of the margin decides SDP feasibility at level kappa; the
    witness attains it (up to the search resolution).
    """
    m_arr = m.mat
    w = scipy.linalg.eigvalsh(m_arr)
    lamn, lam1 = float(w[0]), float(w[-1])
    if lamn <= 0:
        raise InfeasiblePointError("matrix must be positive definite")
    c = np.sqrt(lam1 * lamn / kappa) if kappa > 0 else np.sqrt(lam1 * lamn)
    return _margin_ascent(lambda s: _one_sided(m_arr, kappa, s),
                          np.full(m.order, c))


def two_sided_feasibility(a: RectMatrix, kappa: float) -> FeasibilityResult:
    """Phase-I max margin for A^T D1 A >= D2, kD2 >= A^T D1 A, D1 >= I."""
    x = a.tall()
    m_rows, n = x.shape
    gram = x.T @ x
    w = scipy.linalg.eigvalsh(0.5 * (gram + gram.T))
    lamn, lam1 = float(w[0]), float(w[-1])
    if lamn <= 1e-12 * max(lam1, 0.0):
        raise ValueError("matrix must have full rank")
    d1 = np.full(m_rows, 2.0)
    c = 2.0 * (np.sqrt(lam1 * lamn / kappa) if kappa > 0
               else np.sqrt(lam1 * lamn))
    v0 = np.concatenate([d1, np.full(n, c)])

    # bisection needs only the margin's sign; stop once it is unambiguous
    stop_above = max(100 * _BOUNDARY_TOL, 1e-3 * lamn)
    res = _margin_ascent(lambda s: _two_sided(x, kappa, s), v0,
                         stop_above=stop_above)
    res.witness_left, res.witness = res.witness[:m_rows], res.witness[m_rows:]
    return res
