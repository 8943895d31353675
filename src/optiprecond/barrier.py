"""Log-det barrier over linear matrix inequalities, and its path follower.

Every interior-point solver in the package works on LMIs F(x) = F0 +
sum_j x_j F_j > 0 plus a block of x kept positive, and on the log-det
barrier phi of that set. The coefficients F_j come in three kinds: diagonal
e_j e_j^T, rank-one rows a_j a_j^T, or one dense matrix on a single
variable. ``LmiBarrier.kernel_sum`` forms tr(P F_a Q F_b): the Hessian,
and the Schur matrix of dsdp's primal-dual steps. ``newton_ascent`` is the
one damped-Newton loop; ``follow_path``, the one central path of x_0 + mu *
phi(x), serves only the two-sided level test. A factored point holds each
cone as a linalg.Factored, so the level test's stop rule and the gradient
share one dpotri per cone. Each LmiBarrier assembles its Newton system in
place, in a workspace allocated on the first derivatives call, with the
arithmetic of a fresh assembly: the Hessian it returns is valid only until
its next derivatives call.

For a PD matrix M and a level kappa, the scaling region is
{d > 0 : M - D > 0, kappa D - M > 0} with D = diag(d). The barrier over this
region has the analytic center as its unique maximizer.

``two_sided_feasibility`` decides whether D2 < A^T D1 A < kappa D2 has a
solution: it maximizes s over A^T D1 A - D2 > sI, kappa D2 - A^T D1 A > sI
and stops at a witness (s > 0) or at a Farkas certificate of infeasibility
(Vandenberghe & Boyd, Semidefinite Programming, SIAM Rev. 1996, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (Factored, SymMatrix, chol_pd, condition_number,
                     extreme_eigenvalues, logdet_from_chol, max_step_cone,
                     serial_blas, solve_pd)
from .matrixio import RectMatrix

# A line-search trial is accepted when it loses at most this fraction of
# (1 + |value|): the rounding noise of the barrier value near a center.
_ACCEPT_RTOL = 1e-12

# Central-path schedule: mu = 1 shrinks fivefold per stage down to 1e-9
# (14 stages), each stage a Newton ascent of at most 50 steps that stops on
# a decrement below 1e-10 relative to 1 + |stage objective|.
_MU_INIT = 1.0
_MU_FACTOR = 5.0
_MU_MIN = 1e-9
_PATH_NEWTON_CAP = 50
_DECREMENT_TOL = 1e-10

# compute_center takes at most 200 Newton steps.
_CENTER_NEWTON_CAP = 200

# The level test keeps the scale of d2 in the band n < sum(d2) < 100 n.
_SCALE_CAP = 100.0


class InfeasiblePointError(ValueError):
    """A point violates strict feasibility of the barrier cones."""


class CenteringError(RuntimeError):
    """Newton centering failed; carries the last gradient norm."""

    def __init__(self, message, grad_norm=None):
        super().__init__(message)
        self.grad_norm = grad_norm


@dataclass
class FeasibilityResult:
    """One level's verdict: 'feasible', 'infeasible' or 'undecided'.

    A feasible level carries its witness pair (witness_left = d1, witness =
    d2) and the pair's kappa, at most the level; an infeasible one carries
    the checked certificate (X, Y) of _certificate. Both are given in the
    coordinates of the input A.
    """

    verdict: str
    witness_left: np.ndarray | None = None
    witness: np.ndarray | None = None
    kappa: float = float("nan")
    certificate: tuple[np.ndarray, np.ndarray] | None = None
    newton_steps: int = 0
    newton_fallbacks: int = 0

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


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


def _cross(ti, ki, tj, kj, scratch):
    """tr(P F_a Q F_b) for F_a of term ti and F_b of tj, as a 2-d block,
    from the images (of P, of Q) ki of ti and kj of tj; a block between two
    non-dense terms is formed in scratch(shape)."""
    (pi, qi), (pj, qj) = ki, kj
    if ti.dense is not None and tj.dense is not None:
        return np.array([[np.sum(pi * qj.T)]])
    if ti.dense is not None:
        return _cross(tj, kj, ti, ki, scratch).T
    if tj.dense is not None:
        uqb = qj if ti.rows is None else ti.rows @ qj
        return np.einsum("ij,ij->i", uqb, pi)[:, None]
    w = pi if tj.rows is None else np.matmul(
        pi, tj.rows.T, out=scratch((len(pi), len(tj.rows))))
    wq = w if qi is pi else qi if tj.rows is None else qi @ tj.rows.T
    return np.multiply(w, wq, out=scratch(w.shape))


def _linear(terms, x):
    """sum_j x_j F_j over the terms of one LMI."""
    return sum(t.matrix(x[t.sl]) for t in terms)


class LmiBarrier:
    """sum of log det F(x) over the cones + sum log x_j over x[positive].

    Each cone is a pair (F0, terms) with F(x) = F0 + sum_j x_j F_j. With
    P = F^{-1}, d phi/dx_j = tr(P F_j) and d2 phi/dx_j dx_k = -tr(P F_j P F_k)
    (Vandenberghe & Boyd, Semidefinite Programming, SIAM Rev. 1996). A
    factored point, or state, is (one Factored per cone, x[positive]).
    """

    def __init__(self, nvar, cones, positive: slice):
        self.nvar = nvar
        self.cones = cones
        self.positive = positive
        self._hessian = None
        self._blocks = {}

    def _scratch(self, shape):
        """The workspace's scratch array of this shape."""
        buf = self._blocks.get(shape)
        if buf is None:
            buf = self._blocks[shape] = np.empty(shape)
        return buf

    @property
    def dim(self) -> int:
        """Barrier parameter: total cone order plus bound count."""
        return (sum(f0.shape[0] for f0, _ in self.cones)
                + self.positive.stop - self.positive.start)

    def linear(self, dx):
        """The change of each cone's F along dx."""
        return [_linear(terms, dx) for _, terms in self.cones]

    def adjoint(self, mats, v):
        """sum over cones of tr(G F_j) per variable for the cone matrices
        G in mats, plus v over x[positive]."""
        out = np.zeros(self.nvar)
        for (_, terms), g in zip(self.cones, mats):
            for t in terms:
                out[t.sl] += t.coef * t.kernels(g)[0]
        out[self.positive] += v
        return out

    def factor(self, x):
        """State at x, or None when x is not strictly feasible."""
        slack = x[self.positive]
        if slack.min() <= 0:
            return None
        # numpy and scipy each run their own BLAS thread pool; grouping the
        # calls of each library avoids paying for a hand-over per cone
        mats = [_linear(terms, x) + f0 for f0, terms in self.cones]
        factors = []
        for mat in mats:
            lower = chol_pd(mat)
            if lower is None:
                return None
            factors.append(Factored(lower))
        return factors, slack

    def value(self, state):
        factors, slack = state
        return sum([*(logdet_from_chol(f.lower) for f in factors),
                    float(np.sum(np.log(slack)))])

    def kernel_sum(self, pairs, bound, g=None):
        """The workspace set to sum over cones of tr(P F_a Q F_b) for each
        cone's pair (P, Q), plus diag(bound) over x[positive]; adds
        tr(P F_a) to g. The Hessian has P = Q = F^-1, and the HKM Schur
        matrix of a primal-dual step P = F^-1, Q = X, bound = v / x."""
        if self._hessian is None:
            self._hessian = np.empty((self.nvar, self.nvar))
        nh = self._hessian
        nh.fill(0.0)
        for (_, terms), (p, q) in zip(self.cones, pairs):
            ker = [t.kernels(p) for t in terms]
            imgs = [(pi, pi if q is p else t.kernels(q)[1])
                    for t, (_, pi) in zip(terms, ker)]
            for i, (ti, (tr, _)) in enumerate(zip(terms, ker)):
                if g is not None:
                    g[ti.sl] += ti.coef * tr
                for tj, kj in zip(terms[i:], imgs[i:]):
                    k = _cross(ti, imgs[i], tj, kj, self._scratch)
                    if ti.coef * tj.coef != 1.0:
                        k *= ti.coef * tj.coef
                    nh[ti.sl, tj.sl] += k
                    if tj is not ti:
                        nh[tj.sl, ti.sl] += k.T
        idx = np.arange(self.positive.start, self.positive.stop)
        nh[idx, idx] += bound
        return nh

    def derivatives(self, state):
        """Gradient and negated (positive definite) Hessian; the Hessian is
        the workspace's, valid until the next call on this barrier."""
        factors, slack = state
        g = np.zeros(self.nvar)
        nh = self.kernel_sum([(f.inv, f.inv) for f in factors],
                             1.0 / slack ** 2, g)
        g[self.positive] += 1.0 / slack
        return g, nh

    def max_step(self, state, dx):
        """Largest alpha keeping x + alpha dx feasible (inf if unbounded)."""
        factors, slack = state
        alpha = min(max_step_cone(f.lower, -delta)
                    for f, delta in zip(factors, self.linear(dx)))
        rate = dx[self.positive]
        neg = rate < 0
        if np.any(neg):
            alpha = min(alpha, float(np.min(slack[neg] / -rate[neg])))
        return alpha


class NewtonResult(NamedTuple):
    """newton_ascent's last iterate; status is 'converged', 'max_iter',
    'stopped' (the stop test held) or 'stalled' (no trial passed the line
    search). steps counts Newton systems solved, and fallbacks those that
    were not numerically PD and were solved by least squares."""

    x: np.ndarray
    status: str
    grad_norm: float
    fallbacks: int
    steps: int


def newton_ascent(barrier: LmiBarrier, x0, max_iter, *, grad_tol=None,
                  dec_tol=None, c=None, mu=1.0, stop=None) -> NewtonResult:
    """Damped Newton maximization of c.x + mu * barrier from a feasible x0.

    barrier is an LmiBarrier: the only barrier any solver in the package
    builds. Stops when the gradient's infinity norm is at most grad_tol, or
    when the Newton decrement g.dx is at most dec_tol * (1 + |value|), or
    when stop(x, state) holds at x0 or after an accepted step. Each step
    tries the full Newton step, then 0.9 of the step to the nearest
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
    fallbacks = steps = 0
    gnorm = np.inf
    for _ in range(max_iter):
        if stop is not None and stop(x, state):
            return NewtonResult(x, "stopped", gnorm, fallbacks, steps)
        g, nh = barrier.derivatives(state)
        g *= mu
        nh *= mu
        if c is not None:
            g += c
        gnorm = float(np.abs(g).max())
        if grad_tol is not None and gnorm <= grad_tol:
            return NewtonResult(x, "converged", gnorm, fallbacks, steps)
        step, pd = solve_pd(nh, g)
        steps += 1
        fallbacks += not pd
        if dec_tol is not None and \
                float(g @ step) <= dec_tol * (1.0 + abs(val)):
            return NewtonResult(x, "converged", gnorm, fallbacks, steps)
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
            return NewtonResult(x, "stalled", gnorm, fallbacks, steps)
    if stop is not None and stop(x, state):
        return NewtonResult(x, "stopped", gnorm, fallbacks, steps)
    return NewtonResult(x, "max_iter", gnorm, fallbacks, steps)


def follow_path(barrier: LmiBarrier, x0, stop=None) -> NewtonResult:
    """Central path of x_0 + mu * barrier from a strictly feasible x0, for
    the two-sided level test.

    Each stage is a newton_ascent (stop passed on) warm-started at the
    previous stage's point; mu then shrinks fivefold, down to 1e-9. Returns
    the last stage's NewtonResult with steps and fallbacks summed over the
    stages.
    """
    objective = np.zeros(len(x0))
    objective[0] = 1.0
    x, mu = x0, _MU_INIT
    steps = fallbacks = 0
    while True:
        res = newton_ascent(barrier, x, _PATH_NEWTON_CAP,
                            dec_tol=_DECREMENT_TOL, c=objective, mu=mu,
                            stop=stop)
        steps += res.steps
        fallbacks += res.fallbacks
        if res.status == "stalled":
            break
        x = res.x
        if res.status == "stopped" or mu <= _MU_MIN:
            break
        mu /= _MU_FACTOR
    return res._replace(steps=steps, fallbacks=fallbacks)


def _one_sided(m_arr, kappa) -> LmiBarrier:
    """Cones M - D, kappa D - M and bound d > 0, over d."""
    n = m_arr.shape[0]
    d = slice(0, n)
    return LmiBarrier(n, [(m_arr, (Term(d, -1.0),)),
                          (-m_arr, (Term(d, kappa),))], d)


def _level_barrier(a_arr, kappa) -> LmiBarrier:
    """Cones A^T D1 A - D2 - sI, kappa D2 - A^T D1 A - sI and the band
    n < sum(d2) < 100 n (two 1x1 cones) over x = (s, d1 > 0, d2 > 0)."""
    m_rows, n = a_arr.shape
    s, d1, d2 = slice(0, 1), slice(1, m_rows + 1), \
        slice(m_rows + 1, m_rows + n + 1)
    zero, minus_eye, ones = np.zeros((n, n)), -np.eye(n), np.ones((n, 1))
    return LmiBarrier(
        m_rows + n + 1,
        [(zero, (Term(d1, 1.0, rows=a_arr), Term(d2, -1.0),
                 Term(s, 1.0, dense=minus_eye))),
         (zero, (Term(d2, kappa), Term(d1, -1.0, rows=a_arr),
                 Term(s, 1.0, dense=minus_eye))),
         (np.array([[-float(n)]]), (Term(d2, 1.0, rows=ones),)),
         (np.array([[_SCALE_CAP * n]]), (Term(d2, -1.0, rows=ones),))],
        slice(1, m_rows + n + 1))


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


def initial_feasible_point(m: SymMatrix, kappa: float,
                           spectrum=None) -> BarrierPoint:
    """Uniform strictly feasible start d = c * ones, c = sqrt(lam1*lamn/kappa);
    spectrum is (lamn, lam1) of M when the caller already has it."""
    lamn, lam1 = spectrum or extreme_eigenvalues(m)
    if kappa <= lam1 / lamn:
        raise InfeasiblePointError(
            f"kappa={kappa:.6g} is not above the condition number "
            f"{lam1 / lamn:.6g}")
    c = np.sqrt(lam1 * lamn / kappa)
    return BarrierPoint(m, kappa, np.full(m.order, c))


def _certificate(a_arr, kappa, state):
    """The cones' inverses (X, Y) at a level-test state if they certify
    infeasibility: u_i = a_i^T (X - Y) a_i <= 0, v_j = kappa Y_jj - X_jj < 0
    and, by an eigensolve apart from the factors, X, Y > 0. Then
    sum d1_i u_i + sum d2_j v_j = <X, A^T D1 A - D2> + <Y, kappa D2 -
    A^T D1 A> would be positive for any feasible (d1, d2)."""
    x_inv, y_inv = (f.inv for f in state[0][:2])
    u = np.einsum("ij,ij->i", a_arr @ (x_inv - y_inv), a_arr)
    v = kappa * np.diag(y_inv) - np.diag(x_inv)
    if u.max() <= 0 and v.max() < 0 and min(
            extreme_eigenvalues(x_inv, rtol=None)[0],
            extreme_eigenvalues(y_inv, rtol=None)[0]) > 0:
        return x_inv, y_inv
    return None


@serial_blas()
def two_sided_feasibility(a: RectMatrix, kappa: float,
                          witness=None) -> FeasibilityResult:
    """Decide whether some d1, d2 > 0 give D2 < A^T D1 A < kappa D2.

    Works on A' = W1^{1/2} A W2^{-1/2} for a witness pair (w1, w2), all
    ones by default, with w1 scaled to center the spectrum of A'^T A' on
    [1.01, 1.01 kappa]. Follows the path of max s from d1 = 1, d2 = 1.01
    to the first iterate with s > 0 (feasible, proven by the point's
    Cholesky factors) or with a checked certificate (infeasible); a path
    that ends with neither leaves the level undecided.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    x = a.tall()
    m_rows, n = x.shape
    w1, w2 = witness or (np.ones(m_rows), np.ones(n))
    scaled = (np.sqrt(w1)[:, None] * x) / np.sqrt(w2)[None, :]
    lamn, lam1 = extreme_eigenvalues(scaled.T @ scaled)
    t = 1.01 * np.sqrt(kappa / (lamn * lam1))
    scaled *= np.sqrt(t)
    w1 = t * w1
    # s starts just below the smaller cone eigenvalue at (d1, d2)
    s0 = min(t * lamn - 1.01, 1.01 * kappa - t * lam1)
    x0 = np.concatenate([[s0 - 1e-3 * max(1.0, abs(s0))], np.ones(m_rows),
                         np.full(n, 1.01)])

    certificate = []

    def stop(point, state):
        if point[0] > 0:
            return True
        found = _certificate(scaled, kappa, state)
        if found is not None:
            certificate.extend(found)
        return found is not None

    res = follow_path(_level_barrier(scaled, kappa), x0, stop=stop)
    counts = {"newton_steps": res.steps, "newton_fallbacks": res.fallbacks}
    if res.x[0] > 0:    # the stop test held at this factored point
        d1, d2 = res.x[1:m_rows + 1], res.x[m_rows + 1:]
        r2 = 1.0 / np.sqrt(d2)
        gram = scaled.T @ (d1[:, None] * scaled)
        return FeasibilityResult(
            "feasible", witness_left=w1 * d1, witness=w2 * d2,
            kappa=condition_number(r2[:, None] * gram * r2[None, :]),
            **counts)
    if certificate:
        r2 = 1.0 / np.sqrt(w2)
        return FeasibilityResult(
            "infeasible", certificate=tuple(
                r2[:, None] * c * r2[None, :] for c in certificate),
            **counts)
    return FeasibilityResult("undecided", **counts)
