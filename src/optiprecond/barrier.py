"""Log-det barrier over linear matrix inequalities, and its primal-dual loop.

The semidefinite programs of dsdp and of the two-sided level test are posed
on LMIs F(x) = F0 + sum_j x_j F_j > 0 plus a block of x kept positive. The
coefficients F_j come in three kinds: diagonal e_j e_j^T, rank-one rows
a_j a_j^T, or the identity on a single variable. ``LmiBarrier.factor``
factors each cone at a point, and ``LmiBarrier.kernel_sum`` forms
tr(P F_a Q F_b), the Schur matrix of a primal-dual step, in place, in a
workspace allocated on its first call. ``primal_dual_ascent`` is the one
primal-dual loop, which maximizes x_0 for dsdp's one-sided SDPs and the
two-sided level test. It solves by Cholesky only and stops at a Schur
matrix that does not factor; it inverts each cone by one dpotri per
iteration, and its step lengths reduce only the cones that fail
max_step_chol's Cholesky test. Potential reduction's centering on the
region {d > 0 : M - D > 0, kappa D - M > 0} lives in ``potential``.

``two_sided_feasibility`` decides whether D2 < A^T D1 A < kappa D2 has a
solution: it maximizes s over A^T D1 A - D2 > sI, kappa D2 - A^T D1 A > sI
and stops at a dual witness (s > 0) or at a primal pair that is a Farkas
certificate of infeasibility (Vandenberghe & Boyd, Semidefinite
Programming, SIAM Rev. 1996, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (chol_pd, condition_number, extreme_eigenvalues,
                     inv_from_chol, max_step_chol, serial_blas, solve_chol)
from .matrixio import RectMatrix

# The level test keeps the scale of d2 in the band n < sum(d2) < 100 n, and
# leaves a level undecided after 100 primal-dual iterations.
_SCALE_CAP = 100.0
_LEVEL_MAX_ITER = 100


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
    coordinates of the input A. newton_steps counts the primal-dual
    iterations, step_reductions the cone reductions of their step lengths.
    """

    verdict: str
    witness_left: np.ndarray | None = None
    witness: np.ndarray | None = None
    kappa: float = float("nan")
    certificate: tuple[np.ndarray, np.ndarray] | None = None
    newton_steps: int = 0
    step_reductions: int = 0

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


@dataclass(frozen=True)
class Term:
    """Variables x[sl] entering one LMI, x_j as coef * F_j.

    F_j = e_j e_j^T by default, a_j a_j^T for row j of ``rows``, or the
    identity when ``eye`` is set and sl holds a single variable.
    """

    sl: slice
    coef: float
    rows: np.ndarray | None = None
    eye: bool = False

    def matrix(self, xs, grams, n):
        """sum_j coef * xs_j F_j, of order n; a row term's U^T diag(xs) U
        is formed once per dict grams, and shared with sign coef = +-1."""
        if self.eye:
            return (self.coef * xs[0]) * np.eye(n)
        if self.rows is None:
            return np.diag(self.coef * xs)
        key = (id(self.rows), self.sl.start, self.sl.stop)
        g = grams.get(key)
        if g is None:
            g = self.rows.T @ (xs[:, None] * self.rows)
            g = grams[key] = 0.5 * (g + g.T)
        return g if self.coef == 1.0 else self.coef * g

    def image(self, p):
        """U P, where U is ``rows`` or the identity."""
        return p if self.rows is None else self.rows @ p

    def trace(self, p):
        """tr(P F_j) per variable."""
        if self.eye:
            return np.trace(p)
        return np.diag(p) if self.rows is None else \
            np.einsum("ij,ij->i", self.rows @ p, self.rows)


def _cross(ti, ki, tj, kj, scratch):
    """tr(P F_a Q F_b) for F_a of term ti and F_b of tj, as a 2-d block,
    from the images (of P, of Q) ki of ti and kj of tj; a block between two
    terms that are not the identity is formed in scratch(shape), with
    U Q U^T in scratch(shape, "q")."""
    (pi, qi), (pj, qj) = ki, kj
    if ti.eye and tj.eye:
        return np.array([[np.sum(pi * qj.T)]])
    if ti.eye:
        return _cross(tj, kj, ti, ki, scratch).T
    if tj.eye:
        uqb = qj if ti.rows is None else ti.rows @ qj
        return np.einsum("ij,ij->i", uqb, pi)[:, None]
    w = pi if tj.rows is None else np.matmul(
        pi, tj.rows.T, out=scratch((len(pi), len(tj.rows))))
    wq = qi if tj.rows is None else np.matmul(
        qi, tj.rows.T, out=scratch(w.shape, "q"))
    return np.multiply(w, wq, out=scratch(w.shape))


def _linear(cones, x):
    """sum_j x_j F_j over the terms of each LMI, each row term's
    U^T diag(x) U formed once (see Term.matrix)."""
    grams = {}
    return [sum(t.matrix(x[t.sl], grams, len(f0)) for t in terms)
            for f0, terms in cones]


class LmiBarrier:
    """The set F(x) > 0 over the cones and x[positive] > 0, on which the
    log-det barrier sum log det F(x) + sum log x[positive] is finite.

    Each cone is a pair (F0, terms) with F(x) = F0 + sum_j x_j F_j. A
    factored point, or state, is (the lower Cholesky factor of each cone's
    F(x), x[positive]).
    """

    def __init__(self, nvar, cones, positive: slice):
        self.nvar = nvar
        self.cones = cones
        self.positive = positive
        self._schur = None
        self._blocks = {}

    def _scratch(self, shape, slot="p"):
        """The workspace's scratch array of this shape in this slot: "p"
        for blocks of U P U^T, "q" for U Q U^T."""
        buf = self._blocks.get((shape, slot))
        if buf is None:
            buf = self._blocks[shape, slot] = np.empty(shape)
        return buf

    @property
    def dim(self) -> int:
        """Barrier parameter: total cone order plus bound count."""
        return (sum(f0.shape[0] for f0, _ in self.cones)
                + self.positive.stop - self.positive.start)

    def linear(self, dx):
        """The change of each cone's F along dx."""
        return _linear(self.cones, dx)

    def adjoint(self, mats, v):
        """sum over cones of tr(G F_j) per variable for the cone matrices
        G in mats, plus v over x[positive]."""
        out = np.zeros(self.nvar)
        for (_, terms), g in zip(self.cones, mats):
            for t in terms:
                out[t.sl] += t.coef * t.trace(g)
        out[self.positive] += v
        return out

    def factor(self, x):
        """State at x, or None when x is not strictly feasible."""
        slack = x[self.positive]
        if slack.min() <= 0:
            return None
        # numpy and scipy each run their own BLAS thread pool; grouping the
        # calls of each library avoids paying for a hand-over per cone
        mats = [mat + f0 for mat, (f0, _) in
                zip(_linear(self.cones, x), self.cones)]
        lowers = []
        for mat in mats:
            lower = chol_pd(mat)
            if lower is None:
                return None
            lowers.append(lower)
        return lowers, slack

    def kernel_sum(self, pairs, bound):
        """The workspace set to sum over cones of tr(P F_a Q F_b) for each
        cone's pair (P, Q), plus diag(bound) over x[positive]: the HKM Schur
        matrix of a primal-dual step for P = F^-1, Q = X, bound = v / x
        (Vandenberghe & Boyd, Semidefinite Programming, SIAM Rev. 1996). It
        is valid until the next kernel_sum call on this barrier."""
        if self._schur is None:
            self._schur = np.empty((self.nvar, self.nvar))
        schur = self._schur
        schur.fill(0.0)
        for (_, terms), (p, q) in zip(self.cones, pairs):
            imgs = [(t.image(p), t.image(q)) for t in terms]
            for i, ti in enumerate(terms):
                for tj, kj in zip(terms[i:], imgs[i:]):
                    k = _cross(ti, imgs[i], tj, kj, self._scratch)
                    if ti.coef * tj.coef != 1.0:
                        k *= ti.coef * tj.coef
                    schur[ti.sl, tj.sl] += k
                    if tj is not ti:
                        schur[tj.sl, ti.sl] += k.T
        idx = np.arange(self.positive.start, self.positive.stop)
        schur[idx, idx] += bound
        return schur


def _sym(a):
    return 0.5 * (a + a.T)


def _max_step(mats, lowers, deltas, v, dv, first=0):
    """max_step_chol's (alpha, binding, reductions) for every mat + alpha
    delta PSD and v + alpha dv >= 0, under the bound of 1 and v / -dv."""
    return max_step_chol(mats, lowers, deltas, min(
        [1.0, *(v[dv < 0] / -dv[dv < 0])]), first)


def primal_dual_ascent(barrier: LmiBarrier, y, xs, v, done, max_iter):
    """Maximize y[0] over the barrier's set, with its primal SDP, from a
    strictly feasible dual y and primal (xs, v): one X per cone, v over
    y[positive], with barrier.adjoint(xs, v) = -e_0.

    Mehrotra's predictor-corrector on the HKM direction (Helmberg, Rendl,
    Vanderbei & Wolkowicz, SIAM J. Optim. 1996): each iteration factors the
    Schur matrix once and solves it for the predictor, then the corrector;
    both take their step lengths from one factor of each X and the state's
    factors of Z, reducing only a cone that fails max_step_chol's Cholesky
    test. The primal direction keeps barrier.adjoint(xs, v) fixed.
    Stops when done(y, xs) holds, before the first iteration or after any,
    after max_iter iterations, or when an X, the Schur matrix or the dual
    step is no longer numerically PD (at the previous point). Every
    returned y has been factored, so it is strictly feasible. Returns (y,
    xs, iterations, step reductions); the inputs are not modified.
    """
    b, pos = barrier, barrier.positive
    c = np.eye(1, b.nvar)[0]
    state = b.factor(y)
    if state is None:
        raise CenteringError("strictly feasible start recipe failed")
    iterations, reductions, first = 0, 0, 0
    while not done(y, xs) and iterations < max_iter:
        iterations += 1
        zls, z = state
        xls = [chol_pd(x) for x in xs]
        if any(xl is None for xl in xls):
            break
        zs = [zl @ zl.T for zl in zls]
        zinv = [inv_from_chol(zl) for zl in zls]
        mu = (sum(np.sum(x * zm) for x, zm in zip(xs, zs)) + v @ z) / b.dim
        schur = b.kernel_sum([(zi, x) for zi, x in zip(zinv, xs)], v / z)
        if (lower := chol_pd(schur)) is None:
            break

        def direction(rhs, tzs, tv):
            # the step to T (T Z^-1 per cone, T / z) with A(X + dX) = -c
            nonlocal first, reductions
            dy = solve_chol(lower, rhs)
            dzs = b.linear(dy)
            dxs = [tz - x - _sym(x @ dz @ zi)
                   for tz, x, dz, zi in zip(tzs, xs, dzs, zinv)]
            dv = tv - v - v * dy[pos] / z
            alpha, first, primal = _max_step(xs, xls, dxs, v, dv, first)
            beta, first, dual = _max_step(zs, zls, dzs, z, dy[pos], first)
            reductions += primal + dual
            return (dy, dzs, dxs, dv), (alpha, beta)

        (dy, dzs, dxs, dv), (alpha, beta) = direction(c, [0.0] * len(xs),
                                                      0.0)
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
        del lower   # free the factor before the next Schur assembly
        gamma = 0.9 + 0.09 * least
        if (new_state := b.factor(y + gamma * beta * dy)) is None:
            break
        xs = [x + gamma * alpha * dx for x, dx in zip(xs, dxs)]
        v = v + gamma * alpha * dv
        y, state = y + gamma * beta * dy, new_state
    return y, xs, iterations, reductions


def _level_barrier(a_arr, kappa) -> LmiBarrier:
    """Cones A^T D1 A - D2 - sI, kappa D2 - A^T D1 A - sI and the band
    n < sum(d2) < 100 n (two 1x1 cones) over x = (s, d1 > 0, d2 > 0)."""
    m_rows, n = a_arr.shape
    s, d1, d2 = slice(0, 1), slice(1, m_rows + 1), \
        slice(m_rows + 1, m_rows + n + 1)
    zero, ones = np.zeros((n, n)), np.ones((n, 1))
    return LmiBarrier(
        m_rows + n + 1,
        [(zero, (Term(d1, 1.0, rows=a_arr), Term(d2, -1.0),
                 Term(s, -1.0, eye=True))),
         (zero, (Term(d2, kappa), Term(d1, -1.0, rows=a_arr),
                 Term(s, -1.0, eye=True))),
         (np.array([[-float(n)]]), (Term(d2, 1.0, rows=ones),)),
         (np.array([[_SCALE_CAP * n]]), (Term(d2, -1.0, rows=ones),))],
        slice(1, m_rows + n + 1))


def _certificate(a_arr, kappa, x, y):
    """(X, Y + tI) for a primal pair of the level test, with the least
    t >= 0 that leaves no u_i = a_i^T (X - Y - tI) a_i positive (rows a_i
    nonzero), if it certifies infeasibility: u_i <= 0, v_j = kappa (Y +
    tI)_jj - X_jj < 0 and, by an eigensolve, X, Y + tI > 0. Then sum d1_i
    u_i + sum d2_j v_j = <X, A^T D1 A - D2> + <Y + tI, kappa D2 - A^T D1 A>
    would be positive for any feasible (d1, d2)."""
    u = np.einsum("ij,ij->i", a_arr @ (x - y), a_arr)
    lift = np.max(u / np.einsum("ij,ij->i", a_arr, a_arr))
    if lift > 0:
        y = y + lift * np.eye(len(y))
        u = np.einsum("ij,ij->i", a_arr @ (x - y), a_arr)
    v = kappa * np.diag(y) - np.diag(x)
    if u.max() <= 0 and v.max() < 0 and min(
            extreme_eigenvalues(x, rtol=None)[0],
            extreme_eigenvalues(y, rtol=None)[0]) > 0:
        return x, y
    return None


@serial_blas()
def two_sided_feasibility(a: RectMatrix, kappa: float,
                          witness=None) -> FeasibilityResult:
    """Decide whether some d1, d2 > 0 give D2 < A^T D1 A < kappa D2.

    Works on A' = W1^{1/2} A W2^{-1/2} for a witness pair (w1, w2), all
    ones by default, with w1 scaled to center the spectrum of A'^T A' on
    [1.01, 1.01 kappa]. Maximizes s by primal_dual_ascent from the dual
    point d1 = 1, d2 = 1.01 and the primal point X = I/4n, Y = 3I/4n, band
    multipliers 1/n and 2/n + (3 kappa - 1)/4n, d1 multipliers
    |a_i'|^2/2n and d2 multipliers 1/n. Stops at the first dual iterate
    with s > 0 (feasible, proven by the point's Cholesky factors) or the
    first primal pair that _certificate accepts (infeasible); a level
    decided by neither within _LEVEL_MAX_ITER iterations is undecided.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    x = a.tall()
    w1, w2 = witness or (np.ones(len(x)), np.ones(x.shape[1]))
    # a zero row, whose weight changes nothing, forces its multiplier to 0:
    # the test runs on the other rows, so that the primal start is interior
    keep = np.any(x != 0, axis=1)
    scaled = (np.sqrt(w1[keep])[:, None] * x[keep]) / np.sqrt(w2)[None, :]
    m_rows, n = scaled.shape
    lamn, lam1 = extreme_eigenvalues(scaled.T @ scaled)
    t = 1.01 * np.sqrt(kappa / (lamn * lam1))
    scaled *= np.sqrt(t)
    w1 = t * w1
    # s starts just below the smaller cone eigenvalue at (d1, d2)
    s0 = min(t * lamn - 1.01, 1.01 * kappa - t * lam1)
    y0 = np.concatenate([[s0 - 1e-3 * max(1.0, abs(s0))], np.ones(m_rows),
                         np.full(n, 1.01)])
    eye = np.eye(n) / (4.0 * n)
    xs0 = [eye, 3.0 * eye, np.array([[1.0 / n]]),
           np.array([[(2.0 + 0.75 * kappa - 0.25) / n]])]
    v0 = np.concatenate([np.einsum("ij,ij->i", scaled, scaled) / (2.0 * n),
                         np.full(n, 1.0 / n)])

    certificate = []

    def done(y, xs):
        if y[0] > 0:
            return True
        certificate[:] = _certificate(scaled, kappa, xs[0], xs[1]) or ()
        return bool(certificate)

    y, _, steps, reductions = primal_dual_ascent(
        _level_barrier(scaled, kappa), y0, xs0, v0, done, _LEVEL_MAX_ITER)
    counts = {"newton_steps": steps, "step_reductions": reductions}
    if y[0] > 0:    # the dual iterate was factored: its cones are PD
        d1, d2 = y[1:m_rows + 1], y[m_rows + 1:]
        r2 = 1.0 / np.sqrt(d2)
        gram = scaled.T @ (d1[:, None] * scaled)
        w1[keep] *= d1
        return FeasibilityResult(
            "feasible", witness_left=w1, witness=w2 * d2,
            kappa=condition_number(r2[:, None] * gram * r2[None, :]),
            **counts)
    if certificate:
        r2 = 1.0 / np.sqrt(w2)
        return FeasibilityResult(
            "infeasible", certificate=tuple(
                r2[:, None] * c * r2[None, :] for c in certificate),
            **counts)
    return FeasibilityResult("undecided", **counts)
