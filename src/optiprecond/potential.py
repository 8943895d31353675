"""Potential reduction interior point solvers with Nesterov-Todd steps.

CenterState is the one state type: the full-matrix state, in which the
scaling variable may be any symmetric PD matrix. There the center identity
Z + kappa Y = X and the Newton-step proximity contraction hold verbatim, so
nt_step and shift_state exist to test those statements directly. Its
analytic center has a closed form, D = t(kappa) M, so it needs no centering
solve.

solve_right_pr produces diagonal preconditioners on the region {d > 0 :
R = M - D > 0, S = kappa D - M > 0}. It centers once with compute_center,
the one damped-Newton loop, which maximizes log det R + log det S +
sum log d from the Cholesky factors of R and S, and steps in the basis of
the scaled Gram G = D^{-1/2} M D^{-1/2} = Q diag(gamma) Q^T, where R, S and D
become Gamma - I, kappa I - Gamma and I. At an iterate X, Y and Z are the
exact inverses of R, S and D, so the shift, the three NT scalings, the
right-hand side and the potential are all read from gamma and
P = D^{-1/2} Q, and a step makes one eigensolve (of G at the new d, which is
also its cone check), no dpotrf and no dpotri. A retried step costs what it
made before it failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .barrier import CenteringError
from .heuristics import DiagScaling, SIDE_RIGHT, finish_solve
from .linalg import (SymMatrix, NotPositiveDefiniteError, chol_pd,
                     extreme_eigenvalues, geomean_inv, inv_from_chol, inv_pd,
                     logdet_from_chol, max_step_chol, proximity_delta,
                     scaled_eigh, serial_blas, solve_pd)
from .matrixio import SolveReport

_MAX_OUTER = 10000   # outer steps of solve_right_pr
_BETA_MIN = 1e-12    # at most 40 failed steps in a row halve beta < 1 below it
_VALIDATE_RTOL = 1e-8  # CenterState.validate's relative slack
_CENTER_NEWTON_CAP = 200   # Newton steps of compute_center
# A line-search trial is accepted when it loses at most this fraction of
# (1 + |value|): the rounding noise of the barrier value near a center.
_ACCEPT_RTOL = 1e-12


class InfeasiblePointError(ValueError):
    """A point violates strict feasibility of the barrier cones."""


class StepTooLargeError(RuntimeError):
    """A kappa shift pushed the slack matrix S out of the PSD cone."""


class StagnationError(RuntimeError):
    """The outer loop stopped making progress; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class PRConfig:
    """Step-size and termination parameters for potential reduction."""

    beta: float = 0.1
    kappa_tol: float = 1e-3

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")


@dataclass
class CenterState:
    """Interior-point state (R, S, D, X, Y, Z, kappa) with proximities.

    Maintains S = kappa D - M and the linear identity Z + kappa Y = X, with
    D any symmetric matrix.
    """

    m: np.ndarray
    kappa: float
    D: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    @property
    def R(self) -> np.ndarray:
        return self.m - self.D

    @property
    def S(self) -> np.ndarray:
        return self.kappa * self.D - self.m

    def deltas(self):
        """(delta_RX, delta_SY, delta_DZ)."""
        return (proximity_delta(self.X, self.R),
                proximity_delta(self.Y, self.S),
                proximity_delta(self.Z, self.D))

    def identity_residual(self) -> float:
        """Relative residual of Z + kappa Y = X."""
        res = self.Z + self.kappa * self.Y - self.X
        scale = max(np.linalg.norm(self.X, ord="fro"), 1e-300)
        return float(np.linalg.norm(res, ord="fro") / scale)

    def validate(self):
        for name, mat in (("R", self.R), ("S", self.S), ("D", self.D)):
            shift = _VALIDATE_RTOL * np.linalg.norm(mat)
            if chol_pd(mat + shift * np.eye(len(mat))) is None:
                raise NotPositiveDefiniteError(f"{name} left the PSD cone")
        if self.identity_residual() > _VALIDATE_RTOL:
            raise ValueError("linear identity Z + kappa Y = X violated")


def state_from_center(m: SymMatrix, kappa: float) -> CenterState:
    """Exact-center CenterState with X, Y, Z set to the true inverses.

    The full-matrix center is D = t M: there the gradient -(M - D)^{-1} +
    kappa (kappa D - M)^{-1} + D^{-1} is M^{-1} times -1/(1 - t) +
    kappa/(kappa t - 1) + 1/t, whose one root in (1/kappa, 1) is t below.
    The full problem is feasible exactly when kappa > 1.
    """
    kappa = float(kappa)
    if kappa <= 1.0:
        raise InfeasiblePointError(f"kappa={kappa:.6g} must exceed 1")
    t = (kappa + 1 + np.sqrt(kappa ** 2 - kappa + 1)) / (3 * kappa)
    m_arr = m.mat
    d_mat = t * m_arr
    return CenterState(m=m_arr, kappa=kappa, D=d_mat, X=inv_pd(m_arr - d_mat),
                       Y=inv_pd(kappa * d_mat - m_arr), Z=inv_pd(d_mat))


def delta_kappa(state: CenterState, beta: float) -> float:
    """Step size beta / Tr(D (kappa D - M)^{-1}) from the current state."""
    return beta / float(np.sum(state.D * inv_pd(state.S)))


def shift_state(state: CenterState, dk: float) -> CenterState:
    """Move to kappa - dk, shifting S directly and Z by dk * Y.

    Keeps R, D, X, Y and the linear identity; raises StepTooLargeError when
    the shifted S leaves the PSD cone (callers halve beta).
    """
    kappa1 = state.kappa - dk
    if chol_pd(kappa1 * state.D - state.m) is None:
        raise StepTooLargeError(
            f"shift {dk:.3e} makes S indefinite at kappa={kappa1:.6g}")
    return CenterState(m=state.m, kappa=kappa1, D=state.D.copy(),
                       X=state.X.copy(), Y=state.Y.copy(),
                       Z=state.Z + dk * state.Y)


def nt_step(state: CenterState, kappa1: float) -> CenterState:
    """One Newton step with Nesterov-Todd scalings toward the kappa1 center.

    Solves the coupled system for the D increment (with Delta R = -Delta D,
    Delta S = kappa1 Delta D, Delta X = Delta Z + kappa1 Delta Y). The NT
    scalings U = R # X^{-1}, V = S # Y^{-1} and W = D # Z^{-1} (so U X U = R)
    enter only through their inverses, U^{-1} = X # R^{-1} and likewise,
    which geomean_inv forms directly. R^{-1}, S^{-1} and D^{-1} come from
    inv_pd; raises StepTooLargeError when the new R, S or D is not PD, and
    NotPositiveDefiniteError when the system does not factor.
    """
    if abs(kappa1 - state.kappa) > 1e-9 * max(1.0, abs(state.kappa)):
        raise ValueError("state must already be feasible at kappa1; "
                         "apply shift_state first")
    n = state.D.shape[0]
    z_rhs = inv_pd(state.D) - state.Z
    y_rhs = inv_pd(state.S) - state.Y
    x_rhs = inv_pd(state.R) - state.X
    rhs = z_rhs + kappa1 * y_rhs - x_rhs
    ui = geomean_inv(state.X, state.R)
    vi = geomean_inv(state.Y, state.S)
    wi = geomean_inv(state.Z, state.D)

    op = np.kron(ui, ui) + np.kron(wi, wi) + kappa1 ** 2 * np.kron(vi, vi)
    delta_d = solve_pd(op, rhs.reshape(-1)).reshape(n, n)
    delta_d = 0.5 * (delta_d + delta_d.T)

    delta_z = z_rhs - wi @ delta_d @ wi
    delta_y = y_rhs - kappa1 * (vi @ delta_d @ vi)
    delta_x = delta_z + kappa1 * delta_y

    new = CenterState(m=state.m, kappa=kappa1, D=state.D + delta_d,
                      X=state.X + delta_x, Y=state.Y + delta_y,
                      Z=state.Z + delta_z)
    if any(chol_pd(cone) is None for cone in (new.R, new.S, new.D)):
        raise StepTooLargeError(
            "NT step left the cone; proximity exceeded the step's basin")
    return new


@dataclass(frozen=True)
class ScaledGram:
    """A positive d with the eigenpairs of G = D^{-1/2} M D^{-1/2}.

    Holds gamma (ascending) and p = D^{-1/2} Q for G = Q diag(gamma) Q^T,
    so R = M - D, S = kappa D - M and D are P^{-T} diag(gamma - 1,
    kappa - gamma, 1) P^{-1}, and their inverses P diag(...)^{-1} P^T.
    """

    d: np.ndarray
    gamma: np.ndarray
    p: np.ndarray

    @classmethod
    def at(cls, m_arr, d) -> "ScaledGram":
        return cls(d, *scaled_eigh(m_arr, d))

    def potential(self, kappa: float) -> float:
        """The barrier value log det R + log det S + sum log d at kappa."""
        return float(np.sum(np.log(self.gamma - 1.0))
                     + np.sum(np.log(kappa - self.gamma))
                     + 3.0 * np.sum(np.log(self.d)))


def scaled_nt_step(m_arr, point: ScaledGram, kappa: float,
                   dk: float) -> ScaledGram:
    """The NT step to kappa1 = kappa - dk over diagonal D, in point's basis.

    It is nt_step's system with the D increment projected onto diagonal
    coordinates, taken after shift_state's shift from the point at d and
    kappa whose X, Y and Z are the exact inverses of R, S and D. With
    y = 1/(kappa - gamma), the shifted Y and Z are P diag(y) P^T and
    P diag(1 + dk y) P^T, and each NT scaling's inverse is P diag(c) P^T for
    c = 1/(gamma - 1), ((kappa - gamma)(kappa1 - gamma))^{-1/2} and
    (1 + dk y)^{1/2}. The right-hand side's diagonal is (P o P) r. Returns
    the ScaledGram at d + delta, whose eigensolve is the cone check: raises
    StepTooLargeError unless kappa1 exceeds gamma_max before the step, and
    d > 0 and 1 < gamma < kappa1 after it, and NotPositiveDefiniteError
    when the system does not factor.
    """
    kappa1 = kappa - dk
    g, p = point.gamma, point.p
    if not kappa1 > g[-1]:
        raise StepTooLargeError(
            f"shift {dk:.3e} makes S indefinite at kappa={kappa1:.6g}")
    y = 1.0 / (kappa - g)
    ui = (p / (g - 1.0)) @ p.T
    vi = (p / np.sqrt((kappa - g) * (kappa1 - g))) @ p.T
    wi = (p * np.sqrt(1.0 + dk * y)) @ p.T
    r = -dk * y + kappa1 * (1.0 / (kappa1 - g) - y)
    coeff = ui ** 2 + wi ** 2 + kappa1 ** 2 * vi ** 2
    d = point.d + solve_pd(coeff, (p * p) @ r)
    if not np.all(d > 0):
        raise StepTooLargeError("NT step left the cone of D")
    new = ScaledGram.at(m_arr, d)
    if not (new.gamma[0] > 1.0 and new.gamma[-1] < kappa1):
        raise StepTooLargeError(
            "NT step left the cone; proximity exceeded the step's basin")
    return new


def _region_factors(m_arr, kappa, d):
    """([R, S], their lower Cholesky factors) at d, or None unless d > 0
    and R, then S, factor."""
    if d.min() <= 0:
        return None
    cones = [m_arr - np.diag(d), np.diag(kappa * d) - m_arr]
    lowers = []
    for cone in cones:
        lower = chol_pd(cone)
        if lower is None:
            return None
        lowers.append(lower)
    return cones, lowers


def _barrier_value(d, lowers):
    """log det R + log det S + sum log d from the factors of R and S."""
    return (logdet_from_chol(lowers[0]) + logdet_from_chol(lowers[1])
            + float(np.sum(np.log(d))))


def _barrier_derivatives(kappa, d, lowers):
    """The barrier's gradient and its negated (positive definite) Hessian,
    from the factors of R and S."""
    r_inv, s_inv = (inv_from_chol(lower) for lower in lowers)
    grad = -np.diag(r_inv) + kappa * np.diag(s_inv) + 1.0 / d
    hess = r_inv * r_inv + (s_inv * s_inv) * (kappa * kappa)
    hess[np.diag_indices_from(hess)] += 1.0 / d ** 2
    return grad, hess


def compute_center(m: SymMatrix, kappa: float, d0,
                   tol: float = 1e-8) -> np.ndarray:
    """Analytic center d of the region at level kappa, from a strictly
    feasible d0, by damped Newton maximization of the barrier to a gradient
    whose infinity norm is at most tol.

    Each step tries the full Newton step, then 0.9 of the step to the
    nearest boundary (at most 1, by max_step_chol), then halves (at most 40
    trials). Raises ValueError when d0 does not have length m.order,
    InfeasiblePointError when (d0, kappa) is not strictly feasible,
    CenteringError when no trial passes the line search or after
    _CENTER_NEWTON_CAP steps, and NotPositiveDefiniteError when a Newton
    system does not factor.
    """
    d = np.array(d0, dtype=float)
    if d.shape != (m.order,):
        raise ValueError("d0 has the wrong length")
    m_arr = m.mat
    factors = _region_factors(m_arr, kappa, d)
    if factors is None:
        raise InfeasiblePointError(
            f"(d0, kappa={kappa:.6g}) is not strictly feasible")
    val = _barrier_value(d, factors[1])
    gnorm = np.inf
    for _ in range(_CENTER_NEWTON_CAP):
        g, nh = _barrier_derivatives(kappa, d, factors[1])
        gnorm = float(np.abs(g).max())
        if gnorm <= tol:
            return d
        step = solve_pd(nh, g)
        # try the full step before paying for the exact boundary computation
        alpha = 1.0
        for attempt in range(40):
            d_new = d + alpha * step
            new = _region_factors(m_arr, kappa, d_new)
            if new is not None:
                v_new = _barrier_value(d_new, new[1])
                if v_new >= val - _ACCEPT_RTOL * (1.0 + abs(val)):
                    d, factors, val = d_new, new, v_new
                    break
            if attempt == 0:
                neg = step < 0
                alpha = 0.9 * max_step_chol(
                    *factors, [np.diag(-step), np.diag(kappa * step)],
                    min([1.0, *(d[neg] / -step[neg])]))[0]
            else:
                alpha *= 0.5
        else:
            break   # no trial passed the line search
    raise CenteringError(f"centering did not reach tol={tol:.1e} "
                         f"(last gradient norm {gnorm:.3e})", grad_norm=gnorm)


def initial_feasible_point(m: SymMatrix, kappa: float,
                           spectrum=None) -> np.ndarray:
    """Uniform start d = c * ones, c = sqrt(lam1*lamn/kappa), inside the
    region for kappa > kappa(M) (else InfeasiblePointError), unfactored;
    spectrum is (lamn, lam1) of M when the caller already has it."""
    lamn, lam1 = spectrum or extreme_eigenvalues(m)
    if kappa <= lam1 / lamn:
        raise InfeasiblePointError(
            f"kappa={kappa:.6g} is not above the condition number "
            f"{lam1 / lamn:.6g}")
    c = np.sqrt(lam1 * lamn / kappa)
    return np.full(m.order, c)


@serial_blas()
def solve_right_pr(m: SymMatrix, config: PRConfig | None = None,
                   mode: str = "approximate") -> tuple[DiagScaling, SolveReport]:
    """Right preconditioner for M = A^T A by potential reduction.

    mode='exact' re-centers fully after each kappa decrease; 'approximate'
    performs exactly one NT Newton step, scaled_nt_step. Starts at kappa =
    1.01 kappa(M) from the uniform interior point; terminates on three
    consecutive outer steps with relative progress below kappa_tol, or after
    10,000 steps. Each iterate carries the eigenpairs of its scaled Gram,
    from which the step size, the next step and the potential (the barrier
    value) are read. ``iterations`` counts outer steps including retried
    ones; extra["accepted_steps"] and extra["beta_halvings"] split them.
    """
    if mode not in ("exact", "approximate"):
        raise ValueError("mode must be 'exact' or 'approximate'")
    config = config or PRConfig()
    t0 = time.perf_counter()
    m_arr = m.mat
    spectrum = extreme_eigenvalues(m)
    kappa_m = spectrum[1] / spectrum[0]
    kappa = kappa_m * 1.01
    center_tol = 1e-9 * max(1.0, float(np.abs(np.diag(m_arr)).max()))

    point = ScaledGram.at(m_arr, compute_center(
        m, kappa, initial_feasible_point(m, kappa, spectrum),
        tol=center_tol))
    beta = config.beta
    trajectory = [(kappa, point.potential(kappa), beta)]
    small_progress = 0
    failed_attempts = 0
    clean_steps = 0
    iterations = 0
    halvings = 0

    while iterations < _MAX_OUTER:
        iterations += 1
        # beta / Tr(D S^{-1})
        dk = beta / float(np.sum(1.0 / (kappa - point.gamma)))
        if kappa - dk <= 1.0:
            dk = 0.5 * (kappa - 1.0)
            if dk <= 1e-15 * kappa:
                break
        kappa_new = kappa - dk

        try:
            if mode == "exact":
                new = ScaledGram.at(m_arr, compute_center(
                    m, kappa_new, point.d, tol=center_tol))
            else:
                new = scaled_nt_step(m_arr, point, kappa, dk)
        except (StepTooLargeError, CenteringError, InfeasiblePointError,
                NotPositiveDefiniteError):
            beta *= 0.5
            halvings += 1
            clean_steps = 0
            failed_attempts += 1
            if beta < _BETA_MIN:
                raise StagnationError(
                    f"beta fell below {_BETA_MIN:g} after {failed_attempts} "
                    "failed attempts in a row",
                    {"kappa": kappa, "beta": beta,
                     "failed_attempts": failed_attempts})
            continue

        failed_attempts = 0
        kappa, point = kappa_new, new
        trajectory.append((kappa, point.potential(kappa), beta))
        clean_steps += 1
        if clean_steps >= 5:
            beta = min(2 * beta, config.beta)
            clean_steps = 0
        if dk / kappa < config.kappa_tol:
            small_progress += 1
            if small_progress >= 3:
                break
        else:
            small_progress = 0

    return finish_solve(
        f"potential_reduction_{mode}", t0, m, kappa_m,
        DiagScaling(point.d.copy(), side=SIDE_RIGHT), iterations,
        {"kappa_terminal": kappa,
         "accepted_steps": len(trajectory) - 1,
         "beta_halvings": halvings,
         "potential_trajectory": [[k, p, b] for (k, p, b) in trajectory]})
