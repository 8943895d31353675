"""Potential reduction interior point solvers with Nesterov-Todd steps.

Two modes share the machinery. Full-matrix mode lets the scaling variable be
any symmetric PD matrix, for which the center identity Z + kappa Y = X and
the Newton-step proximity contraction hold verbatim; it exists so those
statements can be tested directly. Its analytic center has a closed form,
D = t(kappa) M, so it needs no centering solve. Diagonal-restricted mode
constrains the step to diagonal coordinates (projecting the NT operator onto
them), centers with barrier.compute_center, and is the production path that
actually produces diagonal preconditioners.

A state carries the Cholesky factors of its cones R = M - D, S = kappa D - M
and D (in diagonal mode diag(sqrt d), without LAPACK); nt_step and
shift_state work on states.

solve_right_pr's approximate step works in the basis of the scaled Gram
G = D^{-1/2} M D^{-1/2} = Q diag(gamma) Q^T, where R, S and D become
Gamma - I, kappa I - Gamma and I. At an iterate X, Y and Z are the exact
inverses of R, S and D, so the shift, the three NT scalings, the right-hand
side and the potential are all read from gamma and P = D^{-1/2} Q, and a
step makes one eigensolve (of G at the new d, which is also its cone
check), no dpotrf and no dpotri. A retried step costs what it made before
it failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .barrier import (
    BarrierPoint,
    CenteringError,
    InfeasiblePointError,
    compute_center,
    initial_feasible_point,
)
from .heuristics import DiagScaling, SIDE_RIGHT, finish_solve
from .linalg import (Factored, SymMatrix, NotPositiveDefiniteError, chol_pd,
                     extreme_eigenvalues, geomean_inv, inv_pd,
                     proximity_delta, scaled_eigh, serial_blas, solve_pd)
from .matrixio import SolveReport

MODE_FULL = "full"
MODE_DIAG = "diag"

_MAX_OUTER = 10000   # outer steps of solve_right_pr
_BETA_MIN = 1e-12    # at most 40 failed steps in a row halve beta < 1 below it

# state_from_center's diagonal mode centers to a gradient of 1e-11;
# validate allows 1e-8.
_CENTER_TOL = 1e-11
_VALIDATE_RTOL = 1e-8


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

    Maintains S = kappa D - M and the linear identity Z + kappa Y = X; in
    diagonal-restricted mode D stays diagonal and the identity's diagonal
    projection is the barrier gradient. fr, fs and fd are the Factored
    R, S and D where the state knows them; factors() forms the others.
    """

    m: np.ndarray
    kappa: float
    D: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    mode: str = MODE_FULL
    fr: Factored | None = None
    fs: Factored | None = None
    fd: Factored | None = None

    @property
    def R(self) -> np.ndarray:
        return self.m - self.D

    @property
    def S(self) -> np.ndarray:
        return self.kappa * self.D - self.m

    def factors(self) -> tuple[Factored, Factored, Factored]:
        """Factored R, S and D; raises NotPositiveDefiniteError if one is
        not numerically PD. Factors formed here are kept."""
        if self.fr is None:
            self.fr = Factored.of(self.R, "R")
        if self.fs is None:
            self.fs = Factored.of(self.S, "S")
        if self.fd is None:
            self.fd = (Factored.diagonal(np.diag(self.D))
                       if self.mode == MODE_DIAG else Factored.of(self.D, "D"))
        return self.fr, self.fs, self.fd

    def deltas(self):
        """(delta_RX, delta_SY, delta_DZ)."""
        return (proximity_delta(self.X, self.R),
                proximity_delta(self.Y, self.S),
                proximity_delta(self.Z, self.D))

    def identity_residual(self) -> float:
        """Relative residual of Z + kappa Y = X (full) or its diagonal."""
        res = self.Z + self.kappa * self.Y - self.X
        scale = max(np.linalg.norm(self.X, ord="fro"), 1e-300)
        if self.mode == MODE_DIAG:
            return float(np.linalg.norm(np.diag(res)) / scale)
        return float(np.linalg.norm(res, ord="fro") / scale)

    def validate(self):
        for name, mat in (("R", self.R), ("S", self.S), ("D", self.D)):
            shift = _VALIDATE_RTOL * np.linalg.norm(mat)
            if chol_pd(mat + shift * np.eye(len(mat))) is None:
                raise NotPositiveDefiniteError(f"{name} left the PSD cone")
        if self.identity_residual() > _VALIDATE_RTOL:
            raise ValueError("linear identity Z + kappa Y = X violated")


def state_from_center(m: SymMatrix, kappa: float,
                      mode: str = MODE_FULL) -> CenterState:
    """Exact-center CenterState with X, Y, Z set to the true inverses.

    The full-matrix center is D = t M: there the gradient -(M - D)^{-1} +
    kappa (kappa D - M)^{-1} + D^{-1} is M^{-1} times -1/(1 - t) +
    kappa/(kappa t - 1) + 1/t, whose one root in (1/kappa, 1) is t below.
    The full problem is feasible exactly when kappa > 1.
    """
    kappa = float(kappa)
    if mode != MODE_FULL:
        return _state_from_point(compute_center(
            m, kappa, initial_feasible_point(m, kappa), tol=_CENTER_TOL), mode)
    if kappa <= 1.0:
        raise InfeasiblePointError(f"kappa={kappa:.6g} must exceed 1")
    t = (kappa + 1 + np.sqrt(kappa ** 2 - kappa + 1)) / (3 * kappa)
    return _state_at(m.mat, kappa, t * m.mat, mode)


def _state_at(m_arr, kappa, d_mat, mode, fr=None, fs=None, fd=None):
    """CenterState at D with X, Y, Z set to the inverses of R, S and D.

    Each inverse comes from the cone's Factored, which is formed here
    unless given.
    """
    state = CenterState(m=m_arr, kappa=kappa, D=d_mat, X=None, Y=None,
                        Z=None, mode=mode, fr=fr, fs=fs, fd=fd)
    fr, fs, fd = state.factors()
    state.X, state.Y, state.Z = fr.inv, fs.inv, fd.inv
    return state


def _state_from_point(bp: BarrierPoint, mode=MODE_DIAG) -> CenterState:
    """CenterState at a barrier point, reusing its Factored R and S."""
    return _state_at(bp.m.mat, bp.kappa, np.diag(bp.d), mode, *bp.state[0])


def delta_kappa(state: CenterState, beta: float) -> float:
    """Step size beta / Tr(D (kappa D - M)^{-1}) from the current state."""
    return beta / float(np.sum(state.D * inv_pd(state.S)))


def shift_state(state: CenterState, dk: float) -> CenterState:
    """Move to kappa - dk, shifting S directly and Z by dk * Y.

    Keeps R, D, X, Y, the linear identity and the factors of R and D, and
    carries the shifted S's factor; raises StepTooLargeError when the
    shifted S leaves the PSD cone (callers halve beta).
    """
    kappa1 = state.kappa - dk
    s_lower = chol_pd(kappa1 * state.D - state.m)
    if s_lower is None:
        raise StepTooLargeError(
            f"shift {dk:.3e} makes S indefinite at kappa={kappa1:.6g}")
    return CenterState(m=state.m, kappa=kappa1, D=state.D.copy(),
                       X=state.X.copy(), Y=state.Y.copy(),
                       Z=state.Z + dk * state.Y, mode=state.mode,
                       fr=state.fr, fs=Factored(s_lower), fd=state.fd)


def nt_step(state: CenterState, kappa1: float) -> CenterState:
    """One Newton step with Nesterov-Todd scalings toward the kappa1 center.

    Solves the coupled system for the D increment (with Delta R = -Delta D,
    Delta S = kappa1 Delta D, Delta X = Delta Z + kappa1 Delta Y), projected
    onto diagonal coordinates in diagonal-restricted mode. The NT scalings
    U = R # X^{-1}, V = S # Y^{-1} and W = D # Z^{-1} (so U X U = R) enter
    only through their inverses, U^{-1} = X # R^{-1} and likewise, which
    geomean_inv forms directly; when X is exactly R^{-1}, U^{-1} is X.
    R^{-1}, S^{-1} and D^{-1} come from the state's factors, and the
    returned state carries the factors of its own R, S and D.
    """
    if abs(kappa1 - state.kappa) > 1e-9 * max(1.0, abs(state.kappa)):
        raise ValueError("state must already be feasible at kappa1; "
                         "apply shift_state first")
    n = state.D.shape[0]
    fr, fs, fd = state.factors()
    z_rhs = fd.inv - state.Z
    y_rhs = fs.inv - state.Y
    x_rhs = fr.inv - state.X
    rhs = z_rhs + kappa1 * y_rhs - x_rhs
    ui = state.X if not np.any(x_rhs) else geomean_inv(state.X, state.R)
    vi = geomean_inv(state.Y, state.S)
    wi = geomean_inv(state.Z, state.D)

    if state.mode == MODE_DIAG:
        coeff = ui ** 2 + wi ** 2 + kappa1 ** 2 * vi ** 2
        delta_d = np.diag(solve_pd(coeff, np.diag(rhs))[0])
    else:
        op = (np.kron(ui, ui) + np.kron(wi, wi)
              + kappa1 ** 2 * np.kron(vi, vi))
        delta_d = solve_pd(op, rhs.reshape(-1))[0].reshape(n, n)
        delta_d = 0.5 * (delta_d + delta_d.T)

    delta_z = z_rhs - wi @ delta_d @ wi
    delta_y = y_rhs - kappa1 * (vi @ delta_d @ vi)
    delta_x = delta_z + kappa1 * delta_y

    new = CenterState(m=state.m, kappa=kappa1, D=state.D + delta_d,
                      X=state.X + delta_x, Y=state.Y + delta_y,
                      Z=state.Z + delta_z, mode=state.mode)
    try:
        new.factors()
    except NotPositiveDefiniteError:
        raise StepTooLargeError(
            "NT step left the cone; proximity exceeded the step's basin"
        ) from None
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
    """nt_step(shift_state(state, dk), kappa - dk) in the basis of point.

    state is the diagonal-mode state at point's d and kappa with X, Y and
    Z the exact inverses of R, S and D. With y = 1/(kappa - gamma), the
    shifted Y and Z are P diag(y) P^T and P diag(1 + dk y) P^T, and each NT
    scaling's inverse is P diag(c) P^T for c = 1/(gamma - 1),
    ((kappa - gamma)(kappa1 - gamma))^{-1/2} and (1 + dk y)^{1/2}. The
    right-hand side's diagonal is (P o P) r. Returns the ScaledGram at
    d + delta, whose eigensolve is the cone check: raises StepTooLargeError
    unless kappa1 = kappa - dk exceeds gamma_max before the step, and
    d > 0 and 1 < gamma < kappa1 after it.
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
    d = point.d + solve_pd(coeff, (p * p) @ r)[0]
    if not np.all(d > 0):
        raise StepTooLargeError("NT step left the cone of D")
    new = ScaledGram.at(m_arr, d)
    if not (new.gamma[0] > 1.0 and new.gamma[-1] < kappa1):
        raise StepTooLargeError(
            "NT step left the cone; proximity exceeded the step's basin")
    return new


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
        tol=center_tol).d)
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
                start = BarrierPoint(m, kappa_new, point.d)
                new = ScaledGram.at(m_arr, compute_center(
                    m, kappa_new, start, tol=center_tol).d)
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
