"""Potential reduction interior point solvers with Nesterov-Todd steps.

Two modes share the machinery. Full-matrix mode lets the scaling variable be
any symmetric PD matrix, for which the center identity Z + kappa Y = X and
the Newton-step proximity contraction hold verbatim; it exists so those
statements can be tested directly. Diagonal-restricted mode constrains the
step to diagonal coordinates (projecting the NT operator onto them) and is
the production path that actually produces diagonal preconditioners.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .barrier import (
    _CENTER_NEWTON_CAP,
    BarrierPoint,
    CenteringError,
    _one_sided,
    compute_center,
    initial_feasible_point,
    newton_ascent,
)
from .heuristics import DiagScaling, SIDE_RIGHT, finish_solve
from .linalg import (SymMatrix, NotPositiveDefiniteError, chol_pd,
                     condition_number, inv_from_chol, inv_pd,
                     logdet_from_chol, max_step_cone, proximity_delta,
                     serial_blas, solve_pd, sym_pow)
from .matrixio import SolveReport

MODE_FULL = "full"
MODE_DIAG = "diag"

_MAX_OUTER = 10000   # outer steps of solve_right_pr

# state_from_center centers to a gradient of 1e-11; validate allows 1e-8.
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


def _geometric_mean(rho, xi):
    """U = rho^{1/2} (rho^{1/2} xi rho^{1/2})^{-1/2} rho^{1/2}; U xi U = rho."""
    rh = sym_pow(rho, 0.5)
    inner = rh @ xi @ rh
    return rh @ sym_pow(0.5 * (inner + inner.T), -0.5) @ rh


@dataclass
class NTScalings:
    """Geometric-mean scaling points for the three cone pairs."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray


@dataclass
class CenterState:
    """Interior-point state (R, S, D, X, Y, Z, kappa) with proximities.

    Maintains S = kappa D - M and the linear identity Z + kappa Y = X; in
    diagonal-restricted mode D stays diagonal and the identity's diagonal
    projection is the barrier gradient.
    """

    m: np.ndarray
    kappa: float
    D: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    mode: str = MODE_FULL

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


class _MatrixCenter:
    """log det(M - D) + log det(kappa D - M) + log det D over x = vec(D).

    Supplies newton_ascent's barrier interface for a full symmetric D.
    """

    def __init__(self, m_arr, kappa):
        self.m = m_arr
        self.kappa = kappa

    def factor(self, x):
        d_mat = x.reshape(self.m.shape)
        chols = [chol_pd(self.m - d_mat),
                 chol_pd(self.kappa * d_mat - self.m), chol_pd(d_mat)]
        return None if any(f is None for f in chols) else chols

    def value(self, chols):
        return sum(map(logdet_from_chol, chols))

    def derivatives(self, chols):
        x, y, z = map(inv_from_chol, chols)
        grad = -x + self.kappa * y + z
        op = np.kron(x, x) + self.kappa ** 2 * np.kron(y, y) + np.kron(z, z)
        return grad.reshape(-1), op

    def max_step(self, chols, dx):
        delta = dx.reshape(self.m.shape)
        lr, ls, ld = chols
        return min(max_step_cone(lr, delta),
                   max_step_cone(ls, -self.kappa * delta),
                   max_step_cone(ld, -delta))


def exact_center_full(m: SymMatrix, kappa: float) -> np.ndarray:
    """Unrestricted symmetric analytic center: -R^{-1} + kappa S^{-1} + D^{-1} = 0.

    Matrix-variable Newton with a vectorized (Kronecker) solve; intended for
    the small orders used by the proposition tests.
    """
    start = np.diag(initial_feasible_point(m, kappa).d)
    res = newton_ascent(_MatrixCenter(m.mat, kappa), start.reshape(-1),
                        _CENTER_NEWTON_CAP, grad_tol=_CENTER_TOL)
    if res.status != "converged":
        raise CenteringError(f"matrix centering ended {res.status}",
                             grad_norm=res.grad_norm)
    d_mat = res.x.reshape(start.shape)
    return 0.5 * (d_mat + d_mat.T)


def state_from_center(m: SymMatrix, kappa: float,
                      mode: str = MODE_FULL) -> CenterState:
    """Exact-center CenterState with X, Y, Z set to the true inverses."""
    if mode == MODE_FULL:
        d_mat = exact_center_full(m, kappa)
    else:
        bp = compute_center(m, kappa, initial_feasible_point(m, kappa),
                            tol=_CENTER_TOL)
        d_mat = np.diag(bp.d)
    return _state_at(m.mat, float(kappa), d_mat, mode)


def _state_at(m_arr, kappa, d_mat, mode):
    """CenterState at D with X, Y, Z set to the true inverses."""
    return CenterState(m=m_arr, kappa=kappa, D=d_mat,
                       X=inv_pd(m_arr - d_mat),
                       Y=inv_pd(kappa * d_mat - m_arr),
                       Z=inv_pd(d_mat), mode=mode)


def delta_kappa(state: CenterState, beta: float) -> float:
    """Step size beta / Tr(D (kappa D - M)^{-1}) from the current state."""
    return beta / float(np.sum(state.D * inv_pd(state.S)))


def shift_state(state: CenterState, dk: float) -> CenterState:
    """Move to kappa - dk, shifting S directly and Z by dk * Y.

    Keeps R, D, X, Y and the linear identity; raises StepTooLargeError when
    the shifted S leaves the PSD cone (callers halve beta).
    """
    kappa1 = state.kappa - dk
    s_shifted = kappa1 * state.D - state.m
    if chol_pd(s_shifted) is None:
        raise StepTooLargeError(
            f"shift {dk:.3e} makes S indefinite at kappa={kappa1:.6g}")
    return CenterState(m=state.m, kappa=kappa1, D=state.D.copy(),
                       X=state.X.copy(), Y=state.Y.copy(),
                       Z=state.Z + dk * state.Y, mode=state.mode)


def nt_scalings(state: CenterState) -> NTScalings:
    return NTScalings(U=_geometric_mean(state.R, state.X),
                      V=_geometric_mean(state.S, state.Y),
                      W=_geometric_mean(state.D, state.Z))


def nt_step(state: CenterState, kappa1: float) -> CenterState:
    """One Newton step with Nesterov-Todd scalings toward the kappa1 center.

    Solves the coupled system for the D increment (with Delta R = -Delta D,
    Delta S = kappa1 Delta D, Delta X = Delta Z + kappa1 Delta Y), projected
    onto diagonal coordinates in diagonal-restricted mode.
    """
    if abs(kappa1 - state.kappa) > 1e-9 * max(1.0, abs(state.kappa)):
        raise ValueError("state must already be feasible at kappa1; "
                         "apply shift_state first")
    n = state.D.shape[0]
    scal = nt_scalings(state)
    ui, vi, wi = inv_pd(scal.U), inv_pd(scal.V), inv_pd(scal.W)
    z_rhs = inv_pd(state.D) - state.Z
    y_rhs = inv_pd(state.S) - state.Y
    x_rhs = inv_pd(state.R) - state.X
    rhs = z_rhs + kappa1 * y_rhs - x_rhs

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
    if chol_pd(new.R) is None or chol_pd(new.S) is None or \
            chol_pd(new.D) is None:
        raise StepTooLargeError(
            "NT step left the cone; proximity exceeded the step's basin")
    return new


def _potential(m_arr, kappa, d):
    barrier = _one_sided(m_arr, kappa)
    state = barrier.factor(d)
    return None if state is None else barrier.value(state)


@serial_blas()
def solve_right_pr(m: SymMatrix, config: PRConfig | None = None,
                   mode: str = "approximate") -> tuple[DiagScaling, SolveReport]:
    """Right preconditioner for M = A^T A by potential reduction.

    mode='exact' re-centers fully after each kappa decrease; 'approximate'
    performs exactly one NT Newton step. Starts at kappa = 1.01 kappa(M)
    from the uniform interior point; terminates on three consecutive outer
    steps with relative progress below kappa_tol, or after 10,000 steps.
    """
    if mode not in ("exact", "approximate"):
        raise ValueError("mode must be 'exact' or 'approximate'")
    config = config or PRConfig()
    t0 = time.perf_counter()
    m_arr = m.mat
    kappa_m = condition_number(m)
    kappa = kappa_m * 1.01
    center_tol = 1e-9 * max(1.0, float(np.abs(np.diag(m_arr)).max()))

    bp = compute_center(m, kappa, initial_feasible_point(m, kappa),
                        tol=center_tol)
    d = bp.d
    beta = config.beta
    trajectory = [(kappa, _potential(m_arr, kappa, d), beta)]
    small_progress = 0
    failed_attempts = 0
    clean_steps = 0
    iterations = 0

    while iterations < _MAX_OUTER:
        iterations += 1
        try:
            state = _state_at(m_arr, kappa, np.diag(d), MODE_DIAG)
        except NotPositiveDefiniteError:
            raise StagnationError("iterate lost definiteness",
                                  {"kappa": kappa}) from None
        dk = beta / float(np.sum(d * np.diag(state.Y)))
        if kappa - dk <= 1.0:
            dk = 0.5 * (kappa - 1.0)
            if dk <= 1e-15 * kappa:
                break
        kappa_new = kappa - dk

        try:
            if mode == "exact":
                start = BarrierPoint(m, kappa_new, d)
                d_new = compute_center(m, kappa_new, start,
                                       tol=center_tol).d
            else:
                stepped = nt_step(shift_state(state, dk), kappa_new)
                d_new = np.diag(stepped.D).copy()
                if np.any(d_new <= 0):
                    raise StepTooLargeError("diagonal left positivity")
        except (StepTooLargeError, CenteringError,
                NotPositiveDefiniteError, ValueError):
            beta *= 0.5
            clean_steps = 0
            failed_attempts += 1
            if beta < 1e-12 or failed_attempts >= 50:
                raise StagnationError(
                    "no strict progress for 50 attempts",
                    {"kappa": kappa, "beta": beta,
                     "failed_attempts": failed_attempts})
            continue

        failed_attempts = 0
        kappa, d = kappa_new, d_new
        trajectory.append((kappa, _potential(m_arr, kappa, d), beta))
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
        DiagScaling(d, side=SIDE_RIGHT), iterations,
        {"kappa_terminal": kappa,
         "potential_trajectory": [[k, p, b] for (k, p, b) in trajectory]})
