"""Projected subgradient descent on log kappa(D M D) over the box I <= D <= C I."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .heuristics import DiagScaling, SIDE_RIGHT
from .linalg import SymMatrix, NotPositiveDefiniteError, condition_number
from .matrixio import SolveReport


@dataclass
class SubgradConfig:
    """Box bound C, step rule (1/k or 1/sqrt(k)), and iteration budget."""

    upper_bound: float = 10.0
    step_rule: str = "1/k"           # '1/k' | '1/sqrt(k)'
    max_iters: int = 2000

    def __post_init__(self):
        if self.upper_bound <= 1:
            raise ValueError("upper_bound must exceed 1")
        if self.step_rule not in ("1/k", "1/sqrt(k)"):
            raise ValueError("step_rule must be '1/k' or '1/sqrt(k)'")


def logcond_subgradient(m: SymMatrix, d) -> np.ndarray:
    """A subgradient of d -> log kappa(D M D) at the diagonal d.

    Uses vv^T in the subdifferential of lambda_max (and uu^T for
    lambda_min) through the chain rule on D M D:
    g_i = 2 v_i (M D v)_i / lambda_max - 2 u_i (M D u)_i / lambda_min.
    Eigenvalue ties are broken by the first eigenvector returned.
    """
    d = np.asarray(d, dtype=float)
    m_arr = m.mat
    dmd = d[:, None] * m_arr * d[None, :]
    w, vecs = scipy.linalg.eigh(0.5 * (dmd + dmd.T))
    lmin, u, lmax, v = float(w[0]), vecs[:, 0], float(w[-1]), vecs[:, -1]
    if lmin <= 0:
        raise NotPositiveDefiniteError("D M D is not positive definite")
    mdv = m_arr @ (d * v)
    mdu = m_arr @ (d * u)
    return 2.0 * v * mdv / lmax - 2.0 * u * mdu / lmin


def projected_subgradient_solve(m: SymMatrix,
                                config: SubgradConfig | None = None
                                ) -> tuple[DiagScaling, SolveReport]:
    """Minimize log kappa(D M D) by projected subgradient descent.

    The projection clamps the iterate into [1, C]; the best iterate seen is
    returned, so the result never exceeds the unscaled condition number.
    """
    config = config or SubgradConfig()
    t0 = time.perf_counter()
    m_arr = m.mat
    n = m.order

    def kappa_at(dv):
        try:
            return condition_number(dv[:, None] * m_arr * dv[None, :])
        except NotPositiveDefiniteError:
            return np.inf

    d = np.ones(n)
    best_d = d.copy()
    best_kappa = kappa_at(d)
    kappa_before = best_kappa
    for k in range(1, config.max_iters + 1):
        g = logcond_subgradient(m, d)
        alpha = 1.0 / k if config.step_rule == "1/k" else 1.0 / np.sqrt(k)
        d = np.clip(d - alpha * g, 1.0, config.upper_bound)
        kappa_now = kappa_at(d)
        if kappa_now < best_kappa:
            best_kappa = kappa_now
            best_d = d.copy()
    report = SolveReport(
        matrix="", method=f"subgradient[{config.step_rule}]",
        kappa_before=kappa_before, kappa_after=best_kappa,
        iterations=config.max_iters,
        wall_time_seconds=time.perf_counter() - t0,
        extra={"upper_bound": config.upper_bound})
    # translate D (applied as D M D) into the shared D^{-1/2} M D^{-1/2} form
    values = 1.0 / best_d ** 2
    values = values / values.max()
    return DiagScaling(values, side=SIDE_RIGHT), report
