"""Preconditioned conjugate gradient, sampling sweeps, and the concentration
experiment behind the benchmark tables."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .heuristics import DiagScaling, apply_scaling
from .linalg import (SymMatrix, NotPositiveDefiniteError, condition_number,
                     serial_blas, sym_pow)
from .matrixio import RectMatrix, SolveReport, gram_matrix, sample_rows
from .optimal import OptimalRequest, optimal_right


class PcgBreakdownError(RuntimeError):
    """p^T M p <= 0 during CG; the operator is not positive definite."""


@dataclass
class PcgResult:
    iterations: int
    converged: bool
    final_relative_residual: float
    residual_history: list = field(default_factory=list)


@serial_blas()
def pcg(m: SymMatrix, rhs=None, precond: DiagScaling | None = None,
        tol: float = 1e-6, max_iters: int | None = None,
        seed_for_rhs: int = 0) -> PcgResult:
    """Conjugate gradient on the diagonally scaled system.

    The preconditioner is applied by explicit congruence, solving
    D^{-1/2} M D^{-1/2} y = D^{-1/2} b; convergence means the scaled
    relative residual drops to tol.
    """
    scaled = apply_scaling(m, precond).mat
    n = scaled.shape[0]
    if rhs is None:
        rhs = np.random.default_rng(seed_for_rhs).standard_normal(n)
    else:
        rhs = np.asarray(rhs, dtype=float)
    b = rhs if precond is None else rhs / np.sqrt(precond.values)
    if max_iters is None:
        max_iters = 10 * n

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0:
        return PcgResult(0, True, 0.0, [0.0])
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    history = [np.sqrt(rs) / bnorm]
    iterations = 0
    converged = history[0] <= tol
    while not converged and iterations < max_iters:
        ap = scaled @ p
        curvature = float(p @ ap)
        if curvature <= 0:
            raise PcgBreakdownError(
                f"nonpositive curvature {curvature:.3e}; matrix not PD")
        alpha = rs / curvature
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        iterations += 1
        rel = np.sqrt(rs_new) / bnorm
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return PcgResult(iterations=iterations, converged=converged,
                     final_relative_residual=history[-1],
                     residual_history=history)


def pcg_compare(m: SymMatrix, scalings: dict, tol: float = 1e-6,
                seed: int = 0, max_iters: int | None = None
                ) -> list[SolveReport]:
    """Run PCG once per named scaling (plus 'none') on one shared seeded RHS."""
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(m.order)
    kappa_plain = condition_number(m)
    reports = []
    named = {"none": None, **scalings}
    for name, scaling in named.items():
        t0 = time.perf_counter()
        result = pcg(m, rhs=rhs, precond=scaling, tol=tol,
                     max_iters=max_iters)
        kappa_after = kappa_plain if scaling is None else \
            condition_number(apply_scaling(m, scaling))
        reports.append(SolveReport(
            matrix="", method=f"pcg[{name}]",
            kappa_before=kappa_plain, kappa_after=kappa_after,
            iterations=result.iterations,
            wall_time_seconds=time.perf_counter() - t0,
            extra={"converged": result.converged,
                   "final_relative_residual":
                       result.final_relative_residual}))
    return reports


@dataclass
class SamplingPoint:
    """One row-sampling ratio: Gram estimation gap and resulting kappa."""

    ratio: float
    gram_gap: float
    kappa_preconditioned: float
    rank_deficient: bool = False


def sampling_sweep(a: RectMatrix, ratios, seed: int = 0,
                   req: OptimalRequest | None = None) -> list[SamplingPoint]:
    """Solve the right problem on sampled rows, evaluate on the full Gram.

    For each ratio, samples round(ratio*m) rows without replacement, solves
    for the optimal right preconditioner of the sampled Gram, and measures
    kappa of the full Gram under that scaling. The sampled Gram is rescaled
    by m/m_tilde in the reported estimation gap so it estimates the full
    Gram. Rank-deficient samples are flagged, not fatal.
    """
    req = req or OptimalRequest(method="dsdp")
    m_rows = a.rows
    full_gram = gram_matrix(a)
    points = []
    for index, ratio in enumerate(ratios):
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio {ratio} outside (0, 1]")
        count = max(1, int(round(ratio * m_rows)))
        point_seed = seed * 1_000_003 + index
        sampled = sample_rows(a, count, point_seed)
        sub = sampled.mat
        sub_gram = sub.T @ sub
        gap = float(np.linalg.norm(
            full_gram.mat - (m_rows / count) * sub_gram, ord="fro"))
        w = scipy.linalg.eigvalsh(sub_gram)
        if w[0] <= 1e-12 * max(w[-1], 0.0):
            points.append(SamplingPoint(ratio=float(ratio), gram_gap=gap,
                                        kappa_preconditioned=float("nan"),
                                        rank_deficient=True))
            continue
        scaling, _ = optimal_right(SymMatrix(0.5 * (sub_gram + sub_gram.T)),
                                   req)
        kappa_full = condition_number(apply_scaling(full_gram, scaling))
        points.append(SamplingPoint(ratio=float(ratio), gram_gap=gap,
                                    kappa_preconditioned=kappa_full))
    return points


def concentration_experiment(p: int, n_grid, sigma_spec, trials: int,
                             seed: int = 0) -> list[dict]:
    """Mean gap between kappa(X^T X)/kappa(Sigma) and its column-normalized
    counterpart, per sample size.

    Rows of X are N(0, Sigma). The normalized matrix is X0 = X Dhat^{-1/2}
    with Dhat the squared sample column norms, compared against the
    population normalization D = diag(Sigma). Singular draws are redrawn at
    most 3 times.
    """
    sigma = np.asarray(sigma_spec, dtype=float)
    if sigma.ndim == 1:
        sigma = np.diag(sigma)
    if sigma.shape != (p, p):
        raise ValueError("sigma_spec must be length p or a p x p matrix")
    sigma_half = sym_pow(sigma, 0.5)
    kappa_sigma = condition_number(sigma)
    d_pop = np.diag(sigma)
    s = 1.0 / np.sqrt(d_pop)
    kappa_sigma_scaled = condition_number(s[:, None] * sigma * s[None, :])

    table = []
    for n_index, n in enumerate(n_grid):
        if n <= p:
            raise ValueError(f"grid point n={n} must exceed p={p}")
        gaps = []
        for t in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed,
                                       spawn_key=(n_index, t)))
            for attempt in range(4):
                x = rng.standard_normal((n, p)) @ sigma_half
                xtx = x.T @ x
                w = scipy.linalg.eigvalsh(xtx)
                if w[0] > 1e-12 * w[-1]:
                    break
            else:
                raise NotPositiveDefiniteError(
                    f"sample Gram singular after 4 draws at n={n}")
            ratio_raw = (w[-1] / w[0]) / kappa_sigma
            dhat = np.diag(xtx)
            sh = 1.0 / np.sqrt(dhat)
            x0tx0 = sh[:, None] * xtx * sh[None, :]
            ratio_scaled = condition_number(x0tx0) / kappa_sigma_scaled
            gaps.append(abs(ratio_raw - ratio_scaled))
        table.append({"n": int(n), "mean_gap": float(np.mean(gaps)),
                      "trials": trials})
    return table
