"""Preconditioned conjugate gradient, sampling sweeps, and the concentration
experiment behind the benchmark tables."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .heuristics import DiagScaling, apply_scaling
from .linalg import (SymMatrix, NotPositiveDefiniteError, condition_number,
                     extreme_eigenvalues, serial_blas, sym_pow)
from .matrixio import RectMatrix, SolveReport, gram_matrix, sample_rows
from .optimal import OptimalRequest, optimal_right


class PcgBreakdownError(RuntimeError):
    """p^T M p <= 0 during CG; the operator is not positive definite."""


@dataclass
class PcgResult:
    iterations: int
    converged: bool
    final_relative_residual: float


@serial_blas()
def pcg(m: SymMatrix, rhs, precond: DiagScaling | None = None,
        tol: float = 1e-6, max_iters: int | None = None) -> PcgResult:
    """Conjugate gradient on the diagonally scaled system M x = rhs.

    The preconditioner is applied by explicit congruence, solving
    D^{-1/2} M D^{-1/2} y = D^{-1/2} b; convergence means the scaled
    relative residual drops to tol. Returns the iteration count, whether
    it converged (a Python bool) and the last scaled relative residual; the
    iterate itself is not formed.

    In exact arithmetic CG stops within n iterations. In floating point the
    search directions lose conjugacy, so an ill-conditioned system can take
    more than n (53-59 at order 40 on the right-scaled gauss_cov Grams at
    tol 1e-6); max_iters therefore defaults to 10n. The count moves with
    rounding too: a scaling changed in its last digits can shift it by a
    few iterations.
    """
    scaled = apply_scaling(m, precond).mat
    n = scaled.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    b = rhs if precond is None else rhs / np.sqrt(precond.values)
    if max_iters is None:
        max_iters = 10 * n

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0:
        return PcgResult(0, True, 0.0)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    rel = np.sqrt(rs) / bnorm
    iterations = 0
    converged = bool(rel <= tol)
    while not converged and iterations < max_iters:
        ap = scaled @ p
        curvature = float(p @ ap)
        if curvature <= 0:
            raise PcgBreakdownError(
                f"nonpositive curvature {curvature:.3e}; matrix not PD")
        alpha = rs / curvature
        r -= alpha * ap
        rs_new = float(r @ r)
        iterations += 1
        rel = np.sqrt(rs_new) / bnorm
        if rel <= tol:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return PcgResult(iterations=iterations, converged=converged,
                     final_relative_residual=rel)


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


def sampling_sweep(a: RectMatrix, ratios, seed: int = 0
                   ) -> list[SamplingPoint]:
    """Solve the right problem on sampled rows, evaluate on the full Gram.

    For each ratio, samples round(ratio*m) rows without replacement, solves
    for the optimal right preconditioner of the sampled Gram, and measures
    kappa of the full Gram under that scaling; rows are those of a.tall(),
    as in gram_matrix. The sampled Gram is rescaled by m/m_tilde in the
    reported estimation gap so it estimates the full Gram. A sample whose
    Gram does not factor, or whose factor L fails the full-rank rule on
    L^T L, is flagged rank-deficient, not fatal.
    """
    req = OptimalRequest(method="dsdp")
    a = RectMatrix(a.tall())
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
        try:
            scaling, _ = optimal_right(SymMatrix(sub_gram), req)
        except NotPositiveDefiniteError:   # no L, or L^T L not full rank
            points.append(SamplingPoint(ratio=float(ratio), gram_gap=gap,
                                        kappa_preconditioned=float("nan"),
                                        rank_deficient=True))
            continue
        kappa_full = condition_number(apply_scaling(full_gram, scaling))
        points.append(SamplingPoint(ratio=float(ratio), gram_gap=gap,
                                    kappa_preconditioned=kappa_full))
    return points


def concentration_experiment(n_grid, sigma_spec, trials: int,
                             seed: int = 0) -> list[dict]:
    """Mean gap between kappa(X^T X)/kappa(Sigma) and its column-normalized
    counterpart, per sample size.

    Rows of X are N(0, Sigma); sigma_spec is the p x p Sigma or its length-p
    diagonal, and every n in n_grid must exceed p. The normalized matrix is
    X0 = X Dhat^{-1/2} with Dhat the squared sample column norms, compared
    against the population normalization D = diag(Sigma). Singular draws are
    redrawn at most 3 times.
    """
    sigma = np.asarray(sigma_spec, dtype=float)
    if sigma.ndim == 1:
        sigma = np.diag(sigma)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma_spec must be length p or a p x p matrix")
    p = sigma.shape[0]
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
                try:
                    lamn, lam1 = extreme_eigenvalues(xtx)
                    break
                except NotPositiveDefiniteError:
                    continue
            else:
                raise NotPositiveDefiniteError(
                    f"sample Gram singular after 4 draws at n={n}")
            ratio_raw = (lam1 / lamn) / kappa_sigma
            dhat = np.diag(xtx)
            sh = 1.0 / np.sqrt(dhat)
            x0tx0 = sh[:, None] * xtx * sh[None, :]
            ratio_scaled = condition_number(x0tx0) / kappa_sigma_scaled
            gaps.append(abs(ratio_raw - ratio_scaled))
        table.append({"n": int(n), "mean_gap": float(np.mean(gaps)),
                      "trials": trials})
    return table
