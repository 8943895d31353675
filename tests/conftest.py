"""Shared helpers: random SPD instances, dsdp right solves, grid-search
oracles, perturbed centers, the centering barrier at a point."""

import numpy as np
import pytest

from optiprecond import SymMatrix
from optiprecond.dsdp import GAP_FLOOR, barrier_path_solve, build_right
from optiprecond.linalg import sym_pow
from optiprecond.potential import (CenterState, _barrier_derivatives,
                                   _barrier_value, _region_factors,
                                   state_from_center)


def random_spd(n, rng, cond=50.0):
    """SPD matrix with a log-uniform spectrum and random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.geomspace(1.0, cond, n)
    return SymMatrix((q * w) @ q.T)


def solve_right(m, gap_tol=GAP_FLOOR):
    """(tau, d, report) of barrier_path_solve on build_right(m), with d =
    tau / w: tau I <= L^T W L <= I is D <= M <= D / tau in these d."""
    tau, w, report = barrier_path_solve(build_right(m), gap_tol)
    return tau, tau / w, report


def region_value(m_arr, kappa, d):
    """compute_center's barrier log det R + log det S + sum log d at a
    strictly feasible d."""
    return _barrier_value(d, _region_factors(m_arr, kappa, d)[1])


def region_derivatives(m_arr, kappa, d):
    """compute_center's gradient and negated Hessian at a strictly
    feasible d."""
    return _barrier_derivatives(kappa, d, _region_factors(m_arr, kappa, d)[1])


def random_sym(n, rng):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def scaled_kappa(m_arr, d):
    """kappa of D^{-1/2} M D^{-1/2} for a raw diagonal vector d."""
    s = 1.0 / np.sqrt(np.asarray(d, dtype=float))
    w = np.linalg.eigvalsh(s[:, None] * m_arr * s[None, :])
    return float(w[-1] / w[0])


def grid_optimal_right(m_arr, levels=241, rounds=6, span=3.0):
    """Brute-force right-preconditioning optimum over log-spaced ratios.

    The first diagonal entry is pinned to 1 (scale invariance); the rest
    range over a log grid that shrinks around the best point each round.
    Exact enough for the 1e-3 comparisons at n = 2, 3.
    """
    n = m_arr.shape[0]
    center = np.zeros(n - 1)
    best_kappa = np.inf
    width = span
    for _ in range(rounds):
        axes = [center[i] + np.linspace(-width, width, levels)
                for i in range(n - 1)]
        grids = np.meshgrid(*axes, indexing="ij")
        logd = np.stack([g.reshape(-1) for g in grids], axis=1)
        d = np.concatenate(
            [np.ones((logd.shape[0], 1)), 10.0 ** logd], axis=1)
        s = 1.0 / np.sqrt(d)
        scaled = s[:, :, None] * m_arr[None, :, :] * s[:, None, :]
        w = np.linalg.eigvalsh(scaled)
        kappas = w[:, -1] / w[:, 0]
        idx = int(np.argmin(kappas))
        if kappas[idx] < best_kappa:
            best_kappa = float(kappas[idx])
            center = logd[idx]
        width = width * 4.0 / levels
    return best_kappa


def grid_optimal_two_sided_3x3(a_arr, levels=21, rounds=5, span=3.0):
    """Joint (d1, d2) grid oracle for 3x3 two-sided preconditioning.

    Both scalings are pinned at their first entry (two scale invariances),
    leaving a 4-d log grid with local refinement; each round evaluates the
    whole grid in one batched eigenvalue call.
    """
    center = np.zeros(4)
    best_kappa = np.inf
    width = span
    for _ in range(rounds):
        axes = [center[i] + np.linspace(-width, width, levels)
                for i in range(4)]
        g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        d1 = np.stack([np.ones(g1.size), 10.0 ** g1.reshape(-1),
                       10.0 ** g2.reshape(-1)], axis=1)       # (L^2, 3)
        grams = np.einsum("ki,bk,kj->bij", a_arr, d1, a_arr)  # (L^2, 3, 3)
        b1, b2 = np.meshgrid(axes[2], axes[3], indexing="ij")
        d2 = np.stack([np.ones(b1.size), 10.0 ** b1.reshape(-1),
                       10.0 ** b2.reshape(-1)], axis=1)       # (L^2, 3)
        s = 1.0 / np.sqrt(d2)
        weights = s[:, :, None] * s[:, None, :]               # (L^2, 3, 3)
        scaled = grams[:, None, :, :] * weights[None, :, :, :]
        w = np.linalg.eigvalsh(scaled.reshape(-1, 3, 3))
        ok = w[:, 0] > 0
        kappas = np.where(ok, w[:, -1] / np.where(ok, w[:, 0], 1.0), np.inf)
        idx = int(np.argmin(kappas))
        if kappas[idx] < best_kappa:
            best_kappa = float(kappas[idx])
            i1, i2 = divmod(idx, d2.shape[0])
            center = np.array([np.log10(d1[i1, 1]), np.log10(d1[i1, 2]),
                               np.log10(d2[i2, 1]), np.log10(d2[i2, 2])])
        width = width * 4.0 / levels
    return best_kappa


def perturbed_center_state(m, kappa, delta_target, rng):
    """Full-matrix approximate center with max proximity exactly delta_target.

    Perturbs D away from the exact center (which shows up in delta_RX via
    the first-order-condition residual) and adds dual-side noise, keeping
    the linear identity Z + kappa Y = X exact throughout.
    """
    st = state_from_center(m, kappa)
    n = st.D.shape[0]
    e_dir = random_sym(n, rng)
    e_dir /= np.linalg.norm(e_dir, ord="fro")

    def with_d_shift(t):
        d_new = st.D + t * e_dir
        r = m.mat - d_new
        s = kappa * d_new - m.mat
        wr = np.linalg.eigvalsh(r)
        ws = np.linalg.eigvalsh(s)
        wd = np.linalg.eigvalsh(d_new)
        if min(wr[0], ws[0], wd[0]) <= 0:
            return None
        y = sym_pow(s, -1.0)
        z = sym_pow(d_new, -1.0)
        x = z + kappa * y
        return CenterState(m=m.mat, kappa=kappa, D=d_new, X=x, Y=y, Z=z)

    # bisect the D-shift so the FOC residual contributes ~60% of the target
    lo, hi = 0.0, 1.0
    while with_d_shift(hi) is not None and hi < 1e6:
        hi *= 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cand = with_d_shift(mid)
        if cand is not None and max(cand.deltas()) <= 0.6 * delta_target:
            lo = mid
        else:
            hi = mid
    base = with_d_shift(lo)
    assert base is not None

    p_dir = random_sym(n, rng)
    q_dir = random_sym(n, rng)
    s_ih = sym_pow(base.S, -0.5)
    d_ih = sym_pow(base.D, -0.5)
    p_unit = s_ih @ p_dir @ s_ih / np.linalg.norm(p_dir, ord="fro")
    q_unit = d_ih @ q_dir @ d_ih / np.linalg.norm(q_dir, ord="fro")

    def with_noise(u):
        y = base.Y + u * p_unit
        z = base.Z + u * q_unit
        x = z + kappa * y
        return CenterState(m=m.mat, kappa=kappa, D=base.D, X=x, Y=y, Z=z)

    lo_u, hi_u = 0.0, 1.0
    while max(with_noise(hi_u).deltas()) < delta_target and hi_u < 1e6:
        hi_u *= 2
    for _ in range(60):
        mid = 0.5 * (lo_u + hi_u)
        if max(with_noise(mid).deltas()) <= delta_target:
            lo_u = mid
        else:
            hi_u = mid
    state = with_noise(lo_u)
    return state, max(state.deltas())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
