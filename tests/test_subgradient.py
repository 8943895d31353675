import numpy as np
import pytest

from optiprecond import NotPositiveDefiniteError, SymMatrix
from optiprecond.linalg import logcond_subgradient
from conftest import random_spd


def kappa_dmd(m_arr, d):
    dmd = d[:, None] * m_arr * d[None, :]
    w = np.linalg.eigvalsh(dmd)
    return w[-1] / w[0]


def test_subgradient_diagonal_structure():
    # for diagonal M at d = ones, the subgradient touches only the argmax
    # and argmin coordinates, with weights +-2/d_i
    m = SymMatrix.diagonal([4.0, 2.0, 1.0])
    g = logcond_subgradient(m, np.ones(3))
    assert g[0] == pytest.approx(2.0, rel=1e-12)
    assert g[2] == pytest.approx(-2.0, rel=1e-12)
    assert g[1] == pytest.approx(0.0, abs=1e-12)


def test_subgradient_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        logcond_subgradient(SymMatrix([[1.0, 2.0], [2.0, 1.0]]),
                            np.ones(2))


def test_subgradient_matches_finite_differences(rng):
    checked = 0
    for trial in range(200):
        local = np.random.default_rng(trial)
        n = int(local.integers(2, 7))
        m = random_spd(n, local, cond=float(local.uniform(3, 50)))
        d = local.uniform(1.0, 3.0, n)
        dmd = d[:, None] * m.mat * d[None, :]
        w = np.linalg.eigvalsh(dmd)
        # only instances with simple extreme eigenvalues
        if w[1] - w[0] < 1e-6 * w[-1] or w[-1] - w[-2] < 1e-6 * w[-1]:
            continue
        g = logcond_subgradient(m, d)
        h = 1e-6
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (np.log(kappa_dmd(m.mat, d + e))
                     - np.log(kappa_dmd(m.mat, d - e))) / (2 * h)
        assert np.abs(g - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def test_subgradient_first_order_lower_bound(rng):
    # log kappa(D + t h) >= log kappa(D) + t <g, h> - o(t) at simple eigenvalues
    m = random_spd(5, rng, cond=20.0)
    d = rng.uniform(1.2, 2.5, 5)
    g = logcond_subgradient(m, d)
    base = np.log(kappa_dmd(m.mat, d))
    for _ in range(20):
        h_dir = rng.standard_normal(5)
        for t in (1e-4, 1e-5):
            lhs = np.log(kappa_dmd(m.mat, d + t * h_dir))
            rhs = base + t * float(g @ h_dir)
            assert lhs >= rhs - 1e-7


def test_subgradient_vanishes_at_interior_optimum():
    # locate the 2x2 box-interior minimizer of log kappa(DMD) by grid
    # search; with simple eigenvalues the subgradient is unique there and
    # both independent directional derivatives vanish, so g ~ 0
    m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
    grid = np.linspace(1.0, 4.0, 4001)
    best = (np.inf, None)
    for r in grid:
        d = np.array([r, 1.5])
        k = kappa_dmd(m.mat, d)
        if k < best[0]:
            best = (k, d)
    d_star = best[1]
    # refine the first coordinate once more around the grid winner
    fine = np.linspace(d_star[0] - 2e-3, d_star[0] + 2e-3, 4001)
    for r in fine:
        d = np.array([r, 1.5])
        k = kappa_dmd(m.mat, d)
        if k < best[0]:
            best = (k, d)
    g = logcond_subgradient(m, best[1])
    # remove the scale-invariant component (g . d = 0 identically)
    assert abs(float(g @ best[1])) <= 1e-8
    assert np.abs(g).max() <= 1e-2

