import numpy as np
import pytest

from optiprecond import NotPositiveDefiniteError, RectMatrix, SymMatrix
from optiprecond.dsdp import (
    DsdpConfig,
    barrier_path_solve,
    build_left,
    build_right,
)
from conftest import grid_optimal_right, random_spd, scaled_kappa


def test_build_right_requires_pd():
    with pytest.raises(NotPositiveDefiniteError):
        build_right(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))
    p = build_right(SymMatrix.identity(3))
    assert p.side == "right"
    assert p.start.size == 1 + 3


def test_build_left_requires_rank_and_shape(rng):
    with pytest.raises(ValueError):
        build_left(RectMatrix(np.array([[1.0, 0.0], [2.0, 0.0],
                                        [3.0, 0.0]])))
    with pytest.raises(ValueError):
        build_left(RectMatrix(rng.standard_normal((2, 5))))
    p = build_left(RectMatrix(rng.standard_normal((6, 3))))
    assert p.start.size == 1 + 6


def test_right_identity_and_diagonal():
    tau, d, rep = barrier_path_solve(build_right(SymMatrix.identity(3)))
    assert tau == pytest.approx(1.0, abs=1e-6)
    tau, d, rep = barrier_path_solve(
        build_right(SymMatrix.diagonal([4.0, 1.0])))
    assert tau == pytest.approx(1.0, abs=1e-6)
    assert d[0] / d[1] == pytest.approx(4.0, rel=1e-5)


def test_right_matches_grid_oracle():
    m = np.array([[1.0, 0.5], [0.5, 2.0]])
    oracle = grid_optimal_right(m)
    tau, d, rep = barrier_path_solve(build_right(SymMatrix(m)))
    assert 1.0 / tau == pytest.approx(oracle, rel=1e-3)


def test_left_identity_and_square_diagonal():
    tau, d, rep = barrier_path_solve(build_left(RectMatrix(np.eye(3))))
    assert tau == pytest.approx(1.0, abs=1e-6)
    tau, d, rep = barrier_path_solve(
        build_left(RectMatrix(np.diag([3.0, 1.0]))))
    assert tau == pytest.approx(1.0, abs=1e-6)
    # d proportional to diag(A)^{-2}
    assert d[1] / d[0] == pytest.approx(9.0, rel=1e-5)


def test_left_orthogonal_rows_whiten(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = np.diag([3.0, 1.0, 0.5]) @ q.T    # orthogonal rows, unequal norms
    tau, d, rep = barrier_path_solve(build_left(RectMatrix(a)))
    assert tau == pytest.approx(1.0, abs=1e-5)


def test_left_never_worse_than_unpreconditioned(rng):
    for _ in range(5):
        a = rng.standard_normal((5, 2))
        tau, d, rep = barrier_path_solve(build_left(RectMatrix(a)))
        kappa_plain = np.linalg.cond(a.T @ a)
        assert 1.0 / tau <= kappa_plain + 1e-6
        scaled = a.T @ (d[:, None] * a)
        w = np.linalg.eigvalsh(scaled)
        assert w[-1] / w[0] <= 1.0 / tau * (1 + 1e-6)


def test_path_tau_nondecreasing(rng):
    m = random_spd(8, rng, cond=100.0)
    tau, d, rep = barrier_path_solve(build_right(m))
    taus = rep.extra["tau_path"]
    assert all(b >= a - 1e-12 for a, b in zip(taus, taus[1:]))


def test_gap_proxy_reported(rng):
    m = random_spd(4, rng)
    tau, d, rep = barrier_path_solve(build_right(m))
    assert rep.extra["mu_final"] <= 1e-9
    assert rep.extra["duality_gap_proxy"] == pytest.approx(
        rep.extra["mu_final"] * 3 * 4)


def test_scale_equivariance(rng):
    m = random_spd(5, rng, cond=40.0)
    tau1, d1, _ = barrier_path_solve(build_right(m))
    c = 37.5
    tau2, d2, _ = barrier_path_solve(build_right(SymMatrix(c * m.mat)))
    assert tau2 == pytest.approx(tau1, rel=1e-8)
    assert np.allclose(d2, c * d1, rtol=1e-8)


def test_right_kappa_after_measured(rng):
    m = random_spd(10, rng, cond=500.0)
    tau, d, rep = barrier_path_solve(build_right(m))
    assert scaled_kappa(m.mat, d) == pytest.approx(1.0 / tau, rel=1e-6)


def test_config_schedule_respected(rng):
    m = random_spd(3, rng)
    cfg = DsdpConfig(mu_init=1.0, mu_factor=10.0, mu_min=2e-6)
    tau, d, rep = barrier_path_solve(build_right(m), cfg)
    assert rep.iterations == 7   # stages at mu = 1, 1e-1, ..., 1e-6
    assert rep.extra["mu_final"] <= cfg.mu_min
