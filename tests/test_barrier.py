import numpy as np
import pytest

from optiprecond import (
    BarrierPoint,
    InfeasiblePointError,
    PhaseIConfig,
    RectMatrix,
    SymMatrix,
    barrier_gradient,
    barrier_hessian,
    barrier_value,
    compute_center,
    feasibility_margin,
    initial_feasible_point,
    two_sided_feasibility,
)
from optiprecond.barrier import _one_sided, _two_sided
from optiprecond.dsdp import build_left, build_right
from conftest import grid_optimal_two_sided_3x3, random_spd

# root of -12 d^2 + 10 d - 1 inside (1/4, 1): the 1x1, kappa=4 center
SCALAR_CENTER = (10 + np.sqrt(52)) / 24
# barrier value there, frozen from a 40-digit evaluation of the closed form
SCALAR_CENTER_VALUE = -0.9701193209714584


def scalar_point():
    m = SymMatrix([[1.0]])
    return m, BarrierPoint(m, 4.0, np.array([SCALAR_CENTER]))


def test_barrier_point_requires_strict_feasibility():
    m = SymMatrix([[1.0]])
    with pytest.raises(InfeasiblePointError):
        BarrierPoint(m, 4.0, np.array([1.5]))     # M - D indefinite
    with pytest.raises(InfeasiblePointError):
        BarrierPoint(m, 4.0, np.array([0.1]))     # kappa D - M indefinite
    with pytest.raises(InfeasiblePointError):
        BarrierPoint(m, 4.0, np.array([-0.5]))    # d not positive


def test_barrier_value_scalar_case():
    m, p = scalar_point()
    assert barrier_value(m, p) == pytest.approx(SCALAR_CENTER_VALUE,
                                                rel=1e-12)


def test_barrier_value_separable_identity():
    n, kappa, c = 4, 3.0, 0.6
    m = SymMatrix.identity(n)
    p = BarrierPoint(m, kappa, np.full(n, c))
    expect = n * (np.log(1 - c) + np.log(kappa * c - 1) + np.log(c))
    assert barrier_value(m, p) == pytest.approx(expect, rel=1e-12)


def test_barrier_value_finite_on_feasible(rng):
    m = random_spd(6, rng)
    kappa = 100.0
    p = initial_feasible_point(m, kappa)
    assert np.isfinite(barrier_value(m, p))


def test_barrier_gradient_zero_at_scalar_center():
    m, p = scalar_point()
    assert abs(barrier_gradient(m, p)[0]) < 1e-8


def test_barrier_gradient_diagonal_closed_form():
    # for diagonal M the FOC decouples into per-coordinate scalar roots
    mvals = np.array([2.0, 5.0])
    kappa = 4.0
    m = SymMatrix.diagonal(mvals)
    d = mvals * SCALAR_CENTER      # scalar solution scales linearly
    g = barrier_gradient(m, BarrierPoint(m, kappa, d))
    assert np.abs(g).max() < 1e-8


def test_barrier_gradient_matches_finite_differences(rng):
    m = random_spd(5, rng, cond=20.0)
    kappa = 3.0 * np.linalg.cond(m.mat)
    p = compute_center(m, kappa, initial_feasible_point(m, kappa))
    d0 = p.d * (1 + 0.05 * rng.uniform(-1, 1, 5))
    point = BarrierPoint(m, kappa, d0)
    g = barrier_gradient(m, point)
    h = 1e-6 * np.abs(d0)
    for i in range(5):
        e = np.zeros(5)
        e[i] = h[i]
        plus = barrier_value(m, BarrierPoint(m, kappa, d0 + e))
        minus = barrier_value(m, BarrierPoint(m, kappa, d0 - e))
        fd = (plus - minus) / (2 * h[i])
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_barrier_hessian_scalar_closed_form():
    m, p = scalar_point()
    d = SCALAR_CENTER
    expect = -(1 / (1 - d) ** 2 + 16 / (4 * d - 1) ** 2 + 1 / d ** 2)
    assert barrier_hessian(m, p).mat[0, 0] == pytest.approx(expect,
                                                            rel=1e-12)


def test_barrier_hessian_diagonal_for_diagonal_m():
    m = SymMatrix.diagonal([2.0, 5.0])
    p = BarrierPoint(m, 4.0, np.array([1.0, 2.5]))
    h = barrier_hessian(m, p).mat
    assert h[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_barrier_hessian_negative_definite(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = random_spd(n, rng, cond=30.0)
        kappa = 2.5 * np.linalg.cond(m.mat)
        center = compute_center(m, kappa, initial_feasible_point(m, kappa))
        d = center.d * np.exp(0.05 * rng.uniform(-1, 1, n))
        try:
            p = BarrierPoint(m, kappa, d)
        except InfeasiblePointError:
            continue
        w = np.linalg.eigvalsh(barrier_hessian(m, p).mat)
        assert w[-1] < 0


def test_barrier_hessian_matches_gradient_differences(rng):
    m = random_spd(4, rng, cond=10.0)
    kappa = 3.0 * np.linalg.cond(m.mat)
    p = compute_center(m, kappa, initial_feasible_point(m, kappa))
    d0 = p.d
    h_mat = barrier_hessian(m, BarrierPoint(m, kappa, d0)).mat
    step = 1e-6 * np.abs(d0)
    for j in range(4):
        e = np.zeros(4)
        e[j] = step[j]
        gp = barrier_gradient(m, BarrierPoint(m, kappa, d0 + e))
        gm = barrier_gradient(m, BarrierPoint(m, kappa, d0 - e))
        fd = (gp - gm) / (2 * step[j])
        assert np.allclose(h_mat[:, j], fd, rtol=1e-4, atol=1e-6)


def test_compute_center_scalar():
    m = SymMatrix([[1.0]])
    center = compute_center(m, 4.0, initial_feasible_point(m, 4.0),
                            tol=1e-12)
    assert center.d[0] == pytest.approx(SCALAR_CENTER, rel=1e-10)


def test_compute_center_diagonal_decouples():
    mvals = np.array([2.0, 5.0, 4.0])
    m = SymMatrix.diagonal(mvals)
    center = compute_center(m, 4.0, initial_feasible_point(m, 4.0),
                            tol=1e-12)
    assert np.allclose(center.d, mvals * SCALAR_CENTER, rtol=1e-9)


def test_compute_center_fixed_point(rng):
    m = random_spd(5, rng)
    kappa = 3.0 * np.linalg.cond(m.mat)
    center = compute_center(m, kappa, initial_feasible_point(m, kappa),
                            tol=1e-10)
    again = compute_center(m, kappa, center, tol=1e-10)
    assert np.allclose(again.d, center.d, rtol=1e-12, atol=1e-12)


def test_compute_center_foc(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = random_spd(n, rng, cond=100.0)
        kappa = 1.5 * np.linalg.cond(m.mat)
        center = compute_center(m, kappa, initial_feasible_point(m, kappa),
                                tol=1e-9)
        g = barrier_gradient(m, center)
        assert np.abs(g).max() <= 1e-9


def test_barrier_value_nondecreasing_along_newton(rng):
    m = random_spd(6, rng, cond=200.0)
    kappa = 1.2 * np.linalg.cond(m.mat)
    start = initial_feasible_point(m, kappa)
    v0 = barrier_value(m, start)
    center = compute_center(m, kappa, start)
    assert barrier_value(m, center) >= v0 - 1e-10 * (1 + abs(v0))


def test_initial_feasible_point_examples():
    p = initial_feasible_point(SymMatrix.identity(3), 2.0)
    assert np.allclose(p.d, 1 / np.sqrt(2))
    p = initial_feasible_point(SymMatrix.diagonal([4.0, 1.0]), 8.0)
    assert np.allclose(p.d, np.sqrt(4.0 / 8.0))
    with pytest.raises(InfeasiblePointError):
        initial_feasible_point(SymMatrix.diagonal([4.0, 1.0]), 4.0)


def test_feasibility_margin_identity():
    res = feasibility_margin(SymMatrix.identity(3), 2.0)
    assert res.margin == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert np.allclose(res.witness, 2.0 / 3.0, atol=1e-4)
    assert res.converged


def test_feasibility_margin_boundary_and_infeasible():
    boundary = feasibility_margin(SymMatrix.identity(2), 1.0)
    assert abs(boundary.margin) <= 1e-7
    neg = feasibility_margin(SymMatrix.identity(2), 0.5)
    assert neg.margin < -1e-7
    assert neg.margin == pytest.approx(-1.0 / 3.0, abs=1e-4)


def test_feasibility_margin_monotone_in_kappa(rng):
    for _ in range(5):
        m = random_spd(4, rng, cond=12.0)
        kappas = np.linspace(1.1, 40.0, 8)
        margins = [feasibility_margin(m, k).margin for k in kappas]
        diffs = np.diff(margins)
        assert np.all(diffs >= -1e-6 * max(1.0, np.abs(margins).max()))


def test_feasibility_margin_witness_slack():
    m = SymMatrix.identity(4)
    res = feasibility_margin(m, 3.0)
    assert res.margin > 0
    d = res.witness
    s1 = np.linalg.eigvalsh(m.mat - np.diag(d))[0]
    s2 = np.linalg.eigvalsh(3.0 * np.diag(d) - m.mat)[0]
    slack = min(s1, s2, d.min())
    assert slack >= res.margin * (1 - 1e-6)


def test_two_sided_feasibility_always_works_level(rng):
    a = RectMatrix(rng.standard_normal((5, 3)))
    gram = a.mat.T @ a.mat
    kappa0 = float(np.linalg.cond(gram))
    res = two_sided_feasibility(a, kappa0 * 1.0000001)
    assert res.margin >= -1e-7
    assert res.witness_left is not None


def test_two_sided_feasibility_diagonal():
    a = RectMatrix(np.diag([2.0, 1.0]))
    assert two_sided_feasibility(a, 1.05).margin > 1e-7
    assert two_sided_feasibility(a, 0.9).margin < -1e-7


def test_two_sided_feasibility_below_optimum(rng):
    a_arr = np.random.default_rng(5).standard_normal((3, 3))
    best = grid_optimal_two_sided_3x3(a_arr, levels=15, rounds=4)
    res = two_sided_feasibility(RectMatrix(a_arr), best * 0.9)
    assert res.margin < -1e-7
    res_above = two_sided_feasibility(RectMatrix(a_arr), best * 1.1)
    assert res_above.margin > -1e-7


def test_two_sided_witness_attains_margin(rng):
    a = RectMatrix(rng.standard_normal((4, 2)))
    kappa = float(np.linalg.cond(a.mat.T @ a.mat)) * 2
    res = two_sided_feasibility(a, kappa)
    assert res.margin > 0
    d1, d2 = res.witness_left, res.witness
    g = a.mat.T @ (d1[:, None] * a.mat)
    slack = min(
        np.linalg.eigvalsh(g - np.diag(d2))[0],
        np.linalg.eigvalsh(kappa * np.diag(d2) - g)[0],
        d1.min() - 1.0)
    assert slack >= res.margin * (1 - 1e-6)


def test_phase1_config_defaults():
    cfg = PhaseIConfig()
    assert cfg.outer_steps == 30
    assert cfg.boundary_tol == 1e-7


def _phase_one_one_sided(rng):
    m = random_spd(5, rng, cond=20.0)
    kappa = 3.0 * np.linalg.cond(m.mat)
    res = feasibility_margin(m, kappa)
    return _one_sided(m.mat, kappa, 0.5 * res.margin), res.witness


def _phase_one_two_sided(rng):
    a = RectMatrix(rng.standard_normal((6, 4)))
    kappa = 2.0 * np.linalg.cond(a.mat.T @ a.mat)
    res = two_sided_feasibility(a, kappa)
    barrier = _two_sided(a.mat, kappa, 0.5 * res.margin, 1e6)
    return barrier, np.concatenate([res.witness_left, res.witness])


def _dsdp_right(rng):
    p = build_right(random_spd(5, rng, cond=20.0))
    return p.barrier, p.start


def _dsdp_left(rng):
    p = build_left(RectMatrix(rng.standard_normal((7, 3))))
    return p.barrier, p.start


@pytest.mark.parametrize("make", [_phase_one_one_sided, _phase_one_two_sided,
                                  _dsdp_right, _dsdp_left])
def test_lmi_barrier_derivatives_match_finite_differences(make, rng):
    barrier, x0 = make(rng)
    x0 = x0 * (1 + 1e-3 * rng.uniform(-1, 1, x0.size))
    state = barrier.factor(x0)
    assert state is not None
    g, neg_h = barrier.derivatives(state)
    for i in range(x0.size):
        e = np.zeros(x0.size)
        e[i] = 1e-6 * abs(x0[i])
        plus, minus = barrier.factor(x0 + e), barrier.factor(x0 - e)
        fd = (barrier.value(plus) - barrier.value(minus)) / (2 * e[i])
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7), i
        fd_h = (barrier.derivatives(plus)[0]
                - barrier.derivatives(minus)[0]) / (2 * e[i])
        assert np.allclose(-neg_h[:, i], fd_h, rtol=1e-4,
                           atol=1e-6 * np.abs(neg_h).max()), i
