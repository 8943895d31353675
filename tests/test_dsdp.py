import numpy as np
import pytest
import scipy.linalg.lapack

from optiprecond import (NotPositiveDefiniteError, RectMatrix, SymMatrix,
                         gram_matrix, solve_right_pr, two_sided_feasibility)
from optiprecond import dsdp
from optiprecond.barrier import CenteringError
from optiprecond.dsdp import barrier_path_solve, build_left, build_right
from optiprecond.optimal import OptimalRequest, optimal_left, optimal_right
from conftest import (grid_optimal_right, random_spd, scaled_kappa,
                      solve_right)


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


def _design_with_ratio(ratio):
    """A 5x3 design whose Gram matrix has lambda_min / lambda_max = ratio."""
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return RectMatrix((u * np.sqrt([1.0, 0.5, ratio])) @ q.T)


def test_full_rank_rule_boundary():
    # full rank means lambda_min > 1e-12 lambda_max, for every solver
    a = _design_with_ratio(1e-13)
    for solve in (lambda: build_right(gram_matrix(a)),
                  lambda: build_left(a),
                  lambda: two_sided_feasibility(a, 10.0),
                  lambda: solve_right_pr(gram_matrix(a))):
        with pytest.raises(NotPositiveDefiniteError):
            solve()
    a = _design_with_ratio(1e-10)
    assert build_right(gram_matrix(a)).kappa_before == \
        pytest.approx(1e10, rel=1e-3)
    assert build_left(a).kappa_before == pytest.approx(1e10, rel=1e-3)


def test_right_identity_and_diagonal():
    tau, d, rep = solve_right(SymMatrix.identity(3))
    assert tau == pytest.approx(1.0, abs=1e-6)
    tau, d, rep = solve_right(SymMatrix.diagonal([4.0, 1.0]))
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


def test_certified_gap_brackets_kappa(rng):
    # kappa_lb comes from a primal point repaired to exact feasibility; a
    # certified solve has kappa_lb <= kappa_after <= (1 + tol) kappa_lb
    problems = [build_right(random_spd(n, rng, cond=cond))
                for n in (1, 2, 5, 8, 20) for cond in (1.0, 30.0, 1e3)]
    for p in problems:
        tau, d, rep = barrier_path_solve(p)
        extra = rep.extra
        assert extra["certified"]
        assert extra["kappa_lower_bound"] <= rep.kappa_after == 1.0 / tau
        assert extra["gap_tolerance"] == dsdp.GAP_FLOOR
        assert rep.kappa_after <= (1 + dsdp.GAP_FLOOR) * \
            extra["kappa_lower_bound"]
        assert extra["certified_gap"] == pytest.approx(
            rep.kappa_after / extra["kappa_lower_bound"] - 1.0, abs=1e-15)
        assert rep.iterations == extra["newton_steps"] <= 20


def test_ill_conditioned_right_solves_certify(rng):
    # at kappa(M) = 1e6 to 1e9 every draw reaches the floor gap: the left
    # form on the Cholesky factor keeps both cones normalized to I
    reports = [barrier_path_solve(build_right(random_spd(n, rng, cond=c)),
                                  1e-8)[2]
               for n in (2, 3, 5, 8) for c in (1e6, 1e9)]
    for rep in reports:
        extra = rep.extra
        assert extra["kappa_lower_bound"] <= rep.kappa_after
        assert extra["gap_tolerance"] == 1e-8
        assert extra["certified"]
        assert extra["certified_gap"] <= 1e-8


def test_report_keys(rng):
    tau, d, rep = barrier_path_solve(build_right(random_spd(4, rng)))
    assert {"kappa_lower_bound", "certified_gap", "certified",
            "newton_steps", "step_reductions"} <= set(rep.extra)
    assert not {"mu_final", "duality_gap_proxy", "tau_path"} & \
        set(rep.extra)


def test_scale_equivariance(rng):
    m = random_spd(5, rng, cond=40.0)
    tau1, d1, _ = solve_right(m)
    c = 37.5
    tau2, d2, _ = solve_right(SymMatrix(c * m.mat))
    assert tau2 == pytest.approx(tau1, rel=1e-8)
    assert np.allclose(d2, c * d1, rtol=1e-8)


def test_right_kappa_after_measured(rng):
    m = random_spd(10, rng, cond=500.0)
    tau, d, rep = solve_right(m)
    assert scaled_kappa(m.mat, d) == pytest.approx(1.0 / tau, rel=1e-6)


def test_gap_tolerance_respected(rng):
    # the request's epsilon is the stop rule: a looser gap stops sooner,
    # and no request stops beyond the floor of 1e-8
    m = random_spd(6, rng, cond=50.0)

    def solve(eps):
        return optimal_right(m, OptimalRequest(method="dsdp",
                                               epsilon=eps))[1]

    tight, loose, beyond = solve(1e-8), solve(1e-3), solve(1e-12)
    assert loose.extra["certified"]
    assert loose.extra["gap_tolerance"] == 1e-3
    assert 1e-8 < loose.extra["certified_gap"] <= 1e-3
    assert loose.iterations < tight.iterations
    assert tight.extra["certified_gap"] <= 1e-8
    assert beyond.extra["gap_tolerance"] == tight.extra["gap_tolerance"] \
        == dsdp.GAP_FLOOR
    assert beyond.kappa_after == tight.kappa_after


def test_step_lengths_reuse_the_iterate_factors(monkeypatch):
    # one optimal_left solve: no generalized eigensolve; per iteration one
    # dpotrf of each X cone, shared by the predictor's and the corrector's
    # step lengths, on top of the Schur matrix and the two Z cones of the
    # next dual point; one Cholesky test per cone per step length, and a
    # dsygst only right after a test that failed
    a = RectMatrix(np.random.default_rng(5).standard_normal((30, 5)))
    calls = []
    dpotrf, dsygst = scipy.linalg.lapack.dpotrf, scipy.linalg.lapack.dsygst

    def counted_dpotrf(mat, *args, **kwargs):
        out = dpotrf(mat, *args, **kwargs)
        calls.append(("dpotrf", mat.shape[0], out[1] == 0))
        return out

    def counted_dsygst(*args, **kwargs):
        calls.append(("dsygst", args[0].shape[0]))
        return dsygst(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("generalized eigensolve")

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counted_dpotrf)
    monkeypatch.setattr(scipy.linalg.lapack, "dsygst", counted_dsygst)
    for name in ("dsygv", "dsygvd", "dsygvx"):
        monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
    _, rep = optimal_left(a, OptimalRequest(epsilon=1e-8))
    iterations = rep.iterations
    assert rep.extra["certified"] and iterations > 5
    orders = [c[1] for c in calls if c[0] == "dpotrf"]
    assert orders.count(31) == iterations    # one Schur factor each
    # the start's two Z cones, then per iteration two X and two Z cones,
    # and a test of each of the four cones for the predictor and the
    # corrector
    assert orders.count(5) == 2 + 12 * iterations
    reduced = [k for k, c in enumerate(calls) if c[0] == "dsygst"]
    failed = [k for k, c in enumerate(calls) if c == ("dpotrf", 5, False)]
    assert [k - 1 for k in reduced] == failed
    assert [calls[k] for k in reduced] == [("dsygst", 5)] * len(reduced)
    assert len(reduced) == rep.extra["step_reductions"]
    assert 0 < len(reduced) < 8 * iterations


def test_primal_starts_are_strictly_feasible(rng):
    # A(X) = -c with X > 0 and bound multipliers v > 0, so the repaired
    # bound at the start is the start's own primal objective
    for p in (build_right(random_spd(5, rng, cond=20.0)),
              build_left(RectMatrix(rng.standard_normal((7, 3))))):
        xs, v = p.primal_start
        assert np.all(v > 0)
        assert all(np.linalg.eigvalsh(x)[0] > 0 for x in xs)
        target = np.zeros(p.barrier.nvar)
        target[0] = -1.0
        assert np.allclose(p.barrier.adjoint(xs, v), target, atol=1e-14)
        objective = sum(np.sum(f0 * x) for (f0, _), x in
                        zip(p.barrier.cones, xs))
        assert p.tau_bound(xs) == pytest.approx(objective, rel=1e-14)


def test_build_left_refuses_a_zero_row(rng):
    a = rng.standard_normal((6, 3))
    a[2] = 0.0
    with pytest.raises(ValueError, match="zero row"):
        build_left(RectMatrix(a))


def test_infeasible_start_raises_centering_error():
    # tau = 2 needs 2 I <= L^T W L <= I: no strictly feasible dual start
    p = build_right(SymMatrix.identity(3))
    p.start[0] = 2.0
    with pytest.raises(CenteringError, match="strictly feasible start"):
        barrier_path_solve(p)
