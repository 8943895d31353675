import numpy as np
import pytest

from optiprecond import (
    DiagScaling,
    RectMatrix,
    SymMatrix,
    concentration_experiment,
    jacobi_scaling,
    pcg,
    pcg_compare,
    sampling_sweep,
)
from optiprecond.bench import PcgBreakdownError
from optiprecond.linalg import chol_pd
from optiprecond.matrixio import sample_rows
from conftest import random_spd


def test_pcg_identity_one_iteration():
    res = pcg(SymMatrix.identity(5),
              rhs=np.random.default_rng(3).standard_normal(5))
    assert res.iterations == 1
    assert res.converged
    assert res.final_relative_residual <= 1e-6


def test_pcg_two_distinct_eigenvalues():
    m = SymMatrix.diagonal([3.0, 3.0, 8.0, 8.0, 8.0])
    res = pcg(m, rhs=np.random.default_rng(1).standard_normal(5))
    assert res.iterations <= 3
    assert res.converged


def test_pcg_breakdown_on_indefinite():
    with pytest.raises(PcgBreakdownError):
        pcg(SymMatrix([[1.0, 2.0], [2.0, 1.0]]),
            rhs=np.random.default_rng(0).standard_normal(2))


def test_pcg_exact_whitening_one_iteration(rng):
    d = np.exp(rng.standard_normal(6))
    m = SymMatrix.diagonal(d)
    res = pcg(m, rhs=np.random.default_rng(2).standard_normal(6),
              precond=DiagScaling(d))
    assert res.iterations == 1


def test_pcg_solves_system(rng):
    m = random_spd(10, rng, cond=50.0)
    rhs = rng.standard_normal(10)
    res = pcg(m, rhs=rhs, tol=1e-10)
    assert res.converged
    assert res.final_relative_residual <= 1e-10


def test_pcg_preconditioner_reduces_iterations(rng):
    m = random_spd(40, rng, cond=5e4)
    rhs = np.random.default_rng(5).standard_normal(40)
    plain = pcg(m, rhs=rhs, max_iters=5000)
    jac = pcg(m, rhs=rhs, precond=jacobi_scaling(m), max_iters=5000)
    assert jac.converged
    assert plain.iterations >= 1


def test_pcg_compare_identity_scalings(rng):
    m = random_spd(8, rng, cond=100.0)
    ones = DiagScaling(np.ones(8))
    reports = pcg_compare(m, {"a": ones, "b": ones}, seed=4)
    names = [r.method for r in reports]
    assert names == ["pcg[none]", "pcg[a]", "pcg[b]"]
    assert reports[1].iterations == reports[2].iterations == \
        reports[0].iterations


def test_pcg_compare_diagonal_fast(rng):
    d = np.exp(2 * rng.standard_normal(7))
    m = SymMatrix.diagonal(d)
    reports = pcg_compare(m, {"jacobi": jacobi_scaling(m)}, seed=1)
    jac = [r for r in reports if r.method == "pcg[jacobi]"][0]
    assert jac.iterations <= 2


def test_pcg_compare_deterministic(rng):
    m = random_spd(6, rng)
    sc = {"jacobi": jacobi_scaling(m)}
    r1 = pcg_compare(m, sc, seed=11)
    r2 = pcg_compare(m, sc, seed=11)
    assert [x.iterations for x in r1] == [x.iterations for x in r2]


def test_sampling_ratio_one_exact(rng):
    a = RectMatrix(rng.standard_normal((50, 4)))
    points = sampling_sweep(a, [1.0], seed=9)
    assert points[0].gram_gap == pytest.approx(0.0, abs=1e-9)
    from optiprecond import gram_matrix
    from optiprecond.optimal import OptimalRequest, optimal_right
    sc, rep = optimal_right(gram_matrix(a),
                            OptimalRequest(side="right", method="dsdp"))
    assert points[0].kappa_preconditioned == pytest.approx(rep.kappa_after,
                                                           rel=1e-9)


def test_sampling_deterministic(rng):
    a = RectMatrix(rng.standard_normal((60, 5)))
    p1 = sampling_sweep(a, [0.2, 0.5], seed=3)
    p2 = sampling_sweep(a, [0.2, 0.5], seed=3)
    assert [p.kappa_preconditioned for p in p1] == \
        [p.kappa_preconditioned for p in p2]
    assert [p.gram_gap for p in p1] == [p.gram_gap for p in p2]


def test_sampling_sweeps_a_wide_input_as_its_transpose():
    # the rows of a.tall(), the orientation gram_matrix uses: a 3x5 input
    # samples the 5 rows of its transpose
    a = np.random.default_rng(12).standard_normal((3, 5))
    wide = sampling_sweep(RectMatrix(a), [0.6, 1.0], seed=2)
    assert wide == sampling_sweep(RectMatrix(a.T), [0.6, 1.0], seed=2)
    assert wide[1].gram_gap == pytest.approx(0.0, abs=1e-12)


def test_sampling_rank_deficient_flagged():
    a = RectMatrix(np.vstack([np.eye(4), np.eye(4)]))
    # a 1-row sample of an 8x4 matrix cannot have full column rank
    points = sampling_sweep(a, [1.0 / 8.0], seed=0)
    assert points[0].rank_deficient
    assert np.isnan(points[0].kappa_preconditioned)


@pytest.mark.parametrize("seed, factors", [(0, False), (4, True)])
def test_sampling_flags_both_failures_of_a_rank_deficient_sample(seed,
                                                                 factors):
    # a 3-row sample of a 6x5 matrix has rank 3: its Gram does not factor
    # (seed 0), or it factors with a pivot at rounding level and the
    # full-rank rule refuses L^T L (seed 4)
    a = RectMatrix(np.random.default_rng(seed).standard_normal((6, 5)))
    sub = sample_rows(a, 3, 0).mat
    assert (chol_pd(sub.T @ sub) is not None) == factors
    points = sampling_sweep(a, [0.5], seed=0)
    assert points[0].rank_deficient
    assert np.isnan(points[0].kappa_preconditioned)


def test_sampling_rejects_bad_ratio(rng):
    a = RectMatrix(rng.standard_normal((10, 2)))
    with pytest.raises(ValueError):
        sampling_sweep(a, [0.0], seed=0)
    with pytest.raises(ValueError):
        sampling_sweep(a, [1.5], seed=0)


def test_concentration_identity_sigma_small_gap():
    table = concentration_experiment(n_grid=[200, 2000],
                                     sigma_spec=np.ones(3), trials=10,
                                     seed=1)
    assert table[1]["mean_gap"] < table[0]["mean_gap"]
    assert table[1]["mean_gap"] < 0.2


def test_concentration_gap_shrinks_with_n():
    table = concentration_experiment(n_grid=[400, 40000],
                                     sigma_spec=np.arange(1.0, 6.0),
                                     trials=50, seed=7)
    assert table[1]["mean_gap"] < table[0]["mean_gap"]


def test_concentration_deterministic():
    kw = dict(n_grid=[100], sigma_spec=[1.0, 2.0], trials=3, seed=42)
    assert concentration_experiment(**kw) == concentration_experiment(**kw)


def test_concentration_validates_grid():
    with pytest.raises(ValueError):
        concentration_experiment(n_grid=[4], sigma_spec=np.ones(5),
                                 trials=1, seed=0)


def test_concentration_needs_a_trial():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        concentration_experiment(n_grid=[50], sigma_spec=[1.0, 2.0],
                                 trials=0, seed=0)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_pcg_rejects_a_tolerance_it_cannot_meet(tol):
    # a NaN or negative tol kept CG going after the Jacobi-scaled system
    # was solved exactly, into a zero search direction
    m = SymMatrix.diagonal([4.0, 1.0])
    with pytest.raises(ValueError, match="tol must be finite"):
        pcg(m, rhs=np.ones(2), precond=jacobi_scaling(m), tol=tol)
    assert pcg(m, rhs=np.ones(2), precond=jacobi_scaling(m),
               tol=0.0).converged


@pytest.mark.parametrize("sigma", [
    [1.0, -2.0], [1.0, 0.0], [1.0, float("nan")],
    [[2.0, 1.0], [0.0, 2.0]]], ids=["negative", "zero", "nan", "asymmetric"])
def test_concentration_validates_sigma(sigma):
    with pytest.raises(ValueError) as info:
        concentration_experiment(n_grid=[50], sigma_spec=sigma, trials=1,
                                 seed=0)
    assert type(info.value) is ValueError
