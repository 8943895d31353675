import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack

from optiprecond import (
    RectMatrix,
    SymMatrix,
    apply_pair,
    condition_number,
    read_matrix_market,
)
from optiprecond.fixtures import fixture_path
from optiprecond.optimal import (
    OptimalRequest,
    alternate_two_sided,
    bisect_two_sided,
    optimal_left,
    optimal_right,
)
from optiprecond import barrier, dsdp, heuristics, optimal, potential
from optiprecond.dsdp import barrier_path_solve, build_right
from optiprecond.linalg import _openblas_controls, blas_backend
from optiprecond.potential import PRConfig, solve_right_pr
from conftest import grid_optimal_right, grid_optimal_two_sided_3x3, random_spd


def test_request_validates_epsilon():
    with pytest.raises(ValueError):
        OptimalRequest(epsilon=0.0)


def test_optimal_right_diagonal():
    sc, rep = optimal_right(SymMatrix.diagonal([7.0, 2.0, 1.0]))
    assert rep.kappa_after == pytest.approx(1.0, abs=1e-6)
    assert sc.values.max() == pytest.approx(1.0)


def test_optimal_right_2x2_oracle():
    m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
    oracle = grid_optimal_right(m.mat)
    _, rep_pr = solve_right_pr(m, PRConfig(kappa_tol=1e-6))
    _, rep_ds = optimal_right(m, OptimalRequest(method="dsdp"))
    for rep in (rep_pr, rep_ds):
        assert rep.kappa_after == pytest.approx(oracle, rel=1e-3)


def test_optimal_right_never_worsens(rng):
    for _ in range(5):
        m = random_spd(8, rng, cond=300.0)
        sc, rep = optimal_right(m, OptimalRequest(method="dsdp"))
        assert rep.kappa_after <= rep.kappa_before * (1 + 1e-9)


def test_one_sided_solves_measure_unscaled_kappa_once(monkeypatch):
    # potential reduction's report is returned as is, and it reads kappa(M)
    # and its first point from one extreme_eigenvalues call; dsdp reads
    # kappa(M) from the eigensolve its problem builder already makes; the
    # only other measurement is of the result
    calls = []

    def counting(measure):
        def counted(m):
            calls.append(m)
            return measure(m)
        return counted

    for module in (optimal, heuristics):
        monkeypatch.setattr(module, "condition_number",
                            counting(condition_number))
    monkeypatch.setattr(potential, "extreme_eigenvalues",
                        counting(potential.extreme_eigenvalues))
    rng = np.random.default_rng(9)
    m = random_spd(5, rng, cond=30.0)
    a = RectMatrix(rng.standard_normal((8, 4)))
    solves = [
        (lambda: optimal_right(m), 2, "optimal_right[potential_reduction]"),
        (lambda: optimal_right(m, OptimalRequest(method="dsdp")), 1,
         "optimal_right[dsdp]"),
        (lambda: optimal_left(a), 1, "optimal_left[dsdp]"),
    ]
    for solve, count, method in solves:
        calls.clear()
        _, rep = solve()
        assert len(calls) == count
        assert rep.method == method


def test_optimal_left_identity_and_orthogonal(rng):
    sc, rep = optimal_left(RectMatrix(np.eye(4)))
    assert rep.kappa_after == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(sc.values, 1.0, atol=1e-5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = np.diag([5.0, 2.0, 1.0, 0.25]) @ q.T
    sc, rep = optimal_left(RectMatrix(a))
    assert rep.kappa_after == pytest.approx(1.0, abs=1e-4)


def test_optimal_left_measures_scaled_gram(rng):
    a = rng.standard_normal((6, 3))
    sc, rep = optimal_left(RectMatrix(a))
    scaled = a.T @ (sc.values[:, None] * a)
    assert condition_number(SymMatrix(0.5 * (scaled + scaled.T))) == \
        pytest.approx(rep.kappa_after, rel=1e-9)
    assert rep.kappa_after <= rep.kappa_before * (1 + 1e-9)


def test_bisect_diagonal_reaches_one():
    a = RectMatrix(np.diag([4.0, 1.0]))
    sc, rep = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                 epsilon=1e-6))
    assert rep.kappa_after == pytest.approx(1.0, abs=2e-6)
    assert sc.side == "two_sided_pair"


def test_bisect_iteration_bound(rng):
    for trial in range(5):
        local = np.random.default_rng(7000 + trial)
        a = RectMatrix(local.standard_normal((3, 3)))
        eps = float(local.choice([1e-1, 1e-2]))
        sc, rep = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                     epsilon=eps))
        kappa0 = rep.extra["kappa0"]
        bound = math.ceil(math.log2(max((kappa0 - 1) / eps, 1.0))) + 1
        assert rep.iterations <= bound


def test_bisect_epsilon_halved_one_extra_iteration(rng):
    a = RectMatrix(np.random.default_rng(11).standard_normal((3, 3)))
    sc1, rep1 = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                   epsilon=0.2))
    sc2, rep2 = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                   epsilon=0.1))
    assert rep2.iterations <= rep1.iterations + 1


def test_bisect_matches_joint_grid_oracle():
    for trial in range(3):
        local = np.random.default_rng(40 + trial)
        a_arr = local.standard_normal((3, 3))
        if np.linalg.cond(a_arr.T @ a_arr) > 500:
            continue
        oracle = grid_optimal_two_sided_3x3(a_arr)
        eps = 1e-2 * oracle
        sc, rep = bisect_two_sided(RectMatrix(a_arr),
                                   OptimalRequest(side="two_sided",
                                                  epsilon=eps))
        assert rep.kappa_after <= oracle * (1 + 2e-2) + eps
        # the oracle itself can't beat the bisection bracket by much
        assert rep.kappa_after >= oracle * (1 - 2e-2) - eps


def test_alternate_diagonal_one_round():
    a = RectMatrix(np.diag([4.0, 1.0]))
    sc, rep = alternate_two_sided(a)
    assert rep.kappa_after == pytest.approx(1.0, abs=1e-5)
    assert rep.iterations == 1


def test_alternate_beats_one_sided(rng):
    for trial in range(3):
        local = np.random.default_rng(9000 + trial)
        a_arr = local.standard_normal((10, 6))
        a = RectMatrix(a_arr)
        gram = SymMatrix(a_arr.T @ a_arr)
        _, rep_two = alternate_two_sided(a)
        _, rep_left = optimal_left(a)
        _, rep_right = optimal_right(gram, OptimalRequest(method="dsdp"))
        best_one_sided = min(rep_left.kappa_after, rep_right.kappa_after)
        assert rep_two.kappa_after <= best_one_sided * (1 + 1e-6)


def test_alternate_kappa_nonincreasing(rng):
    a = RectMatrix(rng.standard_normal((8, 5)))
    _, rep = alternate_two_sided(a)
    track = rep.extra["kappa_per_round"]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(track, track[1:]))


def test_alternate_upper_bounds_bisection():
    # alternation is a heuristic upper bound for the true two-sided optimum
    for trial in range(2):
        local = np.random.default_rng(60 + trial)
        a_arr = local.standard_normal((3, 3))
        a = RectMatrix(a_arr)
        _, rep_b = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                      epsilon=0.05))
        _, rep_a = alternate_two_sided(a)
        assert rep_b.extra["certified"]
        assert rep_a.kappa_after >= rep_b.extra["kappa_lower_bound"]


def test_bisect_certifies_400_row_design():
    # no size cap: the 400x40 design is decided at every level
    _, rep = bisect_two_sided(read_matrix_market(fixture_path("gauss_cov_s0")),
                              OptimalRequest(epsilon=1e-2))
    extra = rep.extra
    assert extra["undecided_levels"] == 0 and extra["certified"]
    lo, hi = extra["bracket"]
    assert hi / lo - 1 < 1e-2
    assert extra["kappa_lower_bound"] == lo <= rep.kappa_after


def test_pair_kappa_matches_apply(rng):
    a_arr = rng.standard_normal((4, 3))
    a = RectMatrix(a_arr)
    sc, rep = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                 epsilon=0.1))
    assert condition_number(apply_pair(a, sc)) == \
        pytest.approx(rep.kappa_after, rel=1e-9)


def _trefethen_20b():
    return read_matrix_market(fixture_path("trefethen_20b"))


def test_dsdp_stops_when_the_schur_matrix_does_not_factor(monkeypatch):
    # no Schur system is solved by least squares: one that does not factor
    # ends the solve at the last factored point, as an X that does not
    m = random_spd(8, np.random.default_rng(3), cond=20.0)
    monkeypatch.setattr(dsdp, "_MAX_ITER", 2)
    tau2, d2, _ = barrier_path_solve(build_right(m))
    monkeypatch.undo()
    real, schur_calls = barrier.chol_pd, []

    def third_schur_fails(a):
        if a.shape[0] == m.order + 1:
            schur_calls.append(a.shape)
            if len(schur_calls) == 3:
                return None
        return real(a)

    monkeypatch.setattr(barrier, "chol_pd", third_schur_fails)
    tau, d, rep = barrier_path_solve(build_right(m))
    assert rep.iterations == len(schur_calls) == 3
    assert not rep.extra["certified"]
    assert tau == tau2 and np.array_equal(d, d2)


def test_dsdp_right_route_reports_newton_steps():
    a = _trefethen_20b()
    _, rep = optimal_right(SymMatrix(a.mat.T @ a.mat),
                           OptimalRequest(method="dsdp", epsilon=1e-8))
    assert rep.method == "optimal_right[dsdp]"
    assert rep.extra["newton_steps"] == rep.iterations == 12
    assert rep.kappa_after == pytest.approx(8.696732778, rel=1e-9)
    assert rep.extra["certified"]


def test_optimal_left_solves_on_nonzero_rows():
    # no weight changes a zero row's share of A^T D A, so the solve must
    # match the one without the row, and the row has no interior primal
    # start
    a = np.random.default_rng(0).standard_normal((8, 3))
    a[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaling, rep = optimal_left(RectMatrix(a))
    deleted, rep_deleted = optimal_left(RectMatrix(np.delete(a, 2, axis=0)))
    assert rep.kappa_after == pytest.approx(rep_deleted.kappa_after,
                                            rel=1e-9)
    assert np.allclose(np.delete(scaling.values, 2), deleted.values,
                       rtol=1e-6, atol=0.0)
    assert scaling.values[2] == 1.0
    assert rep.extra["certified"]


# published two-sided optimum, alternation's kappa, and the primal-dual
# iterations of one bisection at epsilon 1e-2 (64 and 69) with a quarter of
# headroom
TWO_SIDED = {"trefethen_20b": (6.245, 6.2643, 80),
             "trefethen_20": (17.11, 17.136, 86)}


def test_bisect_decides_every_level_with_proof():
    for name, (published, alternation, steps) in TWO_SIDED.items():
        _, rep = bisect_two_sided(read_matrix_market(fixture_path(name)))
        extra = rep.extra
        assert extra["newton_steps"] <= steps, name
        assert extra["undecided_levels"] == 0 and extra["certified"], name
        assert published - 5e-4 <= rep.kappa_after <= published * 1.01
        assert rep.kappa_after <= alternation, name
        lo, hi = extra["bracket"]
        assert extra["kappa_lower_bound"] == lo <= rep.kappa_after
        assert hi / lo - 1 < 1e-2
        assert rep.iterations == 7, name
        assert hi == pytest.approx(rep.kappa_after, rel=1e-9)
        assert extra["certified_gap"] == hi / lo - 1


def test_every_sdp_runs_the_one_primal_dual_loop(monkeypatch):
    # optimal_left and each two-sided level run barrier.primal_dual_ascent
    # once, from a strictly feasible primal start, and take every reported
    # iteration there; no other loop (the compute_center Newton loop, or a
    # second path follower) runs
    runs = []
    real = barrier.primal_dual_ascent

    def counted(b, y, xs, v, done, max_iter):
        target = np.zeros(b.nvar)
        target[0] = -1.0
        assert np.allclose(b.adjoint(xs, v), target, atol=1e-12)
        assert v.min() > 0 and all(np.linalg.eigvalsh(x)[0] > 0 for x in xs)
        out = real(b, y, xs, v, done, max_iter)
        runs.append(out[2])
        return out

    def refused(*args, **kwargs):
        raise AssertionError("compute_center ran")

    for module in (barrier, dsdp):
        monkeypatch.setattr(module, "primal_dual_ascent", counted)
    for module in (barrier, potential):
        monkeypatch.setattr(module, "compute_center", refused)
    a = _trefethen_20b()
    _, rep = optimal_left(a)
    assert runs == [rep.extra["newton_steps"]] and runs[0] > 0
    runs.clear()
    res = barrier.two_sided_feasibility(a, 6.24)
    assert res.verdict == "infeasible"
    assert runs == [res.newton_steps] and runs[0] > 0
    assert not hasattr(barrier, "follow_path")


def test_bisect_reports_undecided_levels(monkeypatch):
    # a level without proof moves the lower end but is never certified
    real = optimal.two_sided_feasibility

    def undecided_below_three(a, kappa, witness=None):
        res = real(a, kappa, witness)
        if kappa < 3.0 and not res.feasible:
            res.verdict, res.certificate = "undecided", None
        return res

    monkeypatch.setattr(optimal, "two_sided_feasibility",
                        undecided_below_three)
    a = RectMatrix(np.random.default_rng(13).standard_normal((5, 3)))
    _, rep = bisect_two_sided(a, OptimalRequest(epsilon=0.05))
    assert rep.extra["undecided_levels"] > 0
    assert not rep.extra["certified"]
    assert rep.extra["kappa_lower_bound"] < rep.extra["bracket"][0]


def test_bisect_reports_step_reductions(monkeypatch):
    # extra["step_reductions"] sums the levels' counts, each counted
    # reduction is one dsygst, and the Cholesky test spares most of the
    # four cones of each of the four step lengths per iteration
    levels, reduced = [], []
    real, dsygst = optimal.two_sided_feasibility, scipy.linalg.lapack.dsygst

    def recorded(a, kappa, witness=None):
        levels.append(real(a, kappa, witness))
        return levels[-1]

    def counted_dsygst(*args, **kwargs):
        reduced.append(args[0].shape[0])
        return dsygst(*args, **kwargs)

    monkeypatch.setattr(optimal, "two_sided_feasibility", recorded)
    monkeypatch.setattr(scipy.linalg.lapack, "dsygst", counted_dsygst)
    _, rep = bisect_two_sided(_trefethen_20b())
    assert rep.extra["step_reductions"] == len(reduced) > 0
    assert sum(res.step_reductions for res in levels) == len(reduced)
    assert len(reduced) < 4 * rep.extra["newton_steps"]


def test_bisect_two_sided_retains_no_memory():
    # scipy.linalg.solve kept ~0.7 KB per non-PD Newton system, and the
    # max-margin oracle met about 1,600 of them per bisection
    a = _trefethen_20b()
    req = OptimalRequest(side="two_sided", epsilon=1e-2)
    bisect_two_sided(a, req)             # warm up lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        bisect_two_sided(a, req)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 0.5e6


def test_entry_points_report_blas_backend():
    # which backend this install has is checked in test_linalg
    rng = np.random.default_rng(7)
    a = RectMatrix(rng.standard_normal((6, 3)))
    m = random_spd(5, rng, cond=30.0)
    reports = [
        optimal_right(m)[1],
        optimal_right(m, OptimalRequest(method="dsdp"))[1],
        optimal_left(a)[1],
        bisect_two_sided(a, OptimalRequest(side="two_sided", epsilon=0.1))[1],
        alternate_two_sided(a)[1],
        barrier_path_solve(build_right(m))[2],
        solve_right_pr(m)[1],
    ]
    assert [r.extra["blas_backend"] for r in reports] == [blas_backend()] * 7


def test_entry_point_checks_run_on_one_blas_thread(monkeypatch):
    # the kappa checks around the inner solve run under the same limit
    if blas_backend() != "openblas-ctypes":
        pytest.skip("thread counts are read through the OpenBLAS ctypes path")
    seen = []

    def kappa_recording_threads(m):
        seen.append(tuple(get() for get, _ in _openblas_controls()))
        return condition_number(m)

    monkeypatch.setattr(optimal, "condition_number", kappa_recording_threads)
    monkeypatch.setattr(heuristics, "condition_number",
                        kappa_recording_threads)
    m = random_spd(5, np.random.default_rng(8), cond=30.0)
    optimal_right(m)
    assert seen and set(seen) == {(1,) * len(_openblas_controls())}


def test_solvers_return_max_one_sequences():
    rng = np.random.default_rng(11)
    a = RectMatrix(rng.standard_normal((6, 3)))
    m = random_spd(5, rng, cond=30.0)
    scalings = [
        optimal_right(m)[0],
        optimal_right(m, OptimalRequest(method="dsdp"))[0],
        optimal_left(a)[0],
        bisect_two_sided(a, OptimalRequest(epsilon=0.1))[0],
        alternate_two_sided(a)[0],
        solve_right_pr(m)[0],
    ]
    for sc in scalings:
        assert sc.values.max() == 1.0
        if sc.left_values is not None:
            assert sc.left_values.max() == 1.0
