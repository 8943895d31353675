import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from optiprecond import (
    RectMatrix,
    SymMatrix,
    apply_pair,
    condition_number,
    jacobi_scaling,
    read_matrix_market,
)
from optiprecond.fixtures import fixture_path
from optiprecond.heuristics import DiagScaling
from optiprecond.optimal import (
    OptimalRequest,
    alternate_two_sided,
    bisect_two_sided,
    optimal_left,
    optimal_right,
)
from optiprecond import heuristics, optimal, potential
from optiprecond.dsdp import barrier_path_solve, build_right
from optiprecond.linalg import _openblas_controls, blas_backend
from optiprecond.potential import solve_right_pr
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
    for method in ("potential_reduction", "dsdp"):
        from optiprecond.potential import PRConfig
        sc, rep = optimal_right(m, OptimalRequest(
            method=method, pr_config=PRConfig(kappa_tol=1e-6)))
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


def test_warm_start_never_increases_iterations(rng):
    for trial in range(5):
        local = np.random.default_rng(8000 + trial)
        a_arr = local.standard_normal((4, 3))
        a = RectMatrix(a_arr)
        gram = SymMatrix(a_arr.T @ a_arr)
        cold = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                  epsilon=0.05))[1]
        warm = bisect_two_sided(a, OptimalRequest(
            side="two_sided", epsilon=0.05,
            warm_start=jacobi_scaling(gram)))[1]
        assert warm.iterations <= cold.iterations


def test_bisect_starts_from_two_sided_warm_start():
    # alternation's pair scales trefethen_20b to 6.264, against 921.2 unscaled
    a = read_matrix_market(fixture_path("trefethen_20b"))
    pair, alt = alternate_two_sided(a)
    sc, rep = bisect_two_sided(a, OptimalRequest(warm_start=pair))
    assert rep.extra["kappa0"] == pytest.approx(alt.kappa_after, rel=1e-9)
    assert rep.iterations <= 10
    assert rep.kappa_after <= alt.kappa_after
    assert rep.kappa_after == pytest.approx(6.245, rel=1e-2)


def test_bisect_rejects_warm_start_of_wrong_length():
    a = RectMatrix(np.random.default_rng(12).standard_normal((5, 3)))
    for warm in (DiagScaling(np.ones(4)),
                 DiagScaling(np.ones(4), side="left"),
                 DiagScaling.pair(np.ones(5), np.ones(4))):
        with pytest.raises(ValueError):
            bisect_two_sided(a, OptimalRequest(warm_start=warm))


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
        eps = 0.05
        _, rep_b = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                      epsilon=eps))
        _, rep_a = alternate_two_sided(a)
        assert rep_a.kappa_after >= rep_b.kappa_after - eps - \
            1e-2 * rep_b.kappa_after


def test_bisect_rejects_oversized():
    with pytest.raises(ValueError):
        bisect_two_sided(RectMatrix(np.eye(301)))


def test_pair_kappa_matches_apply(rng):
    a_arr = rng.standard_normal((4, 3))
    a = RectMatrix(a_arr)
    sc, rep = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                 epsilon=0.1))
    assert condition_number(apply_pair(a, sc)) == \
        pytest.approx(rep.kappa_after, rel=1e-9)


def _trefethen_20b():
    return read_matrix_market(fixture_path("trefethen_20b"))


def test_newton_fallbacks_are_reported():
    # the level barrier's scale band keeps every Newton system PD; the
    # max-margin oracle it replaced solved 1,616 of 10,217 by lstsq here
    _, rep = bisect_two_sided(_trefethen_20b())
    assert rep.extra["newton_fallbacks"] == 0
    _, _, rep = barrier_path_solve(
        build_right(random_spd(8, np.random.default_rng(3), cond=20.0)))
    assert rep.extra["newton_fallbacks"] == 0


def test_dsdp_right_route_reports_newton_steps():
    a = _trefethen_20b()
    _, rep = optimal_right(SymMatrix(a.mat.T @ a.mat),
                           OptimalRequest(method="dsdp"))
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


# published two-sided optimum, alternation's kappa, and a third of the
# Newton steps the max-margin oracle took per bisection (10,232 and 11,256)
TWO_SIDED = {"trefethen_20b": (6.245, 6.2643, 3410),
             "trefethen_20": (17.11, 17.136, 3752)}


def test_bisect_decides_every_level_with_proof():
    for name, (published, alternation, steps) in TWO_SIDED.items():
        _, rep = bisect_two_sided(read_matrix_market(fixture_path(name)))
        extra = rep.extra
        assert extra["newton_steps"] <= steps, name
        assert extra["newton_fallbacks"] == 0, name
        assert extra["undecided_levels"] == 0 and extra["certified"], name
        assert published - 5e-4 <= rep.kappa_after <= published * 1.01
        assert rep.kappa_after <= alternation, name
        lo, hi = extra["bracket"]
        assert extra["kappa_lower_bound"] == lo <= rep.kappa_after
        assert hi - lo < 1e-2
        assert hi == pytest.approx(rep.kappa_after, rel=1e-9)
        assert extra["certified_gap"] == hi / lo - 1


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
