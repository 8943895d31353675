"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Fixture sub-checks that require data files this
environment cannot supply fail with an explanation rather than being
weakened (see the ash219 / mesh1e1 checks)."""

import importlib.resources
import math
import time

import numpy as np
import pytest

from optiprecond import (
    RectMatrix,
    SymMatrix,
    compute_center,
    concentration_experiment,
    condition_number,
    gram_matrix,
    initial_feasible_point,
    jacobi_scaling,
    pcg,
    read_matrix_market,
    ruiz_equilibrate,
    sampling_sweep,
    scaled_condition,
)
from optiprecond.barrier import _one_sided
from optiprecond.dsdp import barrier_path_solve, build_right
from optiprecond.optimal import (
    OptimalRequest,
    alternate_two_sided,
    bisect_two_sided,
    optimal_left,
    optimal_right,
)
from optiprecond.potential import (
    PRConfig,
    delta_kappa,
    nt_step,
    shift_state,
    solve_right_pr,
    state_from_center,
)
from optiprecond.linalg import logcond_subgradient, sym_pow
from optiprecond.fixtures import FIXTURE_NAMES, fixture_path
from conftest import (
    grid_optimal_right,
    grid_optimal_two_sided_3x3,
    perturbed_center_state,
    random_spd,
)

# bisection runs recorded across the suite; criterion 7 audits all of them
BISECTION_RUNS = []


def _record_bisection(report, epsilon):
    BISECTION_RUNS.append((report.extra["kappa0"], epsilon,
                           report.iterations))


def _two_sided_3x3_instances():
    """The three 3x3 instances of criterion 3 (seeds 40 and up, cond of
    the Gram at most 1e4): the +-3 decade oracle box provably covers them."""
    found, seed = [], 40
    while len(found) < 3:
        a_arr = np.random.default_rng(seed).standard_normal((3, 3))
        seed += 1
        if np.linalg.cond(a_arr.T @ a_arr) <= 1e4:
            found.append(a_arr)
    return found


def _report(number, label, outcome):
    print(f"[criterion {number:>2}] {outcome}: {label}")


def _run(number, label, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        _report(number, label, "FAIL")
        raise
    _report(number, f"{label} ({time.perf_counter() - t0:.1f}s)", "PASS")


def _optional_fixture(name):
    resource = importlib.resources.files("optiprecond.fixtures") \
        / f"{name}.mtx"
    return resource if resource.is_file() else None


_UNOBTAINABLE = (
    "the true SuiteSparse file {name} cannot be vendored from this "
    "environment (no network route to the collection; package mirrors are "
    "curated) and the matrix has no mathematical definition to reconstruct "
    "from. The check below runs as soon as {name}.mtx is dropped into "
    "src/optiprecond/fixtures/."
)


def test_criterion_1_ash219_fixture():
    def body():
        path = _optional_fixture("ash219")
        if path is None:
            pytest.fail(_UNOBTAINABLE.format(name="ash219"))
        t0 = time.perf_counter()
        a = read_matrix_market(path)
        gram = gram_matrix(a)
        kappa_before = condition_number(gram)
        assert kappa_before == pytest.approx(9.150, rel=1e-2)
        assert scaled_condition(gram, jacobi_scaling(gram)) == \
            pytest.approx(4.690, rel=1e-2)
        _, rep = optimal_right(gram, OptimalRequest(method="dsdp"))
        assert rep.kappa_after <= 4.25
        assert time.perf_counter() - t0 < 10.0

    _run(1, "ash219: 9.150 -> optimal <= 4.25, Jacobi 4.690", body)


def test_criterion_1_mesh1e1_fixture():
    def body():
        path = _optional_fixture("mesh1e1")
        if path is None:
            pytest.fail(_UNOBTAINABLE.format(name="mesh1e1"))
        t0 = time.perf_counter()
        a = read_matrix_market(path)
        gram = gram_matrix(a)
        assert condition_number(gram) == pytest.approx(27.56, rel=1e-2)
        _, rep = optimal_right(gram, OptimalRequest(method="dsdp"))
        assert rep.kappa_after <= 15.1
        _, rep2 = bisect_two_sided(a, OptimalRequest(side="two_sided",
                                                     epsilon=0.1))
        _record_bisection(rep2, 0.1)
        assert rep2.kappa_after <= 14.4
        assert time.perf_counter() - t0 < 10.0

    _run(1, "mesh1e1: 27.56 -> optimal <= 15.1, two-sided <= 14.4", body)


def test_criterion_1_trefethen_20b_fixture():
    def body():
        t0 = time.perf_counter()
        a = read_matrix_market(fixture_path("trefethen_20b"))
        gram = gram_matrix(a)
        assert condition_number(gram) == pytest.approx(921.2, rel=1e-2)
        _, rep = optimal_left(a)
        assert rep.kappa_after <= 8.8
        assert time.perf_counter() - t0 < 10.0

    _run(1, "Trefethen_20b: left 921.2 -> <= 8.8", body)


def test_criterion_2_diagonal_exactness():
    def body():
        diag = np.array([50.0, 7.0, 2.0, 1.0])
        m = SymMatrix.diagonal(diag)
        a = RectMatrix(np.diag(np.sqrt(diag)))

        def timed(solve):
            t0 = time.perf_counter()
            kappa_after = solve()
            assert time.perf_counter() - t0 < 1.0
            assert kappa_after == pytest.approx(1.0, abs=1e-6)

        timed(lambda: optimal_right(
            m, OptimalRequest(method="potential_reduction"))[1].kappa_after)
        timed(lambda: optimal_right(
            m, OptimalRequest(method="dsdp", epsilon=1e-6))[1].kappa_after)
        timed(lambda: solve_right_pr(m, mode="exact")[1].kappa_after)
        timed(lambda: optimal_left(
            a, OptimalRequest(epsilon=1e-6))[1].kappa_after)

        def run_bisect():
            _, rep = bisect_two_sided(
                a, OptimalRequest(side="two_sided", epsilon=1e-6))
            _record_bisection(rep, 1e-6)
            return rep.kappa_after
        timed(run_bisect)
        timed(lambda: alternate_two_sided(a)[1].kappa_after)
        timed(lambda: scaled_condition(m, jacobi_scaling(m)))
        timed(lambda: scaled_condition(m, ruiz_equilibrate(m)))

    _run(2, "diagonal input: every optimal method and heuristic hits "
            "kappa = 1 +- 1e-6 in < 1 s", body)


def test_criterion_3_brute_force_oracles():
    def body():
        t0 = time.perf_counter()
        config = PRConfig(kappa_tol=1e-6)
        for trial in range(50):
            local = np.random.default_rng(100 + trial)
            m = random_spd(2, local, cond=float(local.uniform(2, 1e3)))
            oracle = grid_optimal_right(m.mat, levels=20001, rounds=2)
            _, rep = solve_right_pr(m, config)
            assert rep.kappa_after == pytest.approx(oracle, rel=1e-3)
        for trial in range(20):
            local = np.random.default_rng(300 + trial)
            m = random_spd(3, local, cond=float(local.uniform(2, 1e3)))
            oracle = grid_optimal_right(m.mat)
            _, rep = solve_right_pr(m, config)
            assert rep.kappa_after == pytest.approx(oracle, rel=1e-3)
        # two-sided bisection against the joint grid oracle
        for a_arr in _two_sided_3x3_instances():
            oracle = grid_optimal_two_sided_3x3(a_arr)
            eps = 1e-2
            _, rep = bisect_two_sided(
                RectMatrix(a_arr),
                OptimalRequest(side="two_sided", epsilon=eps))
            _record_bisection(rep, eps)
            tolerance = max(eps, 1e-2 * oracle)
            assert abs(rep.kappa_after - oracle) <= tolerance + 1e-2 * oracle
        assert time.perf_counter() - t0 < 120.0

    _run(3, "grid-search oracle agreement (50 2x2, 20 3x3, joint 3x3)",
         body)


def test_criterion_4_cross_solver_agreement():
    def body():
        t0 = time.perf_counter()
        config = PRConfig(kappa_tol=1e-5)
        for trial in range(30):
            local = np.random.default_rng(500 + trial)
            m = random_spd(20, local, cond=float(local.uniform(10, 1e3)))
            _, rep_pr = solve_right_pr(m, config)
            _, _, rep_ds = barrier_path_solve(build_right(m))
            assert rep_pr.kappa_after == pytest.approx(rep_ds.kappa_after,
                                                       rel=1e-2)
        assert time.perf_counter() - t0 < 120.0

    _run(4, "potential reduction vs dual SDP within 1e-2 on 30 random "
            "20x20", body)


def test_criterion_5_proposition_suite():
    def body():
        t0 = time.perf_counter()
        # (a) initial shift bounds from numerically exact centers
        for trial in range(100):
            local = np.random.default_rng(2000 + trial)
            n = int(local.integers(2, 9))
            m = random_spd(n, local, cond=float(local.uniform(3, 300)))
            kappa = float(np.linalg.cond(m.mat) * local.uniform(1.2, 4.0))
            beta = float(local.uniform(0.02, 0.5))
            st = state_from_center(m, kappa)
            assert max(st.deltas()) <= 1e-9
            sh = shift_state(st, delta_kappa(st, beta))
            d_rx, d_sy, d_dz = sh.deltas()
            assert d_rx <= 1e-9
            assert d_sy <= beta + 1e-9
            assert d_dz <= beta + 1e-9
        # (b) Newton-step contraction and displacement on the same instances
        for delta_target in (0.05, 0.1, 0.2, 0.3):
            for trial in range(25):
                local = np.random.default_rng(4000 + 100 * trial)
                n = int(local.integers(2, 9))
                m = random_spd(n, local, cond=float(local.uniform(5, 50)))
                kappa = float(np.linalg.cond(m.mat)
                              * local.uniform(1.5, 3.0))
                st, measured = perturbed_center_state(m, kappa,
                                                      delta_target, local)
                stepped = nt_step(st, st.kappa)
                after = max(stepped.deltas())
                assert after <= 0.5 * measured ** 2 / (1 - measured) + 1e-9
                d_ih = sym_pow(st.D, -0.5)
                disp = np.linalg.norm(d_ih @ stepped.D @ d_ih - np.eye(n),
                                      ord="fro")
                assert disp <= measured / (1 - measured) + 1e-9
        # (c) approximate-shift bound delta + beta + delta * beta
        for trial in range(100):
            local = np.random.default_rng(3000 + trial)
            n = int(local.integers(2, 9))
            m = random_spd(n, local, cond=20.0)
            kappa = float(np.linalg.cond(m.mat) * 2.0)
            delta = float(local.uniform(0.02, 0.2))
            beta = float(local.uniform(0.02, 0.3))
            st, measured = perturbed_center_state(m, kappa, delta, local)
            sh = shift_state(st, delta_kappa(st, beta))
            bound = measured + beta + measured * beta + 1e-9
            assert max(sh.deltas()) <= bound
        assert time.perf_counter() - t0 < 180.0

    _run(5, "proposition suite (initial shift, NT contraction, "
            "displacement, approximate shift)", body)


def test_criterion_6_potential_reduction_per_step():
    def body():
        for trial in range(4):
            local = np.random.default_rng(700 + trial)
            n = int(local.integers(3, 11))
            m = random_spd(n, local, cond=float(local.uniform(10, 200)))
            _, _, rep_ds = barrier_path_solve(build_right(m))
            kappa_star = rep_ds.kappa_after
            epsilon = 1e-3 * kappa_star
            for mode in ("exact", "approximate"):
                _, rep = solve_right_pr(m, PRConfig(kappa_tol=1e-4),
                                        mode=mode)
                traj = rep.extra["potential_trajectory"]
                for (k0, p0, _), (k1, p1, b1) in zip(traj, traj[1:]):
                    assert p1 < p0, "potential must strictly decrease"
                    if k1 - kappa_star > 10 * epsilon:
                        assert p0 - p1 >= 0.1 * b1

    _run(6, "potential strictly decreasing, >= 0.1 beta per step away "
            "from kappa*", body)


def test_criterion_7_bisection_complexity():
    def body():
        # its own bisections, on the diagonal input of criterion 2 and the
        # 3x3 instances of criterion 3, and every other one run in the suite
        cases = [(RectMatrix(np.diag(np.sqrt([50.0, 7.0, 2.0, 1.0]))), 1e-6)]
        cases += [(RectMatrix(a_arr), 1e-2)
                  for a_arr in _two_sided_3x3_instances()]
        runs = []
        for a, epsilon in cases:
            _, rep = bisect_two_sided(a, OptimalRequest(epsilon=epsilon))
            runs.append((rep.extra["kappa0"], epsilon, rep.iterations))
        for kappa0, epsilon, iterations in runs + BISECTION_RUNS:
            if kappa0 <= 1.0:
                assert iterations == 0
                continue
            bound = math.ceil(math.log2((kappa0 - 1.0) / epsilon)) + 1
            assert iterations <= max(bound, 0)

    _run(7, "bisection iteration counts within ceil(log2((k0-1)/eps)) + 1",
         body)


def test_criterion_8_gradient_checks():
    def body():
        # barrier gradient vs central differences at 100 feasible points
        checked = 0
        trial = 0
        while checked < 100:
            local = np.random.default_rng(8000 + trial)
            trial += 1
            n = int(local.integers(2, 7))
            m = random_spd(n, local, cond=float(local.uniform(3, 100)))
            kappa = float(np.linalg.cond(m.mat) * local.uniform(1.5, 4.0))
            center = compute_center(m, kappa,
                                    initial_feasible_point(m, kappa))
            d0 = center * np.exp(0.08 * local.uniform(-1, 1, n))
            barrier = _one_sided(m.mat, kappa)
            state = barrier.factor(d0)
            if state is None:
                continue
            g = barrier.derivatives(state)[0]
            h = 1e-6 * np.abs(d0)
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h[i]
                fd[i] = (barrier.value(barrier.factor(d0 + e))
                         - barrier.value(barrier.factor(d0 - e))
                         ) / (2 * h[i])
            assert np.abs(g - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())
            checked += 1

        # subgradient of log kappa(DMD) at simple-eigenvalue instances
        checked = 0
        trial = 0
        while checked < 100:
            local = np.random.default_rng(9000 + trial)
            trial += 1
            n = int(local.integers(2, 7))
            m = random_spd(n, local, cond=float(local.uniform(3, 50)))
            d = local.uniform(1.0, 3.0, n)
            dmd = d[:, None] * m.mat * d[None, :]
            w = np.linalg.eigvalsh(dmd)
            if w[1] - w[0] < 1e-6 * w[-1] or w[-1] - w[-2] < 1e-6 * w[-1]:
                continue
            g = logcond_subgradient(m, d)

            def logk(dv):
                lam = np.linalg.eigvalsh(dv[:, None] * m.mat * dv[None, :])
                return np.log(lam[-1] / lam[0])

            h = 1e-6
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (logk(d + e) - logk(d - e)) / (2 * h)
            assert np.abs(g - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())
            checked += 1

    _run(8, "barrier gradient and log-cond subgradient match central "
            "differences (100 points each)", body)


def test_criterion_9_sampling_behavior():
    def body():
        t0 = time.perf_counter()
        # Gaussian rows with a correlated covariance; with iid (or merely
        # column-scaled) rows the full optimum is ~1 and the 25% band is
        # dominated by Marchenko-Pastur noise rather than sampling quality
        from optiprecond.fixtures import gauss_cov_design
        a = RectMatrix(gauss_cov_design(123, m=2000, n=10))
        full_gram = gram_matrix(a)
        _, rep_full = optimal_right(full_gram, OptimalRequest(method="dsdp"))
        kappa_full = rep_full.kappa_after

        point = sampling_sweep(a, [1.0], seed=0)[0]
        assert point.gram_gap == pytest.approx(0.0, abs=1e-9)
        assert point.kappa_preconditioned == pytest.approx(kappa_full,
                                                           rel=1e-9)

        kappas = []
        for seed in range(20):
            pt = sampling_sweep(a, [0.05], seed=seed)[0]
            assert not pt.rank_deficient
            kappas.append(pt.kappa_preconditioned)
        median = float(np.median(kappas))
        assert abs(median - kappa_full) <= 0.25 * kappa_full
        assert time.perf_counter() - t0 < 120.0

    _run(9, "row sampling: ratio 1.0 exact; median kappa at ratio 0.05 "
            "within 25% of the full optimum", body)


def test_criterion_10_concentration_scaling():
    def body():
        t0 = time.perf_counter()
        table = concentration_experiment(
            n_grid=[400, 4000, 40000],
            sigma_spec=np.arange(1.0, 6.0), trials=50, seed=2024)
        gaps = [row["mean_gap"] for row in table]
        assert gaps[0] > gaps[1] > gaps[2]
        rates = np.sqrt(5.0 / np.array([400.0, 4000.0, 40000.0]))
        slope = np.polyfit(rates, gaps, 1)[0]
        assert slope > 0
        assert time.perf_counter() - t0 < 180.0

    _run(10, "concentration gap decreases in n and scales with sqrt(p/n)",
         body)


def test_criterion_11_pcg_properties():
    def body():
        res = pcg(SymMatrix.identity(6),
                  rhs=np.random.default_rng(1).standard_normal(6))
        assert res.iterations == 1
        two_eig = SymMatrix.diagonal([2.0, 2.0, 9.0, 9.0, 9.0])
        rhs = np.random.default_rng(1).standard_normal(5)
        assert pcg(two_eig, rhs=rhs).iterations <= 3

        beats_jacobi = 0
        for name in FIXTURE_NAMES:
            a = read_matrix_market(fixture_path(name))
            gram = gram_matrix(a)
            sc_opt, _ = optimal_right(gram, OptimalRequest(method="dsdp"))
            sc_jac = jacobi_scaling(gram)
            rhs = np.random.default_rng(0).standard_normal(gram.order)
            cap = 50 * gram.order
            it_none = pcg(gram, rhs=rhs, max_iters=cap).iterations
            it_jac = pcg(gram, rhs=rhs, precond=sc_jac,
                         max_iters=cap).iterations
            it_opt = pcg(gram, rhs=rhs, precond=sc_opt,
                         max_iters=cap).iterations
            assert it_opt <= it_none, name
            beats_jacobi += it_opt < it_jac
        assert beats_jacobi / len(FIXTURE_NAMES) >= 0.5

    _run(11, "PCG: identity 1 iter, two-eigenvalue <= 3, optimal <= none "
             "on every fixture, beats Jacobi on >= 50%", body)
