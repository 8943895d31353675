import collections
import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from optiprecond import SymMatrix, gram_matrix, potential, read_matrix_market
from optiprecond.barrier import (InfeasiblePointError, barrier_value,
                                 compute_center)
from optiprecond.dsdp import build_right, barrier_path_solve
from optiprecond.fixtures import fixture_path
from optiprecond.linalg import (NotPositiveDefiniteError, chol_pd, geomean_inv,
                               inv_from_chol, inv_pd, sym_pow)
from optiprecond.potential import (
    MODE_DIAG,
    PRConfig,
    StagnationError,
    StepTooLargeError,
    delta_kappa,
    nt_step,
    shift_state,
    solve_right_pr,
    state_from_center,
)
from conftest import grid_optimal_right, perturbed_center_state, random_spd


def test_prconfig_validation():
    with pytest.raises(ValueError):
        PRConfig(beta=1.5)


def test_center_state_invariants(rng):
    m = random_spd(5, rng)
    st = state_from_center(m, 3 * np.linalg.cond(m.mat), mode="full")
    st.validate()
    assert np.allclose(st.R, m.mat - st.D)
    assert np.allclose(st.S, st.kappa * st.D - m.mat)
    assert st.identity_residual() < 1e-12
    assert max(st.deltas()) < 1e-10


def test_full_center_closed_form_zeroes_gradient():
    # D = t(kappa) M is the full-matrix center for every kappa > 1, also
    # kappa <= kappa(M), where no diagonal D is feasible. Forming M - D
    # rounds by about eps kappa(M) / (1 - t) relative, which exceeds 1e-12
    # only as kappa nears 1.
    eps = np.finfo(float).eps
    for trial in range(60):
        local = np.random.default_rng(7000 + trial)
        n = int(local.integers(1, 9))
        m = random_spd(n, local, cond=float(local.uniform(1, 300)))
        cond = float(np.linalg.cond(m.mat))
        for kappa in (1 + 1e-6, 1 + 1e-3, 1 + float(local.uniform(0.5, cond)),
                      cond * float(local.uniform(1.01, 4.0))):
            st = state_from_center(m, kappa, mode="full")
            t = (kappa + 1 + np.sqrt(kappa ** 2 - kappa + 1)) / (3 * kappa)
            assert np.allclose(st.D, t * m.mat, rtol=1e-15, atol=0)
            tol = max(1e-12, 16 * eps * cond / (1 - t))
            grad = -st.X + st.kappa * st.Y + st.Z
            scale = sum(np.linalg.norm(term, ord="fro")
                        for term in (st.X, st.kappa * st.Y, st.Z))
            assert np.linalg.norm(grad, ord="fro") <= tol * scale
            assert st.identity_residual() <= tol
            if kappa > 1.4:
                assert st.identity_residual() <= 1e-12


@pytest.mark.parametrize("kappa", [1.0, 0.5, -2.0])
def test_full_center_needs_kappa_above_one(kappa):
    with pytest.raises(InfeasiblePointError):
        state_from_center(random_spd(3, np.random.default_rng(1)), kappa,
                          mode="full")


def _count_lapack(monkeypatch):
    """Counter of eigensolves, dpotri and dpotrf calls from here on."""
    calls = collections.Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for home, attr, name in ((np.linalg, "eigh", "eig"),
                             (np.linalg, "eigvalsh", "eig"),
                             (scipy.linalg, "eigh", "eig"),
                             (scipy.linalg, "eigvalsh", "eig"),
                             (scipy.linalg.lapack, "dpotri", "potri"),
                             (scipy.linalg.lapack, "dpotrf", "chol")):
        monkeypatch.setattr(home, attr, count(name, getattr(home, attr)))
    return calls


def _shifted_diag_state():
    m = random_spd(6, np.random.default_rng(3), cond=40.0)
    st = state_from_center(m, 2.0 * np.linalg.cond(m.mat), mode=MODE_DIAG)
    return shift_state(st, delta_kappa(st, 0.1))


def _reference_step_d(st):
    """D after a diagonal-mode NT step with every inverse scaling from
    geomean_inv and every cone inverse from inv_pd."""
    ui = geomean_inv(st.X, st.R)
    vi = geomean_inv(st.Y, st.S)
    wi = geomean_inv(st.Z, st.D)
    rhs = ((inv_pd(st.D) - st.Z) + st.kappa * (inv_pd(st.S) - st.Y)
           - (inv_pd(st.R) - st.X))
    coeff = ui ** 2 + wi ** 2 + st.kappa ** 2 * vi ** 2
    return st.D + np.diag(np.linalg.solve(coeff, np.diag(rhs)))


def _assert_matches_reference(stepped, st):
    ref = _reference_step_d(st)
    assert np.linalg.norm(stepped.D - ref) <= 1e-12 * np.linalg.norm(ref)


def test_nt_step_makes_three_eigensolves(monkeypatch):
    # with X away from R^{-1}, each inverse scaling is one geometric mean:
    # one Cholesky factor and one eigensolve. The cone inverses come from
    # the state's factors, so dpotri runs once, for the shifted S, and the
    # closing check factors the new R and S (D's factor is its diagonal)
    st = _shifted_diag_state()
    st = dataclasses.replace(st, X=st.X + 0.05 * np.diag(np.diag(st.X)))
    calls = _count_lapack(monkeypatch)
    stepped = nt_step(st, st.kappa)
    assert calls == {"eig": 3, "potri": 1, "chol": 5}
    _assert_matches_reference(stepped, st)


def test_nt_step_takes_u_inverse_from_x_when_x_is_r_inverse(monkeypatch):
    # X = R^{-1} exactly after a shift from a center, and then
    # U^{-1} = X # R^{-1} = X needs no geometric mean
    st = _shifted_diag_state()
    assert not np.any(st.fr.inv - st.X)
    calls = _count_lapack(monkeypatch)
    stepped = nt_step(st, st.kappa)
    assert calls == {"eig": 2, "potri": 1, "chol": 4}
    _assert_matches_reference(stepped, st)
    fr, fs, fd = stepped.fr, stepped.fs, stepped.fd
    for f, cone in ((fr, stepped.R), (fs, stepped.S), (fd, stepped.D)):
        assert np.array_equal(f.lower, chol_pd(cone))


def test_diagonal_factor_is_bit_equal_to_lapack():
    rng = np.random.default_rng(17)
    for n in (1, 20, 150, 200):
        d = rng.uniform(1e-3, 1e3, n)
        fd = potential.Factored.diagonal(d)
        lower = chol_pd(np.diag(d))
        assert np.array_equal(fd.lower, lower)
        assert np.array_equal(fd.inv, inv_from_chol(lower))
    with pytest.raises(NotPositiveDefiniteError):
        potential.Factored.diagonal(np.array([1.0, 0.0]))


def test_solve_right_pr_call_budget_per_step(monkeypatch):
    # per accepted step at most 5 dpotrf, 3 dpotri and 2 eigensolves;
    # one eigensolve of M gives kappa(M) and the first point, and the
    # finishing kappa makes the other
    m = gram_matrix(read_matrix_market(fixture_path("trefethen_20b")))
    calls = _count_lapack(monkeypatch)
    marks = {}
    shift, finish = potential.shift_state, potential.finish_solve

    def first_shift(*args):
        marks.setdefault("loop", calls.copy())
        return shift(*args)

    def at_finish(*args):
        marks["end"] = calls.copy()
        return finish(*args)

    monkeypatch.setattr(potential, "shift_state", first_shift)
    monkeypatch.setattr(potential, "finish_solve", at_finish)
    _, report = solve_right_pr(m)
    accepted = report.extra["accepted_steps"]
    assert accepted == report.iterations == 1014
    assert report.extra["beta_halvings"] == 0
    loop = marks["end"] - marks["loop"]
    assert loop["chol"] <= 5 * accepted
    assert loop["potri"] <= 3 * accepted
    assert loop["eig"] <= 2 * accepted
    once = calls - loop
    assert once["eig"] == 2
    assert once["chol"] < 0.1 * accepted and once["potri"] < 0.1 * accepted


def test_solve_right_pr_counts_beta_halvings():
    # steps of beta = 0.99 leave the NT step's basin twice here
    m = random_spd(3, np.random.default_rng(1), cond=1e3)
    _, report = solve_right_pr(m, PRConfig(beta=0.99))
    halvings = report.extra["beta_halvings"]
    assert halvings == 2
    assert report.extra["accepted_steps"] + halvings == report.iterations
    assert len(report.extra["potential_trajectory"]) == \
        report.extra["accepted_steps"] + 1


def test_solve_right_pr_does_not_retry_programming_errors(monkeypatch):
    # only the errors of a step that left its basin halve beta
    def broken(state, kappa1):
        raise ValueError("programming error")

    monkeypatch.setattr(potential, "nt_step", broken)
    m = random_spd(3, np.random.default_rng(1), cond=1e3)
    with pytest.raises(ValueError, match="programming error"):
        solve_right_pr(m)


def test_stagnation_error_names_the_rule_that_stopped_it(monkeypatch):
    # every step fails, so beta halves from its start until it is below
    # 1e-12: 37 failures from 0.1 and 40 from 0.9
    def fails(state, kappa1):
        raise StepTooLargeError("shifted S left the PSD cone")

    monkeypatch.setattr(potential, "nt_step", fails)
    m = random_spd(3, np.random.default_rng(1), cond=1e3)
    for config, attempts in ((None, 37), (PRConfig(beta=0.9), 40)):
        with pytest.raises(StagnationError, match=(
                f"beta fell below 1e-12 after {attempts} failed attempts "
                "in a row")) as info:
            solve_right_pr(m, config)
        assert info.value.diagnostics["failed_attempts"] == attempts
        assert info.value.diagnostics["beta"] < 1e-12


def test_delta_kappa_closed_forms(rng):
    # identity: D = c I at center, S = (kappa c - 1) I
    n, kappa = 4, 2.0
    m = SymMatrix.identity(n)
    st = state_from_center(m, kappa, mode="full")
    c = st.D[0, 0]
    expect = 0.1 * (kappa * c - 1) / (n * c)
    assert delta_kappa(st, 0.1) == pytest.approx(expect, rel=1e-8)

    # scalar case M = [1], kappa = 4: Tr(D S^{-1}) = d / (4d - 1), whose
    # value at the exact root is 0.38379594 (frozen from the closed form)
    scalar = state_from_center(SymMatrix([[1.0]]), 4.0, mode="full")
    d = scalar.D[0, 0]
    assert d == pytest.approx((10 + np.sqrt(52)) / 24, rel=1e-10)
    tr = d / (4 * d - 1)
    assert tr == pytest.approx(0.3837959396219991, rel=1e-10)
    assert delta_kappa(scalar, 0.1) == pytest.approx(0.1 / tr, rel=1e-10)

    # linearity in beta
    m2 = random_spd(3, rng)
    st2 = state_from_center(m2, 2 * np.linalg.cond(m2.mat), mode="full")
    assert delta_kappa(st2, 0.2) == pytest.approx(
        2 * delta_kappa(st2, 0.1), rel=1e-12)


def test_shift_state_zero_is_identity(rng):
    m = random_spd(4, rng)
    st = state_from_center(m, 2 * np.linalg.cond(m.mat), mode="full")
    sh = shift_state(st, 0.0)
    assert sh.kappa == st.kappa
    assert np.allclose(sh.S, st.S)
    assert np.allclose(sh.Z, st.Z)


def test_shift_state_proposition_initial_bounds(rng):
    # from an exact center with the theorem's step: delta_SY <= beta,
    # delta_DZ <= beta, delta_RX = 0
    for trial in range(100):
        local = np.random.default_rng(2000 + trial)
        n = int(local.integers(2, 9))
        m = random_spd(n, local, cond=float(local.uniform(3, 300)))
        kappa = float(np.linalg.cond(m.mat) * local.uniform(1.2, 4.0))
        beta = float(local.uniform(0.02, 0.5))
        st = state_from_center(m, kappa, mode="full")
        assert max(st.deltas()) < 1e-9
        sh = shift_state(st, delta_kappa(st, beta))
        d_rx, d_sy, d_dz = sh.deltas()
        assert d_rx <= 1e-9
        assert d_sy <= beta + 1e-9
        assert d_dz <= beta + 1e-9
        assert sh.identity_residual() < 1e-10


def test_shift_state_approximate_bound(rng):
    # from a delta-approximate center: new deltas <= delta + beta + delta*beta
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
        d_rx, d_sy, d_dz = sh.deltas()
        assert d_sy <= bound
        assert d_dz <= bound
        assert d_rx <= measured + 1e-12


def test_shift_state_too_large_raises(rng):
    m = random_spd(3, rng)
    st = state_from_center(m, 1.5 * np.linalg.cond(m.mat), mode="full")
    with pytest.raises(StepTooLargeError):
        shift_state(st, st.kappa - 0.999)


def test_nt_step_noop_at_exact_center(rng):
    m = random_spd(4, rng)
    st = state_from_center(m, 2 * np.linalg.cond(m.mat), mode="full")
    stepped = nt_step(st, st.kappa)
    assert np.linalg.norm(stepped.D - st.D, ord="fro") <= \
        1e-9 * np.linalg.norm(st.D, ord="fro")


def test_nt_step_contraction_over_deltas(rng):
    # delta' <= 0.5 delta^2 / (1 - delta) for delta in {.05, .1, .2, .3}
    count = 0
    for delta_target in (0.05, 0.1, 0.2, 0.3):
        for trial in range(25):
            local = np.random.default_rng(4000 + 100 * trial + 1)
            n = int(local.integers(2, 9))
            m = random_spd(n, local, cond=float(local.uniform(5, 50)))
            kappa = float(np.linalg.cond(m.mat) * local.uniform(1.5, 3.0))
            st, measured = perturbed_center_state(m, kappa, delta_target,
                                                  local)
            stepped = nt_step(st, st.kappa)
            after = max(stepped.deltas())
            bound = 0.5 * measured ** 2 / (1 - measured)
            assert after <= bound + 1e-9
            count += 1
    assert count == 100


def test_nt_step_displacement_bound(rng):
    for trial in range(50):
        local = np.random.default_rng(5000 + trial)
        n = int(local.integers(2, 9))
        m = random_spd(n, local, cond=20.0)
        kappa = float(np.linalg.cond(m.mat) * 2.0)
        delta_target = float(local.uniform(0.05, 0.3))
        st, measured = perturbed_center_state(m, kappa, delta_target, local)
        stepped = nt_step(st, st.kappa)
        d_ih = sym_pow(st.D, -0.5)
        disp = np.linalg.norm(d_ih @ stepped.D @ d_ih - np.eye(n), ord="fro")
        assert disp <= measured / (1 - measured) + 1e-9


def test_nt_step_preserves_identity(rng):
    m = random_spd(5, rng)
    st = state_from_center(m, 2.5 * np.linalg.cond(m.mat), mode="full")
    sh = shift_state(st, delta_kappa(st, 0.2))
    stepped = nt_step(sh, sh.kappa)
    assert stepped.identity_residual() < 1e-9


def test_nt_step_diag_mode_keeps_diagonal(rng):
    m = random_spd(5, rng)
    kappa = 2 * np.linalg.cond(m.mat)
    st = state_from_center(m, kappa, mode=MODE_DIAG)
    sh = shift_state(st, delta_kappa(st, 0.1))
    stepped = nt_step(sh, sh.kappa)
    off = stepped.D - np.diag(np.diag(stepped.D))
    assert np.abs(off).max() < 1e-14
    assert stepped.identity_residual() < 1e-8


def test_solve_right_pr_diagonal_input():
    m = SymMatrix.diagonal([5.0, 2.0, 1.0])
    for mode in ("exact", "approximate"):
        scaling, report = solve_right_pr(m, mode=mode)
        assert report.kappa_after == pytest.approx(1.0, abs=1e-6)
        # scaling proportional to the diagonal of M
        ratio = scaling.values / np.array([5.0, 2.0, 1.0])
        assert np.allclose(ratio, ratio[0], rtol=1e-6)


def test_solve_right_pr_matches_grid_2x2():
    m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
    oracle = grid_optimal_right(m.mat)
    for mode in ("exact", "approximate"):
        scaling, report = solve_right_pr(
            m, PRConfig(kappa_tol=1e-6), mode=mode)
        assert report.kappa_after == pytest.approx(oracle, rel=1e-3)


def test_solve_right_pr_potential_decreases(rng):
    m = random_spd(6, rng, cond=50.0)
    for mode in ("exact", "approximate"):
        scaling, report = solve_right_pr(m, PRConfig(kappa_tol=1e-4),
                                         mode=mode)
        traj = report.extra["potential_trajectory"]
        pots = np.array([p for (_, p, _) in traj])
        assert np.all(np.diff(pots) < 0)


def test_solve_right_pr_kappa_within_terminal(rng):
    m = random_spd(7, rng, cond=80.0)
    scaling, report = solve_right_pr(m, PRConfig(kappa_tol=1e-5))
    assert report.kappa_after <= report.extra["kappa_terminal"] * (1 + 1e-9)
    assert report.kappa_after <= report.kappa_before * (1 + 1e-9)


def test_solve_right_pr_agrees_with_dsdp(rng):
    m = random_spd(12, rng, cond=200.0)
    _, rep_pr = solve_right_pr(m, PRConfig(kappa_tol=1e-5))
    _, _, rep_ds = barrier_path_solve(build_right(m))
    assert rep_pr.kappa_after == pytest.approx(rep_ds.kappa_after, rel=1e-2)


def test_potential_monotone_in_kappa(rng):
    # P(kappa_0) > P(kappa_1) for kappa_0 > kappa_1 > kappa*
    from optiprecond.barrier import BarrierPoint

    for trial in range(10):
        local = np.random.default_rng(6000 + trial)
        n = int(local.integers(2, 11))
        m = random_spd(n, local, cond=float(local.uniform(5, 100)))
        tau, d_star, rep = barrier_path_solve(build_right(m))
        kappa_star = rep.kappa_after
        kappas = np.sort(local.uniform(kappa_star + 0.05,
                                       3 * kappa_star + 1, 4))[::-1]
        values = []
        for kappa in kappas:
            # the (shrunk) dual-SDP witness is feasible for every
            # kappa > kappa*, including kappa below kappa(M)
            theta = 0.5 * (1 - kappa_star / kappa)
            start = BarrierPoint(m, kappa, d_star * (1 - theta))
            center = compute_center(m, kappa, start)
            values.append(barrier_value(m, center))
        assert np.all(np.diff(values) < 0)
