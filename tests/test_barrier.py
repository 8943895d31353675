import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack

from optiprecond import (
    InfeasiblePointError,
    RectMatrix,
    SymMatrix,
    compute_center,
    initial_feasible_point,
    read_matrix_market,
    two_sided_feasibility,
)
from optiprecond.barrier import LmiBarrier, _level_barrier, _one_sided
from optiprecond.dsdp import build_left, build_right
from optiprecond.fixtures import fixture_path
from optiprecond.linalg import inv_from_chol
from optiprecond.optimal import alternate_two_sided
from conftest import grid_optimal_two_sided_3x3, random_spd

# root of -12 d^2 + 10 d - 1 inside (1/4, 1): the 1x1, kappa=4 center
SCALAR_CENTER = (10 + np.sqrt(52)) / 24
# barrier value there, frozen from a 40-digit evaluation of the closed form
SCALAR_CENTER_VALUE = -0.9701193209714584


def scalar_point():
    """The 1x1, kappa=4 barrier and its state at the center."""
    barrier = _one_sided(np.array([[1.0]]), 4.0)
    return barrier, barrier.factor(np.array([SCALAR_CENTER]))


def test_barrier_point_requires_strict_feasibility():
    m = SymMatrix([[1.0]])
    with pytest.raises(InfeasiblePointError):
        compute_center(m, 4.0, np.array([1.5]))     # M - D indefinite
    with pytest.raises(InfeasiblePointError):
        compute_center(m, 4.0, np.array([0.1]))     # kappa D - M indefinite
    with pytest.raises(InfeasiblePointError):
        compute_center(m, 4.0, np.array([-0.5]))    # d not positive
    with pytest.raises(ValueError, match="wrong length"):
        compute_center(m, 4.0, np.array([0.5, 0.5]))


def test_compute_center_started_at_its_center_factors_once(rng,
                                                          monkeypatch):
    m = random_spd(5, rng)
    kappa = 3.0 * np.linalg.cond(m.mat)
    center = compute_center(m, kappa, initial_feasible_point(m, kappa),
                            tol=1e-10)
    calls = []
    factor = LmiBarrier.factor

    def counted(self, x):
        calls.append(x)
        return factor(self, x)

    monkeypatch.setattr(LmiBarrier, "factor", counted)
    again = compute_center(m, kappa, center, tol=1e-10)
    assert len(calls) == 1
    assert np.array_equal(again, center)


def test_barrier_value_scalar_case():
    barrier, state = scalar_point()
    assert barrier.value(state) == pytest.approx(SCALAR_CENTER_VALUE,
                                                 rel=1e-12)


def test_barrier_value_separable_identity():
    n, kappa, c = 4, 3.0, 0.6
    barrier = _one_sided(np.eye(n), kappa)
    expect = n * (np.log(1 - c) + np.log(kappa * c - 1) + np.log(c))
    assert barrier.value(barrier.factor(np.full(n, c))) == pytest.approx(
        expect, rel=1e-12)


def test_barrier_value_finite_on_feasible(rng):
    m = random_spd(6, rng)
    kappa = 100.0
    barrier = _one_sided(m.mat, kappa)
    state = barrier.factor(initial_feasible_point(m, kappa))
    assert np.isfinite(barrier.value(state))


def test_barrier_gradient_zero_at_scalar_center():
    barrier, state = scalar_point()
    assert abs(barrier.derivatives(state)[0][0]) < 1e-8


def test_barrier_gradient_diagonal_closed_form():
    # for diagonal M the FOC decouples into per-coordinate scalar roots
    mvals = np.array([2.0, 5.0])
    kappa = 4.0
    barrier = _one_sided(np.diag(mvals), kappa)
    d = mvals * SCALAR_CENTER      # scalar solution scales linearly
    g = barrier.derivatives(barrier.factor(d))[0]
    assert np.abs(g).max() < 1e-8


def test_barrier_gradient_matches_finite_differences(rng):
    m = random_spd(5, rng, cond=20.0)
    kappa = 3.0 * np.linalg.cond(m.mat)
    center = compute_center(m, kappa, initial_feasible_point(m, kappa))
    d0 = center * (1 + 0.05 * rng.uniform(-1, 1, 5))
    barrier = _one_sided(m.mat, kappa)
    g = barrier.derivatives(barrier.factor(d0))[0]
    h = 1e-6 * np.abs(d0)
    for i in range(5):
        e = np.zeros(5)
        e[i] = h[i]
        plus = barrier.value(barrier.factor(d0 + e))
        minus = barrier.value(barrier.factor(d0 - e))
        fd = (plus - minus) / (2 * h[i])
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_barrier_hessian_scalar_closed_form():
    barrier, state = scalar_point()
    d = SCALAR_CENTER
    expect = -(1 / (1 - d) ** 2 + 16 / (4 * d - 1) ** 2 + 1 / d ** 2)
    assert -barrier.derivatives(state)[1][0, 0] == pytest.approx(expect,
                                                                 rel=1e-12)


def test_barrier_hessian_diagonal_for_diagonal_m():
    barrier = _one_sided(np.diag([2.0, 5.0]), 4.0)
    h = -barrier.derivatives(barrier.factor(np.array([1.0, 2.5])))[1]
    assert h[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_barrier_hessian_negative_definite(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = random_spd(n, rng, cond=30.0)
        kappa = 2.5 * np.linalg.cond(m.mat)
        center = compute_center(m, kappa, initial_feasible_point(m, kappa))
        d = center * np.exp(0.05 * rng.uniform(-1, 1, n))
        barrier = _one_sided(m.mat, kappa)
        state = barrier.factor(d)
        if state is None:
            continue
        w = np.linalg.eigvalsh(-barrier.derivatives(state)[1])
        assert w[-1] < 0


def test_barrier_hessian_matches_gradient_differences(rng):
    m = random_spd(4, rng, cond=10.0)
    kappa = 3.0 * np.linalg.cond(m.mat)
    d0 = compute_center(m, kappa, initial_feasible_point(m, kappa))
    barrier = _one_sided(m.mat, kappa)
    # negating copies the Hessian workspace, which the calls below reuse
    h_mat = -barrier.derivatives(barrier.factor(d0))[1]
    step = 1e-6 * np.abs(d0)
    for j in range(4):
        e = np.zeros(4)
        e[j] = step[j]
        gp = barrier.derivatives(barrier.factor(d0 + e))[0]
        gm = barrier.derivatives(barrier.factor(d0 - e))[0]
        fd = (gp - gm) / (2 * step[j])
        assert np.allclose(h_mat[:, j], fd, rtol=1e-4, atol=1e-6)


def test_compute_center_scalar():
    m = SymMatrix([[1.0]])
    center = compute_center(m, 4.0, initial_feasible_point(m, 4.0),
                            tol=1e-12)
    assert center[0] == pytest.approx(SCALAR_CENTER, rel=1e-10)


def test_compute_center_diagonal_decouples():
    mvals = np.array([2.0, 5.0, 4.0])
    m = SymMatrix.diagonal(mvals)
    center = compute_center(m, 4.0, initial_feasible_point(m, 4.0),
                            tol=1e-12)
    assert np.allclose(center, mvals * SCALAR_CENTER, rtol=1e-9)


def test_compute_center_fixed_point(rng):
    m = random_spd(5, rng)
    kappa = 3.0 * np.linalg.cond(m.mat)
    center = compute_center(m, kappa, initial_feasible_point(m, kappa),
                            tol=1e-10)
    again = compute_center(m, kappa, center, tol=1e-10)
    assert np.allclose(again, center, rtol=1e-12, atol=1e-12)


def test_compute_center_foc(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = random_spd(n, rng, cond=100.0)
        kappa = 1.5 * np.linalg.cond(m.mat)
        center = compute_center(m, kappa, initial_feasible_point(m, kappa),
                                tol=1e-9)
        barrier = _one_sided(m.mat, kappa)
        g = barrier.derivatives(barrier.factor(center))[0]
        assert np.abs(g).max() <= 1e-9


def test_barrier_value_nondecreasing_along_newton(rng):
    m = random_spd(6, rng, cond=200.0)
    kappa = 1.2 * np.linalg.cond(m.mat)
    start = initial_feasible_point(m, kappa)
    barrier = _one_sided(m.mat, kappa)
    v0 = barrier.value(barrier.factor(start))
    center = compute_center(m, kappa, start)
    assert barrier.value(barrier.factor(center)) >= v0 - 1e-10 * (1 + abs(v0))


def test_initial_feasible_point_examples():
    d = initial_feasible_point(SymMatrix.identity(3), 2.0)
    assert np.allclose(d, 1 / np.sqrt(2))
    d = initial_feasible_point(SymMatrix.diagonal([4.0, 1.0]), 8.0)
    assert np.allclose(d, np.sqrt(4.0 / 8.0))
    with pytest.raises(InfeasiblePointError):
        initial_feasible_point(SymMatrix.diagonal([4.0, 1.0]), 4.0)


def _assert_witness(a_arr, kappa, res):
    """A feasible verdict's pair, checked by eigvalsh at the level."""
    assert res.verdict == "feasible" and res.certificate is None
    d1, d2 = res.witness_left, res.witness
    assert d1.min() > 0 and d2.min() > 0
    g = a_arr.T @ (d1[:, None] * a_arr)
    assert np.linalg.eigvalsh(g - np.diag(d2))[0] > 0
    assert np.linalg.eigvalsh(kappa * np.diag(d2) - g)[0] > 0
    r = 1.0 / np.sqrt(d2)
    w = np.linalg.eigvalsh(r[:, None] * g * r[None, :])
    assert res.kappa == pytest.approx(w[-1] / w[0], rel=1e-9)
    assert res.kappa <= kappa


def _assert_certificate(a_arr, kappa, res):
    """An infeasible verdict's (X, Y), checked on the unscaled A: X, Y > 0,
    a_i^T (X - Y) a_i <= 0 and kappa Y_jj - X_jj < 0, so that
    <X, A^T D1 A - D2> + <Y, kappa D2 - A^T D1 A> <= 0 for every d >= 0."""
    assert res.verdict == "infeasible" and res.witness is None
    x_inv, y_inv = res.certificate
    assert np.linalg.eigvalsh(x_inv)[0] > 0
    assert np.linalg.eigvalsh(y_inv)[0] > 0
    u = np.einsum("ij,jk,ik->i", a_arr, x_inv - y_inv, a_arr)
    assert u.max() <= 0
    assert (kappa * np.diag(y_inv) - np.diag(x_inv)).max() < 0


def test_two_sided_feasibility_always_works_level(rng):
    a = RectMatrix(rng.standard_normal((5, 3)))
    gram = a.mat.T @ a.mat
    kappa0 = float(np.linalg.cond(gram))
    res = two_sided_feasibility(a, kappa0 * 1.0000001)
    _assert_witness(a.mat, kappa0 * 1.0000001, res)


def test_two_sided_feasibility_diagonal():
    a = RectMatrix(np.diag([2.0, 1.0]))
    _assert_witness(a.mat, 1.05, two_sided_feasibility(a, 1.05))
    _assert_certificate(a.mat, 0.9, two_sided_feasibility(a, 0.9))
    with pytest.raises(ValueError):
        two_sided_feasibility(a, 0.0)


def test_two_sided_feasibility_below_optimum(rng):
    a_arr = np.random.default_rng(5).standard_normal((3, 3))
    best = grid_optimal_two_sided_3x3(a_arr, levels=15, rounds=4)
    _assert_certificate(a_arr, best * 0.9,
                        two_sided_feasibility(RectMatrix(a_arr), best * 0.9))
    _assert_witness(a_arr, best * 1.1,
                    two_sided_feasibility(RectMatrix(a_arr), best * 1.1))


def test_two_sided_witness_attains_margin(rng):
    # the witness proves the level from any starting pair, and a level
    # above the starting pair's kappa is decided without a Newton step
    a = RectMatrix(rng.standard_normal((4, 2)))
    kappa = float(np.linalg.cond(a.mat.T @ a.mat)) * 2
    res = two_sided_feasibility(a, kappa)
    _assert_witness(a.mat, kappa, res)
    again = two_sided_feasibility(a, kappa, (res.witness_left, res.witness))
    _assert_witness(a.mat, kappa, again)
    assert again.newton_steps == 0
    skewed = (np.geomspace(1.0, 1e3, 4), np.array([1e-2, 10.0]))
    _assert_witness(a.mat, kappa, two_sided_feasibility(a, kappa, skewed))


def test_two_sided_found_levels_are_decided():
    # the max-margin oracle that the level test replaced rejected
    # trefethen_20 at 17.15, which alternation's 17.136 shows feasible
    for name, kappa, verdict in (("trefethen_20", 17.15, "feasible"),
                                 ("trefethen_20b", 6.24, "infeasible")):
        a = read_matrix_market(fixture_path(name))
        pair, _ = alternate_two_sided(a)
        for witness in (None, (pair.left_values, pair.values)):
            res = two_sided_feasibility(a, kappa, witness)
            check = _assert_witness if verdict == "feasible" \
                else _assert_certificate
            check(a.mat, kappa, res)


def test_level_test_runs_on_the_nonzero_rows():
    # a zero row forces its multiplier to 0, so the primal start would not
    # be interior (9 least-squares fallbacks in a bisection); the test
    # drops the row, decides as without it, and keeps its weight positive
    a_arr = np.random.default_rng(0).standard_normal((8, 3))
    a_arr[2] = 0.0
    for kappa, check in ((2.77, _assert_certificate),
                         (2.79, _assert_witness)):
        res = two_sided_feasibility(RectMatrix(a_arr), kappa)
        check(a_arr, kappa, res)
        ref = two_sided_feasibility(
            RectMatrix(np.delete(a_arr, 2, axis=0)), kappa)
        assert res.newton_steps == ref.newton_steps
        if res.feasible:
            assert res.kappa == ref.kappa


def _phase_one_two_sided(rng):
    a_arr = rng.standard_normal((6, 4))
    kappa = 2.0 * np.linalg.cond(a_arr.T @ a_arr)
    gram = a_arr.T @ a_arr
    d2 = np.full(4, 1.01)
    slack = min(np.linalg.eigvalsh(gram - np.diag(d2))[0],
                np.linalg.eigvalsh(kappa * np.diag(d2) - gram)[0])
    return (_level_barrier(a_arr, kappa),
            np.concatenate([[slack - 1.0], np.ones(6), d2]))


def _dsdp_right(rng):
    p = build_right(random_spd(5, rng, cond=20.0))
    return p.barrier, p.start


def _dsdp_left(rng):
    p = build_left(RectMatrix(rng.standard_normal((7, 3))))
    return p.barrier, p.start


@pytest.mark.parametrize("make", [_phase_one_two_sided, _dsdp_right,
                                  _dsdp_left])
def test_lmi_barrier_derivatives_match_finite_differences(make, rng):
    barrier, x0 = make(rng)
    x0 = x0 * (1 + 1e-3 * rng.uniform(-1, 1, x0.size))
    state = barrier.factor(x0)
    assert state is not None
    g, neg_h = barrier.derivatives(state)
    neg_h = neg_h.copy()    # the next derivatives call overwrites it
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


@pytest.mark.parametrize("make", [_phase_one_two_sided, _dsdp_right,
                                  _dsdp_left])
def test_schur_is_the_two_matrix_kernel(make, rng):
    # sum over cones of tr(F^-1 F_a X F_b) + diag(v / x[positive]), by the
    # definition, for primal matrices X other than F^-1
    barrier, x0 = make(rng)
    state = barrier.factor(x0)
    xs = [(lambda g: g @ g.T + np.eye(len(f0)))(
        rng.standard_normal(f0.shape)) for f0, _ in barrier.cones]
    v = rng.uniform(0.5, 2.0, barrier.positive.stop - barrier.positive.start)
    basis = [barrier.linear(e) for e in np.eye(barrier.nvar)]
    ref = np.array([[sum(np.trace(f.inv @ fa[k] @ x @ fb[k])
                         for k, (f, x) in enumerate(zip(state[0], xs)))
                     for fb in basis] for fa in basis])
    idx = np.arange(barrier.positive.start, barrier.positive.stop)
    ref[idx, idx] += v / state[1]
    schur = barrier.kernel_sum(
        [(f.inv, x) for f, x in zip(state[0], xs)], v / state[1])
    assert np.allclose(schur, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # adjoint is the transpose of linear: <A(G), u> = sum <G_k, F_k(u)>
    u = rng.standard_normal(barrier.nvar)
    lhs = barrier.adjoint(xs, v) @ u
    rhs = sum(np.sum(x * du) for x, du in zip(xs, barrier.linear(u))) + \
        v @ u[barrier.positive]
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _fresh_derivatives(barrier, state):
    """Gradient and negated Hessian assembled in fresh arrays, block by
    block in the order of LmiBarrier.derivatives: the reference for its
    in-place workspace."""
    factors, slack = state
    g = np.zeros(barrier.nvar)
    nh = np.zeros((barrier.nvar, barrier.nvar))

    def cross(ti, pi, tj, pj):
        if ti.eye and tj.eye:
            return np.array([[np.sum(pi * pj.T)]])
        if ti.eye:
            return cross(tj, pj, ti, pi).T
        if tj.eye:
            upb = pj if ti.rows is None else ti.rows @ pj
            return np.einsum("ij,ij->i", upb, pi)[:, None]
        w = pi if tj.rows is None else pi @ tj.rows.T
        return w * w

    for (_, terms), f in zip(barrier.cones, factors):
        p = inv_from_chol(f.lower)
        ker = [(t.trace(p), t.image(p)) for t in terms]
        for i, (ti, (tr, pi)) in enumerate(zip(terms, ker)):
            g[ti.sl] += ti.coef * tr
            for tj, (_, pj) in zip(terms[i:], ker[i:]):
                k = (ti.coef * tj.coef) * cross(ti, pi, tj, pj)
                nh[ti.sl, tj.sl] += k
                if tj is not ti:
                    nh[tj.sl, ti.sl] += k.T
    g[barrier.positive] += 1.0 / slack
    idx = np.arange(barrier.positive.start, barrier.positive.stop)
    nh[idx, idx] += 1.0 / slack ** 2
    return g, nh


def _one_sided_start(rng):
    m = random_spd(5, rng, cond=20.0)
    kappa = 3.0 * np.linalg.cond(m.mat)
    return _one_sided(m.mat, kappa), initial_feasible_point(m, kappa)


@pytest.mark.parametrize("make", [_phase_one_two_sided, _dsdp_right,
                                  _dsdp_left, _one_sided_start])
def test_workspace_derivatives_are_bit_equal_to_fresh_assembly(make, rng):
    barrier, x0 = make(rng)
    for _ in range(3):    # later calls reuse the workspace of the first
        x = x0 * (1 + 1e-3 * rng.uniform(-1, 1, x0.size))
        g, neg_h = barrier.derivatives(barrier.factor(x))
        ref_g, ref_h = _fresh_derivatives(barrier, barrier.factor(x))
        assert np.array_equal(g, ref_g)
        assert np.array_equal(neg_h, ref_h)


def _term_product(t, xs, n):
    """sum_j coef * xs_j F_j of one term of an order-n cone, with coef
    folded into xs: the reference for the row products that Term.matrix
    shares."""
    if t.eye:
        return (t.coef * xs[0]) * np.eye(n)
    if t.rows is None:
        return np.diag(t.coef * xs)
    g = t.rows.T @ ((t.coef * xs)[:, None] * t.rows)
    return 0.5 * (g + g.T)


@pytest.mark.parametrize("make", [_phase_one_two_sided, _dsdp_right,
                                  _dsdp_left])
def test_shared_row_products_are_bit_equal_to_per_term_products(make, rng):
    # factor and linear form U^T diag(x) U once for the terms of coef 1 and
    # -1 on the same rows; this gives the bits of forming each term's own
    # product
    barrier, x0 = make(rng)
    x = x0 * (1 + 1e-3 * rng.uniform(-1, 1, x0.size))
    dx = rng.standard_normal(x0.size)
    for got, point, shift in ((barrier.factor(x)[0], x, True),
                              (barrier.linear(dx), dx, False)):
        for g, (f0, terms) in zip(got, barrier.cones):
            ref = sum(_term_product(t, point[t.sl], len(f0)) for t in terms)
            assert np.array_equal(g.mat if shift else g,
                                  ref + f0 if shift else ref)


def test_derivatives_allocate_less_than_one_hessian():
    design = RectMatrix(np.random.default_rng(7).standard_normal((400, 40)))
    p = build_left(design)
    p.barrier.derivatives(p.barrier.factor(p.start))
    state = p.barrier.factor(p.start)
    tracemalloc.start()
    try:
        p.barrier.derivatives(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 400 * 8


def test_schur_assembly_keeps_u_q_ut_in_the_workspace():
    # the HKM Schur matrix of gauss_cov_s0 left: U P U^T and U Q U^T each
    # have a 400 x 400 block of the workspace, so a second assembly
    # allocates only the 400 x 40 images, at least 1 MB below the 1.6 MB
    # it peaked at with U Q U^T in a fresh array
    p = build_left(read_matrix_market(fixture_path("gauss_cov_s0")))
    factors, slack = p.barrier.factor(p.start)
    xs, v = p.primal_start
    pairs = [(f.inv, x) for f, x in zip(factors, xs)]
    first = p.barrier.kernel_sum(pairs, v / slack).copy()
    tracemalloc.start()
    try:
        second = p.barrier.kernel_sum(pairs, v / slack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    assert peak <= 1.6e6 - 1e6


def test_level_test_inverts_each_cone_once_per_point(monkeypatch):
    orders = []
    dpotri = scipy.linalg.lapack.dpotri

    def counted(factor, *args, **kwargs):
        orders.append(factor.shape[0])
        return dpotri(factor, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotri", counted)
    a = read_matrix_market(fixture_path("trefethen_20b"))
    res = two_sided_feasibility(a, 6.24)
    assert res.verdict == "infeasible" and res.newton_steps >= 10
    # each iteration inverts the two order-n cones and the two 1x1 band
    # cones of its dual point once; the stop test reads the primal pair
    # and inverts nothing
    steps = res.newton_steps
    assert orders.count(1) == 2 * steps
    assert orders.count(a.cols) == 2 * steps
    assert len(orders) == 4 * steps


def test_level_test_decides_trefethen_150_at_the_optimum():
    # both levels lie within 0.02 of the two-sided optimum (about 17.78):
    # the certificate and the witness must come from near-optimal iterates
    a = read_matrix_market(fixture_path("trefethen_150"))
    below = two_sided_feasibility(a, 17.77)
    _assert_certificate(a.mat, 17.77, below)
    above = two_sided_feasibility(a, 17.79)
    _assert_witness(a.mat, 17.79, above)
