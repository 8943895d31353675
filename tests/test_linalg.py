import ast
import ctypes
import importlib
import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from optiprecond import (NotPositiveDefiniteError, SymMatrix,
                         condition_number, gram_matrix, read_matrix_market)
from optiprecond import linalg
from optiprecond.fixtures import fixture_path
from optiprecond.linalg import (
    EigenConvergenceError,
    blas_backend,
    chol_pd,
    geomean_inv,
    inv_from_chol,
    inv_pd,
    logdet_from_chol,
    max_step_chol,
    proximity_delta,
    scaled_eigh,
    serial_blas,
    solve_chol,
    solve_pd,
    sym_pow,
)
from conftest import random_spd
from test_fixtures import PINNED_RIGHT_PR


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0], [0.0, 1.0]])


def test_symmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix([[np.inf, 0.0], [0.0, 1.0]])


def test_cholesky_identity():
    assert np.allclose(chol_pd(np.eye(2)), np.eye(2))


def test_cholesky_indefinite():
    assert chol_pd(np.array([[1.0, 2.0], [2.0, 1.0]])) is None


def test_cholesky_hand_elimination():
    assert np.allclose(chol_pd(np.array([[4.0, 2.0], [2.0, 2.0]])),
                       [[2.0, 0.0], [1.0, 1.0]])


def test_cholesky_tiny_pivot_fails():
    # the second pivot, 1e-17, rounds to zero
    assert chol_pd(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-17]])) is None


def test_condition_number_values():
    assert condition_number(SymMatrix.identity(5)) == pytest.approx(1.0)
    assert condition_number(SymMatrix.diagonal([9.0, 1.0])) == \
        pytest.approx(9.0)
    expect = (3 + np.sqrt(2)) / (3 - np.sqrt(2))
    assert condition_number(SymMatrix([[1.0, 0.5], [0.5, 2.0]])) == \
        pytest.approx(expect, rel=1e-12)


def test_condition_number_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        condition_number(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))


def test_condition_number_scale_invariant(rng):
    m = random_spd(6, rng)
    base = condition_number(m)
    for c in (1e-7, 3.0, 2.5e8):
        assert condition_number(SymMatrix(c * m.mat)) == \
            pytest.approx(base, rel=1e-10)


def test_gram_condition_square_relation(rng):
    # kappa(A^T A) = kappa(A)^2 for full-rank tall A
    for _ in range(10):
        a = rng.standard_normal((12, 5))
        ata = SymMatrix(a.T @ a)
        aat = a @ a.T
        w = np.linalg.eigvalsh(aat)
        sigma = np.sqrt(w[w > 1e-10 * w[-1]])
        kappa_a = sigma[-1] / sigma[0]
        assert condition_number(ata) == pytest.approx(kappa_a ** 2, rel=1e-8)


def test_psd_inverse_examples():
    assert np.allclose(inv_pd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    assert np.allclose(inv_pd(np.eye(3)), np.eye(3))
    assert np.allclose(inv_pd(np.array([[4.0, 2.0], [2.0, 2.0]])),
                       [[0.5, -0.5], [-0.5, 1.0]])


@pytest.mark.parametrize("n", [1, 20, 150])
def test_inv_from_chol_mirrors_lower_triangle_exactly(n):
    # chol_pd zeroes the upper triangle, so inv + inv.T with the diagonal
    # restored equals mirroring dpotri's strict lower triangle, bit for bit
    m = random_spd(n, np.random.default_rng(n), cond=1e4)
    lower = chol_pd(m.mat)
    inv = inv_from_chol(lower)
    raw, info = scipy.linalg.lapack.dpotri(lower, lower=1)
    assert info == 0
    assert np.array_equal(inv, raw + np.tril(raw, -1).T)
    assert np.array_equal(inv, inv.T)
    resid = np.linalg.norm(m.mat @ inv - np.eye(n), ord="fro")
    assert resid <= 1e-10 * condition_number(m)


def test_psd_inverse_residual(rng):
    m = random_spd(8, rng, cond=1e4)
    resid = np.linalg.norm(m.mat @ inv_pd(m.mat) - np.eye(8), ord="fro")
    assert resid <= 1e-8 * condition_number(m)
    with pytest.raises(NotPositiveDefiniteError):
        inv_pd(np.diag([1.0, 0.0]))


def test_psd_sqrt():
    assert np.allclose(sym_pow(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))
    assert np.allclose(sym_pow(np.eye(4), 0.5), np.eye(4))
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = sym_pow(m, 0.5)
    assert np.linalg.norm(root @ root - m, ord="fro") < 1e-10
    with pytest.raises(NotPositiveDefiniteError):
        sym_pow(np.diag([1.0, -0.5]), 0.5)


@pytest.mark.parametrize("n, cond", [(1, 1.0), (5, 30.0), (12, 1e6)])
def test_sym_pow_inverse_agrees_with_inv_pd(n, cond, rng):
    m = random_spd(n, rng, cond=cond).mat
    inv = inv_pd(m)
    assert np.array_equal(inv, inv.T)
    assert np.linalg.norm(sym_pow(m, -1.0) - inv, ord="fro") <= \
        1e-12 * cond * np.linalg.norm(inv, ord="fro")


def _two_power_geomean(a, b):
    """a # b^{-1} as a^{1/2} (a^{1/2} b a^{1/2})^{-1/2} a^{1/2}."""
    ah = sym_pow(a, 0.5)
    inner = ah @ b @ ah
    return ah @ sym_pow(0.5 * (inner + inner.T), -0.5) @ ah


@pytest.mark.parametrize("n", [1, 5, 20])
def test_geomean_inv_matches_power_formula(n):
    # one Cholesky factor and one eigensolve give the mean that two
    # fractional powers give, u b u = a, and swapping the arguments inverts
    for trial in range(30):
        local = np.random.default_rng((n, trial))
        a = random_spd(n, local, cond=10 ** local.uniform(0, 6)).mat
        b = random_spd(n, local, cond=10 ** local.uniform(0, 6)).mat
        kappa = max(np.linalg.cond(a), np.linalg.cond(b))
        u, u_inv = geomean_inv(a, b), geomean_inv(b, a)
        norm_u = np.linalg.norm(u, ord="fro")
        assert np.array_equal(u, u.T)
        assert np.linalg.norm(u - _two_power_geomean(a, b), ord="fro") <= \
            1e-10 * kappa * norm_u
        assert np.linalg.norm(u @ b @ u - a, ord="fro") <= \
            1e-12 * kappa * np.linalg.norm(a, ord="fro")
        assert np.linalg.norm(u @ u_inv - np.eye(n), ord="fro") <= \
            1e-12 * kappa


@pytest.mark.parametrize("n", [1, 6, 40])
def test_scaled_eigh_diagonalizes_m_and_d_together(n):
    # P = D^{-1/2} Q puts M and D in one basis: P^T M P = diag(w) with w
    # the ascending spectrum of D^{-1/2} M D^{-1/2}, and P^T D P = I
    local = np.random.default_rng(n)
    m = random_spd(n, local, cond=1e3).mat
    d = local.uniform(0.1, 10.0, n)
    w, p = scaled_eigh(m, d)
    s = 1.0 / np.sqrt(d)
    assert np.allclose(w, np.linalg.eigvalsh(s[:, None] * m * s[None, :]),
                       rtol=1e-12, atol=0)
    assert np.allclose(p.T @ m @ p, np.diag(w), rtol=0, atol=1e-12 * w[-1])
    assert np.allclose(p.T @ (d[:, None] * p), np.eye(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", PINNED_RIGHT_PR)
def test_eigh_matches_numpy_eigh_and_scipy_eigvalsh(name):
    # one dsyevd on the lower triangle, with the workspace of numpy's eigh
    # (also dsyevd) or, for eigenvalues only, with dsytrd blocked as in
    # scipy's eigvalsh (dsyevr): on the benchmark's eight right Grams and on
    # their Jacobi-scaled forms, whose two triangles differ in rounding, the
    # results are bit-identical and the vectors C-contiguous
    g = gram_matrix(read_matrix_market(fixture_path(name))).mat
    s = 1.0 / np.sqrt(np.diag(g))
    for a in (g, s[:, None] * g * s[None, :]):
        w, v = linalg._eigh(a)
        expected_w, expected_v = np.linalg.eigh(a)
        assert np.array_equal(w, expected_w)
        assert np.array_equal(v, expected_v) and v.flags.c_contiguous
        assert np.array_equal(linalg._eigh(a, vectors=False),
                              scipy.linalg.eigvalsh(a))


def test_eigh_failure_raises_in_every_spectrum(monkeypatch):
    dsyevd = scipy.linalg.lapack.dsyevd

    def failing(*args, **kwargs):
        return (*dsyevd(*args, **kwargs)[:2], 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevd", failing)
    m = random_spd(4, np.random.default_rng(6), cond=10.0).mat
    for spectrum in (lambda: condition_number(m), lambda: sym_pow(m, 0.5),
                     lambda: geomean_inv(m, m),
                     lambda: scaled_eigh(m, np.ones(4))):
        with pytest.raises(EigenConvergenceError):
            spectrum()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_eigh_rejects_non_finite_entries(n):
    # every position of the lower triangle, in a dense and in a diagonal
    # matrix: the diagonal check catches the NaN that dsyevd loses on the
    # diagonal of a diagonal matrix, the eigenvalues every other entry
    local = np.random.default_rng(n)
    dense = random_spd(n, local, cond=10.0).mat
    for base in (dense, np.diag(np.diag(dense))):
        for i, j in zip(*np.tril_indices(n)):
            for value in (np.nan, np.inf, -np.inf):
                a = base.copy()
                a[i, j] = a[j, i] = value
                for vectors in (True, False):
                    with pytest.raises(NotPositiveDefiniteError):
                        linalg._eigh(a, vectors)


@pytest.mark.parametrize("a, b", [
    (np.diag([1.0, -1.0]), np.eye(2)),
    (np.diag([1.0, 0.0]), np.eye(2)),
    (np.eye(2), np.diag([1.0, -1.0])),
    (np.eye(2), np.diag([1.0, 0.0])),
    (np.eye(2), np.diag([1.0, np.nan])),
])
def test_geomean_inv_rejects_non_pd(a, b):
    with pytest.raises(NotPositiveDefiniteError):
        geomean_inv(a, b)


def test_proximity_delta_examples():
    eye = np.eye(3)
    assert proximity_delta(eye, eye) == pytest.approx(0.0, abs=1e-14)
    # exact inverses have zero proximity
    assert proximity_delta(np.diag([2.0]), np.diag([0.5])) == \
        pytest.approx(0.0, abs=1e-14)
    assert proximity_delta(np.diag([1.1, 1.0]), np.eye(2)) == \
        pytest.approx(0.1, rel=1e-12)
    # ||b^{1/2} a b^{1/2} - I|| by eigendecomposition, for a dense pair
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([[1.0, 0.3], [0.3, 0.5]])
    bh = sym_pow(b, 0.5)
    assert proximity_delta(a, b) == pytest.approx(
        np.linalg.norm(bh @ a @ bh - np.eye(2), ord="fro"), rel=1e-12)


def test_proximity_delta_symmetry(rng):
    for _ in range(20):
        a = random_spd(5, rng, cond=30).mat
        b = random_spd(5, rng, cond=10).mat
        assert proximity_delta(a, b) == \
            pytest.approx(proximity_delta(b, a), rel=1e-8, abs=1e-8)


def test_proximity_delta_needs_pd_second_argument():
    assert proximity_delta(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])) \
        == np.inf


def test_log_det():
    def log_det(a):
        return logdet_from_chol(chol_pd(np.asarray(a, dtype=float)))
    assert log_det(np.eye(4)) == pytest.approx(0.0, abs=1e-14)
    assert log_det(np.diag([np.e, np.e])) == pytest.approx(2.0, rel=1e-12)
    assert log_det([[4.0, 2.0], [2.0, 2.0]]) == \
        pytest.approx(np.log(4.0), rel=1e-12)


def test_solve_pd_refuses_a_matrix_that_is_not_pd():
    x = solve_pd(np.array([[4.0, 2.0], [2.0, 2.0]]), np.array([2.0, 0.0]))
    assert np.allclose(x, [1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError):
        solve_pd(np.diag([2.0, 0.0]), np.array([4.0, 0.0]))


def test_max_step_cone():
    a = np.diag([1.0, 4.0])
    lower = chol_pd(a)
    # diag(1, 4) - alpha diag(2, -1) stays PSD up to alpha = 1/2
    assert max_step_chol([a], [lower], [-np.diag([2.0, -1.0])])[0] == \
        pytest.approx(0.5)
    assert max_step_chol([a], [lower], [np.diag([1.0, 1.0])])[0] == np.inf


def test_solve_chol_reuses_one_factor(rng):
    h = random_spd(6, rng, cond=50.0).mat
    lower = chol_pd(h)
    for _ in range(2):
        b = rng.standard_normal(6)
        assert np.allclose(h @ solve_chol(lower, b), b, atol=1e-12)


def test_max_step_pd(rng):
    # diag(1, 4) + alpha diag(-2, 1) stays PSD up to alpha = 1/2
    b = np.diag([1.0, 4.0])
    base = chol_pd(b)
    assert max_step_chol([b], [base], [np.diag([-2.0, 1.0])])[0] == \
        pytest.approx(0.5)
    a = random_spd(8, rng, cond=100.0).mat
    delta = rng.standard_normal((8, 8))
    delta = delta + delta.T
    alpha = max_step_chol([a], [chol_pd(a)], [delta])[0]
    assert np.linalg.eigvalsh(a + alpha * delta)[0] == \
        pytest.approx(0.0, abs=1e-12 * np.abs(a).max())
    # over several triples, the smallest step; an unbounded one adds none
    assert max_step_chol([b, a, b], [base, chol_pd(a), base],
                         [np.diag([-1.0, 1.0]), delta, np.eye(2)])[0] == \
        pytest.approx(min(1.0, alpha), rel=1e-14)
    assert max_step_chol([], [], []) == (np.inf, 0, 0)


def test_max_step_pd_survives_a_failed_subset_solve(monkeypatch):
    # delta = -c Q Q^T with rounding: twenty eigenvalues within 1e-16 of
    # each other, where the one-eigenvalue dsyevx of the OpenBLAS 0.3.31
    # wheels finds no eigenvalue and reports a failure
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((20, 20)))
    delta = -0.0557 * (q @ q.T)
    delta = 0.5 * (delta + delta.T)
    base = 0.1 * np.eye(20)
    lower = chol_pd(base)
    assert max_step_chol([base], [lower], [delta])[0] == \
        pytest.approx(0.1 / 0.0557, rel=1e-12)
    # the same answers when every subset solve fails
    a = np.diag([1.0, 4.0])
    dsyevx = scipy.linalg.lapack.dsyevx

    def failing(*args, **kwargs):
        return (*dsyevx(*args, **kwargs)[:4], 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevx", failing)
    assert max_step_chol([base], [lower], [delta])[0] == \
        pytest.approx(0.1 / 0.0557, rel=1e-12)
    assert max_step_chol([a], [chol_pd(a)], [np.diag([-2.0, 1.0])])[0] == \
        pytest.approx(0.5, rel=1e-14)


def test_max_step_chol_matches_the_generalized_eigensolve():
    # 50 pencils of order 1-40, a quarter of them unbounded (delta PSD):
    # 1 / step is the top eigenvalue of (-delta, A), or the step is inf
    # when that eigenvalue is not positive
    rng = np.random.default_rng(2024)
    unbounded = 0
    for k in range(50):
        n = int(rng.integers(1, 41))
        a = random_spd(n, rng, cond=10.0 ** rng.uniform(0, 4)).mat
        g = rng.standard_normal((n, n))
        delta = g @ g.T if k % 4 == 0 else 0.5 * (g + g.T)
        w = scipy.linalg.eigvalsh(-delta, a)
        step = max_step_chol([a], [chol_pd(a)], [delta])[0]
        if w[-1] <= 0:
            unbounded += 1
            assert step == np.inf, (k, n)
        else:
            assert 1.0 / step == pytest.approx(w[-1], rel=1e-12), (k, n)
    assert unbounded >= 12


def _two_cones(steps):
    """Two PD cones of orders 7 and 5, with deltas scaled so that the
    unscreened step of each alone is the given one."""
    rng = np.random.default_rng(29)
    mats, lowers, deltas = [], [], []
    for n, step in zip((7, 5), steps):
        a = random_spd(n, rng, cond=30.0).mat
        g = rng.standard_normal((n, n))
        g = 0.5 * (g + g.T)
        lower = chol_pd(a)
        mats.append(a)
        lowers.append(lower)
        deltas.append(g * (max_step_chol([a], [lower], [g])[0] / step))
    return mats, lowers, deltas


@pytest.mark.parametrize("steps, bound, reductions", [
    ((3.0, 2.0), 1.0, 0),       # capped at 1: no cone binds
    ((0.6, 0.8), 0.25, 0),      # a v / -dv ratio binds below both cones
    ((3.0, 0.4), 1.0, 1),       # the second cone binds, the first passes
    ((0.6, 0.3), 1.0, 2),       # both fail the test at the cap
    ((0.4, 0.6), 1.0, 1),       # the second fails at the cap, not at 0.4
])
def test_screened_step_matches_the_eigensolve(steps, bound, reductions):
    # min(bound, 1 / lambda_max) of the unscreened eigensolve, reducing
    # only the cones whose Cholesky test fails at the step in force
    mats, lowers, deltas = _two_cones(steps)
    step, _, reduced = max_step_chol(mats, lowers, deltas, bound)
    assert step == pytest.approx(
        min(bound, max_step_chol(mats, lowers, deltas)[0]), rel=1e-14)
    assert step == pytest.approx(min(bound, *steps), rel=1e-12)
    assert reduced == reductions


def test_step_tests_the_binding_cone_first():
    # both cones fail the test at the cap, so a call that tests the first
    # cone first reduces both and returns the second as binding; a call
    # that tests that cone first reduces it alone, and the first cone then
    # passes at its step
    mats, lowers, deltas = _two_cones((0.6, 0.3))
    step, binding, reduced = max_step_chol(mats, lowers, deltas, 1.0)
    assert binding == 1 and reduced == 2
    assert max_step_chol(mats, lowers, deltas, 1.0, first=binding) \
        == (step, 1, 1)
    assert step == pytest.approx(0.3, rel=1e-12)
    # a call where no reduction sets alpha returns first as binding
    assert max_step_chol(mats, lowers, deltas, 0.1, first=1) == (0.1, 1, 0)


def test_capped_step_runs_no_eigensolve(monkeypatch):
    mats, lowers, deltas = _two_cones((3.0, 2.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("reduced a cone that does not bind")
    for name in ("dsygst", "dsyevx"):
        monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
    assert max_step_chol(mats, lowers, deltas, 1.0) == (1.0, 0, 0)


def _openblas_thread_functions():
    """(get, set) of each OpenBLAS copy the numpy and scipy wheels bundle."""
    found = []
    for module, suffix in (("numpy.linalg._umath_linalg", "64_"),
                           ("scipy.linalg._flapack", "")):
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return found


@pytest.fixture
def two_blas_threads():
    """Both OpenBLAS copies at two threads; returns a reader of the counts."""
    functions = _openblas_thread_functions()
    if not functions:
        pytest.skip("no bundled OpenBLAS exports its thread functions")
    shipped = [get() for get, _ in functions]
    for _, set_ in functions:
        set_(2)
    yield lambda: [get() for get, _ in functions]
    for (_, set_), count in zip(functions, shipped):
        set_(count)


def test_serial_blas_sets_one_thread_and_restores(two_blas_threads):
    threads = two_blas_threads
    with serial_blas():
        assert set(threads()) == {1}
    assert set(threads()) == {2}


def test_serial_blas_restores_after_exception(two_blas_threads):
    threads = two_blas_threads
    with pytest.raises(ZeroDivisionError):
        with serial_blas():
            assert set(threads()) == {1}
            1 / 0
    assert set(threads()) == {2}


def test_serial_blas_nested_keeps_outer_count(two_blas_threads):
    threads = two_blas_threads
    with serial_blas():
        with serial_blas():
            assert set(threads()) == {1}
        assert set(threads()) == {1}
    assert set(threads()) == {2}


def test_serial_blas_as_decorator(two_blas_threads):
    threads = two_blas_threads

    @serial_blas()
    def solve(fail):
        seen = threads()
        if fail:
            raise RuntimeError("solver failed")
        return seen

    assert set(solve(False)) == {1}
    assert set(threads()) == {2}
    with pytest.raises(RuntimeError):
        solve(True)
    assert set(threads()) == {2}
    with serial_blas():
        assert set(solve(False)) == {1}
        assert set(threads()) == {1}
    assert set(threads()) == {2}


def test_blas_backend_on_this_install():
    if not _openblas_thread_functions():
        pytest.skip("no bundled OpenBLAS exports its thread functions")
    assert blas_backend() == "openblas-ctypes"


def test_blas_backend_none_warns(monkeypatch, caplog):
    monkeypatch.setattr(linalg, "_openblas_controls", lambda: ())
    with caplog.at_level(logging.WARNING, logger="optiprecond.linalg"):
        assert blas_backend.__wrapped__() == "none"
    assert "no BLAS thread control" in caplog.text


def _binds_lapack(tree):
    """Whether a module imports scipy, reaches LAPACK by name, or imports or
    calls a numpy.linalg function other than norm."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [ast.unparse(node.func)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "scipy" or \
                    "lapack" in parts or "get_lapack_funcs" in parts or \
                    (parts[0] in ("np", "numpy") and parts[1:2] == ["linalg"]
                     and parts[2:] != ["norm"]):
                return True
    return False


def _routes_around_lapack_module(tree):
    """The dotted names by which a module imports scipy other than as
    scipy.linalg.lapack, reaches scipy.linalg other than through its lapack
    module, or reaches numpy.linalg other than its norm and LinAlgError."""
    lapack = ["scipy", "linalg", "lapack"]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "scipy":
                # an attribute chain may stop short of lapack: scipy.linalg
                # is a node of scipy.linalg.lapack.dsyevd
                if isinstance(node, ast.Attribute):
                    through_lapack = parts[:3] == lapack[:len(parts)]
                else:
                    through_lapack = parts == lapack
                if not through_lapack:
                    found.add(name)
            elif parts[0] in ("np", "numpy") and parts[1:2] == ["linalg"] \
                    and parts[2:3] not in ([], ["norm"], ["LinAlgError"]):
                found.add(name)
    return found


def test_only_linalg_binds_lapack():
    # spectra, factorizations and the full-rank rule live in linalg; the
    # fixtures subpackage, which builds data with np.linalg.qr, is not
    # checked
    package = Path(linalg.__file__).parent
    binders = {path.name for path in package.glob("*.py")
               if _binds_lapack(ast.parse(path.read_text()))}
    assert binders == {"linalg.py"}
    for source, binds in (("import scipy", True),
                          ("from scipy import linalg", True),
                          ("from numpy.linalg import eigh", True),
                          ("from numpy import linalg", True),
                          ("np.linalg.eigvalsh(a)", True),
                          ("from numpy.linalg import norm", False),
                          ("np.linalg.norm(a)", False)):
        assert _binds_lapack(ast.parse(source)) == binds, source
    # and linalg itself reaches LAPACK only through scipy.linalg.lapack, so
    # every eigensolve is _eigh's dsyevd or the step kernel's dsyevx
    assert _routes_around_lapack_module(
        ast.parse(Path(linalg.__file__).read_text())) == set()
    for source, routes in (
            ("import scipy.linalg.lapack\nscipy.linalg.lapack.dsyevd(a)",
             set()),
            ("np.linalg.norm(a)\nraise np.linalg.LinAlgError('x')", set()),
            ("import scipy.linalg", {"scipy.linalg"}),
            ("from scipy.linalg.lapack import dsyevd",
             {"scipy.linalg.lapack.dsyevd"}),
            ("scipy.linalg.eigvalsh(a)", {"scipy.linalg.eigvalsh"}),
            ("np.linalg.eigh(a)", {"np.linalg.eigh"})):
        assert _routes_around_lapack_module(ast.parse(source)) == routes, \
            source
