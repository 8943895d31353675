import ctypes
import importlib
import logging

import numpy as np
import pytest

from optiprecond import (
    CholFactor,
    NotPositiveDefiniteError,
    SymMatrix,
    cholesky,
    condition_number,
    log_det,
    proximity_delta,
    psd_inverse,
    psd_sqrt,
    sym_eig,
    trace_product,
)
from optiprecond import linalg
from optiprecond.linalg import blas_backend, serial_blas
from conftest import random_spd


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0], [0.0, 1.0]])


def test_symmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix([[np.inf, 0.0], [0.0, 1.0]])


def test_sym_eig_identity():
    dec = sym_eig(SymMatrix.identity(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_sym_eig_diagonal():
    dec = sym_eig(SymMatrix.diagonal([4.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [4.0, 1.0])
    # axis-aligned eigenvectors
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_sym_eig_2x2_quadratic():
    # eigenvalues of [[1, .5], [.5, 2]] are (3 +- sqrt(2)) / 2
    dec = sym_eig(SymMatrix([[1.0, 0.5], [0.5, 2.0]]))
    expect = np.array([(3 + np.sqrt(2)) / 2, (3 - np.sqrt(2)) / 2])
    assert np.allclose(dec.eigenvalues, expect, rtol=1e-12)


def test_sym_eig_reconstruction_invariants(rng):
    for _ in range(200):
        n = int(rng.integers(1, 31))
        a = rng.standard_normal((n, n))
        m = SymMatrix(0.5 * (a + a.T))
        dec = sym_eig(m)
        v, w = dec.eigenvectors, dec.eigenvalues
        recon = (v * w) @ v.T
        assert np.linalg.norm(recon - m.mat, ord="fro") <= \
            1e-10 * (1 + np.linalg.norm(m.mat, ord="fro"))
        assert np.linalg.norm(v.T @ v - np.eye(n), ord="fro") <= 1e-10 * n
        assert np.all(np.diff(w) <= 1e-12 * max(1, abs(w[0])))


def test_cholesky_identity():
    fac = cholesky(SymMatrix.identity(2))
    assert fac.success
    assert np.allclose(fac.lower, np.eye(2))


def test_cholesky_indefinite():
    fac = cholesky(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))
    assert not fac.success


def test_cholesky_hand_elimination():
    fac = cholesky(SymMatrix([[4.0, 2.0], [2.0, 2.0]]))
    assert fac.success
    assert np.allclose(fac.lower, [[2.0, 0.0], [1.0, 1.0]])


def test_cholesky_tiny_pivot_fails():
    fac = cholesky(SymMatrix(np.diag([1.0, 1e-15])))
    assert isinstance(fac, CholFactor)
    assert not fac.success


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
    assert np.allclose(psd_inverse(SymMatrix.diagonal([2.0, 4.0])).mat,
                       np.diag([0.5, 0.25]))
    assert np.allclose(psd_inverse(SymMatrix.identity(3)).mat, np.eye(3))
    inv = psd_inverse(SymMatrix([[4.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(inv.mat, [[0.5, -0.5], [-0.5, 1.0]])


def test_psd_inverse_residual(rng):
    m = random_spd(8, rng, cond=1e4)
    inv = psd_inverse(m)
    resid = np.linalg.norm(m.mat @ inv.mat - np.eye(8), ord="fro")
    assert resid <= 1e-8 * condition_number(m)
    with pytest.raises(NotPositiveDefiniteError):
        psd_inverse(SymMatrix(np.diag([1.0, 0.0])))


def test_psd_sqrt():
    assert np.allclose(psd_sqrt(SymMatrix.diagonal([4.0, 9.0])).mat,
                       np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(SymMatrix.identity(4)).mat, np.eye(4))
    m = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    root = psd_sqrt(m)
    assert np.linalg.norm(root.mat @ root.mat - m.mat, ord="fro") < 1e-10
    with pytest.raises(NotPositiveDefiniteError):
        psd_sqrt(SymMatrix(np.diag([1.0, -0.5])))


def test_proximity_delta_examples():
    eye = SymMatrix.identity(3)
    assert proximity_delta(eye, eye) == pytest.approx(0.0, abs=1e-14)
    # exact inverses have zero proximity
    assert proximity_delta(SymMatrix.diagonal([2.0]),
                           SymMatrix.diagonal([0.5])) == \
        pytest.approx(0.0, abs=1e-14)
    assert proximity_delta(SymMatrix.diagonal([1.1, 1.0]),
                           SymMatrix.identity(2)) == \
        pytest.approx(0.1, rel=1e-12)


def test_proximity_delta_symmetry(rng):
    for _ in range(20):
        a = random_spd(5, rng, cond=30)
        b = random_spd(5, rng, cond=10)
        assert proximity_delta(a, b) == \
            pytest.approx(proximity_delta(b, a), rel=1e-8, abs=1e-8)


def test_proximity_delta_needs_pd_second_argument():
    with pytest.raises(NotPositiveDefiniteError):
        proximity_delta(SymMatrix.identity(2),
                        SymMatrix([[1.0, 2.0], [2.0, 1.0]]))


def test_log_det():
    assert log_det(SymMatrix.identity(4)) == pytest.approx(0.0, abs=1e-14)
    assert log_det(SymMatrix.diagonal([np.e, np.e])) == \
        pytest.approx(2.0, rel=1e-12)
    assert log_det(SymMatrix([[4.0, 2.0], [2.0, 2.0]])) == \
        pytest.approx(np.log(4.0), rel=1e-12)
    with pytest.raises(NotPositiveDefiniteError):
        log_det(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))


def test_trace_product(rng):
    assert trace_product(SymMatrix.identity(3), SymMatrix.identity(3)) == \
        pytest.approx(3.0)
    assert trace_product(SymMatrix.diagonal([1.0, 2.0]),
                         SymMatrix.diagonal([3.0, 4.0])) == \
        pytest.approx(11.0)
    a = random_spd(4, rng)
    b = random_spd(4, rng)
    direct = sum(a.mat[i, j] * b.mat[j, i]
                 for i in range(4) for j in range(4))
    assert trace_product(a, b) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        trace_product(SymMatrix.identity(2), SymMatrix.identity(3))


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
    if linalg.threadpoolctl is not None:
        assert blas_backend() == "threadpoolctl"
    elif not _openblas_thread_functions():
        pytest.skip("no bundled OpenBLAS exports its thread functions")
    else:
        assert blas_backend() == "openblas-ctypes"


def test_blas_backend_none_warns(monkeypatch, caplog):
    monkeypatch.setattr(linalg, "threadpoolctl", None)
    monkeypatch.setattr(linalg, "_openblas_controls", lambda: ())
    with caplog.at_level(logging.WARNING, logger="optiprecond.linalg"):
        assert blas_backend.__wrapped__() == "none"
    assert "no BLAS thread control" in caplog.text
