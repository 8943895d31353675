import numpy as np
import pytest

from optiprecond import (
    DiagScaling,
    RectMatrix,
    SymMatrix,
    apply_pair,
    apply_scaling,
    column_norm_scaling,
    condition_number,
    jacobi_scaling,
    ruiz_equilibrate,
    scaled_condition,
)
from optiprecond.heuristics import finish_solve
from optiprecond.linalg import blas_backend


def test_diag_scaling_validation():
    with pytest.raises(ValueError):
        DiagScaling([1.0, -1.0])
    with pytest.raises(ValueError):
        DiagScaling([1.0, np.inf])
    with pytest.raises(ValueError):
        DiagScaling([1.0], side="sideways")
    pair = DiagScaling.pair([1.0, 2.0, 3.0], [4.0, 5.0])
    assert pair.side == "two_sided_pair"
    assert pair.left_values.size == 3


def test_jacobi_examples():
    sc = jacobi_scaling(SymMatrix.diagonal([4.0, 1.0]))
    assert np.allclose(sc.values, [4.0, 1.0])
    assert scaled_condition(SymMatrix.diagonal([4.0, 1.0]), sc) == \
        pytest.approx(1.0, abs=1e-12)
    assert np.allclose(jacobi_scaling(SymMatrix.identity(3)).values,
                       np.ones(3))
    m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
    sc = jacobi_scaling(m)
    assert np.allclose(sc.values, [1.0, 2.0])
    # correlation form has eigenvalues 1 +- 0.5/sqrt(2)
    c = 0.5 / np.sqrt(2)
    assert scaled_condition(m, sc) == pytest.approx((1 + c) / (1 - c),
                                                    rel=1e-12)


def test_jacobi_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        jacobi_scaling(SymMatrix([[0.0, 1.0], [1.0, 2.0]]))


def test_column_norm_examples():
    q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    sc = column_norm_scaling(RectMatrix(q))
    assert np.allclose(sc.values, [1.0, 1.0])
    assert scaled_condition(SymMatrix(q.T @ q), sc) == pytest.approx(1.0)
    assert np.allclose(
        column_norm_scaling(RectMatrix(np.diag([3.0, 1.0]))).values,
        [9.0, 1.0])
    a = RectMatrix([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(column_norm_scaling(a).values, [2.0, 2.0])
    with pytest.raises(ValueError):
        column_norm_scaling(RectMatrix([[1.0, 0.0], [1.0, 0.0]]))


def test_ruiz_diagonal_one_iteration():
    sc = ruiz_equilibrate(SymMatrix.diagonal([4.0, 1.0]), max_iters=1,
                          tol=1e-6)
    scaled = apply_scaling(SymMatrix.diagonal([4.0, 1.0]), sc)
    assert np.allclose(scaled.mat, np.eye(2))


def test_ruiz_identity_immediate():
    sc = ruiz_equilibrate(SymMatrix.identity(4))
    assert np.allclose(sc.values, np.ones(4))


def test_ruiz_single_iteration_hand_value():
    m = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
    sc = ruiz_equilibrate(m, max_iters=1, tol=1e-12)
    scaled = apply_scaling(m, sc)
    off = 0.5 / np.sqrt(2)
    assert np.allclose(scaled.mat, [[1.0, off], [off, 1.0]])


def test_ruiz_termination_row_norms(rng):
    from conftest import random_spd
    m = random_spd(8, rng, cond=1e5)
    sc = ruiz_equilibrate(m, max_iters=100, tol=1e-6)
    scaled = apply_scaling(m, sc)
    norms = np.abs(scaled.mat).max(axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)


def test_heuristics_exact_on_diagonal(rng):
    d = np.exp(rng.standard_normal(6) * 2)
    m = SymMatrix.diagonal(d)
    for sc in (jacobi_scaling(m), ruiz_equilibrate(m),
               column_norm_scaling(RectMatrix(np.diag(np.sqrt(d))))):
        assert scaled_condition(m, sc) == pytest.approx(1.0, abs=1e-10)


def test_heuristics_never_raise_kappa_on_dominant(rng):
    # diagonally dominant with dominance factor >= 2
    improved = 0
    for trial in range(50):
        local = np.random.default_rng(1000 + trial)
        n = 6
        a = local.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 0.0)
        rowsum = np.abs(a).sum(axis=1)
        diag = 2.0 * rowsum + local.uniform(0.5, 2.0, n)
        m = SymMatrix(a + np.diag(diag))
        base = scaled_condition(m, None)
        for sc in (jacobi_scaling(m), ruiz_equilibrate(m)):
            after = scaled_condition(m, sc)
            assert after <= base * (1 + 1e-10)
            if after < base:
                improved += 1
    assert improved > 0


def test_jacobi_can_hurt_on_non_dominant():
    # the paper reports Jacobi diverging on one instance; build a small
    # analogue where the diagonal scaling increases kappa
    worst = None
    for trial in range(200):
        local = np.random.default_rng(trial)
        a = local.standard_normal((4, 4))
        m = a @ a.T + 1e-3 * np.eye(4)
        sym = SymMatrix(m)
        base = scaled_condition(sym, None)
        after = scaled_condition(sym, jacobi_scaling(sym))
        if after > base:
            worst = (trial, base, after)
            break
    assert worst is not None, "expected an instance where Jacobi raises kappa"


def test_ruiz_rejects_zero_row():
    with pytest.raises(ValueError):
        ruiz_equilibrate(SymMatrix(np.zeros((2, 2))))


def test_scaled_condition_of_left_scaling_is_kappa_of_weighted_gram(rng):
    for shape in ((7, 4), (4, 7), (5, 5)):
        a_arr = rng.standard_normal(shape)
        x = a_arr if shape[0] >= shape[1] else a_arr.T
        d = np.exp(rng.standard_normal(x.shape[0]))
        left = DiagScaling(d, side="left")
        expected = condition_number(SymMatrix(x.T @ np.diag(d) @ x))
        assert scaled_condition(RectMatrix(a_arr), left) == \
            pytest.approx(expected, rel=1e-10)


def test_apply_scaling_rejects_left_scaling(rng):
    # a square A has as many rows as columns, so only the side can tell
    a = rng.standard_normal((4, 4))
    gram = SymMatrix(a.T @ a)
    left = DiagScaling(np.exp(rng.standard_normal(4)), side="left")
    with pytest.raises(ValueError):
        apply_scaling(gram, left)
    assert scaled_condition(RectMatrix(a), left) != \
        pytest.approx(scaled_condition(gram, DiagScaling(left.values)))


def _finish(source, kappa_before, scaling):
    return finish_solve("probe", 0.0, source, kappa_before, scaling, 7,
                        {"note": 1})


def test_finish_solve_falls_back_to_ones_when_worse(rng):
    a = RectMatrix(rng.standard_normal((6, 3)))
    gram = SymMatrix(a.mat.T @ a.mat)
    kappa = condition_number(gram)
    wild = np.array([1e-4, 1.0, 1e4, 3.0, 1e-3, 50.0])
    cases = [
        (gram, DiagScaling(wild[:3])),
        (a, DiagScaling(wild, side="left")),
        (a, DiagScaling.pair(wild, wild[:3])),
    ]
    for source, scaling in cases:
        assert scaled_condition(source, scaling) > kappa
        finished, report = _finish(source, kappa, scaling)
        assert finished.side == scaling.side
        assert np.array_equal(finished.values,
                              np.ones(scaling.values.size))
        if scaling.left_values is not None:
            assert np.array_equal(finished.left_values, np.ones(6))
        assert report.kappa_after == report.kappa_before == kappa
        assert report.iterations == 7 and report.method == "probe"
        assert report.extra == {"note": 1, "blas_backend": blas_backend()}


def test_finish_solve_normalizes_and_remeasures(rng):
    m = SymMatrix.diagonal([4.0, 1.0])
    finished, report = _finish(m, 4.0, jacobi_scaling(m))
    assert np.array_equal(finished.values, [1.0, 0.25])
    assert report.kappa_after == pytest.approx(1.0, abs=1e-12)
    a = RectMatrix(rng.standard_normal((6, 3)))
    pair = DiagScaling.pair(np.full(6, 3.0), np.array([2.0, 4.0, 8.0]))
    finished, report = _finish(a, np.inf, pair)
    assert np.array_equal(finished.left_values, np.ones(6))
    assert np.array_equal(finished.values, [0.25, 0.5, 1.0])
    assert report.kappa_after == condition_number(apply_pair(a, finished))
