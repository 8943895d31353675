"""Dense symmetric linear algebra primitives shared by all solver modules.

Everything here works on plain float64 arrays wrapped in small validated
containers. Matrices are assumed dense; sparse inputs are densified after
Gram formation since all the solver mathematics operates on M = A^T A.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

try:
    import threadpoolctl
except ImportError:          # pragma: no cover - optional speedup only
    threadpoolctl = None

# A matrix counts as positive definite when lambda_min > PD_RTOL * lambda_max.
PD_RTOL = 1e-12


def serial_blas():
    """Limit BLAS to one thread for the duration of a solve.

    The iterative solvers issue thousands of LAPACK calls on small dense
    matrices; multi-threaded BLAS pays a per-call synchronization cost that
    dwarfs the arithmetic at these orders.
    """
    if threadpoolctl is None:
        return contextlib.nullcontext()
    return threadpoolctl.threadpool_limits(limits=1)


class NotPositiveDefiniteError(ValueError):
    """Raised when an operation requires a positive definite matrix."""


class EigenConvergenceError(RuntimeError):
    """Raised when the symmetric eigensolver fails to converge."""


class SymMatrix:
    """Dense symmetric matrix with finite entries.

    Construction rejects input whose asymmetry exceeds a small relative
    tolerance and then symmetrizes exactly, so ``mat[i, j] == mat[j, i]``
    holds afterwards.
    """

    __slots__ = ("mat",)

    def __init__(self, mat, *, rtol: float = 1e-8):
        a = np.asarray(mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        asym = np.abs(a - a.T).max()
        scale = np.abs(a).max()
        if asym > rtol * max(scale, 1.0):
            raise ValueError(
                f"matrix is not symmetric (max asymmetry {asym:.3e})")
        self.mat = 0.5 * (a + a.T)

    @property
    def order(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


@dataclass
class EigDecomp:
    """Eigendecomposition with eigenvalues sorted nonincreasing.

    Column k of ``eigenvectors`` pairs with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class CholFactor:
    """Lower-triangular Cholesky factor with a numeric-PD success flag."""

    lower: np.ndarray
    success: bool


def _as_array(m) -> np.ndarray:
    return m.mat if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)


def sym_eig(m: SymMatrix) -> EigDecomp:
    """Full symmetric eigendecomposition, eigenvalues nonincreasing."""
    a = _as_array(m)
    try:
        w, v = scipy.linalg.eigh(a)
    except scipy.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"symmetric eigensolver failed on order-{a.shape[0]} matrix"
        ) from exc
    order = np.argsort(w)[::-1]
    return EigDecomp(eigenvalues=w[order], eigenvectors=v[:, order])


def cholesky(m: SymMatrix) -> CholFactor:
    """Cholesky factorization. success iff m is numerically PD.

    A factorization counts as successful only when every pivot (the squared
    diagonal of L) exceeds 1e-13 times the largest diagonal entry of m.
    """
    a = _as_array(m)
    try:
        lower = scipy.linalg.cholesky(a, lower=True)
    except scipy.linalg.LinAlgError:
        return CholFactor(lower=np.zeros_like(a), success=False)
    pivots = np.diag(lower) ** 2
    if pivots.min() <= 1e-13 * np.diag(a).max():
        return CholFactor(lower=lower, success=False)
    return CholFactor(lower=lower, success=True)


def condition_number(m: SymMatrix | np.ndarray) -> float:
    """lambda_max / lambda_min of a symmetric positive definite matrix.

    An array is read as symmetric from its lower triangle, unvalidated.
    """
    a = _as_array(m)
    try:
        w = scipy.linalg.eigvalsh(a)
    except scipy.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"symmetric eigensolver failed on order-{a.shape[0]} matrix"
        ) from exc
    if w[0] <= 0:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:.3e} is not positive")
    return float(w[-1] / w[0])


def psd_inverse(m: SymMatrix) -> SymMatrix:
    """Inverse of a positive definite matrix via eigendecomposition."""
    dec = sym_eig(m)
    w = dec.eigenvalues
    if w[-1] <= PD_RTOL * max(w[0], 0.0):
        raise NotPositiveDefiniteError("matrix is numerically singular")
    v = dec.eigenvectors
    inv = (v / w) @ v.T
    return SymMatrix(0.5 * (inv + inv.T))


def psd_sqrt(m: SymMatrix) -> SymMatrix:
    """Symmetric PSD square root via eigendecomposition."""
    dec = sym_eig(m)
    w = dec.eigenvalues.copy()
    if w[-1] < -1e-10 * max(w[0], 0.0):
        raise NotPositiveDefiniteError(
            f"eigenvalue {w[-1]:.3e} too negative for a PSD square root")
    np.clip(w, 0.0, None, out=w)
    v = dec.eigenvectors
    root = (v * np.sqrt(w)) @ v.T
    return SymMatrix(0.5 * (root + root.T))


def proximity_delta(a: SymMatrix, b: SymMatrix) -> float:
    """Frobenius proximity ||b^{1/2} a b^{1/2} - I||_F.

    Symmetric in its arguments when both are positive definite.
    """
    bh = psd_sqrt(b).mat
    n = bh.shape[0]
    inner = bh @ _as_array(a) @ bh
    return float(np.linalg.norm(inner - np.eye(n), ord="fro"))


def log_det(m: SymMatrix) -> float:
    """log-determinant of a positive definite matrix via Cholesky."""
    fac = cholesky(m)
    if not fac.success:
        raise NotPositiveDefiniteError("Cholesky failed; matrix is not PD")
    return float(2.0 * np.sum(np.log(np.diag(fac.lower))))


def trace_product(a: SymMatrix, b: SymMatrix) -> float:
    """Tr(a b) for symmetric a, b, computed as the entrywise sum a_ij b_ij."""
    am, bm = _as_array(a), _as_array(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return float(np.sum(am * bm))
