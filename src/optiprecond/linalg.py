"""Dense symmetric linear algebra primitives shared by all solver modules.

Everything here works on plain float64 arrays wrapped in small validated
containers. Matrices are assumed dense; sparse inputs are densified after
Gram formation since all the solver mathematics operates on M = A^T A.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import logging
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

try:
    import threadpoolctl
except ImportError:          # the ctypes path below covers the wheels' BLAS
    threadpoolctl = None

logger = logging.getLogger(__name__)

# A matrix counts as positive definite when lambda_min > PD_RTOL * lambda_max.
PD_RTOL = 1e-12

# The OpenBLAS copies bundled with the numpy and scipy wheels: a module whose
# shared library links the copy, and its thread-count getter and setter.
_OPENBLAS_COPIES = (
    ("numpy.linalg._umath_linalg", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy.linalg._flapack", "scipy_openblas_get_num_threads",
     "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS copy found.

    Looked up on first use rather than at import, so importing the package
    opens no library.
    """
    controls = []
    for module, getter, setter in _OPENBLAS_COPIES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get, set_ = getattr(lib, getter), getattr(lib, setter)
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


@functools.cache
def blas_backend() -> str:
    """How ``serial_blas`` limits BLAS threads in this process.

    ``"threadpoolctl"`` when that package is importable, ``"openblas-ctypes"``
    when the wheels' OpenBLAS thread functions are found, else ``"none"``
    (logged once as a warning: solves then run at the default thread count).
    """
    if threadpoolctl is not None:
        return "threadpoolctl"
    if _openblas_controls():
        return "openblas-ctypes"
    logger.warning("no BLAS thread control found (threadpoolctl is not "
                   "installed and no bundled OpenBLAS exports "
                   "scipy_openblas_set_num_threads); solves run with the "
                   "default BLAS thread count")
    return "none"


def _limit_to_one_thread():
    """Set every BLAS this process loaded to one thread; returns the undo."""
    backend = blas_backend()
    if backend == "threadpoolctl":
        return threadpoolctl.threadpool_limits(limits=1).restore_original_limits
    saved = [(set_, get()) for get, set_ in _openblas_controls()]
    for set_, _ in saved:
        set_(1)

    def restore():
        for set_, count in saved:
            set_(count)
    return restore


class _SerialBlas(contextlib.ContextDecorator):
    """Process-wide one-thread BLAS while any holder is inside.

    Thread counts are process-global, so holders are counted: the first to
    enter saves the counts and sets one thread, the last to leave restores
    them. Nested and concurrent uses therefore never restore a count that
    another holder still relies on.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._restore = _limit_to_one_thread()
            self._holders += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                restore, self._restore = self._restore, None
                restore()
        return False


_SERIAL_BLAS = _SerialBlas()


def serial_blas() -> _SerialBlas:
    """Limit BLAS to one thread for the duration of a solve.

    Use as ``with serial_blas():`` or as the decorator ``@serial_blas()``.
    The iterative solvers issue thousands of LAPACK calls on small dense
    matrices; multi-threaded BLAS pays a per-call synchronization cost that
    dwarfs the arithmetic at these orders. The previous thread counts come
    back when the outermost use exits, also by an exception.
    """
    return _SERIAL_BLAS


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
