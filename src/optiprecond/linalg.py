"""Dense symmetric linear algebra shared by all solver modules.

``SymMatrix`` validates symmetric input and ``condition_number`` is the one
kappa helper. The positive-definite kernels below are the only LAPACK
binding in the package: ``chol_pd`` (dpotrf), ``inv_from_chol`` and
``inv_pd`` (dpotri), ``solve_pd`` (dposv, least squares when not PD),
``logdet_from_chol``, ``max_step_cone``, ``sym_pow`` and
``proximity_delta``. They take and return plain float64 arrays.
``serial_blas`` runs a solve on one BLAS thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import logging
import threading

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

try:
    import threadpoolctl
except ImportError:          # the ctypes path below covers the wheels' BLAS
    threadpoolctl = None

logger = logging.getLogger(__name__)

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


def _as_array(m) -> np.ndarray:
    return m.mat if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)


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




# Positive-definite kernels shared by every solver. LAPACK is bound here and
# nowhere else; Cholesky (dpotrf) factors, inverts (dpotri) and solves
# (dposv), and eigh runs only for fractional powers and step lengths.


def chol_pd(a):
    """Lower Cholesky factor, or None when a is not numerically PD."""
    lower, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
    return lower if info == 0 else None


def inv_from_chol(lower):
    """The symmetric inverse of L L^T from its lower Cholesky factor L."""
    inv, info = scipy.linalg.lapack.dpotri(lower, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("dpotri failed on the Cholesky factor")
    return inv + np.tril(inv, -1).T


def inv_pd(a):
    """Inverse of a positive definite matrix through its Cholesky factor."""
    lower = chol_pd(a)
    if lower is None:
        raise NotPositiveDefiniteError("matrix is not numerically PD")
    return inv_from_chol(lower)


def solve_pd(h, g):
    """Solve the (nominally PD) system h x = g; returns (x, pd).

    pd is False when h was not numerically PD and least squares gave x.
    Newton steps are validated downstream by feasibility and value
    backtracking, so an inaccurate direction near a cone boundary is
    harmless.
    """
    _, x, info = scipy.linalg.lapack.dposv(h, g, lower=0)
    if info == 0:
        return x, True
    return scipy.linalg.lstsq(h, g)[0], False


def logdet_from_chol(lower):
    """log det(L L^T) from the lower Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def max_step_cone(lower, delta_mat):
    """Largest alpha with L L^T - alpha*delta_mat still PSD (inf if unbounded)."""
    z = scipy.linalg.solve_triangular(lower, delta_mat, lower=True)
    t = scipy.linalg.solve_triangular(lower, z.T, lower=True).T
    wmax = scipy.linalg.eigvalsh(0.5 * (t + t.T))[-1]
    return np.inf if wmax <= 0 else 1.0 / wmax


def sym_pow(a, power):
    """a**power for a symmetric PD matrix, by eigendecomposition."""
    w, v = scipy.linalg.eigh(a)
    if w[0] <= 0:
        raise NotPositiveDefiniteError("matrix power needs a PD argument")
    return (v * w ** power) @ v.T


def proximity_delta(a, b):
    """Proximity ||b^{1/2} a b^{1/2} - I||_F for symmetric a; inf unless b is PD.

    Computed as ||L^T a L - I||_F with b = L L^T: the two matrices are
    orthogonally similar, so their distances to I agree.
    """
    lower = chol_pd(b)
    if lower is None:
        return np.inf
    inner = lower.T @ a @ lower
    return float(np.linalg.norm(inner - np.eye(a.shape[0]), ord="fro"))
