"""Dense symmetric linear algebra shared by all solver modules.

The package's only LAPACK binding, through scipy.linalg.lapack alone.
``SymMatrix`` validates symmetric input; ``_eigh`` (dsyevd) is the one
symmetric eigensolver, under ``extreme_eigenvalues`` (the one spectrum
helper, which applies the one full-rank rule), ``sym_pow``,
``geomean_inv`` and ``scaled_eigh`` (the eigenbasis of D^{-1/2} M
D^{-1/2}); ``condition_number`` is the one kappa helper. The
positive-definite kernels are ``chol_pd`` (dpotrf), ``inv_from_chol`` and
``inv_pd`` (dpotri), ``solve_pd`` (dposv, which refuses a matrix that is
not PD), ``solve_chol`` (dpotrs), ``logdet_from_chol``, ``max_step_chol``
(the one step-length kernel: a dpotrf test of each cone at the step in
force, and dsygst and dsyevx on the caller's factor only for a cone that
fails it) and ``proximity_delta``. They take and return plain float64
arrays; ``Factored`` holds one PD matrix with its factor and its inverse,
formed at most once.
``serial_blas`` runs a solve on one BLAS thread by calling the thread
functions of the OpenBLAS copies that the numpy and scipy wheels bundle.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import logging
import threading

import numpy as np
import scipy.linalg.lapack

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

    ``"openblas-ctypes"`` when the wheels' OpenBLAS thread functions are
    found, else ``"none"`` (logged once as a warning: solves then run at the
    default thread count).
    """
    if _openblas_controls():
        return "openblas-ctypes"
    logger.warning("no BLAS thread control found (no bundled OpenBLAS "
                   "exports scipy_openblas_set_num_threads); solves run "
                   "with the default BLAS thread count")
    return "none"


class _SerialBlas(contextlib.ContextDecorator):
    """Process-wide one-thread BLAS while any holder is inside.

    Thread counts are process-global, so holders are counted: the first to
    enter saves the count of every OpenBLAS copy and sets one thread, the
    last to leave restores them. Nested and concurrent uses therefore never
    restore a count that another holder still relies on.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                blas_backend()      # logs the one warning when none is found
                self._saved = tuple((set_, get())
                                    for get, set_ in _openblas_controls())
                for set_, _ in self._saved:
                    set_(1)
            self._holders += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = ()
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

    Construction rejects input whose largest asymmetry exceeds 1e-8 times
    max(max |a_ij|, 1) and then symmetrizes exactly, so
    ``mat[i, j] == mat[j, i]`` holds afterwards.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        a = np.asarray(mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        asym = np.abs(a - a.T).max()
        scale = np.abs(a).max()
        if asym > 1e-8 * max(scale, 1.0):
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


# The full-rank rule: lambda_min > FULL_RANK_RTOL * max(lambda_max, 0).
FULL_RANK_RTOL = 1e-12


def _eigh(a, vectors=True):
    """Ascending eigenvalues of a symmetric array's lower triangle and,
    with vectors, its eigenvectors as C-contiguous columns, by one dsyevd.
    Raises EigenConvergenceError when dsyevd fails and
    NotPositiveDefiniteError when the diagonal or an eigenvalue is not
    finite (2n checks, not an n^2 scan: a non-finite entry shows in the
    eigenvalues unless it is on the diagonal of a diagonal a)."""
    # with vectors, the workspace of numpy's eigh (which runs dsyevd);
    # without, the 28n that scipy's eigvalsh (dsyevr) leaves dsytrd, which
    # then blocks as there: both return the same bits as those
    n = len(a)
    w, v, info = scipy.linalg.lapack.dsyevd(
        a, compute_v=int(vectors), lower=1,
        lwork=1 + 6 * n + 2 * n * n if vectors else 1 + 30 * n)
    if not (np.isfinite(w).all() and np.isfinite(np.diagonal(a)).all()):
        raise NotPositiveDefiniteError(
            f"order-{n} matrix has a non-finite diagonal entry or "
            "eigenvalue: its entries must be finite")
    if info != 0:
        raise EigenConvergenceError(
            f"symmetric eigensolver failed on order-{n} matrix")
    return (w, np.ascontiguousarray(v)) if vectors else w


def extreme_eigenvalues(m: SymMatrix | np.ndarray, *,
                        rtol=FULL_RANK_RTOL) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix from one eigensolve;
    raises NotPositiveDefiniteError unless lambda_min > rtol *
    max(lambda_max, 0), and rtol=None skips the check. An array is read as
    symmetric from its lower triangle, unvalidated."""
    a = m.mat if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    w = _eigh(a, vectors=False)
    lamn, lam1 = float(w[0]), float(w[-1])
    if rtol is not None and not lamn > rtol * max(lam1, 0.0):
        raise NotPositiveDefiniteError(
            f"matrix is not full rank: smallest eigenvalue {lamn:.3e} is "
            f"not above {rtol:g} times the largest {lam1:.3e}")
    return lamn, lam1


def condition_number(m: SymMatrix | np.ndarray) -> float:
    """lambda_max / lambda_min of a symmetric positive definite matrix, read
    as extreme_eigenvalues reads it; any lambda_min > 0 is accepted."""
    lamn, lam1 = extreme_eigenvalues(m, rtol=0.0)
    return lam1 / lamn


# Positive-definite kernels shared by every solver. Cholesky (dpotrf)
# factors, inverts (dpotri) and solves (dposv), _eigh runs only for
# fractional powers, the geometric means of the Nesterov-Todd scalings and
# the scaled Gram's eigenbasis, and step lengths are tested by Cholesky
# and reduced by factors the caller already holds only where a cone binds.


def chol_pd(a):
    """Lower Cholesky factor, or None when a is not numerically PD."""
    lower, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
    return lower if info == 0 else None


def inv_from_chol(lower):
    """The symmetric inverse of L L^T from its lower Cholesky factor L.

    L's strict upper triangle must be zero, as chol_pd leaves it: dpotri
    writes the lower triangle of the inverse and keeps that zero upper
    triangle, so inv + inv.T mirrors it exactly and only the doubled
    diagonal needs restoring.
    """
    inv, info = scipy.linalg.lapack.dpotri(lower, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("dpotri failed on the Cholesky factor")
    out = inv + inv.T
    np.fill_diagonal(out, inv.diagonal())
    return out


class Factored:
    """A PD matrix, its lower Cholesky factor, and its inverse, formed by
    inv_from_chol on first use and kept: callers share one dpotri."""

    __slots__ = ("mat", "lower", "_inv")

    def __init__(self, mat, lower):
        self.mat = mat
        self.lower = lower
        self._inv = None

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = inv_from_chol(self.lower)
        return self._inv


def inv_pd(a):
    """Inverse of a positive definite matrix through its Cholesky factor."""
    lower = chol_pd(a)
    if lower is None:
        raise NotPositiveDefiniteError("matrix is not numerically PD")
    return inv_from_chol(lower)


def solve_pd(h, g):
    """Solve the PD system h x = g by Cholesky (dposv); raises
    NotPositiveDefiniteError when h is not numerically PD."""
    _, x, info = scipy.linalg.lapack.dposv(h, g, lower=0)
    if info != 0:
        raise NotPositiveDefiniteError("system matrix is not numerically PD")
    return x


def solve_chol(lower, b):
    """Solve L L^T x = b from the lower Cholesky factor L (dpotrs)."""
    return scipy.linalg.lapack.dpotrs(lower, b, lower=1)[0]


def logdet_from_chol(lower):
    """log det(L L^T) from the lower Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def max_step_chol(mats, lowers, deltas, bound=np.inf, first=0):
    """(alpha, binding, reductions): the largest alpha <= bound keeping
    every mat + alpha*delta PSD (inf if unbounded), over triples of a PD
    matrix, its lower Cholesky factor L and a delta; the cone whose
    reduction set alpha (first when none did; a loop passes it on as the
    next first); and the number of cones reduced.

    Screened: each cone in turn, cone first, is tested by one dpotrf of
    mat + alpha*delta at the alpha in force; a cone that factors does not
    bind and keeps alpha. Only a cone that fails the test (or any cone
    while alpha is inf) is reduced: alpha falls to 1 / the top eigenvalue
    of L^-1 (-delta) L^-T, formed by dsygst and found by one dsyevx
    (dsygvx without its dpotrf), or by all eigenvalues where that subset
    solve fails. Later cones are tested at the lowered alpha."""
    alpha, binding, reductions = float(bound), first, 0
    for k in sorted(range(len(lowers)), key=lambda k: k != first):
        mat, lower, delta = mats[k], lowers[k], deltas[k]
        if alpha < np.inf and chol_pd(mat + alpha * delta) is not None:
            continue
        n = len(lower)
        c = scipy.linalg.lapack.dsygst(-delta, lower, lower=1,
                                       overwrite_a=1)[0]
        w, _, found, _, info = scipy.linalg.lapack.dsyevx(
            c, compute_v=0, range="I", lower=1, il=n, iu=n)
        top = w[0] if info == 0 and found == 1 \
            else extreme_eigenvalues(c, rtol=None)[1]
        reductions += 1
        if top > 0 and 1.0 / float(top) < alpha:
            alpha, binding = 1.0 / float(top), k
    return alpha, binding, reductions


def sym_pow(a, power):
    """a**power for a symmetric PD matrix, by eigendecomposition."""
    w, v = _eigh(a)
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


def geomean_inv(a, b):
    """The geometric mean a # b^{-1} of PD a and b: the PD u with u b u = a.

    Computed as L (L^T b L)^{-1/2} L^T with a = L L^T, by congruence
    invariance of the mean, so one Cholesky factor and one eigensolve
    suffice. Swapping the arguments inverts the result: geomean_inv(b, a)
    is the inverse of geomean_inv(a, b).
    """
    lower = chol_pd(a)
    if lower is None:
        raise NotPositiveDefiniteError("first argument is not numerically PD")
    w, v = _eigh(lower.T @ b @ lower)
    if not w[0] > 0:
        raise NotPositiveDefiniteError("second argument is not PD")
    f = (lower @ v) * w ** -0.25
    return f @ f.T


def scaled_eigh(m, d):
    """Eigenpairs of the scaled Gram D^{-1/2} m D^{-1/2} = Q diag(w) Q^T
    for a positive vector d, from one eigensolve: returns w (ascending) and
    D^{-1/2} Q."""
    s = 1.0 / np.sqrt(d)
    w, q = _eigh(s[:, None] * m * s[None, :])
    return w, s[:, None] * q
