"""Diagonal scalings, their measurement, the finishing step of every solver,
and the Jacobi, column norm and Ruiz baselines."""

from __future__ import annotations

import time

import numpy as np

from .linalg import SymMatrix, blas_backend, condition_number
from .matrixio import RectMatrix, SolveReport

SIDE_LEFT = "left"
SIDE_RIGHT = "right"
SIDE_PAIR = "two_sided_pair"


class DiagScaling:
    """Positive diagonal preconditioner.

    For sides 'left'/'right' this is one positive sequence; the scaled Gram
    matrix is D^{-1/2} M D^{-1/2}. A 'two_sided_pair' additionally carries
    the left sequence d1 (values then holds d2).
    """

    __slots__ = ("values", "side", "left_values")

    def __init__(self, values, side=SIDE_RIGHT, left_values=None):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("scaling values must be a nonempty sequence")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("scaling values must be positive and finite")
        if side not in (SIDE_LEFT, SIDE_RIGHT, SIDE_PAIR):
            raise ValueError(f"unknown side {side!r}")
        if side == SIDE_PAIR:
            if left_values is None:
                raise ValueError("a two_sided_pair needs left_values")
            lv = np.asarray(left_values, dtype=float)
            if np.any(lv <= 0) or not np.all(np.isfinite(lv)):
                raise ValueError("left values must be positive and finite")
            self.left_values = lv
        else:
            if left_values is not None:
                raise ValueError("left_values only valid for two_sided_pair")
            self.left_values = None
        self.values = v
        self.side = side

    @classmethod
    def pair(cls, d1, d2) -> "DiagScaling":
        return cls(d2, side=SIDE_PAIR, left_values=d1)

    def __repr__(self):
        return f"DiagScaling(side={self.side!r}, n={self.values.size})"


def apply_scaling(m: SymMatrix, scaling: DiagScaling | None) -> SymMatrix:
    """Scaled Gram matrix D^{-1/2} M D^{-1/2} (identity when scaling is None)."""
    if scaling is None:
        return m
    if scaling.side != SIDE_RIGHT:
        raise ValueError(f"a {scaling.side} scaling scales the rectangular "
                         "matrix; use scaled_condition or apply_pair")
    if scaling.values.size != m.order:
        raise ValueError("scaling length does not match matrix order")
    s = 1.0 / np.sqrt(scaling.values)
    return SymMatrix(s[:, None] * m.mat * s[None, :])


def apply_pair(a: RectMatrix, scaling: DiagScaling) -> SymMatrix:
    """Two-sided scaled Gram D2^{-1/2} A^T D1 A D2^{-1/2}."""
    if scaling.side != SIDE_PAIR:
        raise ValueError("apply_pair needs a two_sided_pair scaling")
    x = a.tall()
    d1, d2 = scaling.left_values, scaling.values
    if d1.size != x.shape[0] or d2.size != x.shape[1]:
        raise ValueError("pair lengths do not match the matrix shape")
    g = x.T @ (d1[:, None] * x)
    s = 1.0 / np.sqrt(d2)
    return SymMatrix(s[:, None] * (0.5 * (g + g.T)) * s[None, :])


def scaled_condition(source: SymMatrix | RectMatrix,
                     scaling: DiagScaling | None) -> float:
    """Condition number of the matrix that a scaling makes from its source.

    A right scaling (or None) scales the Gram matrix ``source`` as
    D^{-1/2} M D^{-1/2}; a left scaling the rectangular ``source`` as
    A^T D A; a pair as ``apply_pair``.
    """
    if scaling is not None and scaling.side == SIDE_LEFT:
        # measured as the pair whose right sequence is all ones
        ones = np.ones(source.tall().shape[1])
        scaling = DiagScaling.pair(scaling.values, ones)
    if scaling is not None and scaling.side == SIDE_PAIR:
        return condition_number(apply_pair(source, scaling))
    return condition_number(apply_scaling(source, scaling))


def finish_solve(method: str, t0: float, source: SymMatrix | RectMatrix,
                 kappa_before: float, scaling: DiagScaling, iterations: int,
                 extra: dict) -> tuple[DiagScaling, SolveReport]:
    """Normalize each sequence of ``scaling`` to max 1, re-measure kappa on
    ``source`` (the Gram matrix for a right scaling, the rectangular matrix
    for a left one or a pair), and fall back to all ones when that is worse
    than ``kappa_before``. The report's wall time runs from ``t0``.
    """
    def each_sequence(f):
        left = scaling.left_values
        return DiagScaling(f(scaling.values), scaling.side,
                           None if left is None else f(left))

    finished = each_sequence(lambda v: v / v.max())
    kappa_after = scaled_condition(source, finished)
    if kappa_after > kappa_before:
        finished, kappa_after = each_sequence(np.ones_like), kappa_before
    report = SolveReport(
        matrix="", method=method,
        kappa_before=kappa_before, kappa_after=kappa_after,
        iterations=iterations,
        wall_time_seconds=time.perf_counter() - t0,
        extra={**extra, "blas_backend": blas_backend()})
    return finished, report


def jacobi_scaling(m: SymMatrix) -> DiagScaling:
    """Jacobi preconditioner: the diagonal of M."""
    d = np.diag(m.mat).copy()
    if np.any(d <= 0):
        raise ValueError("Jacobi scaling needs a positive diagonal")
    return DiagScaling(d, side=SIDE_RIGHT)


def column_norm_scaling(a: RectMatrix) -> DiagScaling:
    """Squared column l2 norms, so D^{-1/2} divides by the column norm."""
    v = np.sum(a.mat ** 2, axis=0)
    if np.any(v <= 0):
        raise ValueError("matrix has a zero column")
    return DiagScaling(v, side=SIDE_RIGHT)


def ruiz_equilibrate(m: SymMatrix, max_iters: int = 100,
                     tol: float = 1e-6) -> DiagScaling:
    """Symmetric l-infinity Ruiz equilibration of a PD matrix.

    Iterates s_i <- s_i / sqrt(max_j |M'_ij|) on the running scaled matrix
    M' = S M S until every row's l-infinity norm lies in [1-tol, 1+tol].
    Returns the accumulated squared scale so that D^{-1/2} M D^{-1/2}
    equals the equilibrated matrix.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    a = m.mat
    if np.any(np.abs(a).max(axis=1) == 0):
        raise ValueError("matrix has a zero row")
    s = np.ones(m.order)
    for _ in range(max_iters):
        scaled = s[:, None] * a * s[None, :]
        norms = np.abs(scaled).max(axis=1)
        if np.all(np.abs(norms - 1.0) <= tol):
            break
        s = s / np.sqrt(norms)
    return DiagScaling(1.0 / s ** 2, side=SIDE_RIGHT)
