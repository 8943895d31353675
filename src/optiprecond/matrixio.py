"""Matrix ingestion, Gram formation, regularization, sampling, and reports."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .linalg import SymMatrix, extreme_eigenvalues


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RectMatrix:
    """Dense rectangular matrix with finite entries."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        a = np.asarray(mat, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        self.mat = a

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    def tall(self) -> np.ndarray:
        """The matrix when m >= n, else its transpose."""
        return self.mat if self.rows >= self.cols else self.mat.T

    def __repr__(self):
        return f"RectMatrix({self.rows}x{self.cols})"


@dataclass
class GramSpec:
    """A Gram matrix together with the regularization that produced it."""

    gram: SymMatrix
    epsilon: float


@dataclass
class SolveReport:
    """Before/after condition numbers and run statistics for one solve."""

    matrix: str
    method: str
    kappa_before: float
    kappa_after: float
    iterations: int
    wall_time_seconds: float
    extra: dict = field(default_factory=dict)


def read_matrix_market(path) -> RectMatrix:
    """Read a real Matrix Market file: coordinate or array, general or
    symmetric.

    Both layouts become 1-based (row, column, value, line) entries that one
    loop checks and fills. A symmetric file must be square and list only
    its lower triangle, which is mirrored. Pattern, integer and complex
    fields are rejected. Each error is a MatrixMarketError naming its line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("empty file", line=1)
    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or \
            header[1].lower() != "matrix":
        raise MatrixMarketError(f"bad header {lines[0].strip()!r}", line=1)
    fmt, fld, sym = (h.lower() for h in header[2:5])
    for kind, value, allowed in (("format", fmt, ("coordinate", "array")),
                                 ("field", fld, ("real",)),
                                 ("symmetry", sym, ("general", "symmetric"))):
        if value not in allowed:
            raise MatrixMarketError(f"unsupported {kind} {value!r}", line=1)

    # skip comments and blank lines, remembering source line numbers
    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixMarketError("missing size line", line=len(lines))
    size_no, size_line = body[0]
    parts = size_line.split()
    shape = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    if len(parts) != len(shape.split()):
        raise MatrixMarketError(
            f"{fmt} size line needs {shape!r}, got {size_line!r}",
            line=size_no)
    try:
        nrows, ncols, *nnz = sizes = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError(
            f"non-integer size entry in {size_line!r}", line=size_no)
    if min(sizes) < 0:
        raise MatrixMarketError(
            f"negative size entry in {size_line!r}", line=size_no)
    symmetric = sym == "symmetric"
    if symmetric and nrows != ncols:
        raise MatrixMarketError("symmetric matrix must be square",
                                line=size_no)
    if nnz:
        if len(body) - 1 != nnz[0]:
            raise MatrixMarketError(
                f"expected {nnz[0]} entries, found {len(body) - 1}",
                line=size_no)
        entries = _coordinate_entries(body[1:])
    else:
        entries = _array_entries(body, nrows, ncols, symmetric)

    a = np.zeros((nrows, ncols))
    for i, j, val, lineno in entries:
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(
                f"index ({i}, {j}) out of bounds for {nrows}x{ncols}",
                line=lineno)
        if symmetric and i < j:
            raise MatrixMarketError(
                "symmetric entries must lie in the lower triangle",
                line=lineno)
        a[i - 1, j - 1] = val
        if symmetric:
            a[j - 1, i - 1] = val
    return RectMatrix(a)


def _coordinate_entries(lines):
    """(i, j, value, line) of each 'i j value' line, parsed as it is read."""
    for lineno, entry in lines:
        items = entry.split()
        if len(items) != 3:
            raise MatrixMarketError(
                f"expected 'i j value', got {entry!r}", line=lineno)
        try:
            i, j, val = int(items[0]), int(items[1]), float(items[2])
        except ValueError:
            raise MatrixMarketError(
                f"non-numeric entry {entry!r}", line=lineno)
        yield i, j, val, lineno


def _array_entries(body, nrows, ncols, symmetric):
    """(i, j, value, line) of the column-major values after the size line
    body[0]: every cell, or the lower triangle when symmetric."""
    values = []
    for lineno, entry in body[1:]:
        for item in entry.split():
            try:
                values.append((float(item), lineno))
            except ValueError:
                raise MatrixMarketError(
                    f"non-numeric value {item!r}", line=lineno)
    cells = [(i, j) for j in range(1, ncols + 1)
             for i in range(j if symmetric else 1, nrows + 1)]
    if len(values) != len(cells):
        raise MatrixMarketError(
            f"expected {len(cells)} values, found {len(values)}",
            line=body[-1][0])
    return [(i, j, val, lineno)
            for (i, j), (val, lineno) in zip(cells, values)]


def gram_matrix(a: RectMatrix) -> SymMatrix:
    """A^T A when the input is tall (m >= n), else A A^T."""
    x = a.tall()
    return SymMatrix(x.T @ x)


def regularize_cap(m: SymMatrix, kappa_cap: float) -> GramSpec:
    """Add the smallest eps*I that brings the condition number under the cap.

    Closed form: eps solves lam1 + eps = cap * (lamn + eps) exactly, clipped
    at zero when the input already satisfies the cap.
    """
    if kappa_cap <= 1:
        raise ValueError("kappa_cap must exceed 1")
    lamn, lam1 = extreme_eigenvalues(m, rtol=None)
    if lam1 <= 0:
        raise ValueError("matrix must have a positive largest eigenvalue")
    eps = max(0.0, (lam1 - kappa_cap * lamn) / (kappa_cap - 1.0))
    gram = SymMatrix(m.mat + eps * np.eye(m.order)) if eps > 0 else m
    return GramSpec(gram=gram, epsilon=eps)


def sample_rows(a: RectMatrix, count: int, seed: int) -> RectMatrix:
    """Uniform without-replacement row subset, original order preserved."""
    m = a.rows
    if not 1 <= count <= m:
        raise ValueError(f"count must be in [1, {m}], got {count}")
    if count == m:
        return RectMatrix(a.mat.copy())
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(m, size=count, replace=False))
    return RectMatrix(a.mat[idx])


def _json_default(value):
    """json's ``default`` hook: NumPy scalars and arrays as Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def render_reports(reports, format: str = "json") -> str:
    """Serialize reports to a JSON array or a CSV table with fixed columns."""
    records = [asdict(r) for r in reports]
    if format == "json":
        return json.dumps(records, indent=2, default=_json_default)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(SolveReport))
        for rec in records:
            writer.writerow(json.dumps(v, default=_json_default)
                            if isinstance(v, dict) else v
                            for v in rec.values())
        return buf.getvalue()
    raise ValueError(f"unknown report format {format!r}")


def write_text(path, text: str) -> None:
    """Write text atomically (temp file + rename): the target holds either
    its old content or all of the new."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(reports, format: str, path) -> None:
    """Write reports atomically (see ``write_text``)."""
    write_text(path, render_reports(reports, format=format))
