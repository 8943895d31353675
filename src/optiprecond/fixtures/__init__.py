"""Vendored benchmark matrices and the generators that reproduce them.

Two groups are bundled as Matrix Market files. The trefethen_* family has a
closed-form definition (first primes on the diagonal, ones where |i - j| is
a power of two), so the vendored files are exact reconstructions and
self-verify against the generators. The gauss_cov_s* family follows the
benchmark data protocol for simulated designs: rows drawn i.i.d. from
N(0, Sigma) with a random-basis Sigma whose condition number is log-uniform
in [100, 1000]; the files freeze one seeded draw each.

Adjacency matrices of iterated Mycielski graphs are provided as generators
only: their Gram spectra are strongly clustered, so unpreconditioned CG
exits early on them regardless of conditioning, which makes them useful for
validating solver output values but unsuitable for the iteration-count
benchmark corpus.
"""

from __future__ import annotations

import importlib.resources

import numpy as np

FIXTURE_NAMES = (
    "trefethen_20b",
    "trefethen_20",
    "trefethen_150",
    "trefethen_200b",
    "gauss_cov_s0",
    "gauss_cov_s1",
    "gauss_cov_s2",
    "gauss_cov_s3",
    "gauss_cov_s4",
    "gauss_cov_s5",
    "gauss_cov_s6",
    "gauss_cov_s7",
)


def fixture_path(name: str):
    """Filesystem path of a bundled .mtx fixture."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    resource = importlib.resources.files(__package__) / f"{name}.mtx"
    if not resource.is_file():
        raise FileNotFoundError(f"fixture file {name}.mtx is not vendored")
    return resource


def _primes(count):
    out = []
    candidate = 2
    while len(out) < count:
        if all(candidate % q for q in out if q * q <= candidate):
            out.append(candidate)
        candidate += 1
    return out


def trefethen_matrix(n: int, drop_first: bool = False) -> np.ndarray:
    """Symmetric matrix with the first n primes on the diagonal and ones at
    |i - j| equal to a power of two; drop_first removes row/column one."""
    a = np.zeros((n, n))
    for i, q in enumerate(_primes(n)):
        a[i, i] = q
    k = 1
    while k < n:
        idx = np.arange(n - k)
        a[idx, idx + k] = 1.0
        a[idx + k, idx] = 1.0
        k *= 2
    return a[1:, 1:] if drop_first else a


def mycielskian_adjacency(k: int) -> np.ndarray:
    """Adjacency matrix of the k-th iterated Mycielskian, starting at K2."""
    if k < 2:
        raise ValueError("the construction starts at k = 2 (a single edge)")
    edges = [(0, 1)]
    n = 2
    for _ in range(k - 2):
        grown = []
        for (i, j) in edges:
            grown += [(i, j), (i, n + j), (j, n + i)]
        hub = 2 * n
        grown += [(n + i, hub) for i in range(n)]
        edges = grown
        n = 2 * n + 1
    a = np.zeros((n, n))
    for (i, j) in edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def gauss_cov_design(seed: int, m: int = 400, n: int = 40) -> np.ndarray:
    """Design matrix with rows i.i.d. N(0, Sigma), kappa(Sigma) in [100, 1000]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cond = 10 ** rng.uniform(2, 3)
    w = np.geomspace(1.0, cond, n)
    sigma_half = (q * np.sqrt(w)) @ q.T
    return rng.standard_normal((m, n)) @ sigma_half


def generate(name: str) -> np.ndarray:
    """Rebuild a fixture matrix (bundled or generator-only) from its recipe."""
    if name == "trefethen_20b":
        return trefethen_matrix(20, drop_first=True)
    if name == "trefethen_20":
        return trefethen_matrix(20)
    if name == "trefethen_150":
        return trefethen_matrix(150)
    if name == "trefethen_200b":
        return trefethen_matrix(200, drop_first=True)
    if name.startswith("mycielskian"):
        return mycielskian_adjacency(int(name.removeprefix("mycielskian")))
    if name.startswith("gauss_cov_s"):
        return gauss_cov_design(int(name.removeprefix("gauss_cov_s")))
    raise KeyError(f"unknown fixture {name!r}")

