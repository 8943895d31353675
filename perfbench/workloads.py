"""Workload inputs, the solves that use them, and independent checks.

Inputs come from the run's seed. The Trefethen fixtures are fixed by their
formula and read from the bundled Matrix Market files. The ``gauss_cov``
designs follow the fixtures' protocol (rows i.i.d. N(0, Sigma), with a
random-basis Sigma whose condition number is log-uniform in [100, 1000]).
Slot k keeps the Sigma of bundled draw k; the seed selects the rows. Seed 0
reproduces the bundled ``gauss_cov_s0``..``gauss_cov_s3`` exactly.

Every check here recomputes what it needs with numpy and the benchmark's own
copy of the published optima. None of it calls the package's helpers.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import optiprecond  # noqa: E402
from optiprecond import bench, matrixio, optimal  # noqa: E402
from optiprecond.fixtures import fixture_path  # noqa: E402
from optiprecond.heuristics import DiagScaling  # noqa: E402
from optiprecond.linalg import SymMatrix  # noqa: E402

if Path(optiprecond.__file__).resolve().parent != SRC / "optiprecond":
    raise ImportError(f"optiprecond was imported from {optiprecond.__file__},"
                      f" not from {SRC}")

# Bound before any tracer patches numpy, so checks are never traced.
_eigvalsh = np.linalg.eigvalsh

WORKLOADS = ("right", "left", "twosided")
EPSILON = 1e-2          # the CLI's default --epsilon
PCG_TOL = 1e-6
GAUSS_SLOTS = 4

# Published optima of the Trefethen Gram matrices, as printed in the
# paper's tables. One-sided values hold for left and right alike, since the
# fixtures are square and symmetric.
ONE_SIDED_OPTIMUM = {"trefethen_20b": "8.697", "trefethen_20": "28.59",
                     "trefethen_150": "38.93", "trefethen_200b": "11.02"}
TWO_SIDED_OPTIMUM = {"trefethen_20b": "6.245", "trefethen_20": "17.11"}

# optimal_right's auto route sends n <= 200 to potential reduction, whose
# dk/kappa stop rule truncates the solve: these four miss the published
# optimum by more than epsilon on every run, with the kappa given here. A
# solve counts as this fault only if missing the optimum is its one failure
# and its kappa is no worse than this by more than KNOWN_FAULT_TOL.
KNOWN_FAULT = {("right", "trefethen_20b"): 8.919,
               ("right", "trefethen_20"): 30.30,
               ("right", "trefethen_150"): 142.3,
               ("right", "trefethen_200b"): 61.80}
KNOWN_FAULT_TOL = 1e-2
MISSES_OPTIMUM = "misses the published optimum"


@dataclass
class Case:
    """One solve of a workload: its input and what it is checked against."""

    label: str
    entry: str               # right | left | bisect | alternate
    rect: matrixio.RectMatrix
    gram: SymMatrix
    rhs: np.ndarray
    published: str | None = None      # published optimum, as printed
    one_sided: str | None = None      # one-sided optimum, for two-sided solves
    baseline: str | None = None       # jacobi | rownorm


@dataclass
class Outcome:
    """What one solve returned and how long it took."""

    case: Case
    wall_s: float
    cpu_s: float
    kappa: float = math.nan
    pcg_iters: int = 0
    failures: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def expected(self) -> bool:
        """Whether this failure is the known fault and nothing else."""
        today = KNOWN_FAULT.get((self.case.entry, self.case.label))
        return (today is not None and len(self.failures) == 1
                and self.failures[0].startswith(MISSES_OPTIMUM)
                and self.kappa <= today * (1 + KNOWN_FAULT_TOL))


def correct(outcomes) -> bool:
    """True unless a solve failed in a way other than the known fault."""
    return all(o.expected or not o.failed for o in outcomes)


def gauss_design(slot: int, seed: int, m: int = 400, n: int = 40):
    """Row draw of the seed's choosing under the Sigma of bundled slot."""
    rng = np.random.default_rng(slot)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cond = 10 ** rng.uniform(2, 3)
    sigma_half = (q * np.sqrt(np.geomspace(1.0, cond, n))) @ q.T
    rows = rng if seed == 0 else np.random.default_rng((seed, slot))
    return rows.standard_normal((m, n)) @ sigma_half


def load(workload: str, seed: int) -> list[Case]:
    """Read, draw and form the Grams of one workload's inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")

    def trefethen(name):
        return matrixio.read_matrix_market(fixture_path(name))

    def gauss(slot):
        return matrixio.RectMatrix(gauss_design(slot, seed))

    if workload == "right":
        specs = [(n, "right", trefethen(n), {"published": p})
                 for n, p in ONE_SIDED_OPTIMUM.items()]
        specs += [(f"gauss_cov[{k}]", "right", gauss(k),
                   {"baseline": "jacobi"}) for k in range(GAUSS_SLOTS)]
    elif workload == "left":
        specs = [(f"gauss_cov[{k}]", "left", gauss(k),
                  {"baseline": "rownorm"}) for k in range(GAUSS_SLOTS)]
        specs.append(("trefethen_150", "left", trefethen("trefethen_150"),
                      {"published": ONE_SIDED_OPTIMUM["trefethen_150"]}))
    else:
        specs = []
        for name, p in TWO_SIDED_OPTIMUM.items():
            a = trefethen(name)
            specs += [(name, entry, a, {"published": p,
                                        "one_sided": ONE_SIDED_OPTIMUM[name]})
                      for entry in ("bisect", "alternate")]
    cases = []
    for i, (label, entry, a, extra) in enumerate(specs):
        gram = matrixio.gram_matrix(a)
        rhs = np.random.default_rng((seed, i)).standard_normal(gram.order)
        cases.append(Case(label, entry, a, gram, rhs, **extra))
    return cases


def _tall(a: matrixio.RectMatrix) -> np.ndarray:
    return a.mat if a.rows >= a.cols else a.mat.T


def _request(entry: str) -> optimal.OptimalRequest:
    side = {"right": "right", "left": "left"}.get(entry, "two_sided")
    return optimal.OptimalRequest(side=side, epsilon=EPSILON)


def _solve(case: Case):
    """Call the public entry point, then PCG on the system it scales."""
    req = _request(case.entry)
    if case.entry == "right":
        scaling, report = optimal.optimal_right(case.gram, req)
        result = bench.pcg(case.gram, rhs=case.rhs, precond=scaling,
                           tol=PCG_TOL)
        return scaling, report, result
    entry = {"left": optimal.optimal_left,
             "bisect": optimal.bisect_two_sided,
             "alternate": optimal.alternate_two_sided}[case.entry]
    scaling, report = entry(case.rect, req)
    x = _tall(case.rect)
    d1 = scaling.left_values if case.entry != "left" else scaling.values
    g = x.T @ (d1[:, None] * x)
    precond = DiagScaling(scaling.values) if case.entry != "left" else None
    result = bench.pcg(SymMatrix(0.5 * (g + g.T)), rhs=case.rhs,
                       precond=precond, tol=PCG_TOL)
    return scaling, report, result


def run_case(case: Case) -> Outcome:
    """Time one solve and its PCG run, then check them outside the timing."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        scaling, report, result = _solve(case)
    except Exception as exc:     # a solver error is a failed operation
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        return Outcome(case, wall, cpu,
                       failures=(f"raised {type(exc).__name__}: {exc}",))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    kappa, failures = check(case, scaling, report, result)
    return Outcome(case, wall, cpu, kappa, result.iterations, failures)


def kappa_of(sym: np.ndarray) -> float:
    """lambda_max / lambda_min by numpy's symmetric eigensolver."""
    w = _eigvalsh(0.5 * (sym + sym.T))
    return float(w[-1] / w[0]) if w[0] > 0 else math.inf


def scaled_gram(case: Case, entry: str, d: np.ndarray,
                d1: np.ndarray | None = None) -> np.ndarray:
    """The Gram matrix a scaling produces, formed from the raw input."""
    x = _tall(case.rect)
    if entry == "right":
        s = 1.0 / np.sqrt(d)
        return s[:, None] * (x.T @ x) * s[None, :]
    if entry == "left":
        return x.T @ (d[:, None] * x)
    s = 1.0 / np.sqrt(d)
    return s[:, None] * (x.T @ (d1[:, None] * x)) * s[None, :]


def baseline_kappa(case: Case) -> float:
    """Jacobi (right) or row-norm (left) diagonal scaling, computed here."""
    x = _tall(case.rect)
    if case.baseline == "jacobi":
        return kappa_of(scaled_gram(case, "right", np.sum(x * x, axis=0)))
    return kappa_of(scaled_gram(case, "left", 1.0 / np.sum(x * x, axis=1)))


def _half_unit(printed: str) -> float:
    """Half a unit in the last printed digit: the value's rounding."""
    return 0.5 * 10.0 ** Decimal(printed).as_tuple().exponent


def check(case: Case, scaling, report, result) -> tuple[float, tuple]:
    """Recompute kappa and test the solve against independent references.

    Returns the recomputed kappa and the list of checks that failed.
    """
    failures = []
    pair = case.entry in ("bisect", "alternate")
    d = np.asarray(scaling.values, dtype=float)
    d1 = np.asarray(scaling.left_values, dtype=float) if pair else None
    if not all(np.all(np.isfinite(v)) and np.all(v > 0)
               for v in ([d] if d1 is None else [d, d1])):
        return math.nan, ("scaling is not positive and finite",)
    kappa = kappa_of(scaled_gram(case, "pair" if pair else case.entry,
                                 d, d1))
    if not math.isclose(kappa, report.kappa_after, rel_tol=1e-6):
        failures.append(f"kappa {kappa:.10g} disagrees with reported "
                        f"kappa_after {report.kappa_after:.10g}")
    x = _tall(case.rect)
    kappa_before = kappa_of(x.T @ x)
    if kappa > kappa_before * (1 + 1e-9):
        failures.append(f"kappa {kappa:.6g} exceeds kappa_before "
                        f"{kappa_before:.6g}")
    if case.published is not None:
        target = float(case.published)
        if kappa > target * (1 + EPSILON):
            failures.append(f"{MISSES_OPTIMUM}: kappa {kappa:.6g} is not "
                            f"within epsilon {EPSILON} of the published "
                            f"{case.published}")
        if kappa < target - _half_unit(case.published):
            failures.append(f"kappa {kappa:.6g} is below the published "
                            f"optimum {case.published}")
    if case.one_sided is not None and kappa > float(case.one_sided):
        failures.append(f"two-sided kappa {kappa:.6g} exceeds the one-sided "
                        f"optimum {case.one_sided}")
    if case.baseline is not None:
        base = baseline_kappa(case)
        if kappa > base * (1 + 1e-9):
            failures.append(f"kappa {kappa:.6g} is worse than the "
                            f"{case.baseline} baseline {base:.6g}")
    if not result.converged:
        failures.append(f"PCG did not reach tol {PCG_TOL} in "
                        f"{result.iterations} iterations")
    return kappa, tuple(failures)
