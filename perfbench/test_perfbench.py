"""Tests of the benchmark's own checks and trace counts.

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import workloads  # first: puts the package source on the path
import tracer
from optiprecond import matrixio, optimal
from optiprecond.bench import PcgResult
from optiprecond.fixtures import fixture_path
from optiprecond.heuristics import DiagScaling

COUNT_SUFFIXES = ("_calls", "_steps", "_stages", "_levels", "_rounds")


def _case(workload, entry, label):
    return next(c for c in workloads.load(workload, 0)
                if c.entry == entry and c.label == label)


def _report(kappa_after, case):
    x = case.rect.mat
    return matrixio.SolveReport(
        matrix=case.label, method="presented", kappa_before=workloads.kappa_of(
            x.T @ x), kappa_after=kappa_after, iterations=1,
        wall_time_seconds=0.0)


CONVERGED = PcgResult(iterations=10, converged=True,
                      final_relative_residual=1e-7)


def test_seed_zero_reproduces_bundled_draws():
    for slot in range(workloads.GAUSS_SLOTS):
        bundled = matrixio.read_matrix_market(
            fixture_path(f"gauss_cov_s{slot}"))
        assert np.array_equal(workloads.gauss_design(slot, 0), bundled.mat)
    assert not np.array_equal(workloads.gauss_design(0, 1),
                              workloads.gauss_design(0, 0))


def test_jacobi_presented_as_optimal_fails_published_optimum():
    case = _case("right", "right", "trefethen_150")
    jacobi = DiagScaling(np.diag(case.gram.mat))
    kappa = workloads.kappa_of(
        workloads.scaled_gram(case, "right", jacobi.values))
    assert kappa == pytest.approx(43.59, abs=5e-3)
    _, failures = workloads.check(case, jacobi, _report(kappa, case),
                                  CONVERGED)
    assert len(failures) == 1
    assert "published 38.93" in failures[0]


def test_misreported_kappa_fails():
    case = _case("right", "right", "trefethen_20b")
    scaling, report = optimal.optimal_right(
        case.gram, optimal.OptimalRequest(method="dsdp"))
    kappa, failures = workloads.check(case, scaling, report, CONVERGED)
    assert failures == ()          # the dsdp optimum passes every check
    report.kappa_after *= 1 + 1e-4
    _, failures = workloads.check(case, scaling, report, CONVERGED)
    assert len(failures) == 1
    assert "disagrees with reported kappa_after" in failures[0]


def test_known_fault_counts_only_as_itself():
    case = _case("right", "right", "trefethen_20b")
    scaling, report = optimal.optimal_right(case.gram,
                                            optimal.OptimalRequest())
    kappa, failures = workloads.check(case, scaling, report, CONVERGED)
    fault = workloads.Outcome(case, 0.0, 0.0, kappa, 10, failures)
    assert fault.failed and fault.expected and workloads.correct([fault])

    report.kappa_after *= 1 + 1e-4
    kappa, failures = workloads.check(case, scaling, report, CONVERGED)
    misreported = workloads.Outcome(case, 0.0, 0.0, kappa, 10, failures)
    assert len(failures) == 2 and not misreported.expected
    assert not workloads.correct([fault, misreported])

    worse = workloads.Outcome(case, 0.0, 0.0, 9.2, 10, fault.failures)
    raised = workloads.Outcome(case, 0.0, 0.0,
                               failures=("raised RuntimeError: stop",))
    assert not worse.expected and not raised.expected
    assert not workloads.correct([raised])


def test_unconverged_pcg_and_bad_scaling_fail():
    case = _case("left", "left", "gauss_cov[0]")
    x = case.rect.mat
    rownorm = DiagScaling(1.0 / np.sum(x * x, axis=1), side="left")
    kappa = workloads.kappa_of(
        workloads.scaled_gram(case, "left", rownorm.values))
    stalled = PcgResult(iterations=400, converged=False,
                        final_relative_residual=1e-3)
    _, failures = workloads.check(case, rownorm, _report(kappa, case),
                                  stalled)
    assert len(failures) == 1 and "PCG did not reach" in failures[0]
    worse = DiagScaling(np.ones(x.shape[0]), side="left")
    kappa_worse = workloads.kappa_of(x.T @ x)
    _, failures = workloads.check(case, worse, _report(kappa_worse, case),
                                  CONVERGED)
    assert any("worse than the rownorm baseline" in f for f in failures)


def _traced_counts(workload):
    with tracer.Tracer() as tr:
        for case in workloads.load(workload, 0):
            workloads.run_case(case)
    return {name: value for name, value in tracer.layer_metrics(
        tr.spans).items() if name.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert first["lapack.chol_calls"] > 0


def test_tracer_restores_every_name():
    before = (optimal.optimal_right, np.linalg.cholesky,
              optimal.condition_number)
    with tracer.Tracer():
        assert optimal.optimal_right is not before[0]
        assert np.linalg.cholesky is not before[1]
    assert (optimal.optimal_right, np.linalg.cholesky,
            optimal.condition_number) == before
