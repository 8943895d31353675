import numpy as np
import pytest

from optiprecond import condition_number, gram_matrix, read_matrix_market
from optiprecond.fixtures import (
    FIXTURE_NAMES,
    fixture_path,
    gauss_cov_design,
    generate,
    mycielskian_adjacency,
    trefethen_matrix,
)

# published condition numbers kappa(A^T A) for the reconstructions
REPORTED_KAPPA = {
    "trefethen_20b": 9.212e2,
    "trefethen_20": 3.980e3,
    "trefethen_150": 5.928e5,
    "trefethen_200b": 2.723e5,
    "mycielskian4": 9.391e1,
    "mycielskian5": 7.641e2,
    "mycielskian6": 5.863e3,
}


def kappa_of(name):
    from optiprecond import RectMatrix
    return condition_number(gram_matrix(RectMatrix(generate(name))))


def test_bundled_files_match_generators():
    for name in FIXTURE_NAMES:
        a = read_matrix_market(fixture_path(name))
        assert np.array_equal(a.mat, generate(name)), name


def test_reconstructions_match_reported_values():
    for name, reported in REPORTED_KAPPA.items():
        assert kappa_of(name) == pytest.approx(reported, rel=1e-3), name


def test_trefethen_structure():
    a = trefethen_matrix(20)
    assert a[0, 0] == 2.0 and a[19, 19] == 71.0    # first and 20th primes
    assert a[0, 1] == 1.0 and a[0, 2] == 1.0 and a[0, 4] == 1.0
    assert a[0, 3] == 0.0                           # 3 is not a power of two
    b = trefethen_matrix(20, drop_first=True)
    assert b.shape == (19, 19)
    assert b[0, 0] == 3.0


def test_mycielskian_counts():
    # |V| = 2 |V| + 1 and |E| = 3 |E| + |V| per construction step
    for k, (nodes, edges) in {4: (11, 20), 5: (23, 71), 6: (47, 236),
                              7: (95, 755)}.items():
        a = mycielskian_adjacency(k)
        assert a.shape == (nodes, nodes)
        assert int(a.sum()) == 2 * edges


REPORTED_OPTIMAL = {
    # one-sided optimum of the Gram matrix (left = right for square
    # symmetric inputs)
    "trefethen_20b": 8.697,
    "trefethen_20": 28.59,
    "trefethen_150": 38.93,
    "trefethen_200b": 11.02,
    "mycielskian4": 84.76,
    "mycielskian5": 611.0,
    "mycielskian6": 4139.0,
}


def test_optimal_solver_reproduces_reported_values():
    from optiprecond import RectMatrix
    from optiprecond.optimal import OptimalRequest, optimal_left, optimal_right

    for name, reported in REPORTED_OPTIMAL.items():
        a = RectMatrix(generate(name))
        _, rep = optimal_right(gram_matrix(a), OptimalRequest(method="dsdp"))
        assert rep.kappa_after == pytest.approx(reported, rel=2e-3), name
    # the left optimum of a symmetric A equals the right one of A^T A
    for name in ("trefethen_20b", "trefethen_20", "trefethen_150"):
        _, rep = optimal_left(RectMatrix(generate(name)))
        assert rep.kappa_after == pytest.approx(REPORTED_OPTIMAL[name],
                                                rel=2e-3), name


def test_two_sided_alternation_reproduces_reported_values():
    # published two-sided optima; alternation is an upper bound that lands
    # within a fraction of a percent on these instances
    from optiprecond import RectMatrix
    from optiprecond.optimal import alternate_two_sided

    for name, reported in {"trefethen_20b": 6.245, "trefethen_20": 17.11}.items():
        _, rep = alternate_two_sided(RectMatrix(generate(name)))
        assert rep.kappa_after >= reported * 0.97, name
        assert rep.kappa_after <= reported * 1.05, name



def test_two_sided_alternation_on_trefethen_150():
    # took 89 s while BLAS ran multi-threaded; about 3 s on one thread
    from optiprecond import RectMatrix
    from optiprecond.optimal import alternate_two_sided

    x = generate("trefethen_150")
    scaling, rep = alternate_two_sided(RectMatrix(x))
    assert rep.kappa_after <= 1.01 * REPORTED_OPTIMAL["trefethen_150"]
    s = 1.0 / np.sqrt(scaling.values)
    scaled = s[:, None] * (x.T @ (scaling.left_values[:, None] * x)) * s
    w = np.linalg.eigvalsh(scaled)
    assert rep.kappa_after == pytest.approx(w[-1] / w[0], rel=1e-8)
    assert rep.iterations <= 20


# optimal_right's auto route (potential reduction) on the benchmark's eight
# right inputs: outer steps and kappa_after of the approximate NT path
PINNED_RIGHT_PR = {
    "trefethen_20b": (1014, 8.919179244),
    "trefethen_20": (1128, 30.3044306),
    "trefethen_150": (3, 142.2774988),
    "trefethen_200b": (3, 61.79698651),
    "gauss_cov_s0": (170, 363.1996583),
    "gauss_cov_s1": (151, 560.8114621),
    "gauss_cov_s2": (225, 365.1434723),
    "gauss_cov_s3": (206, 580.8727004),
}


def test_potential_reduction_right_solves_are_pinned():
    from optiprecond.optimal import optimal_right

    for name, (steps, kappa) in PINNED_RIGHT_PR.items():
        gram = gram_matrix(read_matrix_market(fixture_path(name)))
        _, rep = optimal_right(gram)
        assert rep.method == "optimal_right[potential_reduction]", name
        assert rep.iterations == steps, name
        assert rep.kappa_after == pytest.approx(kappa, rel=1e-9), name


# optimal_left (dsdp) on the benchmark's five left inputs: primal-dual
# iterations and kappa_after
PINNED_LEFT = {
    "gauss_cov_s0": (17, 104.6328885),
    "gauss_cov_s1": (19, 152.9584859),
    "gauss_cov_s2": (18, 117.0433882),
    "gauss_cov_s3": (18, 209.2330078),
    "trefethen_150": (23, 38.92755026),
}


def test_left_solves_are_pinned():
    from optiprecond.optimal import OptimalRequest, optimal_left

    for name, (steps, kappa) in PINNED_LEFT.items():
        _, rep = optimal_left(read_matrix_market(fixture_path(name)),
                              OptimalRequest(epsilon=1e-8))
        assert rep.method == "optimal_left[dsdp]", name
        assert rep.extra["newton_steps"] == rep.iterations == steps, name
        assert rep.kappa_after == pytest.approx(kappa, rel=1e-9), name


def _half_unit(value):
    """Half a unit in the last digit of a published value as printed; an
    integer is written here with a trailing .0."""
    text = repr(value).removesuffix(".0")
    return 0.5 * 10.0 ** -len(text.partition(".")[2])


def test_one_sided_fixture_solves_are_certified():
    # the 13 one-sided solves of the benchmark fixtures (8 dsdp right, the
    # 5 left) and the other published one-sided optima, at the benchmark's
    # epsilon; each published optimum lies in the certified bracket
    from optiprecond import RectMatrix
    from optiprecond.optimal import OptimalRequest, optimal_left, optimal_right

    eps = 1e-2
    req = OptimalRequest(method="dsdp", epsilon=eps)

    def right(a):
        return optimal_right(gram_matrix(a), req)

    def left(a):
        return optimal_left(a, req)

    solves = [(name, right) for name in {**PINNED_RIGHT_PR,
                                         **REPORTED_OPTIMAL}]
    solves += [(name, left) for name in
               {**PINNED_LEFT, "trefethen_20b": 0, "trefethen_20": 0}]
    for name, solve in solves:
        _, rep = solve(RectMatrix(generate(name)))
        lower, kappa = rep.extra["kappa_lower_bound"], rep.kappa_after
        assert rep.extra["certified"], (name, solve)
        assert rep.extra["gap_tolerance"] == eps, (name, solve)
        assert lower <= kappa <= (1 + eps) * lower, (name, solve)
        # the left optimum of a symmetric A is the right one of A^T A
        if name in REPORTED_OPTIMAL:
            published = REPORTED_OPTIMAL[name]
            h = _half_unit(published)
            assert lower - h <= published <= kappa + h, (name, solve)


def test_gauss_cov_design_deterministic():
    assert np.array_equal(gauss_cov_design(3), gauss_cov_design(3))
    assert gauss_cov_design(0).shape == (400, 40)


def test_gauss_cov_condition_range():
    for seed in range(8):
        sigma_kappa_bound = 1000.0
        a = gauss_cov_design(seed)
        w = np.linalg.eigvalsh(a.T @ a / a.shape[0])
        # the sample Gram's kappa tracks kappa(Sigma) loosely at m/n = 10
        assert 10.0 < w[-1] / w[0] < 10 * sigma_kappa_bound


def test_fixture_path_unknown():
    with pytest.raises(KeyError):
        fixture_path("ash219")
