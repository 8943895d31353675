"""Condition numbers before and after diagonal preconditioning.

Walks the bundled benchmark matrices and compares the classic heuristics
(Jacobi, Ruiz equilibration) against the optimal diagonal preconditioners
computed by the primal-dual one-sided SDP solver and the two-sided
alternation.
"""

import numpy as np

from optiprecond import (
    RectMatrix,
    gram_matrix,
    jacobi_scaling,
    read_matrix_market,
    ruiz_equilibrate,
    scaled_condition,
)
from optiprecond.fixtures import FIXTURE_NAMES, fixture_path
from optiprecond.optimal import OptimalRequest, alternate_two_sided, optimal_right

names = [n for n in FIXTURE_NAMES if n.startswith("trefethen")]
names += ["gauss_cov_s0", "gauss_cov_s1"]

print(f"{'matrix':15s} {'kappa':>12s} {'jacobi':>10s} {'ruiz':>10s} "
      f"{'optimal':>10s} {'two-sided':>10s}")
for name in names:
    a = read_matrix_market(fixture_path(name))
    gram = gram_matrix(a)
    base = scaled_condition(gram, None)
    jac = scaled_condition(gram, jacobi_scaling(gram))
    ruiz = scaled_condition(gram, ruiz_equilibrate(gram))
    _, rep = optimal_right(gram, OptimalRequest(method="dsdp"))
    _, rep2 = alternate_two_sided(a)
    print(f"{name:15s} {base:12.1f} {jac:10.2f} {ruiz:10.2f} "
          f"{rep.kappa_after:10.2f} {rep2.kappa_after:10.2f}")

print()
print("The optimal column gives the smallest achievable condition number")
print("over all positive diagonal scalings of the Gram matrix; two-sided")
print("alternation can go below it by also reweighting rows.")

# a tiny instance where Jacobi actively hurts: heavy off-diagonal coupling
rng = np.random.default_rng(7)
g = rng.standard_normal((4, 4))
m = g @ g.T + 1e-3 * np.eye(4)
from optiprecond import SymMatrix

sym = SymMatrix(m)
print()
print("an instance where the diagonal heuristic backfires:")
print("  kappa unscaled:", f"{scaled_condition(sym, None):.1f}")
print("  kappa jacobi:  ", f"{scaled_condition(sym, jacobi_scaling(sym)):.1f}")
print("  kappa optimal: ",
      f"{optimal_right(sym, OptimalRequest(method='dsdp'))[1].kappa_after:.1f}")
