"""Inside the potential-reduction interior point solver.

Traces one solve: the level kappa marches down from 1.01 kappa(M) toward
the optimal value while the barrier potential at the (approximate) analytic
center decreases by at least a constant per accepted step. The exact and
single-Newton-step variants follow the same path. The primal-dual dual-SDP
solve gives the reference optimum with a certified lower bound.
"""

import numpy as np

from optiprecond import SymMatrix
from optiprecond.dsdp import barrier_path_solve, build_right
from optiprecond.potential import PRConfig, solve_right_pr

rng = np.random.default_rng(3)
q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
m = SymMatrix((q * np.geomspace(1.0, 120.0, 8)) @ q.T)

_, _, ds = barrier_path_solve(build_right(m))
print(f"kappa(M) = {np.linalg.cond(m.mat):.3f}, "
      f"optimal kappa* = {ds.kappa_after:.3f} (dual SDP reference)")
print(f"certified: {ds.kappa_after:.9f} >= kappa* >= "
      f"{ds.extra['kappa_lower_bound']:.9f}, gap "
      f"{ds.extra['certified_gap']:.1e} after {ds.iterations} "
      f"primal-dual iterations")
print()

for mode in ("exact", "approximate"):
    scaling, report = solve_right_pr(m, PRConfig(kappa_tol=1e-5), mode=mode)
    traj = report.extra["potential_trajectory"]
    print(f"{mode} mode: {report.iterations} outer steps, "
          f"final kappa {report.kappa_after:.4f}")
    print(f"{'step':>5s} {'kappa':>10s} {'potential':>12s} {'beta':>6s}")
    marks = np.linspace(0, len(traj) - 1, 8).astype(int)
    for k in marks:
        kappa, pot, beta = traj[k]
        print(f"{k:5d} {kappa:10.4f} {pot:12.4f} {beta:6.3f}")
    drops = np.diff([p for (_, p, _) in traj])
    print(f"potential strictly decreasing: {bool(np.all(drops < 0))}, "
          f"median drop per step {np.median(-drops):.3f}")
    print()
