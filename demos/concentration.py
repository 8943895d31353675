"""How sample size drives the accuracy of column-norm preconditioning.

Rows are drawn i.i.d. from N(0, Sigma). Normalizing by the squared sample
column norms is a data-driven stand-in for normalizing by diag(Sigma); the
gap between the two condition-number ratios shrinks like sqrt(p/n) as the
sample grows.
"""

import numpy as np

from optiprecond import concentration_experiment

sigma = np.arange(1.0, 6.0)
p = len(sigma)
n_grid = [400, 1600, 6400, 25600]
table = concentration_experiment(n_grid=n_grid, sigma_spec=sigma, trials=50,
                                 seed=2024)

print(f"Sigma = diag({sigma.tolist()}), {table[0]['trials']} trials per n")
print(f"{'n':>7s} {'sqrt(p/n)':>10s} {'mean gap':>10s}")
for row in table:
    rate = np.sqrt(p / row["n"])
    print(f"{row['n']:7d} {rate:10.4f} {row['mean_gap']:10.4f}")

rates = np.sqrt(p / np.array([row["n"] for row in table], dtype=float))
gaps = [row["mean_gap"] for row in table]
slope = np.polyfit(rates, gaps, 1)[0]
print()
print(f"least-squares slope of gap vs sqrt(p/n): {slope:.3f} (positive)")
