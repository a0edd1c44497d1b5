"""Second-chaos case study: fourth moments, Stein discrepancy, bound crossover.

The rank-one second chaos F = (N^2 - 1)/sqrt(2) is the fully solvable case:
its fourth moment (15), Stein discrepancy (sqrt(2), the fourth-moment upper
bound attained exactly) and CDF are all closed-form, so the non-uniform bound
can be certified against exact quantities and Monte Carlo is only needed as a
cross-check.

Run:  python demos/chaos_fourth_moment.py
"""

import math

import numpy as np

from nubes import bounds, chaos, empirical

spec = chaos.normalize(chaos.DiagonalChaosSpec(q=2, alphas=(1.0,)))
print(f"spec: q={spec.q}, alphas={spec.alphas}, variance={chaos.variance(spec)}")

m4 = chaos.fourth_moment(spec)
d = chaos.stein_discrepancy_upper(m4, spec.q)
print(f"exact fourth moment: {m4}  ->  Stein discrepancy upper bound d = {d:.6f}")

n = 200_000
samples = chaos.sample_batch(spec, n, seed=7)
f4 = samples**4
print(f"Monte Carlo check ({n} draws): m4_hat = {f4.mean():.3f} +- {f4.std(ddof=1) / math.sqrt(n):.3f}")

# empirical CDF vs the exact CDF, uniform distance against the DKW band
ecdf = empirical.build_ecdf(samples)
zs = np.linspace(-2.0, 8.0, 201)
sup = float(np.max(np.abs(ecdf.evaluate(zs) - chaos.exact_cdf_q2_rank1(zs))))
print(f"sup |ECDF - exact CDF| on the grid: {sup:.4f}  (DKW 99% band: "
      f"{empirical.dkw_epsilon(n, 0.01):.4f})")

# non-uniform bound with the exact tail vs the flat uniform baseline
inputs = bounds.BoundInputs(mean_abs=0.0, stein_discrepancy=d, tail=chaos.exact_abs_tail_q2_rank1)
grid = np.linspace(-8.0, 8.0, 161)
curve = bounds.evaluate_curve(inputs, grid)
uniform = curve.uniform_bound[0]
below = np.abs(grid)[curve.bounds < uniform]
print(f"\nuniform baseline: {uniform:.4f}")
print(f"non-uniform bound drops below it for |z| >= {below.min():.2f} (crossover z*)")
table_z = [0.0, 2.0, 4.0, 6.0, 8.0]
for z, b in zip(table_z, bounds.evaluate_curve(inputs, table_z).bounds):
    print(f"  z={z:3.0f}: bound={b:.6f}")

# the same certification the CLI performs, here in-process
report = empirical.certify(empirical.discrepancy_curve(ecdf, grid), curve.bounds, k=3.0)
print(f"\ncertification with slack k=3: violations={report.n_violations} "
      f"(exit status {report.exit_status})")

# chaos concentration P(|F| > x) <= c^2 e^{-x/2}: the exact tail holds it with
# c = 1, tight at x = 0
xs = np.linspace(0.0, 60.0, 6001)
c = math.sqrt(np.max(chaos.exact_abs_tail_q2_rank1(xs) * np.exp(xs / 2.0)))
print(f"concentration constant from the exact tail on [0, 60]: c = {c}")
major = bounds.BoundInputs(mean_abs=0.0, stein_discrepancy=d, tail=bounds.MajorChaosTail(q=2, c_q=c))
print(f"displayed chaos bound with that c at z=4: "
      f"{bounds.evaluate_curve(major, [4.0]).bounds[0]:.6f}")
