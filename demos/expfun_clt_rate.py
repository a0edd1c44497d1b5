"""Brownian exponential functional: moments, concentration, and the CLT rate.

F_t = int_0^t e^{a s + B_s} ds concentrates around t for small horizons and,
standardized, converges to the standard normal.  This script walks through
the closed-form moments, path sampling, the one-sided concentration bounds,
and the explicit non-uniform rate bound for the normal approximation.

Run:  python demos/expfun_clt_rate.py
"""

import math

import numpy as np

from nubes import empirical, expfun
from nubes.gaussian import normal_cdf

a, t = 0.0, 0.05
params = expfun.ExpFunParams(a=a, t=t)
m = expfun.moments(params)
print(f"horizon t={t}, drift a={a}")
print(f"  m_t     = {m.m_t:.10f}   (m_t/t -> 1:   {m.m_t / t:.6f})")
print(f"  sigma^2 = {m.sigma2_t:.6e}   (3 sigma^2/t^3 -> 1: {3 * m.sigma2_t / t**3:.6f})")

n_paths = 100_000
n_steps = expfun.default_n_steps(t)
print(f"\nsampling {n_paths} paths at {n_steps} steps (trapezoid) ...")
f = expfun.sample_batch(params, n_steps, n_paths, seed=12)
print(f"  MC mean  {f.mean():.8f}  vs closed form {m.m_t:.8f}")
print(f"  MC var   {f.var(ddof=1):.4e}  vs closed form {m.sigma2_t:.4e}")

s = expfun.standardize(f, m)
print(f"  standardized: mean {s.mean():+.4f}, var {s.var(ddof=1):.4f}, "
      f"min {s.min():.3f} (support floor -m/sigma = {-m.m_t / m.sigma_t:.3f})")

print("\none-sided concentration bounds vs empirical frequencies:")
for x in (0.5, 1.0, 1.5, 2.0):
    up_emp = np.count_nonzero(s >= x) / n_paths
    lo_emp = np.count_nonzero(s <= -x) / n_paths
    print(f"  x={x:3.1f}:  P(F~ >= x) = {up_emp:.4f} <= {expfun.upper_tail_bound(x, params, m):.4f}   "
          f"P(F~ <= -x) = {lo_emp:.4f} <= {expfun.lower_tail_bound(x):.4f}")

print("\nexplicit non-uniform rate bound vs the measured discrepancy:")
pref = math.sqrt(expfun.discrepancy_sq_upper(params, m))
print(f"  prefactor 2 e^(2at+4t) t^3 sqrt(t)/sigma^2 = {pref:.4f} "
      f"(-> 6 sqrt(t) = {6 * math.sqrt(t):.4f} as t -> 0)")
ecdf = empirical.build_ecdf(s)
for z in (0.0, 1.0, 2.0, 3.0, 4.0):
    disc = abs(ecdf.evaluate(z) - normal_cdf(z))
    print(f"  z={z:3.1f}:  |P(F~<=z) - Phi(z)| = {disc:.5f}   bound = "
          f"{expfun.clt_rate_bound(params, m, z):.5f}")

report = empirical.certify(
    empirical.discrepancy_curve(ecdf, np.linspace(-5, 5, 101)),
    expfun.clt_rate_bound(params, m, np.linspace(-5, 5, 101)),
    k=3.0,
)
print(f"\ncertification on [-5, 5]: violations={report.n_violations} "
      f"(exit status {report.exit_status})")
