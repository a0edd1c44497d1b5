"""Tour of the Stein equation solution f_z and its envelope estimates.

Run:  python demos/stein_solution_tour.py
"""

import numpy as np

from nubes import gaussian

print("Stein solution f_z for the standard-normal target")
print("=" * 60)

# the solution and its derivative at a few points, branch included
for z, x in [(0.0, 0.0), (1.3, 0.5), (1.3, 2.0), (2.0, -6.0), (1.0, -40.0)]:
    f, fp = gaussian.stein_value(z, x), gaussian.stein_derivative(z, x)
    branch = "lower" if x <= z else "upper"  # the seam x == z belongs to the lower branch
    print(f"  z={z:5.1f} x={x:7.1f}: f={f:.6e}  f'={fp: .6e}  [{branch}]")

# the two branch formulas meet continuously at the seam x = z
z = 1.3
below = gaussian.stein_value(z, np.nextafter(z, -np.inf))
above = gaussian.stein_value(z, np.nextafter(z, np.inf))
print(f"\nseam continuity at z={z}: |f(z-) - f(z+)| = {abs(below - above):.2e}")
print(f"derivative jump across the seam (indicator discontinuity): "
      f"{gaussian.stein_derivative(z, z) - (z * gaussian.stein_value(z, z) - gaussian.normal_cdf(z)):.12f}")

# no overflow even far outside the double-exponential comfort zone
print("\nextreme arguments stay finite (evaluation goes through the scaled tail):")
for z, x in [(300.0, -300.0), (0.0, 400.0), (50.0, 50.0)]:
    print(f"  f_{z:g}({x:g}) = {gaussian.stein_value(z, x):.6e}")

# ODE residual with an independent finite-difference derivative
xs = np.linspace(-12.0, 12.0, 2401)
worst = float(np.max(np.abs(gaussian.stein_ode_residual_fd(np.array([[-4.0], [0.5], [3.0]]), xs))))
print(f"\nmax |f' - x f - (1_(x<=z) - Phi(z))| with FD derivative: {worst:.2e}")

# envelope estimates: global bounds everywhere, sharpened bounds on |x| <= z/2
print("\nenvelope checks (global: 0 < f <= sqrt(2pi)/4, |f'| <= 1;")
print("center |x| <= z/2: f <= sqrt(2pi)/2 e^{-z^2/4}, |f'| <= 2 e^{-z^2/4}):")
for z in (0.1, 1.0, 2.0, 6.0):
    rep = gaussian.check_lemma(z, xs)
    print(f"  z={z:4.1f}: global={rep.global_bound_ok}  center_value={rep.center_value_ok}  "
          f"center_derivative={rep.center_derivative_ok}  worst_margin={rep.worst_margin:.3e}")
