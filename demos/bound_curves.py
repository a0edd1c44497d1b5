"""Tail models side by side, and the cubic decay rate from a sixth moment.

Run:  python demos/bound_curves.py
"""

import math

import numpy as np

from nubes import bounds, chaos

SQRT2 = math.sqrt(2.0)

# the same discrepancy d = sqrt(2) with four different tail models
models = {
    "unit":    np.ones_like,  # the trivial bound 1
    "markov6": bounds.MarkovTail(p=6.0, moment_p=755.0),  # E|F|^6 of the q=2 rank-one law
    "major":   bounds.MajorChaosTail(q=2, c_q=1.0),
    "exact":   chaos.exact_abs_tail_q2_rank1,  # an exact tail is the law's own function
}

print("non-uniform bound (|EF| + d)(sqrt(P(|F|>|z|/2)) + 2 e^{-z^2/4}), d = sqrt(2):")
table_z = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
columns = [bounds.evaluate_curve(bounds.BoundInputs(0.0, SQRT2, mod), table_z).bounds for mod in models.values()]
print(f"{'z':>4} " + " ".join(f"{name:>12}" for name in models))
for z, row in zip(table_z, zip(*columns)):
    print(f"{z:4.1f} " + " ".join(f"{v:12.6f}" for v in row))
print(f"\nuniform baseline (constant in z): {SQRT2:.6f}")

# Markov tail with a finite sixth moment gives the classical cubic decay rate
inputs = bounds.BoundInputs(0.0, SQRT2, models["markov6"])
zs = np.linspace(0.0, 50.0, 20001)
weighted = bounds.evaluate_curve(inputs, zs).bounds * (1.0 + zs**3) / SQRT2
print(f"\ncubic-rate check: sup bound(z)(1+z^3)/d over [0, 50] = {weighted.max():.4f}")
print(f"(the tail term alone levels off at sqrt(E|F|^6 * 2^6) = {math.sqrt(755 * 64):.4f})")

# chaos specialization: the engine with d = sqrt((q-1)/(3q)(EF^4-3)) and the
# concentration tail, which with c_q = 1 never clamps and is the displayed form
print("\nchaos bound sqrt((q-1)/(3q)(EF^4-3)) (c_q e^{-z^(2/q)/2^(2+2/q)} + 2e^{-z^2/4}):")
for q, m4 in ((2, 15.0), (3, 9.0)):
    d = chaos.stein_discrepancy_upper(m4, q)
    inputs = bounds.BoundInputs(0.0, d, bounds.MajorChaosTail(q=q, c_q=1.0))
    vals = bounds.evaluate_curve(inputs, [0.0, 2.0, 4.0, 8.0]).bounds
    print(f"  q={q}, EF^4={m4:4.1f}, c_q=1: " + "  ".join(f"{v:.5f}" for v in vals))
