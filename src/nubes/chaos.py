"""Finite-rank diagonal Wiener chaos: construction, sampling, and moments.

A chaos variable of order q with diagonal kernel along orthonormal directions
e_1, ..., e_m and coefficients alpha_i has the exact representation

    F = sum_i alpha_i * H_q(N_i),      N_i iid standard normal,

where H_q is the probabilists' Hermite polynomial.  This makes F samplable
without discretization bias and gives closed-form moments for every q: the
terms are independent with E (alpha_i H_q(N_i))^2 = alpha_i^2 q!, so for a
variance-one F

    E F^4 = 3 + (E H_q^4 - 3 (q!)^2) * sum alpha_i^4,
    E H_q^4 = sum_{r=0}^{q} (r! C(q, r)^2)^2 (2q - 2r)!

(the second line from the product formula H_q^2 = sum_r r! C(q, r)^2
H_{2q-2r}); at q = 2 this is the cumulant form 3 + 48 sum alpha_i^4.
The fourth-moment discrepancy

    d = sqrt((q - 1) / (3 q) * (E F^4 - 3))

upper-bounds the Stein discrepancy of a variance-one chaos and is the
multiplier used by the bound engine.  The rank-one q = 2 case
F = (N^2 - 1)/sqrt(2) additionally has an exact CDF, used as the closed-form
oracle throughout the test and certification suites.

Batch sampling runs on independently seeded substreams per fixed-size chunk,
concatenated in chunk order or reduced to integer counts summed exactly, so
results do not depend on worker scheduling;
inside a chunk it draws one row of normals per sample from
`sampling.draw_blocks` and sums each row's terms left to right, without BLAS,
into the block's slice of the chunk, so a sample depends on its own normals
alone.
Everything else is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import normal_cdf, normal_tail
from .sampling import draw_blocks, map_chunks, worker_count

__all__ = [
    "DiagonalChaosSpec",
    "hermite",
    "variance",
    "normalize",
    "sample_batch",
    "fourth_moment",
    "stein_discrepancy_upper",
    "exact_cdf_q2_rank1",
    "exact_abs_tail_q2_rank1",
]

SAMPLE_CHUNK = 1 << 18  # fixed chunk size of the parallel sampling layout


@dataclass(frozen=True)
class DiagonalChaosSpec:
    """Order q >= 2 and coefficients against orthonormal directions."""

    q: int
    alphas: tuple[float, ...]

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError(f"chaos order q must be an integer >= 2, got {self.q}")
        object.__setattr__(self, "q", int(self.q))
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) == 0:
            raise ValueError("alphas must be nonempty")
        if not all(math.isfinite(a) for a in alphas):
            raise ValueError(f"alphas must be finite, got {alphas}")
        if all(a == 0.0 for a in alphas):
            raise ValueError("at least one alpha must be nonzero")
        object.__setattr__(self, "alphas", alphas)


def hermite(q: int, x):
    """Probabilists' Hermite polynomial H_q via the three-term recurrence (a numpy scalar at a scalar x)."""
    if int(q) != q or q < 0:
        raise ValueError(f"hermite order must be an integer >= 0, got {q}")
    q = int(q)
    xa = np.asarray(x, dtype=float)
    if q < 2:
        h = np.ones_like(xa) if q == 0 else xa.copy()
    else:
        h_prev, h = xa, xa * xa
        h -= 1.0
        for k in range(2, q):
            # H_{k+1} = x H_k - k H_{k-1}
            h_next = xa * h
            h_next -= k * h_prev
            h_prev, h = h, h_next
    return h[()]


def variance(spec: DiagonalChaosSpec) -> float:
    """Exact variance q! * sum alpha_i^2 (Wiener-Ito isometry)."""
    try:
        return math.factorial(spec.q) * float(sum(a * a for a in spec.alphas))
    except OverflowError as exc:  # q! itself is beyond the float range
        raise ValueError(f"q={spec.q} overflows the float range of the chaos variance") from exc


def normalize(spec: DiagonalChaosSpec) -> DiagonalChaosSpec:
    """Rescale the coefficients so the variance is exactly one.

    The coefficients are divided by max|alpha_i| first, so the result does
    not depend on their scale; when that maximum is 1 the division is exact.
    """
    peak = max(abs(a) for a in spec.alphas)
    unit = DiagonalChaosSpec(q=spec.q, alphas=tuple(a / peak for a in spec.alphas))
    var = variance(unit)
    if not math.isfinite(var):  # q! times the rank is beyond the float range
        raise ValueError(f"q={spec.q} overflows the float range of the chaos variance")
    scale = 1.0 / math.sqrt(var)
    return DiagonalChaosSpec(q=spec.q, alphas=tuple(a * scale for a in unit.alphas))


def _sample_chunk(rng: np.random.Generator, count: int, q: int, alphas: tuple) -> np.ndarray:
    out = np.empty(count)
    start = 0
    for w in draw_blocks(rng, count, len(alphas)):  # a block of rows, one per sample
        # sum_i alpha_i H_q(N_i) column by column, left to right
        h = hermite(q, w)
        v = out[start : start + len(w)]
        np.multiply(h[:, 0], alphas[0], out=v)
        for j in range(1, len(alphas)):
            v += h[:, j] * alphas[j]
        start += len(w)
    return out


def sample_batch(spec: DiagonalChaosSpec, n: int, seed: int, workers: int | None = None, reduce=None) -> np.ndarray:
    """n realizations on the fixed substream layout of SAMPLE_CHUNK samples
    per chunk (worker-count invariant; every usable CPU by default).

    With `reduce`, the sum of reduce(chunk) over the chunks instead (see
    `sampling.map_chunks`).
    """
    args = (spec.q, spec.alphas)
    return map_chunks(_sample_chunk, args, seed, n, SAMPLE_CHUNK, worker_count(workers), reduce)


def fourth_moment(spec: DiagonalChaosSpec) -> float:
    """Exact E F^4 of the variance-one spec, for any order q."""
    if not abs(variance(spec) - 1.0) <= 1e-12:
        raise ValueError(f"spec must have variance one (got {variance(spec)!r}); call normalize() first")
    q = spec.q
    hermite4 = sum(
        (math.factorial(r) * math.comb(q, r) ** 2) ** 2 * math.factorial(2 * q - 2 * r)
        for r in range(q + 1)
    )
    try:
        return 3.0 + (hermite4 - 3 * math.factorial(q) ** 2) * float(sum(a**4 for a in spec.alphas))
    except OverflowError as exc:  # E H_q^4 is beyond the float range
        raise ValueError(f"q={q} overflows the float range of E F^4") from exc


def stein_discrepancy_upper(fourth_moment_value: float, q: int) -> float:
    """sqrt((q-1)/(3q) * (E F^4 - 3)) for a variance-one chaos of order q."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if fourth_moment_value < 3.0:
        raise ValueError(
            f"fourth_moment={fourth_moment_value} < 3 violates the fourth-moment inequality "
            "for a variance-one chaos of order >= 2"
        )
    return math.sqrt((q - 1) / (3.0 * q) * (fourth_moment_value - 3.0))


def exact_cdf_q2_rank1(z):
    """Exact CDF of F = (N^2 - 1)/sqrt(2): 2 Phi(sqrt(1 + sqrt(2) z)) - 1.

    F >= -1/sqrt(2) almost surely, so the CDF is 0 below that point.
    """
    za = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(za)):
        raise ValueError(f"z must be finite, got {z!r}")
    arg = 1.0 + math.sqrt(2.0) * za
    out = np.zeros_like(arg)
    inside = arg > 0.0  # Phi is evaluated only where the CDF is positive
    out[inside] = 2.0 * normal_cdf(np.sqrt(arg[inside])) - 1.0
    return out[()]


def exact_abs_tail_q2_rank1(x):
    """Exact P(|F| > x) = P(F > x) + cdf(-x) for F = (N^2 - 1)/sqrt(2), x >= 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or not np.all(np.isfinite(xa)):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return 2.0 * normal_tail(np.sqrt(1.0 + math.sqrt(2.0) * xa)) + exact_cdf_q2_rank1(-xa)
