"""Empirical CDFs, discrepancy curves against the normal, and certification.

The empirical side of a bound check: build an ECDF from samples, measure the
discrepancy |P_hat(F <= z) - Phi(z)| with a per-point binomial standard error,
and certify the curve against a theoretical bound with a statistical slack of
k standard errors (the bounds are statements about true probabilities, so the
test must budget estimation noise).  Where P_hat is 0 or 1 the standard
error is that of one sample on the other side, P_hat = 1/max(n, 2): about
1/n, so a slack of k = 3 is the rule-of-three bound.  The DKW band gives the
uniform alternative to the pointwise slack.

An ECDF is read through one count, at_most(t) = #{s <= t} (`EcdfCounts`);
for finite samples #{s < t} = #{s <= nextafter(t, -inf)}, exactly.  `evaluate`
and the plug-in tail `bounds.EmpiricalTail` are written once over it.
`EmpiricalCdf` answers from the sorted samples at any t.  A run that only
needs P_hat(F <= z) and P_hat(|F| > |z|/2) at grid points need not keep its
samples: `count_chunk` reduces each sampling chunk, inside its own job, to
the count at each threshold of one sorted array, and the summed counts make
a `ThresholdCounts`, which answers at its thresholds only.  Sums of counts
are exact in any order, so the values equal those of the ECDF of all
samples; `sampling.map_chunks` adds them up as they arrive, so a process
holds one chunk of samples and the parent O(workers) chunks' counts, whatever
the number of samples.

Curves and certification reports are numpy record arrays with one record per
grid point: `r.discrepancy` reads one point's field and `curve.discrepancy`
the whole column.  `certify` takes the bound values as one array aligned with
the curve, so this module does not depend on how the bound was computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussian import normal_cdf

__all__ = [
    "EcdfCounts",
    "EmpiricalCdf",
    "ThresholdCounts",
    "CertifyReport",
    "build_ecdf",
    "count_chunk",
    "discrepancy_curve",
    "dkw_epsilon",
    "certify",
]


class EcdfCounts:
    """An ECDF of n samples read through its count at_most(t) = #{s <= t},
    vectorized over t."""

    n: int

    def at_most(self, t) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, z):
        """P_hat(F <= z) as an exact count over n; vectorized over z (a scalar z gives a numpy scalar)."""
        return self.at_most(z) / self.n


@dataclass(frozen=True)
class EmpiricalCdf(EcdfCounts):
    """Sorted samples; the counts are known at every t."""

    sorted_samples: np.ndarray

    @property
    def n(self) -> int:
        return self.sorted_samples.size

    def at_most(self, t) -> np.ndarray:
        return np.searchsorted(self.sorted_samples, t, side="right")


def build_ecdf(samples: Sequence[float]) -> EmpiricalCdf:
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return EmpiricalCdf(np.sort(arr))


def count_chunk(samples: np.ndarray, thresholds: np.ndarray, transform: Callable | None = None) -> np.ndarray:
    """#{s <= t} at each threshold t, for one chunk.

    `transform` (elementwise, e.g. a standardization) is applied first; the
    samples are then checked finite and sorted, in place when there is no
    transform.  Passed to `sampling.map_chunks` as `reduce` (bound to its
    thresholds with functools.partial), it runs inside each chunk's job.
    """
    s = samples if transform is None else transform(samples)
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    s.sort()
    return np.searchsorted(s, thresholds, side="right")


@dataclass(frozen=True)
class ThresholdCounts(EcdfCounts):
    """Counts of n samples at sorted thresholds t_i, as `count_chunk` returns
    them summed: counts[i] = #{s <= t_i}.  They are known only at the
    thresholds."""

    thresholds: np.ndarray
    counts: np.ndarray
    n: int

    def _index(self, t) -> np.ndarray:
        """Positions of the values t among the thresholds; raises if one is not there."""
        t = np.asarray(t, dtype=float)
        i = np.minimum(np.searchsorted(self.thresholds, t), self.thresholds.size - 1)
        if not np.array_equal(self.thresholds[i], t):
            raise ValueError("counts are known only at their thresholds")
        return i

    def at_most(self, t) -> np.ndarray:
        return self.counts[self._index(t)]


def discrepancy_curve(ecdf: EcdfCounts, grid: Sequence[float]) -> np.recarray:
    """|P_hat(F <= z) - Phi(z)| with binomial standard errors, one record per
    grid point: z, empirical_cdf, normal_cdf, discrepancy, standard_error.

    A ThresholdCounts must hold every grid point among its thresholds."""
    zs = np.atleast_1d(np.asarray(grid, dtype=float))
    if zs.size == 0 or not np.all(np.isfinite(zs)):
        raise ValueError("grid must be nonempty and finite")
    p = ecdf.evaluate(zs)
    phi = normal_cdf(zs)
    p1 = 1.0 / max(ecdf.n, 2)  # at p_hat in {0, 1}, the SE of one sample on the other side
    se = np.where((0.0 < p) & (p < 1.0), np.sqrt(p * (1.0 - p) / ecdf.n), math.sqrt(p1 * (1.0 - p1) / ecdf.n))
    return np.rec.fromarrays(
        [zs, p, phi, np.abs(p - phi), se], names="z,empirical_cdf,normal_cdf,discrepancy,standard_error"
    )


def dkw_epsilon(n: int, delta: float) -> float:
    """Uniform ECDF band half-width sqrt(ln(2/delta)/(2n)) at confidence 1 - delta."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class CertifyReport:
    """Per-point violation flags plus their count; exit status 0 when there are none, else 2.

    `rows` is the discrepancy curve with two more fields, `bound` and
    `violated`.
    """

    rows: np.recarray
    n_violations: int

    @property
    def exit_status(self) -> int:
        return 0 if self.n_violations == 0 else 2


def certify(curve: np.recarray, bounds: Sequence[float], k: float) -> CertifyReport:
    """Flag grid points where discrepancy - k * SE exceeds the bound.

    `bounds` holds one bound value per record of `curve`, aligned positionally.
    """
    if k < 0.0 or not math.isfinite(k):
        raise ValueError(f"slack k must be finite and >= 0, got {k}")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != curve.shape:
        raise ValueError("discrepancy grid and bound grid do not match")
    violated = curve.discrepancy - k * curve.standard_error > bounds
    names = curve.dtype.names
    columns = [curve[name] for name in names] + [bounds, violated]
    rows = np.rec.fromarrays(columns, names=[*names, "bound", "violated"])
    return CertifyReport(rows=rows, n_violations=int(np.count_nonzero(violated)))
