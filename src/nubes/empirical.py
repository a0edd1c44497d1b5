"""Empirical CDFs, discrepancy curves against the normal, and certification.

The empirical side of a bound check: build an ECDF from samples, measure the
discrepancy |P_hat(F <= z) - Phi(z)| with a per-point binomial standard error,
and certify the curve against a theoretical bound with a statistical slack of
k standard errors (the bounds are statements about true probabilities, so the
test must budget estimation noise).  The DKW band gives the uniform
alternative to the pointwise slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import BoundCurve
from .gaussian import normal_cdf

__all__ = [
    "EmpiricalCdf",
    "DiscrepancyRow",
    "CertifyReport",
    "build_ecdf",
    "discrepancy_curve",
    "dkw_epsilon",
    "certify",
]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted samples with count; evaluation counts samples <= z (inclusive)."""

    sorted_samples: np.ndarray
    n: int

    def evaluate(self, z):
        """P_hat(F <= z) as an exact count over n; vectorized over z."""
        counts = np.searchsorted(self.sorted_samples, z, side="right")
        out = counts / self.n
        return float(out) if np.ndim(z) == 0 else out


def build_ecdf(samples: Sequence[float]) -> EmpiricalCdf:
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return EmpiricalCdf(sorted_samples=np.sort(arr), n=int(arr.size))


@dataclass(frozen=True)
class DiscrepancyRow:
    z: float
    empirical_cdf: float
    normal_cdf: float
    discrepancy: float
    standard_error: float
    bound: float | None = None
    violated: bool = False


def discrepancy_curve(ecdf: EmpiricalCdf, grid: Sequence[float]) -> list[DiscrepancyRow]:
    """|P_hat(F <= z) - Phi(z)| with binomial standard errors, per grid point."""
    zs = np.atleast_1d(np.asarray(grid, dtype=float))
    if zs.size == 0 or not np.all(np.isfinite(zs)):
        raise ValueError("grid must be nonempty and finite")
    p_hat = ecdf.evaluate(zs)
    phi = normal_cdf(zs)
    phi = np.atleast_1d(phi)
    se_floor = math.sqrt(0.25 / ecdf.n) * 1e-3  # continuity floor at p_hat in {0, 1}
    rows = []
    for z, p, ph in zip(zs, np.atleast_1d(p_hat), phi):
        se = math.sqrt(p * (1.0 - p) / ecdf.n) if 0.0 < p < 1.0 else se_floor
        rows.append(
            DiscrepancyRow(
                z=float(z),
                empirical_cdf=float(p),
                normal_cdf=float(ph),
                discrepancy=abs(float(p) - float(ph)),
                standard_error=se,
            )
        )
    return rows


def dkw_epsilon(n: int, delta: float) -> float:
    """Uniform ECDF band half-width sqrt(ln(2/delta)/(2n)) at confidence 1 - delta."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class CertifyReport:
    """Per-point violation flags plus summary; exit semantics 0 = no violations."""

    rows: tuple[DiscrepancyRow, ...]
    slack_k: float
    n_violations: int
    passed: bool
    note: str = ""

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 2


def certify(
    curve: Sequence[DiscrepancyRow],
    bound_curve: BoundCurve | Sequence[float],
    k: float,
    note: str = "",
) -> CertifyReport:
    """Flag grid points where discrepancy - k * SE exceeds the bound.

    `bound_curve` is either an engine BoundCurve on the same z-grid or a bare
    sequence of per-point bound values aligned positionally.
    """
    if k < 0.0 or not math.isfinite(k):
        raise ValueError(f"slack k must be finite and >= 0, got {k}")
    if isinstance(bound_curve, BoundCurve):
        if not np.array_equal([row.z for row in curve], bound_curve.z):
            raise ValueError("discrepancy grid and bound grid do not match")
        bounds = bound_curve.bounds.tolist()
    else:
        bounds = [float(b) for b in bound_curve]
        if len(bounds) != len(curve):
            raise ValueError("discrepancy grid and bound grid do not match")
    out_rows = []
    n_violations = 0
    for row, bound in zip(curve, bounds):
        violated = (row.discrepancy - k * row.standard_error) > bound
        n_violations += int(violated)
        out_rows.append(replace(row, bound=bound, violated=bool(violated)))
    return CertifyReport(
        rows=tuple(out_rows),
        slack_k=float(k),
        n_violations=n_violations,
        passed=n_violations == 0,
        note=note,
    )
