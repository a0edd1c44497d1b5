"""Exponential functional of Brownian motion with drift.

    F_t = integral_0^t exp(a s + B_s) ds,   t > 0, a real.

Closed-form moments (derived by Fubini and the lognormal moment
E exp(B_s + B_u) = exp((s + u + 2 min(s, u))/2), and validated against
independent quadrature oracles in the tests):

    m_t    = E F_t   = iexp(a + 1/2, t)
    E F_t^2          = 2/(a + 3/2) * (iexp(2a + 2, t) - iexp(a + 1/2, t))
    sigma_t^2        = E F_t^2 - m_t^2

where iexp(lam, t) = (e^{lam t} - 1)/lam, evaluated through expm1 so the
removable singularities at lam = 0 (a = -1/2 in the mean, a = -1 in the
second moment) cost no precision.  The remaining removable singularity at
a = -3/2 is genuinely ill-conditioned (the bracket vanishes against the
1/(a + 3/2) prefactor) and switches to a series branch.

Standardized, F~_t = (F_t - m_t)/sigma_t satisfies one-sided concentration
bounds and an explicit non-uniform normal-approximation rate whose prefactor
is the square root of a second-moment bound on the Stein discrepancy; both
are evaluated here.  Moments and bounds whose exponentials leave the float
range raise ValueError naming a and t.  Sampling uses exact Gaussian
increments on a uniform grid and trapezoid quadrature of the integrand; paths
are embarrassingly parallel over fixed substream chunks (worker-scheduling
independent).  Inside a chunk `sampling.draw_rows` draws the paths as rows
of increments and each path is integrated from its own row, so the values
are those of the whole chunk.  The closed-form evaluators are pure.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .sampling import draw_rows, map_chunks, worker_count

__all__ = [
    "ExpFunParams",
    "ExpFunMoments",
    "default_n_steps",
    "mean_mt",
    "second_moment",
    "variance_sigma2",
    "moments",
    "integral_from_increments",
    "sample_batch",
    "standardize",
    "upper_tail_bound",
    "lower_tail_bound",
    "discrepancy_sq_upper",
    "clt_rate_bound",
]

PATH_CHUNK = 4096  # fixed chunk size (in paths) of the parallel sampling layout


@dataclass(frozen=True)
class ExpFunParams:
    """Drift a and horizon t > 0."""

    a: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.t)):
            raise ValueError(f"a and t must be finite, got a={self.a}, t={self.t}")
        if self.t <= 0.0:
            raise ValueError(f"t must be > 0, got {self.t}")


@dataclass(frozen=True)
class ExpFunMoments:
    m_t: float
    sigma2_t: float

    @property
    def sigma_t(self) -> float:
        return math.sqrt(self.sigma2_t)


def default_n_steps(t: float) -> int:
    """Step-count policy keeping discretization bias below MC noise at desk scale."""
    return max(2, round(2000.0 * t / 0.1))


def _iexp(lam: float, t: float) -> float:
    """(e^{lam t} - 1)/lam with full relative accuracy down to lam = 0."""
    if lam == 0.0:
        return t
    return math.expm1(lam * t) / lam


def _require_t(t: float):
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"t must be finite and > 0, got {t}")


@contextlib.contextmanager
def _float_range(a: float, t: float):
    """Re-raise a float overflow (math.exp, expm1, **) as a ValueError naming a and t."""
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"a={a!r}, t={t!r} overflow the float range of the exponential functional") from exc


def mean_mt(a: float, t: float) -> float:
    """m_t = E F_t, continuous in a across the removable point a = -1/2."""
    _require_t(t)
    with _float_range(a, t):
        return _iexp(a + 0.5, t)


# Below this |c| * t the direct bracket loses more than ~4 digits to
# cancellation while the cubic series truncation error is ~(|c| t)^4/120.
_SERIES_THRESHOLD = 1e-4


def second_moment(a: float, t: float) -> float:
    """E F_t^2 in closed form, with a series branch near a = -3/2."""
    _require_t(t)
    c = a + 1.5
    with _float_range(a, t):
        if abs(c * t) >= _SERIES_THRESHOLD:
            return 2.0 / c * (_iexp(2.0 * a + 2.0, t) - _iexp(a + 0.5, t))
        # E F^2 = 2 * integral_0^t u e^{bu} (1 + cu/2 + (cu)^2/6 + (cu)^3/24 + ...) du
        b = a + 0.5  # |b| = |c - 1| ~ 1 here, so the J-recurrence is well conditioned
        ebt = math.exp(b * t)
        j = _iexp(b, t)
        total = 0.0
        coeff = 2.0
        for k in range(1, 5):
            j = (t**k * ebt - k * j) / b
            total += coeff * j
            coeff *= c / (k + 1.0)
        return total


def variance_sigma2(a: float, t: float) -> float:
    """sigma_t^2 = Var F_t = E F_t^2 - m_t^2."""
    return second_moment(a, t) - mean_mt(a, t) ** 2


def moments(params: ExpFunParams) -> ExpFunMoments:
    return ExpFunMoments(m_t=mean_mt(params.a, params.t), sigma2_t=variance_sigma2(params.a, params.t))


def integral_from_increments(a: float, t: float, increments: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature of exp(a s + B_s) from Brownian increments of variance t/n.

    `increments` has shape (..., n_steps); the path starts at B_0 = 0 and the
    integrand is evaluated on the node values of the cumulated path.
    """
    w = np.asarray(increments, dtype=float)
    n = w.shape[-1]
    step = t / n
    y = np.cumsum(w, axis=-1)  # a new array: the increments are never written
    y += a * (step * np.arange(1, n + 1))
    np.exp(y, out=y)  # integrand at nodes 1..n; node 0 is 1
    return step * (0.5 + np.sum(y[..., :-1], axis=-1) + 0.5 * y[..., -1])


def _path_chunk(rng: np.random.Generator, count: int, a: float, t: float, n_steps: int) -> np.ndarray:
    scale = math.sqrt(t / n_steps)

    def row_values(w):
        w *= scale
        return integral_from_increments(a, t, w)

    return draw_rows(rng, count, n_steps, row_values)


def sample_batch(
    params: ExpFunParams, n_steps: int, n_paths: int, seed: int, workers: int | None = None, reduce=None
) -> np.ndarray:
    """n_paths realizations, each the trapezoid rule on n_steps >= 2 cells, on
    the fixed substream layout of PATH_CHUNK paths per chunk (worker-count
    invariant; every usable CPU by default).

    With `reduce`, the sum of reduce(chunk) over the chunks instead (see
    `sampling.map_chunks`).
    """
    if int(n_steps) != n_steps or n_steps < 2:
        raise ValueError(f"n_steps must be an integer >= 2, got {n_steps}")
    args = (params.a, params.t, int(n_steps))
    return map_chunks(_path_chunk, args, seed, n_paths, PATH_CHUNK, worker_count(workers), reduce)


def standardize(f, m: ExpFunMoments):
    """(F_t - m_t)/sigma_t; works on scalars and arrays."""
    if not (m.sigma2_t > 0.0 and math.isfinite(m.sigma2_t)):
        raise ValueError(f"degenerate sigma2_t={m.sigma2_t}")
    out = (np.asarray(f, dtype=float) - m.m_t) / m.sigma_t
    return float(out) if np.ndim(out) == 0 else out


def upper_tail_bound(x, params: ExpFunParams, m: ExpFunMoments):
    """Concentration bound P(F~_t >= x) <= exp(-ln^2(1 + x sigma_t/m_t)/(2t)), x >= 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    out = np.exp(-np.log1p(xa * m.sigma_t / m.m_t) ** 2 / (2.0 * params.t))
    return float(out) if xa.ndim == 0 else out


def lower_tail_bound(x):
    """Concentration bound P(F~_t <= -x) <= exp(-x^2/2), x >= 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    out = np.exp(-(xa**2) / 2.0)
    return float(out) if xa.ndim == 0 else out


def discrepancy_sq_upper(params: ExpFunParams, m: ExpFunMoments) -> float:
    """Upper bound 4 t^7 e^{4at+8t} / sigma_t^4 on the squared Stein discrepancy of F~_t."""
    a, t = params.a, params.t
    with _float_range(a, t):
        return 4.0 * t**7 * math.exp(4.0 * a * t + 8.0 * t) / m.sigma2_t**2


def clt_rate_bound(params: ExpFunParams, m: ExpFunMoments, z):
    """Explicit non-uniform bound on |P(F~_t <= z) - Phi(z)|.

    prefactor * (exp(-ln^2(1 + |z| sigma_t/(2 m_t))/(4t)) + e^{-z^2/16} + 2 e^{-z^2/4})
    with prefactor = 2 e^{2at+4t} t^3 sqrt(t) / sigma_t^2, the square root of
    discrepancy_sq_upper.
    """
    t = params.t
    za = np.abs(np.asarray(z, dtype=float))
    prefactor = math.sqrt(discrepancy_sq_upper(params, m))
    terms = (
        np.exp(-np.log1p(za * m.sigma_t / (2.0 * m.m_t)) ** 2 / (4.0 * t))
        + np.exp(-(za**2) / 16.0)
        + 2.0 * np.exp(-(za**2) / 4.0)
    )
    out = prefactor * terms
    return float(out) if np.ndim(z) == 0 else out
