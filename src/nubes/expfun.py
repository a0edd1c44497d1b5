"""Exponential functional of Brownian motion with drift.

    F_t = integral_0^t exp(a s + B_s) ds,   t > 0, a real.

Its moments are divided differences of x -> e^{xt} (Fubini and the lognormal
moment E exp(B_s + B_u) = exp((s + u + 2 min(s, u))/2); Yor 1992):

    m_t       = E F_t   = e^{xt}[0, a + 1/2]
    sigma_t^2 = Var F_t = 2 e^{xt}[0, a + 1/2, 2a + 1, 2a + 2]

sigma_t^2 integrates the positive covariance kernel e^{(a+1/2)(s+u)}
(e^{min(s,u)} - 1) over the simplex; it is never E F_t^2 - m_t^2.  One kernel
evaluates both, also at the coincident nodes of a = -1/2, -1 and -3/2.

Standardized, F~_t = (F_t - m_t)/sigma_t satisfies one-sided concentration
bounds and an explicit non-uniform normal-approximation rate whose prefactor
is the square root of a second-moment bound on the Stein discrepancy; both
are evaluated here.  The sum of the two concentration bounds,
`abs_tail_bound`, bounds P(|F~_t| > x); it is the tail `bounds.evaluate_curve`
takes for this law, with params and m bound by functools.partial.  Moments
and bounds whose exponentials overflow, or whose moments underflow the normal
float range, raise ValueError naming a and t, and so does sampling at a t
below about 1e-19, where float64 cannot resolve F_t around its mean
(`RESOLUTION`).  Sampling uses exact Gaussian
increments on a uniform grid and trapezoid quadrature of the integrand; paths
are embarrassingly parallel over fixed substream chunks (worker-scheduling
independent).  Inside a chunk `sampling.draw_blocks` draws the increments in
step order, each time step one row across all the chunk's paths, and
`integral_from_increments` integrates all the paths at once, a step at a
time, carrying their running sums in a `PathSums` from block to block, so
the values are those of the whole chunk drawn step-major.  The closed-form
evaluators are pure.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .sampling import draw_blocks, map_chunks, worker_count

__all__ = [
    "ExpFunParams",
    "ExpFunMoments",
    "default_n_steps",
    "mean_mt",
    "variance_sigma2",
    "moments",
    "PathSums",
    "integral_from_increments",
    "sample_batch",
    "standardize",
    "upper_tail_bound",
    "lower_tail_bound",
    "abs_tail_bound",
    "discrepancy_sq_upper",
    "clt_rate_bound",
]

PATH_CHUNK = 4096  # fixed chunk size (in paths) of the parallel sampling layout
# the float64 step ulp(m_t)/sigma_t of a standardized sample may be at most 2^-20
# (about 1e-6): rounding F_t to float64 then moves the ECDF by less than 1e-6.
# sigma_t/m_t ~ sqrt(t/3) at small t, so this holds for every t above
# 3 * 2^-64 ~ 1.6e-19 and fails below about 5e-20
RESOLUTION = 2.0**-20


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


@contextlib.contextmanager
def _float_range(a: float, t: float):
    """Re-raise a float overflow (math.exp, fsum, **) as a ValueError naming a
    and t, and an underflow (FloatingPointError) as the same with "underflow"."""
    try:
        yield
    except (OverflowError, FloatingPointError) as exc:
        how = "overflow" if isinstance(exc, OverflowError) else "underflow"
        raise ValueError(f"a={a!r}, t={t!r} {how} the float range of the exponential functional") from exc


def _exp_divided_difference(a: float, t: float, nodes: tuple[float, ...]) -> float:
    """The divided difference e^{xt}[nodes] of x -> e^{xt}, for t > 0.

    It is the top-right entry of exp(tM), M upper bidiagonal with the nodes on
    its diagonal and ones above (McCurdy, Ng & Parlett 1984): the Taylor
    series at tM/2^s, whose row sums are <= 1/2, squared s times.  Every
    squaring sums nonnegative products, and the diagonal after squaring r is
    set to the exact e^{x t/2^(s-r)} (Al-Mohy & Higham 2009), so errors add
    up over the squarings instead of doubling.  Plain floats and fsum keep the bits independent of
    any BLAS; a and t only name the input in a range error.
    """
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"t must be finite and > 0, got {t}")
    n = len(nodes)
    with _float_range(a, t):
        s = max(0, math.ceil(math.log2(2.0 * t * (max(map(abs, nodes)) + 1.0))))
        h = math.ldexp(t, -s)
        diag = [h * x for x in nodes]
        term = [[float(i == j) for j in range(n)] for i in range(n)]
        terms = [term]
        for k in range(1, 20):  # at row sums <= 1/2, later terms are < 1e-19 of each entry's first
            term = [[(term[i][j] * diag[j] + (term[i][j - 1] * h if j > i else 0.0)) / k for j in range(n)]
                    for i in range(n)]
            terms.append(term)
        e = [[math.fsum(tk[i][j] for tk in terms) for j in range(n)] for i in range(n)]
        for r in range(1, s + 1):
            e = [[math.fsum(e[i][k] * e[k][j] for k in range(i, j + 1)) for j in range(n)] for i in range(n)]
            for i in range(n):
                e[i][i] = math.exp(math.ldexp(diag[i], r))
        out = e[0][n - 1]
        if not 2.0**-1022 <= out < math.inf:  # a subnormal value has lost digits
            raise FloatingPointError if out < 1.0 else OverflowError
    return out


def mean_mt(a: float, t: float) -> float:
    """m_t = E F_t = e^{xt}[0, a + 1/2]."""
    return _exp_divided_difference(a, t, (0.0, a + 0.5))


def variance_sigma2(a: float, t: float) -> float:
    """sigma_t^2 = Var F_t = 2 e^{xt}[0, a + 1/2, 2a + 1, 2a + 2]."""
    return 2.0 * _exp_divided_difference(a, t, (0.0, a + 0.5, 2.0 * a + 1.0, 2.0 * a + 2.0))


def moments(params: ExpFunParams) -> ExpFunMoments:
    return ExpFunMoments(m_t=mean_mt(params.a, params.t), sigma2_t=variance_sigma2(params.a, params.t))


class PathSums:
    """The running sums of `integral_from_increments` over paths fed in pieces.

    For paths of shape `shape` and `n_steps` steps in all it holds the steps
    fed so far, B at the last node fed and the trapezoid sum so far, which
    starts at 1/2, the half weight of node 0.
    """

    def __init__(self, n_steps: int, shape: tuple = ()):
        if int(n_steps) != n_steps or n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {n_steps}")
        self.n_steps = int(n_steps)
        self.shape = tuple(shape)
        self.steps = 0
        self.brownian = np.zeros(math.prod(self.shape))
        self.total = np.full(math.prod(self.shape), 0.5)


def integral_from_increments(
    a: float, t: float, increments: np.ndarray, sums: PathSums | None = None
) -> np.ndarray | None:
    """Trapezoid quadrature of exp(a s + B_s) from Brownian increments of variance t/n.

    `increments` has shape (..., k): k steps of the paths `...`, which start
    at B_0 = 0; the integrand is evaluated on the node values of the
    cumulated path.  Without `sums` the k steps are the whole path (n = k)
    and the integrals are returned.  The paths can also be fed in pieces, in
    order, through one `PathSums(n, shape)`: each call adds its k steps to
    `sums`, the call that completes the n steps returns the integrals and the
    calls before it return None.  The sums run strictly in step order, so any
    split gives the bits of one call.

    The increments are never written.  The work runs a step at a time across
    all paths, so the increments are read contiguously when their step axis
    is the slow one, as in the transpose of a step-major block.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    w = np.asarray(increments, dtype=float)
    if w.ndim == 0 or w.shape[-1] == 0:
        raise ValueError(f"increments must hold at least one step, got shape {w.shape}")
    k = w.shape[-1]
    sums = PathSums(k, w.shape[:-1]) if sums is None else sums
    if w.shape[:-1] != sums.shape:
        raise ValueError(f"increments of paths {w.shape[:-1]} do not match the running sums of paths {sums.shape}")
    if sums.steps + k > sums.n_steps:
        raise ValueError(f"{k} more steps exceed the {sums.n_steps} steps of the paths ({sums.steps} fed)")
    step = t / sums.n_steps
    dw = w.reshape(-1, k).T  # one row per step
    y = np.empty(dw.shape)  # the exponent a s_j + B_j at this call's nodes, then the integrand
    for j, (d, row) in enumerate(zip(dw, y), sums.steps + 1):
        sums.brownian += d
        np.add(sums.brownian, a * (step * j), out=row)
    sums.steps += k
    np.exp(y, out=y)
    done = sums.steps == sums.n_steps
    if done:
        y[-1] *= 0.5  # node n has half weight
    for row in y:
        sums.total += row
    return (step * sums.total).reshape(sums.shape)[()] if done else None


def _path_chunk(rng: np.random.Generator, count: int, a: float, t: float, n_steps: int) -> np.ndarray:
    scale = math.sqrt(t / n_steps)
    sums = PathSums(n_steps, (count,))
    for w in draw_blocks(rng, n_steps, count):  # a block of time steps across all paths
        w *= scale
        f = integral_from_increments(a, t, w.T, sums)
    return f


def sample_batch(
    params: ExpFunParams, n_steps: int, n_paths: int, seed: int, workers: int | None = None, reduce=None
) -> np.ndarray:
    """n_paths realizations, each the trapezoid rule on n_steps >= 2 cells, on
    the fixed substream layout of PATH_CHUNK paths per chunk (worker-count
    invariant; every usable CPU by default).  A t whose F_t float64 cannot
    resolve, where sigma_t spans fewer than 2^20 ulps of m_t (RESOLUTION; t
    below about 1e-19), raises ValueError before any sampling.

    With `reduce`, the sum of reduce(chunk) over the chunks instead (see
    `sampling.map_chunks`).
    """
    if int(n_steps) != n_steps or n_steps < 2:
        raise ValueError(f"n_steps must be an integer >= 2, got {n_steps}")
    m = moments(params)
    if math.ulp(m.m_t) > RESOLUTION * m.sigma_t:
        raise ValueError(f"t={params.t!r} is below the float64 resolution of F_t: sigma_t is "
                         f"{m.sigma_t / math.ulp(m.m_t):.3g} ulps of m_t, fewer than the 2^20 sampling "
                         "needs (every t above 1.6e-19 has them)")
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
    with np.errstate(over="ignore"):  # x^2 = inf past |x| ~ 1.3e154, where the bound is 0
        out = np.exp(-(xa**2) / 2.0)
    return float(out) if xa.ndim == 0 else out


def abs_tail_bound(x, params: ExpFunParams, m: ExpFunMoments):
    """Two-sided concentration bound on P(|F~_t| > x), x >= 0: the upper plus the lower tail bound."""
    return upper_tail_bound(x, params, m) + lower_tail_bound(x)


def discrepancy_sq_upper(params: ExpFunParams, m: ExpFunMoments) -> float:
    """Upper bound 4 t^7 e^{4at+8t} / sigma_t^4 on the squared Stein discrepancy of F~_t, formed
    from t^3/sigma_t^2 (-> 3 as t -> 0) so that nothing underflows while sigma_t^2 is normal."""
    a, t = params.a, params.t
    with _float_range(a, t):
        return 4.0 * t * (t**3 / m.sigma2_t) ** 2 * math.exp(4.0 * a * t + 8.0 * t)


def clt_rate_bound(params: ExpFunParams, m: ExpFunMoments, z):
    """Explicit non-uniform bound on |P(F~_t <= z) - Phi(z)|.

    prefactor * (exp(-ln^2(1 + |z| sigma_t/(2 m_t))/(4t)) + e^{-z^2/16} + 2 e^{-z^2/4})
    with prefactor = 2 sqrt(t) (t^3/sigma_t^2) e^{2at+4t}, the square root of
    discrepancy_sq_upper.
    """
    t = params.t
    za = np.abs(np.asarray(z, dtype=float))
    prefactor = math.sqrt(discrepancy_sq_upper(params, m))
    with np.errstate(over="ignore"):  # z^2 = inf past |z| ~ 1.3e154, where its terms are 0
        terms = (
            np.exp(-np.log1p(za * m.sigma_t / (2.0 * m.m_t)) ** 2 / (4.0 * t))
            + np.exp(-(za**2) / 16.0)
            + 2.0 * np.exp(-(za**2) / 4.0)
        )
    out = prefactor * terms
    return float(out) if np.ndim(z) == 0 else out
