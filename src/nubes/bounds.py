"""Non-uniform Berry-Esseen bound formulas over z-grids.

The engine evaluates

    bound(z) = (|E F| + d) * (sqrt(P(|F| > |z|/2)) + 2 e^{-z^2/4})

where d is a Stein discrepancy (either the Malliavin inner-product form or
the Skorokhod-integrand form; the arithmetic is identical and only the
provenance of d differs) and P(|F| > x) comes from a tail: any callable
from an array of x >= 0 to an array of tail values.  The tails defined here
are `TailModel` subclasses, which check their parameters when built: Markov,
chaos concentration, and the plug-in tail of either ECDF (sorted samples or
streamed counts at thresholds), read through its one count #{s <= t}.  Every
other tail is a function of its law's module, passed as it is: an exact tail
such as `chaos.exact_abs_tail_q2_rank1`, the exponential-functional
concentration bound `expfun.abs_tail_bound` (bound to its law by
functools.partial), or `np.ones_like`, the constant 1.  An exact tail should
compute P(|F| > x) directly: the form 1 - cdf(x) + cdf(-x)
cancels to an absolute error of about 1e-16, so it loses the tail's relative
accuracy as the tail shrinks and reads 0 once the tail is below that.
`tail_probability` validates x and clamps the values to [0, 1] (clamping only
tightens the bound since the modeled quantity is a probability).
`evaluate_curve` is one array expression over the whole grid, returned as a
numpy record array with one record per grid point; it raises ValueError
where a bound overflows float64.

The exponential functional's rate bound `expfun.clt_rate_bound` is this
engine with |E F| = 0, d = sqrt(`expfun.discrepancy_sq_upper`) and the upper
concentration tail U, plus the term d sqrt(L(|z|/2)) of the lower one L: the
engine's sqrt(U + L) loosened to sqrt(U) + sqrt(L).

The chaos bound for a variance-one multiple Wiener-Ito integral of order
q >= 2 is this engine with d = `chaos.stein_discrepancy_upper` and the tail
`MajorChaosTail`; where the clamp is inactive it equals the displayed form

    sqrt((q-1)/(3q) (E F^4 - 3)) * (c_q e^{-|z|^{2/q}/2^{2+2/q}} + 2 e^{-z^2/4}),

and elsewhere it is smaller.  The constant c_q is required from the caller
(it is only known to exist, so curves should be read as a parametric family
in c_q).  The z-independent factor |E F| + d itself is the uniform baseline
the non-uniform curves are compared against.

All evaluation is pure over immutable inputs and elementwise, so a curve may
be partitioned across its grid arbitrarily with bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import empirical

__all__ = [
    "TailModel",
    "MarkovTail",
    "MajorChaosTail",
    "EmpiricalTail",
    "BoundInputs",
    "tail_probability",
    "evaluate_curve",
]


class TailModel:
    """Upper bound for P(|F| > x) at each x >= 0 of an array, before clamping to [0, 1]."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class MarkovTail(TailModel):
    """Markov bound E|F|^p / x^p from a known absolute moment."""

    p: float
    moment_p: float

    def __post_init__(self):
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be > 0, got {self.p}")
        if not (self.moment_p >= 0.0 and math.isfinite(self.moment_p)):
            raise ValueError(f"moment_p must be >= 0, got {self.moment_p}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # the trivial bound 1 where x^p is 0: at x = 0, and where it underflows;
        # an overflowed x^p gives 0, an overflowed moment/x^p inf (clamped to 1)
        with np.errstate(over="ignore"):
            xp = x**self.p
            return np.divide(self.moment_p, xp, out=np.ones_like(xp), where=xp > 0.0)


@dataclass(frozen=True)
class MajorChaosTail(TailModel):
    """Chaos concentration c_q^2 exp(-x^{2/q}/2) for order-q, variance-one chaos."""

    q: int
    c_q: float

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q}")
        if not (self.c_q > 0.0 and math.isfinite(self.c_q)):
            raise ValueError(f"c_q must be > 0, got {self.c_q}")
        if not math.isfinite(self.c_q * self.c_q):  # c_q**2 would raise OverflowError in __call__
            raise ValueError(f"c_q={self.c_q} overflows float64 when squared")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.c_q**2 * np.exp(-(x ** (2.0 / self.q)) / 2.0)


@dataclass(frozen=True)
class EmpiricalTail(TailModel):
    """Plug-in tail 1 - #{-x <= s <= x}/n of an ECDF, where #{s < -x} is
    #{s <= nextafter(-x, -inf)}.

    The ECDF is an `empirical.EmpiricalCdf`, or an `empirical.ThresholdCounts`
    that holds every x and nextafter(-x, -inf) the tail is evaluated at;
    `from_samples` builds the first from an unsorted sample set.
    """

    ecdf: empirical.EcdfCounts = field(repr=False)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalTail":
        return cls(empirical.build_ecdf(samples))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        inside = self.ecdf.at_most(x) - self.ecdf.at_most(np.nextafter(-x, -np.inf))
        return 1.0 - inside / self.ecdf.n


def tail_probability(model: Callable[[np.ndarray], np.ndarray], x):
    """Evaluate a tail model at x >= 0, clamped into [0, 1]; a scalar x gives a numpy scalar."""
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa) & (xa >= 0.0)):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    # a scalar is evaluated as a one-element array so that it takes the array
    # code path (numpy scalar arithmetic can round differently)
    return np.clip(model(np.atleast_1d(xa)), 0.0, 1.0).reshape(xa.shape)[()]


@dataclass(frozen=True)
class BoundInputs:
    """(|E F|, Stein discrepancy, tail) parameterizing the bound; the tail maps
    an array of x >= 0 to P(|F| > x) or an upper bound for it."""

    mean_abs: float
    stein_discrepancy: float
    tail: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (math.isfinite(self.mean_abs) and self.mean_abs >= 0.0):
            raise ValueError(f"mean_abs must be finite and >= 0, got {self.mean_abs}")
        if not (math.isfinite(self.stein_discrepancy) and self.stein_discrepancy >= 0.0):
            raise ValueError(
                f"stein_discrepancy must be finite and >= 0, got {self.stein_discrepancy}"
            )
        if not callable(self.tail):
            raise ValueError(f"tail must be callable, got {type(self.tail)!r}")


def evaluate_curve(inputs: BoundInputs, grid: Sequence[float]) -> np.recarray:
    """The bound at every grid point, one record per point: z, tail_term (P(|F| > |z|/2),
    before the square root), gaussian_term (2 e^{-z^2/4}), bounds, and uniform_bound,
    the constant |E F| + d that the non-uniform bound refines."""
    z = np.atleast_1d(np.asarray(grid, dtype=float))
    if z.size == 0 or not np.all(np.isfinite(z)):
        raise ValueError("grid must be nonempty and finite")
    tail = tail_probability(inputs.tail, np.abs(z) / 2.0)
    with np.errstate(over="ignore"):  # z * z = inf past |z| ~ 1.3e154, where the term is 0
        gauss = 2.0 * np.exp(-z * z / 4.0)
    uniform = inputs.mean_abs + inputs.stein_discrepancy
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite |E F| + d times a zero term is nan
        bounds = uniform * (np.sqrt(tail) + gauss)
    finite = np.isfinite(bounds)
    if not finite.all():
        raise ValueError(f"the bound overflows float64 at z = {float(z[~finite][0])!r}, where |E F| + d = {uniform!r}")
    return np.rec.fromarrays([z, tail, gauss, bounds, np.full_like(z, uniform)],
                             names="z,tail_term,gaussian_term,bounds,uniform_bound")
