"""Standard-normal kernels and the Stein equation solution.

The Stein equation for the standard normal target at level z,

    f'(x) - x f(x) = 1_{x <= z} - Phi(x=z),

has the unique bounded solution

    f_z(x) = sqrt(2*pi) * e^{x^2/2} * Phi(x) * (1 - Phi(z))   for x <= z,
    f_z(x) = sqrt(2*pi) * e^{x^2/2} * (1 - Phi(x)) * Phi(z)   for x >  z.

The raw products overflow in double precision once |x| exceeds ~27, so all
evaluation here goes through the scaled tail (Mills ratio)

    scaled_tail(x) = sqrt(2*pi) * e^{x^2/2} * (1 - Phi(x)),

which is sqrt(pi/2) erfcx(x/sqrt(2)) with erfcx(u) = e^{u^2} erfc(u), stable
for every x.  Rearranging each branch so that every exponential factor has a
nonpositive exponent makes f_z computable without intermediate overflow for
any finite (z, x).  The Stein kernels broadcast z against x, so a whole
(z, x) grid is one call: kernel(zs[:, None], xs).

Phi, 1 - Phi and erfcx are numpy kernels over the polynomial tables of
`_normal_coefficients` (generated with mpmath by tools/normal_coefficients.py):
erfcx through (1 + 2u) erfcx(u) on four pieces of t = (u - K)/(u + K)
(Shepherd & Laframboise, Math. Comp. 36, 1981), and Phi on the branches of
cephes ndtr (Cody, Math. Comp. 23, 1969): 1/2 + erf(u)/2 for
u = |x|/sqrt(2) < 1/sqrt(2), erfc(u)/2 = erfcx(u) e^{-u^2}/2 beyond.  erfcx is
within 4 ulps; Phi within (4 + x^2) ulps, the x^2 from rounding u as ndtr
does, which keeps Phi within 5e-15 of scipy's ndtr on [-8, 8].

`check_lemma` verifies, on a grid, the classical envelope estimates for f_z
and f'_z (global bounds and the sharpened bounds on the center interval
|x| <= z/2) that drive the non-uniform Berry-Esseen machinery downstream,
for an array of z at once.

Everything in this module is a pure, stateless function; concurrent callers
need no synchronization.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _normal_coefficients as _coef

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = 0.7071067811865476  # 1/sqrt(2) rounded, the argument scale of cephes ndtr
_EXP_SQUARE_U = 40.0  # e^{-u^2} underflows to 0 and e^{u^2} overflows beyond this u
# Elements per block of the normal kernels: 64 KiB of float64.  A block's
# temporaries are then reused by the allocator; whole arrays of 2^14 elements
# and more were handed back to the OS and faulted in again on every temporary.
_BLOCK = 1 << 13
_EPS, _MAX = np.finfo(float).eps, np.finfo(float).max

__all__ = [
    "SQRT_2PI",
    "normal_cdf",
    "normal_tail",
    "scaled_tail",
    "stein_value",
    "stein_derivative",
    "stein_ode_residual_fd",
    "check_lemma",
]


def _require_finite(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _broadcast(z, x):
    """Validated z and x broadcast together: flat float arrays and their shape."""
    zb, xb = np.broadcast_arrays(_require_finite("z", z), _require_finite("x", x))
    return zb.ravel(), xb.ravel(), zb.shape


def _horner(s: np.ndarray, coeffs) -> np.ndarray:
    """The polynomial with coefficients `coeffs` (highest power first) at s."""
    y = np.full_like(s, coeffs[0])
    for c in coeffs[1:]:
        y *= s
        y += c
    return y


def _erfcx(u: np.ndarray) -> np.ndarray:
    """erfcx(u) = e^{u^2} erfc(u) for a flat array of finite u >= 0.

    (1 + 2u) erfcx(u) is a polynomial on each equal piece of
    t = (u - K)/(u + K) in [-1, 1] (Shepherd & Laframboise 1981); each piece
    is evaluated on its own elements only.  The final division by 2u + 1,
    written as (g/2)/(u + 1/2), cannot overflow and gives the asymptote
    1/(u sqrt(pi)) for huge u.
    """
    k, pieces = _coef.ERFCX_K, _coef.ERFCX_PIECES
    p = len(pieces)
    t = u - k
    t /= u + k
    g = np.empty_like(u)
    for i, coeffs in enumerate(pieces):
        m = t >= (2 * i - p) / p
        if i < p - 1:  # the last piece includes t = 1, the limit u -> inf
            m &= t < (2 * i + 2 - p) / p
        s = t[m]
        if s.size:
            s *= p
            s += p - 1 - 2 * i  # [-1, 1] on this piece
            g[m] = _horner(s, coeffs)
    g *= 0.5
    g /= u + 0.5
    return g


def _exp_square(u: np.ndarray, sign: float) -> np.ndarray:
    """e^{sign u^2} for u >= 0, with u split as h + (u - h), h = trunc(16u)/16.

    h^2 is exact and the rest (u - h)(u + h) is small, so the result keeps the
    accuracy of exp instead of amplifying the rounding of u^2 by u^2.  u is
    first clipped at _EXP_SQUARE_U, past which the value is 0 or inf anyway.
    """
    u = np.minimum(u, _EXP_SQUARE_U)
    h = u * 16.0
    np.trunc(h, out=h)
    h /= 16.0
    rest = u - h
    rest *= u + h
    rest *= sign
    np.multiply(h, sign * h, out=h)
    with np.errstate(over="ignore"):
        np.exp(h, out=h)
        h *= np.exp(rest, out=rest)
    return h


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Phi(x) for a flat array of finite x, on the branches of cephes ndtr.

    u = |x| sqrt(1/2) is rounded as cephes does.  For u < 1/sqrt(2),
    Phi = 1/2 + erf(u)/2 (exact 1/2 at 0); beyond, the tail erfc(u)/2 =
    erfcx(u) e^{-u^2}/2 on the negative side and 1 minus it on the positive.
    """
    u = np.abs(x)
    u *= _SQRT1_2
    out = np.empty_like(u)
    centre = u < _SQRT1_2
    v = x[centre]
    if v.size:
        v *= _SQRT1_2
        s = v * v
        s *= 4.0
        s -= 1.0
        half_erf = _horner(s, _coef.ERF)
        half_erf *= v
        half_erf *= 0.5
        out[centre] = half_erf + 0.5
    outer = ~centre
    uo = u[outer]
    if uo.size:
        y = _erfcx(uo)
        y *= _exp_square(uo, -1.0)
        y *= 0.5
        np.subtract(1.0, y, out=y, where=x[outer] > 0.0)
        out[outer] = y
    return out


def _scaled_tail(x: np.ndarray) -> np.ndarray:
    """sqrt(pi/2) erfcx(x sqrt(1/2)) for a flat array of finite x; for x < 0
    through erfcx(-u) = 2 e^{u^2} - erfcx(u), which overflows to inf past
    x ~ -37.6 as the value itself does."""
    u = np.abs(x)
    u *= _SQRT1_2
    out = _erfcx(u)
    neg = x < 0.0
    un = u[neg]
    with np.errstate(over="ignore"):
        if un.size:
            grown = _exp_square(un, 1.0)
            grown *= 2.0
            grown -= out[neg]
            out[neg] = grown
        out *= SQRT_2PI / 2.0
    return out


def _blockwise(kernel, x: np.ndarray) -> np.ndarray:
    """kernel(x) for a flat array x, evaluated _BLOCK elements at a time."""
    out = np.empty_like(x)
    for start in range(0, x.size, _BLOCK):
        out[start : start + _BLOCK] = kernel(x[start : start + _BLOCK])
    return out


def normal_cdf(x):
    """Standard normal CDF Phi(x) of an array; a scalar gives a numpy scalar."""
    arr = _require_finite("x", x)
    return _blockwise(_ndtr, arr.ravel()).reshape(arr.shape)[()]


def normal_tail(x):
    """Upper tail 1 - Phi(x), with small relative error deep into the tail.

    Computed as Phi(-x) through erfc, so there is no cancellation for large
    positive x (usable up to x ~ 37 before underflow).
    """
    arr = _require_finite("x", x)
    return _blockwise(_ndtr, -arr.ravel()).reshape(arr.shape)[()]


def scaled_tail(x):
    """Mills-ratio kernel sqrt(2*pi) * e^{x^2/2} * (1 - Phi(x)).

    Finite without intermediate overflow wherever the true value fits in a
    double (all x >= -37.6; for more negative x the value itself exceeds the
    double range and the result saturates to inf).  For x -> +inf the value
    decays like 1/x.
    """
    arr = _require_finite("x", x)
    return _blockwise(_scaled_tail, arr.ravel()).reshape(arr.shape)[()]


def _seam_factor(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp((x^2 - z^2)/2) for |x| <= |z|, with the exponent (x - z)(x + z)/2.

    The factored exponent has no cancellation near the seam.  x + z overflows
    only where the exponent is then -inf, or nan at x == z, where the factor
    is 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = (x - z) * (x + z) / 2.0
    exponent[np.isnan(exponent)] = -np.inf
    exponent[x == z] = 0.0
    return np.exp(exponent)


def _per_run(kernel, z: np.ndarray) -> np.ndarray:
    """kernel(z) for a flat array z, evaluated once per run of equal values.

    A (z, x) grid flattened in row order holds each z as one run, and so does
    any masked subset of it; finding the runs costs one comparison per
    element, where sorting for the distinct values cost more than the kernel
    evaluations it saved.  The kernels are elementwise, so the values are
    those of kernel(z).
    """
    starts = np.empty(z.size, dtype=bool)
    starts[:1] = True
    np.not_equal(z[1:], z[:-1], out=starts[1:])
    run = np.cumsum(starts)
    run -= 1
    return kernel(z[starts])[run]


def stein_value(z, x):
    """f_z(x), broadcast over z and x, with no intermediate overflow.

    A point above the seam is reflected below it, f_z(x) = f_{-z}(-x) for
    x > z, so that two branches cover the plane.  Each multiplies quantities
    that are individually bounded: scaled_tail at a nonnegative argument
    (<= sqrt(2*pi)/2), a CDF/tail factor in [0, 1], and where needed
    exp((x^2 - z^2)/2) with a nonpositive exponent.  The factors of z alone
    are evaluated once per run of equal z, which on a (z, x) grid is once per
    z.  Returns a numpy scalar when z and x are both scalars.
    """
    zv, xv, shape = _broadcast(z, x)
    lower = xv <= zv
    zr, xr = np.where(lower, zv, -zv), np.where(lower, xv, -xv)
    out = np.empty_like(xv)

    m = lower == (xv <= 0.0)  # xr <= min(zr, 0), x = 0 on its side: scaled_tail(-xr) bounded, tail(zr) in [0,1]
    out[m] = scaled_tail(-xr[m]) * _per_run(normal_tail, zr[m])
    m = ~m  # 0 <= xr <= zr: anchor at the seam, exponent <= 0
    zm = zr[m]
    out[m] = _per_run(scaled_tail, zm) * _seam_factor(zm, xr[m]) * normal_cdf(xr[m])

    return out.reshape(shape)[()]


def stein_derivative(z, x):
    """f'_z(x) from the Stein ODE: x f_z(x) + 1_{x <= z} - Phi(z).

    Broadcast over z and x like `stein_value`.  At the seam x == z the lower
    branch (inclusive inequality) is reported.
    """
    zv, xv, shape = _broadcast(z, x)
    out = xv * stein_value(zv, xv) + (xv <= zv).astype(float) - _per_run(normal_cdf, zv)
    return out.reshape(shape)[()]


def stein_ode_residual_fd(z, x):
    """Residual of the Stein ODE with the derivative taken by finite differences.

    The derivative of f_z is estimated from values only (fourth-order central
    stencil; third-order one-sided within 3h of the seam, taken from the side
    the point is classified on), so this is an independent consistency check of
    the closed-form derivative, not a tautology.  Broadcast over z and x.

    Near the seam f_z varies on the scale 1/|z|, so the step is
    h = 5e-5 / max(1, |z|, |x|), at least 4 ulps of x and rounded to a step
    that the floats around x can take; stencil points beyond the float range
    are held at its end.  Past |z| ~ 1e6 the 4-ulp floor is no longer small
    against 1/|z|, and at the seam the residual grows (-2e-4 at x = z = 1e7,
    -0.8 at 1e8).
    """
    zv, xv, shape = _broadcast(z, x)
    ax = np.abs(xv)
    h = np.maximum(5e-5 / np.maximum(1.0, np.maximum(np.abs(zv), ax)), 4.0 * _EPS * ax)
    h = ax - (ax - h)
    near = np.abs(xv - zv) <= 3.0 * h
    far = ~near

    def f(m, k):  # f_z at x + k h on the points m
        with np.errstate(over="ignore"):
            return stein_value(zv[m], np.clip(xv[m] + k * h[m], -_MAX, _MAX))

    fd = np.empty_like(xv)
    fd[far] = (f(far, -2.0) - 8.0 * f(far, -1.0) + 8.0 * f(far, 1.0) - f(far, 2.0)) / (12.0 * h[far])
    side = np.where(xv[near] <= zv[near], -1.0, 1.0)  # one-sided stencils never cross the seam
    fd[near] = side * (
        -11.0 * f(near, 0.0) + 18.0 * f(near, side) - 9.0 * f(near, 2.0 * side) + 2.0 * f(near, 3.0 * side)
    ) / (6.0 * h[near])

    return (fd - stein_derivative(zv, xv)).reshape(shape)[()]


# Inequalities are analytic facts; the tolerance only absorbs rounding.
LEMMA_SLACK = 1e-12


def check_lemma(z, grid: Sequence[float]) -> np.recarray:
    """Check the f_z / f'_z envelope estimates at every grid point, for every z.

    z may have any shape; every z must be > 0 (the estimates are stated for
    positive z; negative z is handled upstream by reflection of the bound, not
    here).  The checks reduce over the grid, which is flattened.  Returns one
    record per z, in the shape of z (an `np.record` for a scalar z): z and

    global_bound_ok:        0 < f_z <= sqrt(2*pi)/4 and |f'_z| <= 1 on the grid
    center_value_ok:        f_z <= (sqrt(2*pi)/2) e^{-z^2/4} on |x| <= z/2
    center_derivative_ok:   |f'_z| <= 2 e^{-z^2/4}          on |x| <= z/2
    worst_margin:           minimum slack (bound minus value) over all checks
    """
    za = _require_finite("z", z)
    if np.any(za <= 0.0):
        raise ValueError(f"check_lemma requires z > 0, got z={z}")
    xs = _require_finite("grid", grid).ravel()
    if xs.size == 0:
        raise ValueError("grid must be nonempty")

    zc = za[..., None]  # the grid is the last axis
    f = stein_value(zc, xs)
    fp = stein_derivative(zc, xs)

    global_margin = np.minimum(np.minimum(f, SQRT_2PI / 4.0 - f), 1.0 - np.abs(fp))  # positivity slack is f
    with np.errstate(over="ignore"):  # z^2 overflows past 1.34e154: the envelope is 0
        envelope = np.exp(-zc * zc / 4.0)
    center = np.abs(xs) <= zc / 2.0  # off-center points carry no center constraint: margin +inf
    value_margin = np.where(center, (SQRT_2PI / 2.0) * envelope - f, np.inf)
    deriv_margin = np.where(center, 2.0 * envelope - np.abs(fp), np.inf)
    worst = np.stack([global_margin, value_margin, deriv_margin]).min(axis=-1)  # (3, *z.shape)
    ok = worst >= -LEMMA_SLACK
    rep = np.rec.fromarrays([za, *ok, worst.min(axis=0)],
                            names="z,global_bound_ok,center_value_ok,center_derivative_ok,worst_margin")
    return rep[()]
