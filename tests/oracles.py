"""Independent oracles used to derive expected values in the tests.

Everything here is deliberately computed by a route different from the
library implementation: quadrature of raw integrands, asymptotic series,
moment recursions, and numpy's own Hermite evaluation.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial import hermite_e
from scipy import integrate


def gaussian_moment(order: int) -> int:
    """E N^order for a standard normal: (order-1)!! for even order, 0 for odd."""
    if order % 2 == 1:
        return 0
    return math.prod(range(order - 1, 0, -2)) if order > 0 else 1


def centered_chi1_moment(order: int) -> int:
    """E (N^2 - 1)^order by binomial expansion against Gaussian moments."""
    return sum(
        math.comb(order, j) * (-1) ** (order - j) * gaussian_moment(2 * j)
        for j in range(order + 1)
    )


def normal_tail_asymptotic(x: float) -> float:
    """phi(x)/x * sum (-1)^k (2k-1)!!/x^{2k}, truncated at the smallest term."""
    phi = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    total = 0.0
    term = 1.0
    k = 0
    while True:
        total += term
        k += 1
        nxt = term * (-(2 * k - 1)) / (x * x)
        if abs(nxt) >= abs(term) or abs(nxt) < 1e-20 * abs(total):
            break
        term = nxt
    return phi / x * total


def mills_asymptotic(x: float) -> float:
    """Mills ratio (1/x) * sum (-1)^k (2k-1)!!/x^{2k}, no exponentials involved."""
    total = 0.0
    term = 1.0
    k = 0
    while True:
        total += term
        k += 1
        nxt = term * (-(2 * k - 1)) / (x * x)
        if abs(nxt) >= abs(term) or abs(nxt) < 1e-20 * abs(total):
            break
        term = nxt
    return total / x


def hermite_numpy(q: int, x):
    """Probabilists' Hermite polynomial through numpy's hermite_e basis."""
    coeffs = np.zeros(q + 1)
    coeffs[q] = 1.0
    return hermite_e.hermeval(np.asarray(x, dtype=float), coeffs)


def expfun_mean_quad(a: float, t: float) -> float:
    """m_t by quadrature of the lognormal moment E e^{a s + B_s} = e^{(a + 1/2)s}."""
    val, _ = integrate.quad(lambda s: math.exp((a + 0.5) * s), 0.0, t, epsabs=1e-15, epsrel=1e-13)
    return val


def expfun_variance_quad(a: float, t: float) -> float:
    """sigma_t^2 by adaptive 2-d quadrature of the positive covariance kernel.

    Cov(e^{as+B_s}, e^{au+B_u}) = e^{(a+1/2)(s+u)} (e^{min(s,u)} - 1), so
    sigma_t^2 = 2 * int_0^t int_0^u e^{(a+1/2)(s+u)} expm1(s) ds du, ordered so
    the min-kink never sits inside an inner panel.  Nothing cancels.
    """
    b = a + 0.5

    def inner(u: float) -> float:
        val, _ = integrate.quad(
            lambda s: math.exp(b * (s + u)) * math.expm1(s), 0.0, u, epsabs=0.0, epsrel=1e-13
        )
        return val

    val, _ = integrate.quad(inner, 0.0, t, epsabs=0.0, epsrel=1e-13)
    return 2.0 * val


def expfun_moments_mp(a: float, t: float) -> tuple[float, float]:
    """m_t and sigma_t^2 from their closed forms, m_t = iexp(a + 1/2) and
    sigma_t^2 = 2/(a + 3/2) (iexp(2a + 2) - iexp(a + 1/2)) - m_t^2 with
    iexp(lam) = (e^{lam t} - 1)/lam, in mpmath at 40 + 3 log10(1/t) digits plus
    twice the digits lost to a removable point closer than 1.  At a removable
    point itself the forms are taken 1e-30 away, which moves the moments by
    O(1e-30) relative."""
    def digits(x: float) -> int:
        return max(0, math.ceil(-math.log10(x)))

    gap = min(abs(a - r) for r in (-0.5, -1.0, -1.5))
    with mpmath.workdps(40 + 3 * digits(t) + 2 * digits(gap or 1e-30)):
        a_mp = mpmath.mpf(a) + (0 if gap else mpmath.mpf(10) ** -30)
        t_mp = mpmath.mpf(t)

        def iexp(lam):
            return mpmath.expm1(lam * t_mp) / lam

        m = iexp(a_mp + 0.5)
        return float(m), float(2 / (a_mp + 1.5) * (iexp(2 * a_mp + 2) - iexp(a_mp + 0.5)) - m * m)


def expfun_rate_bound_closed_form(t: float, m_t: float, sigma_t: float, d: float, z):
    """The exponential functional's rate bound written out in one expression,

        d (e^{-ln^2(1 + |z| sigma_t/(2 m_t))/(4t)} + e^{-z^2/16} + 2 e^{-z^2/4}),

    the square roots of the two concentration bounds at |z|/2 plus the
    Gaussian term, without the bound engine."""
    za = np.abs(np.asarray(z, dtype=float))
    with np.errstate(over="ignore"):  # z^2 = inf past |z| ~ 1.3e154, where its terms are 0
        terms = (
            np.exp(-np.log1p(za * sigma_t / (2.0 * m_t)) ** 2 / (4.0 * t))
            + np.exp(-(za**2) / 16.0)
            + 2.0 * np.exp(-(za**2) / 4.0)
        )
    return d * terms


def _erfcx_mpf(u):
    """e^{u^2} erfc(u) as an mpf.  Past u = 1e4 (where mpmath's erfc cannot
    take the argument) the asymptotic series 1/(u sqrt(pi)) *
    (1 - 1/(2u^2) + 3/(4u^4)), whose next term is below 1e-24 relative."""
    if u > 1e4:
        return (1 - 1 / (2 * u * u) + 3 / (4 * u**4)) / (u * mpmath.sqrt(mpmath.pi))
    return mpmath.exp(u * u) * mpmath.erfc(u)


def erfcx_mp(u: float) -> float:
    """e^{u^2} erfc(u) at 40 digits."""
    with mpmath.workdps(40):
        return float(_erfcx_mpf(mpmath.mpf(u)))


def exp_square_mp(u: float, sign: float) -> float:
    """e^{sign u^2} at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.exp(sign * mpmath.mpf(u) ** 2))


def normal_cdf_mp(x: float) -> float:
    """Phi(x) at 40 digits (exactly 0 or 1 in double precision past |x| = 1e4)."""
    if abs(x) > 1e4:
        return 0.0 if x < 0 else 1.0
    with mpmath.workdps(40):
        return float(mpmath.ncdf(mpmath.mpf(x)))


def scaled_tail_mp(x: float) -> float:
    """sqrt(2 pi) e^{x^2/2} (1 - Phi(x)) = sqrt(pi/2) erfcx(x/sqrt(2)) at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.sqrt(mpmath.pi / 2) * _erfcx_mpf(mpmath.mpf(x) / mpmath.sqrt(2)))


def csv_bytes(rows: np.recarray) -> bytes:
    """CSV text of a record array as one Python `repr` per float cell writes
    it: a header row, comma separators, LF line endings, booleans as 1/0 and
    other cells by `str`."""

    def cells(column: np.ndarray) -> list[str]:
        values = column.tolist()
        if column.dtype == bool:
            return ["1" if v else "0" for v in values]
        return list(map(repr, values)) if column.dtype.kind == "f" else list(map(str, values))

    names = rows.dtype.names
    lines = [",".join(names), *map(",".join, zip(*(cells(rows[name]) for name in names)))]
    return ("\n".join(lines) + "\n").encode()
