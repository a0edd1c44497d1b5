"""Generate the polynomial coefficients of the normal kernels in `nubes.gaussian`.

    python tools/normal_coefficients.py        # rewrites src/nubes/_normal_coefficients.py

Each table is the Chebyshev series of its function on one interval, computed
with mpmath at 40 digits by interpolation at 64 Chebyshev points of the first
kind and truncated after DEGREE + 1 terms, then rewritten exactly as a
polynomial in the local variable s in [-1, 1] and rounded to doubles.  The
functions are smooth enough on each interval that the monomial coefficients
decay like the Chebyshev ones, so Horner's rule in s adds no cancellation.

- erfcx: g(t) = (1 + 2u) erfcx(u) with t = (u - K)/(u + K), u in [0, inf)
  (Shepherd & Laframboise, Math. Comp. 36 (1981)).  t in [-1, 1] is cut into
  ERFCX_PIECES equal intervals; on piece i, s = P t + (P - 1 - 2i).  g tends to
  2/sqrt(pi) as u -> inf, so erfcx(u) = (g/2)/(u + 1/2) has the asymptote
  1/(u sqrt(pi)).
- erf: erf(u)/u as a polynomial in s = 4u^2 - 1, for u^2 in [0, 1/2]
  (|u| < 1/sqrt(2), the central branch of Phi in Cody (1969) and cephes).

`tables()` returns what the checked-in module holds; the tests compare the two.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

DPS = 40
NODES = 64
ERFCX_K = 3.75
ERFCX_PIECES = 4
ERFCX_DEGREE = 13
ERF_DEGREE = 10

TARGET = Path(__file__).resolve().parent.parent / "src" / "nubes" / "_normal_coefficients.py"


def chebyshev_monomials(f, a, b, degree: int) -> tuple[float, ...]:
    """Coefficients, highest power first, in s in [-1, 1] of the truncated
    Chebyshev series of f on [a, b], where x = (a + b)/2 + s (b - a)/2."""
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        fx = [f((a + b) / 2 + (b - a) / 2 * mp.cos(th)) for th in theta]
        cheb = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(fx, theta)) / NODES for k in range(degree + 1)]
        cheb[0] /= 2
        t_prev, t_k = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]  # T_0, T_1 in monomials
        mono = [cheb[0]] + [mp.mpf(0)] * degree
        for k in range(1, degree + 1):
            for i, c in enumerate(t_k):
                mono[i] += cheb[k] * c
            t_prev, t_k = t_k, [-c for c in t_prev] + [mp.mpf(0)] * 2
            for i, c in enumerate(t_prev):  # T_{k+1} = 2 s T_k - T_{k-1}
                t_k[i + 1] += 2 * c
        return tuple(float(c) for c in reversed(mono))


def _erfcx_g(t):
    u = ERFCX_K * (1 + t) / (1 - t)
    return (1 + 2 * u) * mp.exp(u * u) * mp.erfc(u)


def _erf_over_u(v):
    u = mp.sqrt(v)
    return mp.erf(u) / u


def tables() -> dict:
    p = ERFCX_PIECES
    pieces = tuple(
        chebyshev_monomials(_erfcx_g, mp.mpf(2 * i - p) / p, mp.mpf(2 * i + 2 - p) / p, ERFCX_DEGREE)
        for i in range(p)
    )
    erf = chebyshev_monomials(_erf_over_u, 0, mp.mpf(1) / 2, ERF_DEGREE)
    return {"ERFCX_K": ERFCX_K, "ERFCX_PIECES": pieces, "ERF": erf}


def _tuple_source(values, indent: str) -> str:
    return "(\n" + "".join(f"{indent}    {v!r},\n" for v in values) + f"{indent})"


def render(t: dict) -> str:
    pieces = "".join(f"    {_tuple_source(piece, '    ')},\n" for piece in t["ERFCX_PIECES"])
    return (
        '"""Polynomial coefficients of the normal kernels in `nubes.gaussian`.\n\n'
        "Generated by `python tools/normal_coefficients.py`, which documents the\n"
        "construction; do not edit by hand.  Each tuple lists the coefficients of a\n"
        "polynomial in s in [-1, 1], highest power first.\n"
        '"""\n\n'
        f"ERFCX_K = {t['ERFCX_K']!r}\n\n"
        "# (1 + 2u) erfcx(u) on the equal pieces of t = (u - K)/(u + K) in [-1, 1]\n"
        f"ERFCX_PIECES = (\n{pieces})\n\n"
        "# erf(u)/u with s = 4u^2 - 1, |u| < 1/sqrt(2)\n"
        f"ERF = {_tuple_source(t['ERF'], '')}\n"
    )


def main() -> int:
    TARGET.write_text(render(tables()), encoding="utf-8")
    print(f"wrote {TARGET}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
