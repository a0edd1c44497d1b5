"""Independent checks of the output file of each workload.

No check compares against the bytes of an earlier run.  Every expected value
is recomputed by another route -- vectorised scipy `ndtr`, mpmath, closed
forms and Gauss-Hermite quadrature -- so a change that moves results by a few
ulps, or that replaces a Monte Carlo estimate by its closed form, still
passes.  Each check raises `CheckFailed` with the first discrepancy it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import mpmath
import numpy as np
from numpy.polynomial import hermite_e
from scipy import special

COMPARE_COLUMNS = [
    "z", "empirical_cdf", "normal_cdf", "discrepancy", "se", "bound", "uniform_bound", "violated",
]
BOUND_COLUMNS = ["z", "tail_term", "gaussian_term", "bound", "uniform_bound"]
STEIN_COLUMNS = ["z", "x", "f", "f_prime", "ode_residual", "lemma_flags"]

# P(|F| > x) is a complement of a CDF, so it carries a few ulps of 1 absolutely
TAIL_ATOL = 4.5e-16
# fourth-order finite differences at h = 5e-5 leave residuals near 1e-11
RESIDUAL_MAX = 1e-9
# Monte Carlo E F^4 may sit this many standard errors from the closed form
FOURTH_MOMENT_K = 6.0
STEIN_SUBSAMPLE = 48


class CheckFailed(Exception):
    """An output file is wrong."""


def _require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _floats(name: str, values) -> np.ndarray:
    try:
        out = np.array(values, dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"column {name}: {exc}") from exc
    _require(np.all(np.isfinite(out)), f"column {name} has a non-finite value")
    return out


def _close(name: str, got, want, rtol: float, atol=0.0):
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    ok = np.abs(got - want) <= rtol * np.abs(want) + atol
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise CheckFailed(f"{name}: got {float(got.flat[i])!r}, expected {float(want.flat[i])!r} (row {i})")


def _check_grid(name: str, got, lo: float, hi: float, count: int):
    _close(name, got, np.linspace(lo, hi, count), rtol=0.0, atol=1e-12)


def read_csv(path: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """Header and columns (as strings) of a comma-separated file."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    _require(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(row) == len(header) for row in rows), "CSV rows differ in length from the header")
    columns = list(zip(*rows)) if rows else [() for _ in header]
    return header, columns


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


# ---------------------------------------------------------------- stein-grid


def _stein_mp(z: float, x: float) -> tuple[float, float]:
    """f_z(x) and f'_z(x) from the two-branch formula at 40 digits."""
    with mpmath.workdps(40):
        z, x = mpmath.mpf(z), mpmath.mpf(x)
        scale = mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(x * x / 2)
        if x <= z:
            f = scale * mpmath.ncdf(x) * mpmath.ncdf(-z)
        else:
            f = scale * mpmath.ncdf(-x) * mpmath.ncdf(z)
        fp = x * f + (1 if x <= z else 0) - mpmath.ncdf(z)
        return float(f), float(fp)


def check_stein(path: str, z_min: float, z_max: float, z_count: int, seed: int,
                x_min: float = -10.0, x_max: float = 10.0, x_count: int = 2001):
    header, cols = read_csv(path)
    _require(header == STEIN_COLUMNS, f"columns {header}")
    n = z_count * x_count
    _require(len(cols[0]) == n, f"{len(cols[0])} rows, expected {n}")
    z = _floats("z", cols[0])
    x = _floats("x", cols[1])
    _close("z", z, np.repeat(np.linspace(z_min, z_max, z_count), x_count), rtol=0.0, atol=1e-12)
    _close("x", x, np.tile(np.linspace(x_min, x_max, x_count), z_count), rtol=0.0, atol=1e-12)
    flags = np.array(cols[5])
    bad = (z > 0) & (flags != "111")
    _require(not np.any(bad), f"lemma_flags {flags[bad][:1]} at z > 0")
    residual = _floats("ode_residual", cols[4])
    worst = float(np.max(np.abs(residual)))
    _require(worst <= RESIDUAL_MAX, f"|ode_residual| reaches {worst!r}")
    f = _floats("f", cols[2])
    fp = _floats("f_prime", cols[3])
    for i in sorted(random.Random(seed).sample(range(n), min(STEIN_SUBSAMPLE, n))):
        want_f, want_fp = _stein_mp(z[i], x[i])
        at = f"at z={float(z[i])!r} x={float(x[i])!r}"
        _close(f"f {at}", f[i], want_f, rtol=1e-12)
        _close(f"f_prime {at}", fp[i], want_fp, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------- bound-grid


def exact_abs_tail(x: np.ndarray) -> np.ndarray:
    """P(|F| > x) for F = (N^2 - 1)/sqrt(2), without cancellation in the upper part."""
    upper = 2.0 * special.ndtr(-np.sqrt(1.0 + math.sqrt(2.0) * x))
    low = 1.0 - math.sqrt(2.0) * x
    lower = np.where(low > 0.0, 2.0 * special.ndtr(np.sqrt(np.maximum(low, 0.0))) - 1.0, 0.0)
    return np.clip(upper + lower, 0.0, 1.0)


def check_bound(path: str, discrepancy: float, z_min: float, z_max: float, z_count: int):
    header, cols = read_csv(path)
    _require(header == BOUND_COLUMNS, f"columns {header}")
    _require(len(cols[0]) == z_count, f"{len(cols[0])} rows, expected {z_count}")
    z, tail, gauss, bound, uniform = (_floats(name, col) for name, col in zip(header, cols))
    _check_grid("z", z, z_min, z_max, z_count)
    want_tail = exact_abs_tail(np.abs(z) / 2.0)
    tail_atol = 1e-12 * want_tail + TAIL_ATOL
    _close("tail_term", tail, want_tail, rtol=0.0, atol=tail_atol)
    want_gauss = 2.0 * np.exp(-z * z / 4.0)
    _close("gaussian_term", gauss, want_gauss, rtol=1e-12)
    want_bound = discrepancy * (np.sqrt(want_tail) + want_gauss)
    # d * (sqrt(tail + e) - sqrt(tail)) <= d * e / sqrt(tail)
    _close("bound", bound, want_bound, rtol=1e-12, atol=discrepancy * tail_atol / np.sqrt(want_tail))
    _close("uniform_bound", uniform, discrepancy, rtol=1e-15)


# ---------------------------------------------- chaos-certify, expfun-paths


def _check_compare(doc: dict, samples: int, z_min: float, z_max: float, z_count: int) -> dict:
    """Checks shared by the two certification scenarios; returns the float columns."""
    _require(doc.get("columns") == COMPARE_COLUMNS, f"columns {doc.get('columns')}")
    rows = doc["rows"]
    _require(len(rows) == z_count, f"{len(rows)} rows, expected {z_count}")
    raw = dict(zip(COMPARE_COLUMNS, zip(*rows)))
    cols = {name: _floats(name, raw[name]) for name in COMPARE_COLUMNS[:-1]}
    _check_grid("z", cols["z"], z_min, z_max, z_count)
    p = cols["empirical_cdf"]
    _require(np.all((p >= 0.0) & (p <= 1.0)) and np.all(np.diff(p) >= 0.0), "ECDF not monotone in [0, 1]")
    _close("empirical_cdf * n", p * samples, np.rint(p * samples), rtol=0.0, atol=1e-6)
    _close("normal_cdf", cols["normal_cdf"], special.ndtr(cols["z"]), rtol=1e-14, atol=1e-300)
    _close("discrepancy", cols["discrepancy"], np.abs(p - cols["normal_cdf"]), rtol=0.0, atol=1e-15)
    se = cols["se"]
    _require(np.all((se > 0.0) & (se <= 0.5 / math.sqrt(samples) * (1 + 1e-12))), "se outside (0, 0.5/sqrt(n)]")
    _require(not any(raw["violated"]), "a grid point is flagged violated")
    _require(doc["summary"]["violations"] == 0, f"{doc['summary']['violations']} violations")
    return cols


def chaos_fourth_moment(q: int, alphas, samples: int) -> tuple[float, float]:
    """E F^4 of the variance-one diagonal chaos, and the standard error of its
    Monte Carlo estimate from `samples` draws, from exact moments of each
    alpha_i H_q(N_i) (Gauss-Hermite) combined over the independent terms."""
    coeffs = np.zeros(q + 1)
    coeffs[q] = 1.0
    nodes, weights = hermite_e.hermegauss(64)
    h = hermite_e.hermeval(nodes, coeffs)
    weights = weights / math.sqrt(2.0 * math.pi)
    alphas = np.asarray(alphas, dtype=float)
    alphas = alphas / math.sqrt(math.factorial(q) * np.sum(alphas**2))
    moments = [1.0] + [0.0] * 8
    for a in alphas:
        term = [float(np.sum(weights * (a * h) ** k)) for k in range(9)]
        moments = [
            sum(math.comb(k, j) * moments[j] * term[k - j] for j in range(k + 1)) for k in range(9)
        ]
    return moments[4], math.sqrt((moments[8] - moments[4] ** 2) / samples)


def check_chaos(path: str, q: int, alphas, samples: int,
                z_min: float = -8.0, z_max: float = 8.0, z_count: int = 161):
    doc = _read_json(path)
    cols = _check_compare(doc, samples, z_min, z_max, z_count)
    summary = doc["summary"]
    m4 = summary["fourth_moment"]
    want_m4, se = chaos_fourth_moment(q, alphas, samples)
    _require(abs(m4 - want_m4) <= FOURTH_MOMENT_K * se,
             f"fourth_moment {m4!r} is more than {FOURTH_MOMENT_K} SE ({se:.3g}) from {want_m4!r}")
    d = summary["stein_discrepancy"]
    _close("stein_discrepancy", d, math.sqrt((q - 1) / (3.0 * q) * (m4 - 3.0)), rtol=1e-12)
    _close("uniform_bound", cols["uniform_bound"], d, rtol=1e-15)
    # bound = d (sqrt(P_hat(|F| > |z|/2)) + 2 e^{-z^2/4}); where +-|z|/2 lie on
    # the grid, that empirical tail must equal the ECDF's own 1 - P(x) + P(-x)
    z, p = cols["z"], cols["empirical_cdf"]
    gauss = 2.0 * np.exp(-z * z / 4.0)
    tail = (cols["bound"] / d - gauss) ** 2
    _require(np.all(tail <= 1.0 + 1e-9), "bound implies a tail probability above 1")
    step = (z_max - z_min) / (z_count - 1)
    checked = 0
    for i, zi in enumerate(z):
        x = abs(zi) / 2.0
        hi, lo = int(round((x - z_min) / step)), int(round((-x - z_min) / step))
        if 0 <= lo and hi < z_count and abs(z[hi] - x) <= 1e-9 and abs(z[lo] + x) <= 1e-9:
            # the same count of samples, up to rounding
            _close(f"tail in bound at z={float(zi)!r}", tail[i], 1.0 - p[hi] + p[lo], rtol=0.0, atol=0.5 / samples)
            checked += 1
    _require(checked > 0, "no grid point to check the empirical tail on")


def expfun_closed_forms(a: float, t: float) -> tuple[float, float]:
    """m_t and sigma_t^2 of F_t = int_0^t exp(a s + B_s) ds, at 40 digits
    (a away from -1/2, -1 and -3/2)."""
    with mpmath.workdps(40):
        a, t = mpmath.mpf(a), mpmath.mpf(t)

        def iexp(lam):
            return mpmath.expm1(lam * t) / lam

        m = iexp(a + 0.5)
        second = 2 / (a + 1.5) * (iexp(2 * a + 2) - iexp(a + 0.5))
        return float(m), float(second - m * m)


def check_expfun(path: str, a: float, t: float, samples: int, n_steps: int,
                 z_min: float = -5.0, z_max: float = 5.0, z_count: int = 101):
    doc = _read_json(path)
    cols = _check_compare(doc, samples, z_min, z_max, z_count)
    summary = doc["summary"]
    _require(summary["n_steps"] == n_steps, f"n_steps {summary['n_steps']}, expected {n_steps}")
    m, s2 = expfun_closed_forms(a, t)
    _close("m_t", summary["m_t"], m, rtol=1e-12)
    _close("sigma2_t", summary["sigma2_t"], s2, rtol=1e-12)
    az = np.abs(cols["z"])
    prefactor = 2.0 * math.exp(2.0 * a * t + 4.0 * t) * t**3 * math.sqrt(t) / s2
    rate = prefactor * (
        np.exp(-np.log1p(az * math.sqrt(s2) / (2.0 * m)) ** 2 / (4.0 * t))
        + np.exp(-az * az / 16.0)
        + 2.0 * np.exp(-az * az / 4.0)
    )
    _close("bound", cols["bound"], rate, rtol=1e-12)
    uniform = math.sqrt(4.0 * t**7 * math.exp(4.0 * a * t + 8.0 * t)) / s2
    _close("uniform_bound", cols["uniform_bound"], uniform, rtol=1e-12)
