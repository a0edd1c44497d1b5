import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nubes import bounds, chaos, empirical
from nubes.sampling import substream
from oracles import centered_chi1_moment, gaussian_moment, hermite_numpy

TWO_PHI_1_MINUS_1 = 0.6826894921370859  # exact CDF of the rank-one q=2 law at 0


@pytest.fixture
def rank1():
    return chaos.normalize(chaos.DiagonalChaosSpec(q=2, alphas=(1.0,)))


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            chaos.DiagonalChaosSpec(q=1, alphas=(1.0,))
        with pytest.raises(ValueError):
            chaos.DiagonalChaosSpec(q=2, alphas=())
        with pytest.raises(ValueError):
            chaos.DiagonalChaosSpec(q=2, alphas=(0.0, 0.0))
        with pytest.raises(ValueError):
            chaos.DiagonalChaosSpec(q=2, alphas=(math.inf,))


class TestHermite:
    def test_hand_values(self):
        assert chaos.hermite(2, 2.0) == 3.0  # x^2 - 1
        assert chaos.hermite(3, 0.0) == 0.0  # odd polynomial
        assert chaos.hermite(4, 1.0) == -2.0  # x^4 - 6 x^2 + 3, unrolled by hand
        assert chaos.hermite(0, 5.0) == 1.0
        assert chaos.hermite(1, -2.5) == -2.5

    def test_against_numpy_basis(self):
        xs = np.linspace(-5.0, 5.0, 101)
        for q in range(9):
            ours = chaos.hermite(q, xs)
            ref = hermite_numpy(q, xs)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(ours - ref) / scale) <= 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            chaos.hermite(-1, 0.0)

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 6])
    def test_integral_float_order(self, q):
        xs = np.linspace(-4.0, 4.0, 17)
        assert np.asarray(chaos.hermite(float(q), 1.5)).tobytes() == np.asarray(chaos.hermite(q, 1.5)).tobytes()
        assert chaos.hermite(float(q), xs).tobytes() == chaos.hermite(q, xs).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 8),
        st.one_of(
            st.floats(),
            arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40), elements=st.floats()),
        ),
    )
    def test_equals_allocating_recurrence(self, q, x):
        before = np.copy(x)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf for huge x, in both
            got, want = chaos.hermite(q, x), _hermite_reference(q, x)
        assert np.array_equal(got, want, equal_nan=True)
        assert type(got) is (np.float64 if np.ndim(x) == 0 else np.ndarray)
        assert np.array_equal(x, before, equal_nan=True)


def _hermite_reference(q: int, x):
    """The three-term recurrence allocating new arrays at every step."""
    xa = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xa)
    if q == 0:
        return float(h_prev) if xa.ndim == 0 else h_prev
    h = xa.copy()
    for k in range(1, q):
        h, h_prev = xa * h - k * h_prev, h
    return float(h) if xa.ndim == 0 else h


class TestVarianceNormalize:
    def test_exact_values(self):
        assert chaos.variance(chaos.DiagonalChaosSpec(2, (1.0,))) == 2.0
        assert chaos.variance(chaos.DiagonalChaosSpec(3, (1.0, 1.0))) == 12.0

    def test_normalize(self):
        spec = chaos.normalize(chaos.DiagonalChaosSpec(2, (1.0,)))
        assert abs(spec.alphas[0] - 1.0 / math.sqrt(2.0)) <= 1e-15
        spec34 = chaos.normalize(chaos.DiagonalChaosSpec(2, (3.0, 4.0)))
        scale = 1.0 / math.sqrt(50.0)
        assert abs(spec34.alphas[0] - 3.0 * scale) <= 1e-15
        assert abs(spec34.alphas[1] - 4.0 * scale) <= 1e-15
        assert abs(chaos.variance(spec34) - 1.0) <= 1e-14

    def test_normalize_idempotent(self):
        spec = chaos.normalize(chaos.DiagonalChaosSpec(3, (0.2, -1.7, 0.4)))
        twice = chaos.normalize(spec)
        assert all(abs(a - b) <= 1e-15 for a, b in zip(spec.alphas, twice.alphas))

    def test_normalize_rejects_degenerate_variance(self):
        # q! is beyond the float range, or q! times the rank overflows to inf
        for q, rank in ((171, 1), (170, 30)):
            with pytest.raises(ValueError, match=f"q={q} overflows"):
                chaos.normalize(chaos.DiagonalChaosSpec(q, (1.0,) * rank))

    @pytest.mark.parametrize("alphas", [(1.0,), (3.0, -4.0), (0.2, -1.7, 0.4, 1e-3)])
    def test_normalize_scale_invariant(self, alphas):
        # max|alpha| is divided out first: no scale under- or overflows, and a
        # power-of-two scale cancels exactly
        base = chaos.normalize(chaos.DiagonalChaosSpec(3, alphas))
        for scale in (2.0**-1000, 2.0**-600, 2.0**600, 2.0**1000):
            assert chaos.normalize(chaos.DiagonalChaosSpec(3, tuple(a * scale for a in alphas))) == base
        for scale in (1e-200, 1e-160, 1e200):
            scaled = chaos.normalize(chaos.DiagonalChaosSpec(3, tuple(a * scale for a in alphas)))
            assert scaled.alphas == pytest.approx(base.alphas, rel=1e-15)

    def test_normalize_max_one_unchanged(self):
        # with max|alpha| = 1 the arithmetic is q! sum alpha^2 and one division by its root
        alphas = (1.0, 0.5, 0.25, 0.125)
        scale = 1.0 / math.sqrt(math.factorial(3) * sum(a * a for a in alphas))
        assert chaos.normalize(chaos.DiagonalChaosSpec(3, alphas)).alphas == tuple(a * scale for a in alphas)

    def test_direction_preserved(self):
        spec = chaos.normalize(chaos.DiagonalChaosSpec(2, (-3.0, 4.0)))
        assert spec.alphas[0] < 0.0 < spec.alphas[1]
        assert abs(spec.alphas[1] / spec.alphas[0] + 4.0 / 3.0) <= 1e-14


class _FixedRng:
    """Stub generator handing out a preset (rows, alphas) array once."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def standard_normal(self, size, out=None):
        assert tuple(size) == self._values.shape
        if out is None:
            return self._values.copy()
        out[...] = self._values
        return out


class TestSampling:
    def test_forced_draws(self, rank1):
        got = chaos._sample_chunk(_FixedRng([[0.0], [1.0]]), 2, rank1.q, rank1.alphas)
        assert abs(got[0] + 1.0 / math.sqrt(2.0)) <= 1e-15
        assert abs(got[1]) <= 1e-15  # H_2(1) = 0

    def test_consumes_exactly_len_alphas(self):
        # each sample consumes len(alphas) normals, drawn in row order
        spec = chaos.normalize(chaos.DiagonalChaosSpec(2, (1.0, 2.0, 3.0)))
        rng_a = substream(99, 0)
        rng_b = substream(99, 0)
        chaos._sample_chunk(rng_a, 5, spec.q, spec.alphas)
        rng_b.standard_normal((5, 3))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_batch_matches_worker_counts(self, rank1):
        one = chaos.sample_batch(rank1, 70_000, seed=3, workers=1)
        two = chaos.sample_batch(rank1, 70_000, seed=3, workers=2)
        assert np.array_equal(one, two)

    def test_batch_independent_of_blas_threads(self):
        # 312,145 = 262,144 + 50,001: a chunk whose product BLAS would split
        # over two threads at an odd row; 12 alphas take BLAS's vector kernel
        code = (
            "import hashlib, sys; from nubes import chaos; "
            "spec = chaos.normalize(chaos.DiagonalChaosSpec(3, tuple(1 / (i + 1) for i in range(12)))); "
            "sys.stdout.write(hashlib.sha256(chaos.sample_batch(spec, 312_145, seed=0).tobytes()).hexdigest())"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_mean_near_zero(self, chaos_q2_samples_1m):
        s = chaos_q2_samples_1m
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean()) <= 3.0 * se


class TestMoments:
    def test_fourth_moment_rank1_exact(self, rank1):
        m4 = chaos.fourth_moment(rank1)
        # E(N^2-1)^4 / 4 = 60/4 = 15 via the Gaussian moment oracle
        assert centered_chi1_moment(4) == 60
        assert abs(m4 - 15.0) <= 1e-12

    def test_fourth_moment_equal_alphas(self):
        for m in (1, 4, 100, 10_000):
            spec = chaos.normalize(chaos.DiagonalChaosSpec(2, (1.0,) * m))
            m4 = chaos.fourth_moment(spec)
            assert abs(m4 - (3.0 + 12.0 / m)) <= 1e-10  # Gaussian limit as m grows

    def test_fourth_moment_q3_mc(self):
        # E F^4 = 3 + (3348 - 3 * 36) / 36 = 93 for the rank-one q=3 law
        spec = chaos.normalize(chaos.DiagonalChaosSpec(3, (1.0,)))
        assert abs(chaos.fourth_moment(spec) - 93.0) <= 1e-12
        f4 = chaos.sample_batch(spec, 200_000, seed=17) ** 4
        se = f4.std(ddof=1) / math.sqrt(f4.size)
        assert abs(f4.mean() - 93.0) <= 4.0 * se

    def test_fourth_moment_closed_form_matches_quadrature(self):
        # tensor-product Gauss-Hermite rule, exact for F^4 (degree 4q <= 20 per axis)
        nodes, weights = np.polynomial.hermite_e.hermegauss(60)
        weights = weights / math.sqrt(2.0 * math.pi)
        for q in (2, 3, 4, 5):
            spec = chaos.normalize(chaos.DiagonalChaosSpec(q, (1.0, -0.5, 0.3)))
            h = hermite_numpy(q, nodes)
            a1, a2, a3 = spec.alphas
            f = a1 * h[:, None, None] + a2 * h[None, :, None] + a3 * h[None, None, :]
            w = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
            quad = float(np.sum(w * f**4))
            assert abs(chaos.fourth_moment(spec) / quad - 1.0) <= 1e-12, q

    def test_fourth_moment_requires_normalized(self):
        with pytest.raises(ValueError):
            chaos.fourth_moment(chaos.DiagonalChaosSpec(2, (1.0,)))

    def test_discrepancy_upper(self):
        assert abs(chaos.stein_discrepancy_upper(15.0, 2) - math.sqrt(2.0)) <= 1e-14
        assert chaos.stein_discrepancy_upper(3.0, 2) == 0.0

    def test_discrepancy_rejects_fourth_moment_below_3(self):
        with pytest.raises(ValueError, match="fourth-moment"):
            chaos.stein_discrepancy_upper(2.9, 2)

    def test_rank1_bound_attained(self):
        # for F = (N^2-1)/sqrt(2) the inner-product discrepancy is exactly
        # E(1 - N^2)^2 = E N^4 - 2 E N^2 + 1 = 2, so the upper bound sqrt(2)
        # is attained; cross-check the moment arithmetic and by MC
        assert gaussian_moment(4) - 2 * gaussian_moment(2) + 1 == 2
        rng = substream(23, 0)
        n = rng.standard_normal(400_000)
        g = (1.0 - n**2) ** 2
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - 2.0) <= 4.0 * se

    def test_moments_of_unnormalized_spec(self):
        spec = chaos.DiagonalChaosSpec(2, (1.0,))
        assert abs(chaos.variance(spec) - 2.0) <= 1e-14
        m4 = chaos.fourth_moment(chaos.normalize(spec))
        assert abs(m4 - 15.0) <= 1e-12
        assert abs(chaos.stein_discrepancy_upper(m4, spec.q) - math.sqrt(2.0)) <= 1e-12


class TestExactCdf:
    def test_anchor_values(self):
        assert chaos.exact_cdf_q2_rank1(-1.0 / math.sqrt(2.0)) == 0.0
        assert chaos.exact_cdf_q2_rank1(-5.0) == 0.0
        assert abs(chaos.exact_cdf_q2_rank1(0.0) - TWO_PHI_1_MINUS_1) <= 1e-15
        assert chaos.exact_cdf_q2_rank1(1e6) > 1.0 - 1e-15
        with pytest.raises(ValueError, match="z must be finite"):
            chaos.exact_cdf_q2_rank1(math.nan)

    def test_valid_cdf_shape(self):
        zs = np.linspace(-2.0, 40.0, 20001)
        vals = chaos.exact_cdf_q2_rank1(zs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        # continuous at the support edge: small increments just above it
        edge = -1.0 / math.sqrt(2.0)
        fine = chaos.exact_cdf_q2_rank1(edge + np.linspace(0.0, 1e-4, 200))
        assert fine[-1] <= 2e-2 and np.all(np.diff(fine) >= 0.0)

    def test_abs_tail(self):
        assert abs(chaos.exact_abs_tail_q2_rank1(0.0) - 1.0) <= 1e-15
        # P(|F| > x) = 1 - cdf(x) + cdf(-x) for this continuous law, on both
        # sides of x = 1/sqrt(2), where P(F < -x) vanishes
        for x in (0.3, 1.0, 2.0, 7.0, np.linspace(0.0, 8.0, 801)):
            direct = chaos.exact_abs_tail_q2_rank1(x)
            via_cdf = 1.0 - chaos.exact_cdf_q2_rank1(x) + chaos.exact_cdf_q2_rank1(-x)
            assert np.max(np.abs(direct - via_cdf)) <= 1e-14
        with pytest.raises(ValueError):
            chaos.exact_abs_tail_q2_rank1(-0.5)

    def test_ecdf_within_dkw_band(self, chaos_q2_samples_1m):
        s = np.sort(chaos_q2_samples_1m)
        n = s.size
        cdf = chaos.exact_cdf_q2_rank1(s)
        upper = np.arange(1, n + 1) / n
        sup = max(np.max(np.abs(upper - cdf)), np.max(np.abs(upper - 1.0 / n - cdf)))
        assert sup <= empirical.dkw_epsilon(n, 0.01)

    def test_empirical_tail_matches_exact(self, chaos_q2_samples_1m):
        ecdf = empirical.build_ecdf(chaos_q2_samples_1m)
        x = 2.0
        p = chaos.exact_abs_tail_q2_rank1(x)
        se = math.sqrt(p * (1.0 - p) / ecdf.n)
        tail = bounds.EmpiricalTail(ecdf)
        assert abs(bounds.tail_probability(tail, x) - p) <= 4.0 * se


class TestDistributionalProperties:
    def test_isometry(self):
        rng = np.random.default_rng(77)
        cases = [
            chaos.DiagonalChaosSpec(2, tuple(rng.uniform(-1, 1, size=3))),
            chaos.DiagonalChaosSpec(3, tuple(rng.uniform(-1, 1, size=5))),
            chaos.DiagonalChaosSpec(4, tuple(rng.uniform(-1, 1, size=2))),
        ]
        for i, spec in enumerate(cases):
            target = chaos.variance(spec)
            s = chaos.sample_batch(spec, 400_000, seed=1000 + i)
            s2 = s**2
            se = s2.std(ddof=1) / math.sqrt(s2.size)
            assert abs(s.var(ddof=1) - target) <= 4.0 * se

    def test_hermite_orthogonality(self):
        rng = substream(31, 0)
        n = rng.standard_normal(400_000)
        h = {p: chaos.hermite(p, n) for p in range(1, 5)}
        for p in range(1, 5):
            for q in range(p, 5):
                prod = h[p] * h[q]
                target = math.factorial(p) if p == q else 0.0
                se = prod.std(ddof=1) / math.sqrt(prod.size)
                assert abs(prod.mean() - target) <= 4.0 * se

    def test_exact_tail_major_constant_is_one(self):
        # rank one, q = 2: the concentration c^2 e^{-x/2} holds with c = 1, tight at x = 0
        xs = np.linspace(0.0, 60.0, 6001)
        ratio = chaos.exact_abs_tail_q2_rank1(xs) * np.exp(xs / 2.0)
        assert ratio[0] == 1.0
        assert np.all(ratio <= 1.0)
