import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nubes import expfun, sampling
from nubes.bounds import BoundInputs, evaluate_curve, tail_probability
from nubes.expfun import ExpFunMoments, ExpFunParams
from oracles import expfun_mean_quad, expfun_moments_mp, expfun_rate_bound_closed_form, expfun_variance_quad

# high-precision reference values (mpmath, 40 digits)
M_0_1 = 1.2974425414002563  # 2 (sqrt(e) - 1)
SIGMA2_0_1 = 0.8460901958516027
SIGMA2_M15_01 = 3.017633148262267e-4  # a = -3/2, t = 0.1: 2(1 - e^{-t}(1 + t)) - (1 - e^{-t})^2
M_OVER_T_1E3 = 1.0002500416718755
THREE_SIGMA2_OVER_T3_1E3 = 1.0008754376615068
PREF_OVER_6_1E3 = 1.0031298330421158
LOG2_RATIO_1E3_Z1 = 0.9913170750128726
DK1_0_01_X1 = 0.8645148620964923
M_0_01 = 0.10254219275204808
SIGMA2_0_01 = 3.6401380965093509e-4


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExpFunParams(a=0.0, t=0.0)
        with pytest.raises(ValueError):
            ExpFunParams(a=0.0, t=-1.0)
        with pytest.raises(ValueError):
            ExpFunParams(a=math.nan, t=1.0)
        with pytest.raises(ValueError, match="n_steps must be an integer >= 2"):
            expfun.sample_batch(ExpFunParams(a=0.0, t=0.1), 1, 10, seed=0, workers=1)
        with pytest.raises(ValueError, match="n_steps must be an integer >= 2"):
            expfun.sample_batch(ExpFunParams(a=0.0, t=0.1), 2.5, 10, seed=0, workers=1)

    def test_default_n_steps(self):
        assert expfun.default_n_steps(0.1) == 2000
        assert expfun.default_n_steps(0.05) == 1000
        assert expfun.default_n_steps(1e-9) == 2


class TestMean:
    def test_drift_minus_half_is_t(self):
        for t in (0.01, 0.7, 3.0):
            assert expfun.mean_mt(-0.5, t) == t  # integrand has mean 1 for every s

    def test_reference_value(self):
        assert abs(expfun.mean_mt(0.0, 1.0) / M_0_1 - 1.0) <= 1e-14
        assert abs(expfun.mean_mt(0.0, 1.0) - 2.0 * (math.sqrt(math.e) - 1.0)) <= 1e-15

    def test_against_quadrature(self):
        for a in (-2.0, -1.5, -1.0, -0.5, -0.5 + 1e-9, 0.0, 1.0):
            for t in (0.01, 0.1, 1.0):
                assert abs(expfun.mean_mt(a, t) / expfun_mean_quad(a, t) - 1.0) <= 1e-12

    def test_small_t_series(self):
        assert abs(expfun.mean_mt(0.0, 1e-3) / 1e-3 / M_OVER_T_1E3 - 1.0) <= 1e-13

    def test_continuous_across_half(self):
        base = expfun.mean_mt(-0.5, 0.3)
        for eps in (1e-9, -1e-9, 1e-13):
            assert abs(expfun.mean_mt(-0.5 + eps, 0.3) / base - 1.0) <= 1e-8

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            expfun.mean_mt(0.0, 0.0)
        with pytest.raises(ValueError):
            expfun.mean_mt(0.0, -2.0)


class TestVariance:
    def test_reference_values(self):
        assert abs(expfun.variance_sigma2(0.0, 1.0) / SIGMA2_0_1 - 1.0) <= 1e-12
        assert abs(expfun.variance_sigma2(-1.5, 0.1) / SIGMA2_M15_01 - 1.0) <= 1e-11
        assert abs(expfun.variance_sigma2(0.0, 0.1) / SIGMA2_0_01 - 1.0) <= 1e-12
        assert abs(expfun.mean_mt(0.0, 0.1) / M_0_01 - 1.0) <= 1e-14

    def test_against_quadrature(self):
        # the coincident nodes at a = -1.5, -1 and -0.5 included
        for a in (-2.0, -1.5, -1.0, -0.5, 0.0, 1.0):
            for t in (0.01, 0.1, 1.0):
                rel = abs(expfun.variance_sigma2(a, t) / expfun_variance_quad(a, t) - 1.0)
                assert rel <= 1e-10, (a, t, rel)

    def test_agrees_near_removable_point(self):
        for a in (-1.5 + 5e-4, -1.5 - 5e-4, -1.498):
            for t in (0.1, 1.0):
                rel = abs(expfun.variance_sigma2(a, t) / expfun_variance_quad(a, t) - 1.0)
                assert rel <= 1e-8

    def test_small_t_limit(self):
        # sigma_t^2 does not cancel, so it matches to 1e-14 (the acceptance tolerance is 1e-2)
        t = 1e-3
        assert abs(3.0 * expfun.variance_sigma2(0.0, t) / t**3 / THREE_SIGMA2_OVER_T3_1E3 - 1.0) <= 1e-14

    def test_positive(self):
        for a in (-3.0, -1.5, 0.0, 2.0):
            for t in (0.01, 0.5, 2.0):
                assert 0.0 < expfun.variance_sigma2(a, t) < math.inf

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            expfun.variance_sigma2(0.0, 0.0)


class TestMomentsAgainstMpmath:
    A_GRID = (-5.0, -3.3, -2.0, -1.5 - 1e-9, -1.5, -1.5 + 1e-9, -1.2, -1.0 - 1e-9, -1.0, -1.0 + 1e-9,
              -0.7, -0.5 - 1e-12, -0.5, -0.5 + 1e-12, -0.2, 0.0, 0.3, 1.0, 2.0)
    T_GRID = (1e-100, 1e-60, 1e-30, 1e-10, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.37, 1.0, 2.5, 5.0, 10.0, 30.0, 100.0)

    def test_grid(self):
        for a in self.A_GRID:
            for t in self.T_GRID:
                m, s2 = expfun_moments_mp(a, t)
                tol = 1e-14 if t <= 5.0 else 5e-13
                assert abs(expfun.mean_mt(a, t) / m - 1.0) <= tol, (a, t)
                assert abs(expfun.variance_sigma2(a, t) / s2 - 1.0) <= tol, (a, t)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-5.0, 2.0), st.floats(1e-100, 100.0), st.floats(1e-100, 100.0))
    def test_positive_and_non_decreasing_in_t(self, a, t1, t2):
        # the kernel is accurate to 5e-13 relative, not monotone to the last bit:
        # a later t may read up to that much lower where the moments have saturated
        t1, t2 = min(t1, t2), max(t1, t2)
        for moment in (expfun.mean_mt, expfun.variance_sigma2):
            lo, hi = moment(a, t1), moment(a, t2)
            assert 0.0 < lo < math.inf and 0.0 < hi < math.inf
            assert hi >= lo * (1.0 - 1e-12), (moment.__name__, a, t1, t2)


class TestSampling:
    def test_zero_increments_give_deterministic_integral(self):
        # flat path, a = 0: the integrand is identically 1
        w = np.zeros(64)
        assert abs(expfun.integral_from_increments(0.0, 0.7, w) - 0.7) <= 1e-15

    def test_two_step_trapezoid_by_hand(self):
        w1, w2 = 0.4, -0.9
        val = expfun.integral_from_increments(0.0, 1.0, np.array([w1, w2]))
        hand = 0.25 * (1.0 + 2.0 * math.exp(w1) + math.exp(w1 + w2))
        assert abs(val - hand) <= 1e-15

    def test_increments_left_unchanged(self):
        w = np.random.default_rng(4).standard_normal((3, 40)) * 0.05
        before = w.copy()
        expfun.integral_from_increments(0.2, 0.1, w)
        assert np.array_equal(w, before)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(0, 3),
        st.floats(-2.0, 2.0),
        st.floats(1e-3, 2.0),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_any_split_equals_one_call(self, n, paths, a, t, seed, data):
        shape = (paths,) if paths else ()  # `paths` paths, or one path without a path axis
        w = np.random.default_rng(seed).standard_normal((*shape, n)) * math.sqrt(t / n)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=8)) if n > 1 else set())
        sums = expfun.PathSums(n, shape)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            got = expfun.integral_from_increments(a, t, w[..., lo:hi], sums)
            assert (got is None) == (hi < n)
        assert np.array_equal(got, expfun.integral_from_increments(a, t, w))

    @pytest.mark.parametrize(
        "t, increments, sums",
        [
            (0.0, np.ones(3), None),
            (-1.0, np.ones(3), None),
            (math.nan, np.ones(3), None),
            (math.inf, np.ones(3), None),
            (0.1, np.empty(0), None),
            (0.1, np.empty((3, 0)), None),
            (0.1, np.float64(0.5), None),
            (0.1, np.ones((3, 5)), expfun.PathSums(4, (3,))),
            (0.1, np.ones((3, 2)), expfun.PathSums(4, (2,))),
            (0.1, np.ones(2), expfun.PathSums(4, (1,))),
        ],
        ids=["t-zero", "t-negative", "t-nan", "t-inf", "no-steps", "no-steps-3-paths", "no-step-axis",
             "more-steps-than-sums", "paths-differ", "no-path-axis"],
    )
    def test_rejects_invalid_input(self, t, increments, sums):
        with pytest.raises(ValueError):
            expfun.integral_from_increments(0.0, t, increments, sums)

    def test_consumes_exactly_n_steps(self):
        # each path consumes n_steps normals, drawn in step order
        from nubes.sampling import substream

        rng_a = substream(5, 0)
        rng_b = substream(5, 0)
        expfun._path_chunk(rng_a, 3, 0.3, 0.2, 17)
        rng_b.standard_normal((3, 17))
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_batch_matches_worker_counts(self):
        params = ExpFunParams(a=0.0, t=0.05)
        one = expfun.sample_batch(params, 50, 9000, seed=2, workers=1)
        two = expfun.sample_batch(params, 50, 9000, seed=2, workers=2)
        assert np.array_equal(one, two)

    def test_rejects_t_below_float_resolution(self, monkeypatch):
        # at t = 1e-30 sigma_t is about 3 ulps of m_t: 100 standardized samples took
        # 17 distinct values; it is rejected before any chunk is sampled
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(sampling, "_run_chunk", no_sampling)
        with pytest.raises(ValueError, match=r"t=1e-30 is below the float64 resolution .* 2\^20"):
            expfun.sample_batch(ExpFunParams(a=0.0, t=1e-30), 10, 100, seed=0)
        monkeypatch.undo()
        for t in (2e-19, 1e-7):  # the limit, and the smallest t the CI run samples
            m = expfun.moments(ExpFunParams(a=0.0, t=t))
            assert math.ulp(m.m_t) <= expfun.RESOLUTION * m.sigma_t
            assert expfun.sample_batch(ExpFunParams(a=0.0, t=t), 10, 100, seed=0).size == 100

    def test_positivity_and_support(self, expfun_t005):
        f = expfun_t005["f"]
        m = expfun_t005["moments"]
        assert np.all(f > 0.0)
        standardized = expfun.standardize(f, m)
        assert standardized.min() >= -m.m_t / m.sigma_t

    def test_mc_mean_within_3se(self, expfun_refinement):
        fine = expfun_refinement["fine"]
        m = expfun.moments(ExpFunParams(a=expfun_refinement["a"], t=expfun_refinement["t"]))
        se = fine.std(ddof=1) / math.sqrt(fine.size)
        assert abs(fine.mean() - m.m_t) <= 3.0 * se

    def test_refinement_shift_below_one_se(self, expfun_refinement):
        fine, coarse = expfun_refinement["fine"], expfun_refinement["coarse"]
        se_mean = fine.std(ddof=1) / math.sqrt(fine.size)
        assert abs(fine.mean() - coarse.mean()) < se_mean


class TestStandardize:
    def test_affine_anchors(self):
        m = ExpFunMoments(m_t=2.0, sigma2_t=9.0)
        assert expfun.standardize(2.0, m) == 0.0
        assert expfun.standardize(5.0, m) == 1.0
        assert np.array_equal(expfun.standardize(np.array([2.0, 5.0]), m), np.array([0.0, 1.0]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            expfun.standardize(1.0, ExpFunMoments(m_t=1.0, sigma2_t=0.0))

    def test_mc_variance_near_one(self, expfun_t01):
        s = expfun.standardize(expfun_t01["f"], expfun_t01["moments"])
        s2 = s**2
        se = s2.std(ddof=1) / math.sqrt(s2.size)
        assert abs(s.var(ddof=1) - 1.0) <= 4.0 * se


class TestConcentrationBounds:
    def test_upper_tail_anchors(self):
        params = ExpFunParams(a=0.0, t=0.1)
        m = expfun.moments(params)
        assert expfun.upper_tail_bound(0.0, params, m) == 1.0
        assert abs(expfun.upper_tail_bound(1.0, params, m) / DK1_0_01_X1 - 1.0) <= 1e-13
        xs = np.arange(0.0, 5.001, 0.5)
        vals = expfun.upper_tail_bound(xs, params, m)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all((vals > 0.0) & (vals <= 1.0))
        with pytest.raises(ValueError):
            expfun.upper_tail_bound(-0.1, params, m)

    def test_lower_tail_anchors(self):
        assert expfun.lower_tail_bound(0.0) == 1.0
        assert abs(expfun.lower_tail_bound(2.0) - math.exp(-2.0)) <= 1e-16
        with pytest.raises(ValueError):
            expfun.lower_tail_bound(-1.0)

    def test_two_sided(self):
        params = ExpFunParams(a=0.0, t=0.1)
        m = expfun.moments(params)
        assert expfun.abs_tail_bound(0.0, params, m) == 2.0
        tail = functools.partial(expfun.abs_tail_bound, params=params, m=m)
        assert tail_probability(tail, 0.0) == 1.0  # clamped from 2
        expected = expfun.upper_tail_bound(2.0, params, m) + math.exp(-2.0)
        assert abs(tail_probability(tail, 2.0) - expected) <= 1e-15
        xs = np.arange(0.0, 5.001, 0.5)
        assert np.array_equal(expfun.abs_tail_bound(xs, params, m),
                              expfun.upper_tail_bound(xs, params, m) + expfun.lower_tail_bound(xs))
        with pytest.raises(ValueError):
            expfun.abs_tail_bound(-0.1, params, m)

    def test_empirical_tails_respect_bounds(self, expfun_t01, expfun_t005):
        for data in (expfun_t01, expfun_t005):
            params, m = data["params"], data["moments"]
            s = expfun.standardize(data["f"], m)
            n = s.size
            for x in (0.5, 1.0, 1.5, 2.0):
                up_emp = np.count_nonzero(s >= x) / n
                lo_emp = np.count_nonzero(s <= -x) / n
                up_b = expfun.upper_tail_bound(x, params, m)
                lo_b = expfun.lower_tail_bound(x)
                up_se = math.sqrt(max(up_emp * (1 - up_emp), 1e-12) / n)
                lo_se = math.sqrt(max(lo_emp * (1 - lo_emp), 1e-12) / n)
                assert up_emp <= up_b + 3.0 * up_se
                assert lo_emp <= lo_b + 3.0 * lo_se


class TestRateBound:
    def test_prefactor_is_sqrt_of_discrepancy_bound(self):
        for a, t in ((0.0, 1.0), (-1.0, 0.3), (0.5, 0.05)):
            params = ExpFunParams(a=a, t=t)
            m = expfun.moments(params)
            pref = 2.0 * math.exp(2 * a * t + 4 * t) * t**3 * math.sqrt(t) / m.sigma2_t
            assert abs(math.sqrt(expfun.discrepancy_sq_upper(params, m)) / pref - 1.0) <= 1e-13

    def test_discrepancy_bound_reference(self):
        params = ExpFunParams(a=0.0, t=1.0)
        m = expfun.moments(params)
        expected = 4.0 * math.exp(8.0) / SIGMA2_0_1**2
        assert abs(expfun.discrepancy_sq_upper(params, m) / expected - 1.0) <= 1e-11

    def test_discrepancy_bound_monotone_in_drift(self):
        t = 0.4
        vals = []
        for a in (-1.0, 0.0, 1.0, 2.0):
            params = ExpFunParams(a=a, t=t)
            vals.append(expfun.discrepancy_sq_upper(params, expfun.moments(params)))
        # e^{4at} grows with a and dominates the sigma_t variation at fixed t
        assert all(b > prev for prev, b in zip(vals, vals[1:]))

    def test_vanishes_at_small_t(self):
        t = 1e-3
        params = ExpFunParams(a=0.0, t=t)
        m = expfun.moments(params)
        ratio = math.sqrt(expfun.discrepancy_sq_upper(params, m)) / (6.0 * math.sqrt(t))
        assert abs(ratio / PREF_OVER_6_1E3 - 1.0) <= 1e-14

    def test_bound_at_zero_is_four_prefactors(self):
        params = ExpFunParams(a=0.0, t=0.05)
        m = expfun.moments(params)
        pref = math.sqrt(expfun.discrepancy_sq_upper(params, m))
        assert abs(expfun.clt_rate_bound(params, m, 0.0) - 4.0 * pref) <= 1e-13

    def test_overflow_names_a_and_t(self):
        # e^{(a+1/2)t} for the mean, e^{(2a+2)t} for the variance, e^{4at+8t} for the rate prefactor
        cases = [
            (lambda: expfun.mean_mt(0.0, 2000.0), "a=0.0, t=2000.0"),
            (lambda: expfun.moments(ExpFunParams(a=0.0, t=1000.0)), "a=0.0, t=1000.0"),
        ]
        params = ExpFunParams(a=0.0, t=100.0)
        m = expfun.moments(params)  # finite: e^{2t} = e^{200}
        cases += [
            (lambda: expfun.discrepancy_sq_upper(params, m), "a=0.0, t=100.0"),
            (lambda: expfun.clt_rate_bound(params, m, 1.0), "a=0.0, t=100.0"),
        ]
        for call, names in cases:
            with pytest.raises(ValueError, match="overflow") as info:
                call()
            assert names in str(info.value)
        # in range at a = -3/2 however large t: m_t -> 1 and sigma_t^2 -> 2 * 1/2 = 1
        assert abs(expfun.mean_mt(-1.5, 1e100) - 1.0) <= 1e-14
        assert abs(expfun.variance_sigma2(-1.5, 1e100) - 1.0) <= 1e-14

    def test_underflow_names_a_and_t(self):
        # sigma_t^2 ~ t^3/3 is subnormal at t = 1e-105 and 0 at 1e-120
        cases = [
            (lambda: expfun.variance_sigma2(0.0, 1e-105), "a=0.0, t=1e-105"),
            (lambda: expfun.variance_sigma2(-0.5, 1e-120), "a=-0.5, t=1e-120"),
        ]
        for call, names in cases:
            with pytest.raises(ValueError, match="underflow") as info:
                call()
            assert names in str(info.value)

    @pytest.mark.parametrize("t", [1e-46, 1e-50, 1e-60, 1e-100])
    def test_discrepancy_bound_at_tiny_t_matches_mpmath(self, t):
        # t^7 and sigma_t^4 ~ t^6/9 underflow while sigma_t^2 is still a normal float
        for a in (-1.5, 0.0, 2.0):
            params = ExpFunParams(a=a, t=t)
            m = expfun.moments(params)
            with mpmath.workdps(50):
                t_mp = mpmath.mpf(t)
                want = 4 * t_mp**7 * mpmath.exp(4 * a * t_mp + 8 * t_mp) / mpmath.mpf(m.sigma2_t) ** 2
                assert abs(expfun.discrepancy_sq_upper(params, m) / want - 1) <= 2e-15, a

    def test_even_in_z(self):
        params = ExpFunParams(a=0.0, t=0.05)
        m = expfun.moments(params)
        zs = np.array([0.3, 1.0, 2.4, 4.9])
        assert np.array_equal(expfun.clt_rate_bound(params, m, zs), expfun.clt_rate_bound(params, m, -zs))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.5, 1.0), st.floats(1e-6, 1.0), st.lists(st.floats(-50.0, 50.0), max_size=20))
    def test_engine_bound_plus_the_loosening(self, a, t, zs):
        # the closed form within 4 ulps, and the engine's bound with the two-sided
        # concentration tail U + L never above it: sqrt(U + L) <= sqrt(U) + sqrt(L)
        params = ExpFunParams(a=a, t=t)
        m = expfun.moments(params)
        d = math.sqrt(expfun.discrepancy_sq_upper(params, m))
        z = np.array([*zs, 0.0, 1e300, -1e300])
        got = expfun.clt_rate_bound(params, m, z)
        want = expfun_rate_bound_closed_form(t, m.m_t, m.sigma_t, d, z)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.maximum(got, want))), (a, t)
        tail = functools.partial(expfun.abs_tail_bound, params=params, m=m)
        engine = evaluate_curve(BoundInputs(0.0, d, tail), z).bounds
        assert np.all(engine <= got + np.spacing(got)), (a, t)
        assert expfun.clt_rate_bound(params, m, z[0]) == got[0]

    def test_rejects_non_finite_or_empty_z(self):
        params = ExpFunParams(a=0.0, t=0.05)
        m = expfun.moments(params)
        for z in (math.inf, -math.inf, math.nan, [0.0, math.nan], []):
            with pytest.raises(ValueError, match="nonempty and finite"):
                expfun.clt_rate_bound(params, m, z)

    def test_small_t_exponent_limit(self):
        t = 1e-3
        params = ExpFunParams(a=0.0, t=t)
        m = expfun.moments(params)
        val = math.log1p(1.0 * m.sigma_t / (2.0 * m.m_t)) ** 2 / (4.0 * t)
        assert abs(val / (1.0 / 48.0) / LOG2_RATIO_1E3_Z1 - 1.0) <= 1e-14

    def test_bound_dominates_measured_discrepancy(self, expfun_t005):
        params, m = expfun_t005["params"], expfun_t005["moments"]
        s = np.sort(expfun.standardize(expfun_t005["f"], m))
        from nubes.gaussian import normal_cdf

        z = 3.0
        p_hat = np.searchsorted(s, z, side="right") / s.size
        disc = abs(p_hat - normal_cdf(z))
        assert disc <= expfun.clt_rate_bound(params, m, z)
