import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nubes import _normal_coefficients, gaussian
from nubes.gaussian import (
    SQRT_2PI,
    check_lemma,
    normal_cdf,
    normal_tail,
    scaled_tail,
    stein_derivative,
    stein_ode_residual_fd,
    stein_value,
)
from oracles import (
    erfcx_mp,
    exp_square_mp,
    mills_asymptotic,
    normal_cdf_mp,
    normal_tail_asymptotic,
    scaled_tail_mp,
)

# high-precision reference values (mpmath, 40 digits)
PHI_1 = 0.8413447460685429  # quadrature of the density on [0, 1] plus 1/2
TAIL_2 = 0.02275013194817921
TAIL_30 = 4.9067139271481870595e-198
ST_0 = 1.2533141373155003  # sqrt(2 pi)/2
ST_100 = 0.009999000299850105
ST_MINUS_2 = 18.100247711126153  # sqrt(2 pi) e^2 Phi(2)
F_00 = 0.6266570686577501  # sqrt(2 pi)/4
F_SEAM_13 = 0.5101877171588748  # sqrt(2 pi) e^{z^2/2} Phi(z)(1 - Phi(z)) at z = 1.3
F_1_M40 = 0.003963906993584761

_LEMMA_FIELDS = ("z", "global_bound_ok", "center_value_ok", "center_derivative_ok", "worst_margin")


class TestNormalCdf:
    def test_examples(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(40.0) == 1.0  # limit case, no overflow
        assert abs(normal_cdf(1.0) - PHI_1) <= 1e-15

    def test_symmetry_and_monotone(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        assert np.max(np.abs(normal_cdf(xs) + normal_cdf(-xs) - 1.0)) <= 1e-15
        assert np.all(np.diff(normal_cdf(xs)) >= 0.0)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                normal_cdf(bad)


EPS = 2.0**-52  # one ulp of a double in [1, 2): the unit of relative error below
TINY = np.finfo(float).tiny  # errors are checked where the reference is a finite normal float
SPECIAL = (0.0, -0.0, 1 / math.sqrt(2.0), -1 / math.sqrt(2.0), 1.0, -1.0, 8.0, -8.0, 37.5, -37.5,
           1e8, -1e8, 1e200, -1e200)


def _argument_bound(x):
    """(4 + x^2) ulps; |x| is capped where x^2 would overflow, far past any effect."""
    return (4.0 + np.minimum(np.abs(x), 1e100) ** 2) * EPS


def _relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    normal = (np.abs(want) >= TINY) & np.isfinite(want)
    return np.abs(got[normal] / want[normal] - 1.0), normal


class TestNormalKernels:
    """The numpy kernels behind normal_cdf, normal_tail and scaled_tail.

    Phi rounds its argument as cephes ndtr does, u = |x| sqrt(1/2) in double
    precision.  That rounding alone moves Phi(x) by up to about x^2 ulps deep
    in the tails (d log Phi/du ~ 2u), so the bound for Phi and for scaled_tail
    at x < 0 is (4 + x^2) ulps; erfcx itself is held to 4 ulps.
    """

    def test_normal_cdf_against_mpmath(self):
        rng = np.random.default_rng(20)
        xs = np.concatenate([np.linspace(-38.5, 9.0, 4751), rng.uniform(-1.5, 1.5, 1000),
                             np.nextafter([1.0, -1.0], 0.0), SPECIAL])
        want = np.array([normal_cdf_mp(float(x)) for x in xs])
        err, normal = _relative_error(normal_cdf(xs), want)
        assert np.all(err <= _argument_bound(xs[normal]))
        assert np.max(err[np.abs(xs[normal]) <= 1.0]) <= 4.0 * EPS
        err, normal = _relative_error(normal_tail(xs), np.array([normal_cdf_mp(-float(x)) for x in xs]))
        assert np.all(err <= _argument_bound(xs[normal]))

    def test_erfcx_against_mpmath(self):
        k = _normal_coefficients.ERFCX_K
        edges = np.array([k / 3.0, k, 3.0 * k])  # the piece boundaries t = -1/2, 0, 1/2
        rng = np.random.default_rng(21)
        us = np.concatenate([np.linspace(0.0, 40.0, 4001), np.exp(rng.uniform(-30.0, 700.0, 1000)),
                             edges, np.nextafter(edges, 0.0), np.abs(SPECIAL), [1e300, 1e307, 1.7e308]])
        want = np.array([erfcx_mp(float(u)) for u in us])
        err, _ = _relative_error(gaussian._erfcx(us), want)
        assert np.max(err) <= 4.0 * EPS

    def test_exp_square_against_mpmath(self):
        # the split u = h + (u - h) keeps e^{-+u^2} to a few ulps; exp(-u*u)
        # itself is off by up to u^2 ulps (256 at u = 26)
        us = np.linspace(0.0, 26.6, 5001)
        for sign in (-1.0, 1.0):
            want = np.array([exp_square_mp(float(u), sign) for u in us])
            err, _ = _relative_error(gaussian._exp_square(us, sign), want)
            assert np.max(err) <= 4.0 * EPS

    def test_scaled_tail_against_mpmath(self):
        xs = np.concatenate([np.linspace(-37.6, 40.0, 3001), np.positive(SPECIAL)])
        want = np.array([scaled_tail_mp(float(x)) if x > -38.0 else math.inf for x in xs])
        got = scaled_tail(xs)
        err, normal = _relative_error(got, want)
        assert np.all(err <= _argument_bound(np.minimum(xs[normal], 0.0)))
        assert np.all(got[np.isinf(want)] == math.inf)  # the value exceeds the double range

    def test_agrees_with_scipy_ndtr(self):
        # half the rtol at which the benchmark's oracle compares normal_cdf with ndtr
        from scipy import special

        for xs in (np.linspace(-8.0, 8.0, 161), np.linspace(-8.0, 8.0, 160_001)):
            want = special.ndtr(xs)
            assert np.max(np.abs(normal_cdf(xs) / want - 1.0)) <= 5e-15

    def test_elementwise_across_blocks(self):
        # each value depends on its own argument only, not on its neighbours
        # or on where the blocks of the evaluation fall
        xs = np.random.default_rng(22).uniform(-40.0, 40.0, 3 * gaussian._BLOCK + 17)
        for kernel in (normal_cdf, normal_tail, scaled_tail):
            whole = kernel(xs)
            assert np.array_equal(whole[::-1], kernel(xs[::-1]))
            assert np.array_equal(whole[5::97], kernel(xs[5::97]))
            assert whole[123] == kernel(float(xs[123]))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-40.0, 40.0), st.floats(1e-6, 10.0))
    def test_monotone(self, x, gap):
        assert normal_cdf(x) <= normal_cdf(x + gap)
        assert normal_tail(x) >= normal_tail(x + gap)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e300, 1e300))
    def test_symmetric(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15
        assert normal_tail(x) == normal_cdf(-x)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-37.0, 1e300))
    def test_scaled_tail_positive_and_finite(self, x):
        value = scaled_tail(x)
        assert math.isfinite(value) and value > 0.0

    def test_coefficients_match_generator(self):
        path = Path(__file__).resolve().parent.parent / "tools" / "normal_coefficients.py"
        spec = importlib.util.spec_from_file_location("normal_coefficients", path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        tables = generator.tables()
        for name, value in tables.items():
            assert getattr(_normal_coefficients, name) == value
        assert Path(_normal_coefficients.__file__).read_text(encoding="utf-8") == generator.render(tables)


class TestNormalTail:
    def test_examples(self):
        assert normal_tail(0.0) == 0.5
        assert abs(normal_tail(2.0) - TAIL_2) <= 1e-16
        t30 = normal_tail(30.0)
        assert 0.0 < t30 < 1e-100 and math.isfinite(t30)
        assert abs(t30 / TAIL_30 - 1.0) <= 1e-12

    def test_proof_inequality(self):
        # 1 - Phi(z) <= e^{-z^2/2}/2 for z > 0
        zs = np.linspace(1e-6, 37.0, 2000)
        assert np.all(normal_tail(zs) <= 0.5 * np.exp(-zs * zs / 2.0))

    def test_complement_and_relative_accuracy(self):
        xs = np.linspace(-8.0, 8.0, 801)
        assert np.max(np.abs(normal_tail(xs) + normal_cdf(xs) - 1.0)) <= 1e-15
        for x in np.linspace(8.0, 35.0, 55):
            oracle = normal_tail_asymptotic(float(x))
            assert abs(normal_tail(float(x)) / oracle - 1.0) <= 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            normal_tail(math.inf)


class TestScaledTail:
    def test_examples(self):
        assert abs(scaled_tail(0.0) - ST_0) <= 1e-15
        assert abs(scaled_tail(100.0) / ST_100 - 1.0) <= 1e-13
        assert abs(scaled_tail(-2.0) / ST_MINUS_2 - 1.0) <= 1e-13

    def test_mills_asymptotics(self):
        for x in (10.0, 50.0, 1e3, 1e6):
            assert abs(scaled_tail(x) * x - x * mills_asymptotic(x)) <= 1e-12
        assert abs(scaled_tail(1e8) * 1e8 - 1.0) <= 1e-10

    def test_finite_where_representable(self):
        xs = np.linspace(-37.0, 500.0, 4001)
        vals = scaled_tail(xs)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)  # strictly decreasing

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            scaled_tail(math.nan)


_wide_floats = st.floats(-40.0, 40.0) | st.floats(-1e300, 1e300)


class TestSteinSolution:
    def test_center_point(self):
        assert abs(stein_value(0.0, 0.0) - F_00) <= 1e-15
        assert abs(stein_derivative(0.0, 0.0) - 0.5) <= 1e-15

    def test_seam_continuity(self):
        z = 1.3
        below = stein_value(z, np.nextafter(z, -np.inf))
        above = stein_value(z, np.nextafter(z, np.inf))
        at = stein_value(z, z)
        assert abs(at - F_SEAM_13) <= 1e-14
        assert abs(below - above) <= 1e-12
        for z in (-4.0, -0.7, 0.0, 0.2, 2.5, 7.0):
            lo = stein_value(z, np.nextafter(z, -np.inf))
            hi = stein_value(z, np.nextafter(z, np.inf))
            assert abs(lo - hi) <= 1e-12 * max(1.0, abs(lo))

    def test_derivative_jump_is_one(self):
        # indicator discontinuity: lower-branch f' minus the upper-branch limit
        for z in (-3.0, 0.0, 1.3, 5.0):
            f = stein_value(z, z)
            lower = stein_derivative(z, z)
            upper_limit = z * f - normal_cdf(z)
            assert abs((lower - upper_limit) - 1.0) <= 1e-12

    def test_branch_classification(self):
        # the seam x == z belongs to the lower branch x f + 1 - Phi(z)
        z = 1.0
        assert stein_derivative(z, z) == z * stein_value(z, z) + 1.0 - normal_cdf(z)
        x = z + 1e-12  # just above: the upper branch x f - Phi(z)
        assert stein_derivative(z, x) == x * stein_value(z, x) - normal_cdf(z)

    def test_far_left_mills_limit(self):
        value = stein_value(1.0, -40.0)
        assert abs(value / F_1_M40 - 1.0) <= 1e-12
        assert abs(value / (normal_tail(1.0) / 40.0) - 1.0) <= 0.002

    def test_no_overflow_extremes(self):
        for z, x in [(200.0, 150.0), (-200.0, -150.0), (50.0, 50.0), (0.0, -400.0),
                     (0.0, 400.0), (300.0, -300.0), (-300.0, 300.0), (37.9, 37.8),
                     # both squares of the seam exponent overflow
                     (1e200, 1e200), (1e200, 5e199), (-1e200, -5e199), (1e308, 1e308)]:
            v = stein_value(z, x)
            assert math.isfinite(v) and v >= 0.0
        # past the overflow of both squares: f_z(z) ~ 1/z at the seam, 0 strictly inside it
        assert math.isclose(stein_value(1e200, 1e200), 1e-200, rel_tol=1e-12) and stein_value(1e200, 5e199) == 0.0

    @settings(max_examples=500, deadline=None)
    @given(_wide_floats, _wide_floats)
    def test_reflection_symmetry(self, z, x):
        # f_z(x) = f_{-z}(-x) to the bit: a point above the seam is evaluated as its
        # mirror image below it; on the seam and at x = 0 the two take different branches
        assume(x != z and x != 0.0)
        assert repr(stein_value(z, x)) == repr(stein_value(-z, -x))

    def test_positive_and_bounded(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-8, 8, size=50)
        xs = np.linspace(-15.0, 15.0, 1501)
        for z in zs:
            f = stein_value(float(z), xs)
            fp = stein_derivative(float(z), xs)
            assert np.all(f > 0.0)
            assert np.all(f <= SQRT_2PI / 4.0 + 1e-12)
            assert np.all(np.abs(fp) <= 1.0 + 1e-12)

    def test_rejects_non_finite(self):
        for kernel in (stein_value, stein_derivative, stein_ode_residual_fd):
            with pytest.raises(ValueError, match="z must be finite"):
                kernel(math.nan, 0.0)
            with pytest.raises(ValueError, match="z must be finite"):
                kernel([0.0, -math.inf], 0.0)
            with pytest.raises(ValueError, match="x must be finite"):
                kernel(0.0, math.inf)
        with pytest.raises(ValueError):
            stein_value(0.0, [0.0, math.inf])

    def test_broadcast_shapes(self):
        zs, xs = np.array([-1.0, 0.0, 2.0]), np.linspace(-3.0, 3.0, 7)
        for kernel in (stein_value, stein_derivative, stein_ode_residual_fd):
            assert isinstance(kernel(1.0, 0.5), float)
            assert kernel(zs[:, None], xs).shape == (3, 7)
            assert kernel(zs, 0.5).shape == (3,)
            assert kernel(np.array([1.0]), 0.5).shape == (1,)  # an array z gives an array
        with pytest.raises(ValueError):
            stein_value(zs, xs[:4])  # shapes that do not broadcast


class TestOdeResidual:
    def test_residual_small_on_mixed_grid(self):
        xs = np.arange(-12.0, 12.0001, 0.01)
        for z in (-3.0, -1.0, 0.0, 0.5, 2.0, 6.0):
            res = stein_ode_residual_fd(z, xs)
            assert np.max(np.abs(res)) <= 1e-9

    def test_residual_scalar_at_seam(self):
        assert abs(stein_ode_residual_fd(1.25, 1.25)) <= 1e-9

    def test_residual_at_far_seams(self):
        # the step shrinks like 1/|z|, the scale on which f_z varies at the seam
        z = np.array([1e3, 1e4, 1e5, -1e3, -1e4, -1e5])
        assert np.max(np.abs(stein_ode_residual_fd(z, z))) <= 1e-9

    def test_stencil_inside_float_range(self):
        top = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = stein_ode_residual_fd(np.array([0.0, 0.0, -top]), np.array([top, -top, -top]))
        assert np.all(np.abs(res) <= 1e-15)


class TestCheckLemma:
    def test_z2_reference_grid(self):
        rep = check_lemma(2.0, np.linspace(-10.0, 10.0, 4001))
        assert rep.global_bound_ok and rep.center_value_ok and rep.center_derivative_ok
        assert rep.worst_margin > 0.0

    def test_degenerate_center(self):
        rep = check_lemma(0.001, [0.0])
        assert rep.global_bound_ok and rep.center_value_ok and rep.center_derivative_ok

    def test_strict_derivative_margin_z6(self):
        z = 6.0
        rep = check_lemma(z, np.arange(-12.0, 12.0001, 0.005))
        assert rep.center_derivative_ok
        center = np.arange(-z / 2, z / 2 + 1e-9, 0.0005)
        margin = 2.0 * math.exp(-z * z / 4.0) - np.abs(stein_derivative(z, center))
        assert np.min(margin) > 0.0  # strict inequality

    def test_center_value_bound_full_range(self):
        # the sharpened value bound on the whole of |x| <= z/2, including x < 0
        for z in (0.3, 1.0, 2.7, 5.0, 9.0):
            xs = np.linspace(-z / 2, z / 2, 2001)
            f = stein_value(z, xs)
            assert np.all(f <= (SQRT_2PI / 2.0) * math.exp(-z * z / 4.0) + 1e-12)

    def test_fields_have_the_shape_of_z(self):
        zs = np.array([[0.5, 1.0, 2.0], [4.0, 6.0, 10.0]])
        rep = check_lemma(zs, np.linspace(-12.0, 12.0, 481))
        assert isinstance(rep, np.recarray) and rep.dtype.names == _LEMMA_FIELDS
        for field in _LEMMA_FIELDS:
            assert np.shape(getattr(rep, field)) == zs.shape
        assert np.all(rep.global_bound_ok & rep.center_value_ok & rep.center_derivative_ok)
        scalar = check_lemma(2.0, [0.0, 1.0])
        assert isinstance(scalar, np.record) and scalar.dtype.names == _LEMMA_FIELDS
        assert isinstance(scalar.worst_margin, np.float64) and isinstance(scalar.center_value_ok, np.bool_)
        assert check_lemma(np.empty(0), [0.0]).worst_margin.shape == (0,)

    def test_rejections(self):
        with pytest.raises(ValueError):
            check_lemma(np.array([1.0, 0.0]), [0.0])
        with pytest.raises(ValueError):
            check_lemma(0.0, [0.0])
        with pytest.raises(ValueError):
            check_lemma(-1.0, [0.0])
        with pytest.raises(ValueError):
            check_lemma(1.0, [])
        with pytest.raises(ValueError):
            check_lemma(1.0, [math.nan])


# z from the far tails and the dense middle; the tests add z = 0 and the seams x == z
_zs = st.lists(st.one_of(st.floats(-300.0, 300.0), st.floats(-8.0, 8.0)), min_size=1, max_size=8)
_xs = st.lists(st.floats(-300.0, 300.0), max_size=12)


class TestBroadcastEqualsScalar:
    @settings(max_examples=200, deadline=None)
    @given(_zs, _xs, st.floats(-3e-4, 3e-4))
    def test_kernels(self, zs, xs, offset):
        z = np.array([0.0, *zs])
        # seams, points within the one-sided stencil band around them, and
        # the mirror points, so that every row crosses x = 0 and x = z
        x = np.array([*xs, *z, *(z + offset), *(-z)])
        for kernel in (stein_value, stein_derivative, stein_ode_residual_fd):
            grid = kernel(z[:, None], x)
            for i in range(z.size):
                assert np.array_equal(grid[i], kernel(float(z[i]), x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0, 1.5])), min_size=1, max_size=40))
    def test_z_factors_once_per_run(self, zs):
        # stein_value and stein_derivative evaluate their z-only factors once per run of equal z
        z = np.repeat(zs, np.arange(len(zs)) % 3 + 1)
        for kernel in (normal_cdf, normal_tail, scaled_tail):
            assert np.array_equal(gaussian._per_run(kernel, z), kernel(z))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-3, 300.0), min_size=1, max_size=6), _xs)
    def test_check_lemma(self, zs, xs):
        z = np.array(zs)
        grid = np.array([0.0, *xs, *z, *(z / 2.0)])  # the center interval's edges
        rep = check_lemma(z, grid)
        for i in range(z.size):
            one = check_lemma(float(z[i]), grid)
            for field in _LEMMA_FIELDS:
                assert getattr(rep, field)[i] == getattr(one, field)


def test_helper_inequality_z_exp():
    # z e^{-z^2/8} <= 2 e^{-1/2} for all z > 0 (equality at z = 2)
    zs = np.linspace(1e-9, 50.0, 100001)
    assert np.all(zs * np.exp(-zs * zs / 8.0) <= 2.0 * math.exp(-0.5) + 1e-12)
    assert abs(2.0 * math.exp(-2.0 * 2.0 / 8.0) - 2.0 * math.exp(-0.5)) <= 1e-15
