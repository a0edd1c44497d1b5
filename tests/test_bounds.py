import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nubes import bounds, chaos, expfun
from nubes.bounds import BoundInputs, EmpiricalTail, MajorChaosTail, MarkovTail

SQRT2 = math.sqrt(2.0)
# exact two-sided tail of the rank-one q=2 law at x = 2 (mpmath, 40 digits)
P_ABS_GT_2 = 0.05039019849432359
BOUND_Z4_EXACT_TAIL = 0.36926373382554775
EXACT = chaos.exact_abs_tail_q2_rank1  # an exact tail is the law's own function
UNIT = np.ones_like  # the trivial tail bound 1


def expfun_tail(params: expfun.ExpFunParams):
    """The exponential functional's two-sided concentration tail, as the CLI builds it."""
    return functools.partial(expfun.abs_tail_bound, params=params, m=expfun.moments(params))


def bound_at(inputs: BoundInputs, z: float) -> float:
    """The bound at one z: the one-point curve."""
    return float(bounds.evaluate_curve(inputs, [z]).bounds[0])


class TestTailModels:
    def test_unit(self):
        m = UNIT
        for x in (0.0, 1.0, 50.0):
            assert bounds.tail_probability(m, x) == 1.0

    def test_markov_examples(self):
        m = MarkovTail(p=6.0, moment_p=15.0)
        assert bounds.tail_probability(m, 0.0) == 1.0  # no division at x = 0
        assert bounds.tail_probability(m, 2.0) == 15.0 / 64.0
        assert bounds.tail_probability(m, 1.0) == 1.0  # clamped from 15
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # x^6 overflows at 5e59, 15/x^6 at 1e-60, silently
            got = bounds.tail_probability(MarkovTail(p=6.0, moment_p=755.0), np.array([5e59, 1e-60]))
        assert got.tolist() == [0.0, 1.0]

    def test_major_chaos_value(self):
        m = MajorChaosTail(q=2, c_q=1.0)
        # c^2 exp(-x^{2/q}/2) with x^{2/q} = x at q = 2
        assert abs(bounds.tail_probability(m, 4.0) - math.exp(-2.0)) <= 1e-16
        assert bounds.tail_probability(m, 0.0) == 1.0

    def test_exact_tail(self):
        m = EXACT
        assert bounds.tail_probability(m, 0.0) == 1.0
        assert abs(bounds.tail_probability(m, 2.0) / P_ABS_GT_2 - 1.0) <= 1e-13

    def test_empirical_tail_model(self):
        samples = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        m = EmpiricalTail.from_samples(samples)
        assert bounds.tail_probability(m, 0.0) == 1.0
        assert bounds.tail_probability(m, 1.0) == 3.0 / 5.0  # strict inequality
        assert bounds.tail_probability(m, 10.0) == 0.0
        with pytest.raises(ValueError):
            EmpiricalTail.from_samples([])

    def test_expfun_tail_model(self):
        params = expfun.ExpFunParams(a=0.0, t=0.1)
        m = expfun.moments(params)
        model = expfun_tail(params)
        expected = expfun.upper_tail_bound(1.5, params, m) + expfun.lower_tail_bound(1.5)
        assert abs(bounds.tail_probability(model, 1.5) - min(1.0, expected)) <= 1e-15
        assert bounds.tail_probability(model, 0.0) == 1.0

    def test_all_models_monotone_and_in_unit_interval(self):
        rng = np.random.default_rng(123)
        for _ in range(8):  # random parameters per sweep
            params = expfun.ExpFunParams(a=float(rng.uniform(-2, 2)), t=float(rng.uniform(0.02, 2)))
            models = [
                UNIT,
                MarkovTail(p=float(rng.uniform(0.5, 8)), moment_p=float(rng.uniform(0, 100))),
                MajorChaosTail(q=int(rng.integers(2, 6)), c_q=float(rng.uniform(0.1, 10))),
                EXACT,
                EmpiricalTail.from_samples(rng.standard_normal(500)),
                expfun_tail(params),
            ]
            xs = np.sort(rng.uniform(0.0, 20.0, size=60))
            for model in models:
                vals = [bounds.tail_probability(model, float(x)) for x in xs]
                assert all(0.0 <= v <= 1.0 for v in vals)
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            bounds.tail_probability(UNIT, -0.5)
        with pytest.raises(ValueError):
            bounds.tail_probability(UNIT, math.nan)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            MarkovTail(p=0.0, moment_p=1.0)
        with pytest.raises(ValueError):
            MarkovTail(p=2.0, moment_p=-1.0)
        with pytest.raises(ValueError):
            MajorChaosTail(q=1, c_q=1.0)
        with pytest.raises(ValueError):
            MajorChaosTail(q=2, c_q=0.0)

    def test_major_chaos_c_q_squared_must_be_finite(self):
        # c_q**2 in __call__ is a Python float power, which raises OverflowError past sqrt(float max)
        largest = math.sqrt(np.finfo(float).max)
        assert MajorChaosTail(q=2, c_q=largest)(np.array([0.0])).tolist() == [largest * largest]
        for c_q in (float(np.nextafter(largest, math.inf)), 1e200):
            with pytest.raises(ValueError, match=re.escape(f"c_q={c_q} overflows")):
                MajorChaosTail(q=2, c_q=c_q)


class TestBoundInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(mean_abs=-0.1, stein_discrepancy=1.0, tail=UNIT)
        with pytest.raises(ValueError):
            BoundInputs(mean_abs=0.0, stein_discrepancy=math.inf, tail=UNIT)
        with pytest.raises(ValueError, match="callable"):
            BoundInputs(mean_abs=0.0, stein_discrepancy=1.0, tail="unit")
        with pytest.raises(ValueError, match="callable"):
            BoundInputs(mean_abs=0.0, stein_discrepancy=1.0, tail=0.5)

    def test_plain_function_tail(self):
        # any callable from an array of x >= 0 to tail values is a tail
        inputs = BoundInputs(mean_abs=0.5, stein_discrepancy=1.0, tail=lambda x: 4.0 * np.exp(-x))
        curve = bounds.evaluate_curve(inputs, [0.0, 4.0, -8.0])
        assert curve.tail_term[0] == 1.0  # clamped from 4
        assert np.allclose(curve.tail_term[1:], [4.0 * math.exp(-2.0), 4.0 * math.exp(-4.0)], rtol=1e-15, atol=0.0)
        assert abs(curve.bounds[1] - 1.5 * (2.0 * math.exp(-1.0) + 2.0 * math.exp(-4.0))) <= 1e-15


class TestNonuniformBound:
    def test_unit_tail_at_zero(self):
        inputs = BoundInputs(0.0, SQRT2, UNIT)
        assert abs(bound_at(inputs, 0.0) - 3.0 * SQRT2) <= 1e-15

    def test_exact_tail_at_z4(self):
        inputs = BoundInputs(0.0, SQRT2, EXACT)
        expected = SQRT2 * (math.sqrt(P_ABS_GT_2) + 2.0 * math.exp(-4.0))
        val = bound_at(inputs, 4.0)
        assert abs(val / BOUND_Z4_EXACT_TAIL - 1.0) <= 1e-13
        assert abs(val - expected) <= 1e-14

    def test_even_in_z(self):
        inputs = BoundInputs(0.3, 1.1, EXACT)
        for z in (3.7, 0.0, 1.2):
            assert bound_at(inputs, z) == bound_at(inputs, -z)

    def test_dominance(self):
        inputs = BoundInputs(0.2, 0.9, MarkovTail(p=6.0, moment_p=15.0))
        for z in np.linspace(-10, 10, 41):
            floor = (0.2 + 0.9) * 2.0 * math.exp(-z * z / 4.0)
            assert bound_at(inputs, float(z)) >= floor
        # equality exactly when the tail term is zero (empirical tail beyond max)
        emp = BoundInputs(0.2, 0.9, EmpiricalTail.from_samples([1.0, -2.0]))
        z = 10.0
        floor = (0.2 + 0.9) * 2.0 * math.exp(-z * z / 4.0)
        assert bound_at(emp, z) == floor

    def test_monotone_in_inputs(self):
        tail = MarkovTail(p=6.0, moment_p=15.0)
        z = 2.5
        base = bound_at(BoundInputs(0.1, 1.0, tail), z)
        assert bound_at(BoundInputs(0.2, 1.0, tail), z) >= base
        assert bound_at(BoundInputs(0.1, 1.5, tail), z) >= base
        heavier = MarkovTail(p=6.0, moment_p=30.0)  # pointwise larger tail
        assert bound_at(BoundInputs(0.1, 1.0, heavier), z) >= base

    def test_zero_inputs_zero_curve(self):
        inputs = BoundInputs(0.0, 0.0, UNIT)
        curve = bounds.evaluate_curve(inputs, np.linspace(-4, 4, 9))
        assert np.all(curve.bounds == 0.0)

    def test_rejects_non_finite_z(self):
        with pytest.raises(ValueError):
            bound_at(BoundInputs(0.0, 1.0, UNIT), math.inf)
        with pytest.raises(ValueError, match="finite"):
            bounds.evaluate_curve(BoundInputs(0.0, 1.0, UNIT), [0.0, math.nan])


def chaos_inputs(q: int, fourth_moment: float, c_q: float) -> BoundInputs:
    """The chaos bound: the engine with the fourth-moment d and the concentration tail."""
    return BoundInputs(0.0, chaos.stein_discrepancy_upper(fourth_moment, q), MajorChaosTail(q=q, c_q=c_q))


def displayed_chaos_form(q: int, fourth_moment: float, c_q: float, z: float) -> float:
    """The paper's closed form sqrt((q-1)/(3q)(E F^4 - 3)) (c_q e^{-|z|^{2/q}/2^{2+2/q}} + 2 e^{-z^2/4})."""
    d = math.sqrt((q - 1) / (3.0 * q) * (fourth_moment - 3.0))
    return d * (c_q * math.exp(-(abs(z) ** (2.0 / q)) / 2.0 ** (2.0 + 2.0 / q)) + 2.0 * math.exp(-z * z / 4.0))


class TestChaosBound:
    """The chaos bound is `evaluate_curve` with `MajorChaosTail`."""

    def test_q2_at_zero(self):
        assert abs(bound_at(chaos_inputs(2, 15.0, 1.0), 0.0) - 3.0 * SQRT2) <= 1e-14

    def test_vanishing_discrepancy(self):
        curve = bounds.evaluate_curve(chaos_inputs(2, 3.0, 5.0), [-3.0, 0.0, 7.7])
        assert np.all(curve.bounds == 0.0)

    def test_q3_exponent_arithmetic(self):
        # at z = 16 the tail is read at x = 8, and 8^{2/3} = 4: c^2 e^{-2} = 4 e^{-2} < 1
        curve = bounds.evaluate_curve(chaos_inputs(3, 9.0, 2.0), [16.0])
        assert abs(curve.tail_term[0] - 4.0 * math.exp(-2.0)) <= 1e-15
        d = math.sqrt(2.0 / 9.0 * 6.0)
        expected = d * (2.0 * math.exp(-1.0) + 2.0 * math.exp(-64.0))
        assert abs(curve.bounds[0] - expected) <= 1e-15

    def test_first_factor_is_discrepancy_upper(self):
        for q, m4 in ((2, 15.0), (3, 9.0), (5, 4.2)):
            d = chaos.stein_discrepancy_upper(m4, q)
            val = bound_at(chaos_inputs(q, m4, 1.0), 0.0)
            assert abs(val - d * (1.0 + 2.0)) <= 1e-12

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="fourth-moment"):
            chaos_inputs(2, 2.99, 1.0)
        with pytest.raises(ValueError):
            chaos_inputs(1, 15.0, 1.0)
        with pytest.raises(ValueError):
            chaos_inputs(2, 15.0, 0.0)

    def test_consistency_with_engine(self):
        # sqrt(c^2 e^{-(|z|/2)^{2/q}/2}) = c e^{-|z|^{2/q}/2^{2+2/q}}; with c <= 1
        # the Major tail never clamps and the engine is the displayed form
        for q in (2, 3, 4):
            zs = np.linspace(-6, 6, 25)
            curve = bounds.evaluate_curve(chaos_inputs(q, 15.0, 1.0), zs)
            for z, b in zip(zs, curve.bounds):
                a = displayed_chaos_form(q, 15.0, 1.0, float(z))
                assert abs(a - b) <= 1e-12 * max(1.0, a)
        # c > 1: equal beyond the clamping region, smaller inside it
        zs = np.array([-10.0, -1.0, 0.0, 0.5, 2.0, 6.0, 8.0])
        curve = bounds.evaluate_curve(chaos_inputs(2, 15.0, 2.0), zs)
        clamped = curve.tail_term == 1.0
        assert np.any(clamped) and not np.all(clamped)
        for z, b, clamp in zip(zs, curve.bounds, clamped):
            a = displayed_chaos_form(2, 15.0, 2.0, float(z))
            if clamp:
                assert b <= a
            else:
                assert abs(a - b) <= 1e-12 * a


def uniform_of(inputs: BoundInputs) -> float:
    """The curve's uniform_bound field, |E F| + d, at one z."""
    return float(bounds.evaluate_curve(inputs, [0.0]).uniform_bound[0])


class TestUniformBound:
    def test_identity(self):
        # zero mean: the baseline is the discrepancy itself
        assert uniform_of(BoundInputs(0.0, SQRT2, UNIT)) == SQRT2
        assert uniform_of(BoundInputs(0.0, 0.0, UNIT)) == 0.0

    def test_adds_mean_abs(self):
        # the baseline is the factor |E F| + d of every bound value
        inputs = BoundInputs(0.7, SQRT2, UNIT)
        assert uniform_of(inputs) == 0.7 + SQRT2
        assert bound_at(inputs, 0.0) == uniform_of(inputs) * 3.0

    def test_equals_chaos_first_factor(self):
        d = chaos.stein_discrepancy_upper(15.0, 2)
        inputs = BoundInputs(0.0, d, MajorChaosTail(q=2, c_q=1.0))
        assert uniform_of(inputs) == d

    def test_constant_over_the_grid(self):
        curve = bounds.evaluate_curve(BoundInputs(0.25, SQRT2, EXACT), np.linspace(-8, 8, 33))
        assert np.all(curve.uniform_bound == 0.25 + SQRT2)


class TestEvaluateCurve:
    def test_one_record_per_grid_point(self):
        curve = bounds.evaluate_curve(BoundInputs(0.0, SQRT2, EXACT), np.linspace(-8, 8, 17))
        assert isinstance(curve, np.recarray) and curve.shape == (17,)
        assert curve.dtype.names == ("z", "tail_term", "gaussian_term", "bounds", "uniform_bound")

    def test_singleton(self):
        inputs = BoundInputs(0.0, SQRT2, UNIT)
        curve = bounds.evaluate_curve(inputs, [0.0])
        for column in (curve.z, curve.tail_term, curve.gaussian_term, curve.bounds):
            assert column.shape == (1,)
        assert curve.bounds[0] == 3.0 * SQRT2

    def test_symmetric_grid(self):
        inputs = BoundInputs(0.0, SQRT2, EXACT)
        curve = bounds.evaluate_curve(inputs, [-1.0, 1.0])
        assert curve.bounds[0] == curve.bounds[1]

    def test_row_decomposition_invariant(self):
        inputs = BoundInputs(0.25, SQRT2, MarkovTail(p=6.0, moment_p=755.0))
        curve = bounds.evaluate_curve(inputs, np.linspace(-8, 8, 33))
        for z, tail, gauss, bound in zip(curve.z, curve.tail_term, curve.gaussian_term, curve.bounds):
            assert tail == bounds.tail_probability(inputs.tail, abs(z) / 2.0)
            assert abs(gauss - 2.0 * math.exp(-z * z / 4.0)) <= 1e-15
            recomposed = (0.25 + SQRT2) * (math.sqrt(tail) + gauss)
            assert abs(bound - recomposed) <= 1e-15

    def test_crossover_below_uniform(self):
        inputs = BoundInputs(0.0, SQRT2, EXACT)
        grid = np.linspace(-8, 8, 161)
        curve = bounds.evaluate_curve(inputs, grid)
        b = curve.bounds
        uniform = SQRT2
        below = np.abs(grid)[b < uniform]
        assert below.size > 0
        z_star = below.min()
        assert abs(z_star - 2.2) <= 0.2 + 1e-12  # crossover measured at |z*| = 2.2
        # once below, stays below out to the grid edge
        pos = grid >= z_star
        assert np.all(b[pos] < uniform)

    def test_grid_order_preserved(self):
        inputs = BoundInputs(0.0, 1.0, UNIT)
        grid = [3.0, -1.0, 2.0]
        curve = bounds.evaluate_curve(inputs, grid)
        assert curve.z.tolist() == grid

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            bounds.evaluate_curve(BoundInputs(0.0, 1.0, UNIT), [])

    @pytest.mark.parametrize(
        "inputs, grid, z, uniform",
        [(BoundInputs(0.0, 7e307, UNIT), [-1.0, 0.0, 1.0], "0.0", "7e+307"),  # 7e307 * 3 overflows at z = 0 only
         (BoundInputs(1e308, 1e308, EXACT), [-1e300, 0.0, 1e300], "-1e+300", "inf")],  # inf * 0 is nan
        ids=["product", "uniform-bound"],
    )
    def test_overflow_raises_naming_the_uniform_bound(self, inputs, grid, z, uniform):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"overflows float64 at z = {z}, where |E F| + d = {uniform}")):
                bounds.evaluate_curve(inputs, grid)

    def test_huge_z_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # z * z overflows past |z| ~ 1.3e154
            curve = bounds.evaluate_curve(BoundInputs(0.0, 1e-300, EXACT), [-1e300, 0.0, 1e300])
        assert curve.gaussian_term.tolist() == [0.0, 2.0, 0.0]
        assert curve.bounds[0] == curve.bounds[2] == 0.0


@st.composite
def tail_models(draw):
    """One of the six tail models with random parameters."""
    kind = draw(st.sampled_from(("unit", "markov", "major", "exact", "empirical", "expfun")))
    if kind == "unit":
        return UNIT
    if kind == "markov":
        return MarkovTail(p=draw(st.floats(0.5, 8.0)), moment_p=draw(st.floats(0.0, 1e3)))
    if kind == "major":
        return MajorChaosTail(q=draw(st.integers(2, 6)), c_q=draw(st.floats(0.1, 10.0)))
    if kind == "exact":
        return EXACT
    if kind == "empirical":
        samples = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40))
        return EmpiricalTail.from_samples(samples)
    params = expfun.ExpFunParams(a=draw(st.floats(-2.0, 2.0)), t=draw(st.floats(0.02, 2.0)))
    return expfun_tail(params)


_grids = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=60)


class TestVectorizedEqualsScalar:
    """Array evaluation is elementwise: any partition of a grid gives the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(tail_models(), _grids, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_curve_equals_pointwise_bound(self, model, grid, mean_abs, d):
        inputs = BoundInputs(mean_abs, d, model)
        curve = bounds.evaluate_curve(inputs, grid)
        assert curve.z.tolist() == grid
        for i, z in enumerate(grid):
            assert curve.bounds[i] == bound_at(inputs, z)

    @settings(max_examples=300, deadline=None)
    @given(tail_models(), _grids)
    def test_tail_array_equals_scalar(self, model, grid):
        xs = np.abs(np.asarray(grid)) / 2.0
        tails = bounds.tail_probability(model, xs)
        assert tails.shape == xs.shape
        for i, x in enumerate(xs):
            assert tails[i] == bounds.tail_probability(model, float(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40), _grids)
    def test_empirical_tail_matches_sorted_abs_count(self, samples, grid):
        # the sorted-|sample| count of P_hat(|F| > x), to the bit
        xs = np.abs(np.asarray(grid)) / 2.0
        sorted_abs = np.sort(np.abs(samples))
        expected = 1.0 - np.searchsorted(sorted_abs, xs, side="right") / sorted_abs.size
        got = bounds.tail_probability(EmpiricalTail.from_samples(samples), xs)
        assert np.array_equal(got, expected)


class TestMarkovDecayRate:
    def test_cubic_rate_bounded(self):
        # with a finite sixth moment the bound decays like (1 + |z|^3)^{-1}
        inputs = BoundInputs(0.0, SQRT2, MarkovTail(p=6.0, moment_p=755.0))
        zs = np.linspace(0.0, 50.0, 5001)
        curve = bounds.evaluate_curve(inputs, zs)
        weighted = curve.bounds * (1.0 + zs**3) / (0.0 + SQRT2)
        assert np.all(np.isfinite(weighted))
        # the weighted curve levels off at sqrt(moment * 2^6) = sqrt(755 * 64)
        assert np.max(weighted) <= math.sqrt(755.0 * 64.0) + 2.0
