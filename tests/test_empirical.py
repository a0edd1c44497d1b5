import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nubes import bounds, chaos, empirical
from nubes.bounds import BoundInputs, EmpiricalTail
from nubes.empirical import EmpiricalCdf, ThresholdCounts, build_ecdf, certify, count_chunk, discrepancy_curve, dkw_epsilon
from nubes.gaussian import normal_cdf

DKW_20000_001 = 0.011509037065006824  # sqrt(ln(200)/40000)


class TestBuildEcdf:
    def test_examples(self):
        e = build_ecdf([1.0, 2.0, 3.0])
        assert e.evaluate(2.0) == 2.0 / 3.0
        assert e.evaluate(1.5) == 1.0 / 3.0

    def test_ties_and_strictness(self):
        e = build_ecdf([5.0, 5.0, 5.0])
        assert e.evaluate(5.0) == 1.0
        assert e.evaluate(4.999) == 0.0

    def test_exact_counts(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(997)
        e = build_ecdf(samples)
        for z in (-1.0, 0.0, 0.3):
            exact = int(np.count_nonzero(samples <= z))
            assert e.evaluate(z) == exact / e.n  # exact count, single division

    def test_sorted_and_vectorized(self):
        e = build_ecdf([3.0, 1.0, 2.0])
        assert np.all(np.diff(e.sorted_samples) >= 0.0)
        vals = e.evaluate(np.array([0.0, 1.0, 2.5, 9.0]))
        assert np.array_equal(vals, np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]))

    def test_count_is_the_number_of_samples(self):
        e = EmpiricalCdf(np.array([1.0, 2.0]))
        assert e.n == 2
        assert e.evaluate(2.0) == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_ecdf([])
        with pytest.raises(ValueError):
            build_ecdf([1.0, math.nan])
        with pytest.raises(ValueError):
            build_ecdf([math.inf])


class TestDiscrepancyCurve:
    def test_degenerate_grid(self):
        e = build_ecdf([0.5, -0.5])
        rows = discrepancy_curve(e, [0.0])
        assert len(rows) == 1
        assert rows[0].empirical_cdf == 0.5
        assert abs(rows[0].discrepancy - 0.0) <= 1e-15

    def test_discrepancy_is_abs_difference(self):
        rng = np.random.default_rng(2)
        e = build_ecdf(rng.standard_normal(5000))
        for row in discrepancy_curve(e, np.linspace(-3, 3, 13)):
            assert row.discrepancy == abs(row.empirical_cdf - row.normal_cdf)

    def test_normal_samples_within_dkw(self):
        rng = np.random.default_rng(3)
        n = 10_000
        e = build_ecdf(rng.standard_normal(n))
        rows = discrepancy_curve(e, np.linspace(-4, 4, 161))
        sup = max(r.discrepancy for r in rows)
        assert sup <= dkw_epsilon(n, 0.01)

    def test_q2_samples_track_exact_cdf(self):
        spec = chaos.normalize(chaos.DiagonalChaosSpec(2, (1.0,)))
        s = chaos.sample_batch(spec, 100_000, seed=8)
        e = build_ecdf(s)
        zs = np.linspace(-2.0, 6.0, 101)
        eps = dkw_epsilon(e.n, 0.01)
        assert np.max(np.abs(e.evaluate(zs) - chaos.exact_cdf_q2_rank1(zs))) <= eps

    def test_se_floor_at_degenerate_p(self):
        # at p_hat in {0, 1} the SE is that of one sample on the other side, p = 1/n
        e = build_ecdf(np.linspace(0.0, 1.0, 100))
        rows = discrepancy_curve(e, [-10.0, 10.0])
        one = math.sqrt(0.01 * 0.99 / 100)
        assert rows[0].empirical_cdf == 0.0 and rows[0].standard_error == one
        assert rows[1].empirical_cdf == 1.0 and rows[1].standard_error == one
        # two samples: p = 1/2; one sample: p = 1/2 as well, not the zero SE of p = 1
        for samples, want in (([0.0, 1.0], math.sqrt(0.25 / 2)), ([0.0], 0.5)):
            rows = discrepancy_curve(build_ecdf(samples), [-10.0, 10.0])
            assert rows.standard_error.tolist() == [want, want]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(400)
        grid = np.linspace(-2, 2, 17)
        a = discrepancy_curve(build_ecdf(samples), grid)
        b = discrepancy_curve(build_ecdf(rng.permutation(samples)), grid)
        assert np.array_equal(a, b)

    def test_rejects_bad_grid(self):
        e = build_ecdf([0.0])
        with pytest.raises(ValueError):
            discrepancy_curve(e, [])
        with pytest.raises(ValueError):
            discrepancy_curve(e, [math.nan])


class TestDkwEpsilon:
    def test_reference_value(self):
        assert abs(dkw_epsilon(20_000, 0.01) - DKW_20000_001) <= 1e-15

    def test_four_n_halves(self):
        assert abs(dkw_epsilon(4 * 1234, 0.05) - dkw_epsilon(1234, 0.05) / 2.0) <= 1e-15

    def test_decreasing_in_n(self):
        vals = [dkw_epsilon(n, 0.01) for n in (10, 100, 1000, 10_000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            dkw_epsilon(100, 1.0)
        with pytest.raises(ValueError):
            dkw_epsilon(100, 0.0)
        with pytest.raises(ValueError):
            dkw_epsilon(0, 0.5)


def empirical_tail(ecdf, x):
    return bounds.tail_probability(EmpiricalTail(ecdf), x)


class TestEmpiricalTail:
    def test_examples(self):
        e = build_ecdf([1.0, -2.0, 0.5])
        assert empirical_tail(e, 0.0) == 1.0  # all samples nonzero
        assert empirical_tail(e, 5.0) == 0.0
        # the value is 1 - #{|sample| <= x}/n, which can differ from #{|sample| > x}/n in the last bit
        assert empirical_tail(e, 0.75) == 1.0 - 1.0 / 3.0
        assert empirical_tail(e, 2.0) == 0.0  # strict inequality at a negative sample
        assert empirical_tail(e, 1.0) == 1.0 - 2.0 / 3.0  # and at a positive one
        with pytest.raises(ValueError):
            empirical_tail(e, -1.0)

    def test_chaos_tail_vs_exact(self):
        spec = chaos.normalize(chaos.DiagonalChaosSpec(2, (1.0,)))
        e = build_ecdf(chaos.sample_batch(spec, 100_000, seed=9))
        p = chaos.exact_abs_tail_q2_rank1(2.0)
        se = math.sqrt(p * (1.0 - p) / e.n)
        assert abs(empirical_tail(e, 2.0) - p) <= 4.0 * se


class TestCertify:
    @staticmethod
    def _setup(n=2000, seed=5):
        rng = np.random.default_rng(seed)
        e = build_ecdf(rng.standard_normal(n))
        grid = np.linspace(-3, 3, 25)
        return discrepancy_curve(e, grid), grid

    def test_huge_bound_no_violations(self):
        curve, grid = self._setup()
        big = bounds.evaluate_curve(BoundInputs(0.0, 1e6, np.ones_like), grid)
        report = certify(curve, big.bounds, k=3.0)
        assert report.n_violations == 0 and report.exit_status == 0

    def test_zero_bound_on_non_normal_violates(self):
        rng = np.random.default_rng(6)
        e = build_ecdf(rng.standard_normal(2000) + 2.0)  # shifted, clearly non-normal
        grid = np.linspace(-3, 3, 25)
        curve = discrepancy_curve(e, grid)
        zero = bounds.evaluate_curve(BoundInputs(0.0, 0.0, np.ones_like), grid)
        report = certify(curve, zero.bounds, k=3.0)
        assert report.n_violations > 0 and report.exit_status == 2

    def test_monotone_in_bound(self):
        curve, grid = self._setup()
        lo = certify(curve, [0.001] * len(curve), k=0.0)
        hi = certify(curve, [0.002] * len(curve), k=0.0)
        assert hi.n_violations <= lo.n_violations
        flagged_hi = {r.z for r in hi.rows if r.violated}
        flagged_lo = {r.z for r in lo.rows if r.violated}
        assert flagged_hi <= flagged_lo

    def test_slack_k_loosens(self):
        curve, grid = self._setup()
        tight = certify(curve, [0.005] * len(curve), k=0.0)
        loose = certify(curve, [0.005] * len(curve), k=10.0)
        assert loose.n_violations <= tight.n_violations

    def test_grid_mismatch_rejected(self):
        curve, grid = self._setup()
        with pytest.raises(ValueError, match="do not match"):
            certify(curve, [1.0] * (len(curve) - 1), k=3.0)

    def test_rejects_bad_k(self):
        curve, _ = self._setup()
        with pytest.raises(ValueError):
            certify(curve, [1.0] * len(curve), k=-1.0)


_samples = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=50)
_grids = st.lists(st.floats(-8.0, 8.0), max_size=30)


def _with_outside_points(samples, grid):
    # one point below and one above every sample, so p_hat takes both 0 and 1
    return [min(samples) - 1.0, *grid, max(samples) + 1.0]


class TestColumnarEqualsScalar:
    @settings(max_examples=300, deadline=None)
    @given(_samples, _grids)
    def test_curve_fields(self, samples, grid):
        e = build_ecdf(samples)
        grid = _with_outside_points(samples, grid)
        curve = discrepancy_curve(e, grid)
        p1 = 1.0 / max(e.n, 2)
        floor = math.sqrt(p1 * (1.0 - p1) / e.n)
        assert len(curve) == len(grid)
        for i, z in enumerate(grid):
            p, phi = e.evaluate(z), normal_cdf(z)
            assert curve.z[i] == z
            assert curve.empirical_cdf[i] == p
            assert curve.normal_cdf[i] == phi
            assert curve.discrepancy[i] == abs(p - phi)
            assert curve.standard_error[i] == (math.sqrt(p * (1.0 - p) / e.n) if 0.0 < p < 1.0 else floor)

    @settings(max_examples=300, deadline=None)
    @given(_samples, _grids, st.floats(0.0, 5.0), st.data())
    def test_certify_flags(self, samples, grid, k, data):
        curve = discrepancy_curve(build_ecdf(samples), _with_outside_points(samples, grid))
        b = data.draw(st.lists(st.floats(0.0, 0.6), min_size=len(curve), max_size=len(curve)))
        report = certify(curve, b, k)
        disc, se = curve.discrepancy.tolist(), curve.standard_error.tolist()
        for i in range(len(curve)):
            assert report.rows.violated[i] == (disc[i] - k * se[i] > b[i])
        assert report.rows.bound.tolist() == b
        for name in curve.dtype.names:
            assert np.array_equal(report.rows[name], curve[name])
        assert report.n_violations == sum(report.rows.violated.tolist())
        assert report.exit_status == (0 if report.n_violations == 0 else 2)


def _thresholds(grid):
    # the points the CLI counts at: the grid, the tail argument |z|/2 and the
    # float below -|z|/2, where #{s <= t} is #{s < -|z|/2}
    half = np.abs(grid) / 2.0
    return np.unique(np.concatenate([grid, half, np.nextafter(-half, -np.inf)]))


def _streamed(samples, thresholds, cuts):
    # counts summed over the chunks the samples are cut into at `cuts`
    sums = sum(count_chunk(chunk.copy(), thresholds) for chunk in np.split(samples, cuts))
    return ThresholdCounts(thresholds, sums, n=samples.size)


@st.composite
def _streaming_cases(draw):
    grid = np.array(draw(st.lists(st.floats(-8.0, 8.0) | st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                                  min_size=1, max_size=20)))
    # samples tie with each other and sit exactly on thresholds, at +-0 too, and
    # on -|z|/2, which is not a threshold but the float just above one
    on_points = st.sampled_from([0.0, -0.0, *_thresholds(grid).tolist(), *(-np.abs(grid) / 2.0).tolist()])
    samples = np.array(draw(st.lists(st.floats(-5.0, 5.0) | on_points, min_size=1, max_size=60)))
    cuts = sorted(draw(st.lists(st.integers(0, samples.size), max_size=6)))
    return grid, samples, cuts


class TestStreamedCounts:
    @settings(max_examples=300, deadline=None)
    @given(_streaming_cases())
    def test_equal_in_memory_ecdf_and_tail(self, case):
        grid, samples, cuts = case
        counts = _streamed(samples, _thresholds(grid), cuts)
        ecdf = build_ecdf(samples)
        assert np.array_equal(counts.evaluate(grid), ecdf.evaluate(grid))
        x = np.abs(grid) / 2.0
        streamed_tail = bounds.tail_probability(EmpiricalTail(counts), x)
        assert np.array_equal(streamed_tail, bounds.tail_probability(EmpiricalTail.from_samples(samples), x))
        streamed, in_memory = discrepancy_curve(counts, grid), discrepancy_curve(ecdf, grid)
        for name in in_memory.dtype.names:
            assert np.array_equal(streamed[name], in_memory[name])

    @settings(max_examples=300, deadline=None)
    @given(_streaming_cases())
    def test_tail_count_is_strict_count_of_abs(self, case):
        # an integer oracle for both ECDF routes: the samples outside [-x, x],
        # counted through #{s <= t} alone, are those with |s| > x
        grid, samples, cuts = case
        x = np.abs(grid) / 2.0
        outside = [np.count_nonzero(np.abs(samples) > xi) for xi in x.tolist()]
        for ecdf in (_streamed(samples, _thresholds(grid), cuts), build_ecdf(samples)):
            inside = ecdf.at_most(x) - ecdf.at_most(np.nextafter(-x, -np.inf))
            assert (samples.size - inside).tolist() == outside

    def test_scalar_evaluate(self):
        counts = _streamed(np.array([1.0, 2.0, 2.0]), np.array([1.0, 2.0]), [1])
        assert counts.evaluate(2.0) == 1.0 and counts.evaluate(1.0) == 1.0 / 3.0
        assert isinstance(counts.evaluate(1.0), float)

    def test_known_only_at_thresholds(self):
        counts = _streamed(np.array([1.0, 2.0]), np.array([-1.0, 1.0]), [])
        for z in (0.5, 3.0, -2.0, math.nan):
            with pytest.raises(ValueError, match="thresholds"):
                counts.evaluate(z)
        with pytest.raises(ValueError, match="thresholds"):
            discrepancy_curve(counts, [1.0, 1.5])
        # the tail reads #{s <= x} and #{s <= nextafter(-x, -inf)}: neither 0.5 nor
        # the float below -0.5 is a threshold, and -1 is one but the float below it is not
        for x in (0.5, 1.0):
            with pytest.raises(ValueError, match="thresholds"):
                bounds.tail_probability(EmpiricalTail(counts), x)

    def test_count_chunk_transforms_first(self):
        sums = count_chunk(np.array([3.0, 5.0, 1.0]), np.array([0.0, 1.0]), transform=lambda s: (s - 3.0) / 2.0)
        assert sums.tolist() == [2, 3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_count_chunk_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            count_chunk(np.array([0.0, bad]), np.array([0.0]))
        with pytest.raises(ValueError, match="samples must be finite"):
            count_chunk(np.array([0.0, 1.0]), np.array([0.0]), transform=lambda s: s + bad)


def test_glivenko_cantelli_coverage():
    # 200 repetitions at n = 10^4: the sup-grid discrepancy stays inside the
    # 99% DKW band in at least 99% of runs
    n, reps = 10_000, 200
    eps = dkw_epsilon(n, 0.01)
    grid = np.linspace(-4.0, 4.0, 161)
    rng = np.random.default_rng(20250811)
    from nubes.gaussian import normal_cdf

    phi = normal_cdf(grid)
    failures = 0
    for _ in range(reps):
        s = np.sort(rng.standard_normal(n))
        p_hat = np.searchsorted(s, grid, side="right") / n
        if np.max(np.abs(p_hat - phi)) > eps:
            failures += 1
    assert failures <= 2  # >= 99% coverage
