import math

import numpy as np
import pytest

from flattopspec import (
    DegenerateSeriesError,
    OrderError,
    TimeSeries,
    central_moment_estimate,
    joint_cumulant_estimate,
    normalized_cumulant,
)


@pytest.fixture
def small_series():
    return TimeSeries([1.0, 2.0, 3.0, 4.0])


class TestTimeSeries:
    def test_one_dimensional_input_becomes_single_channel(self):
        s = TimeSeries([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.values.shape == (3,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.nan, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((0, 1)))

    def test_labels_default_and_mismatch(self):
        # one series, so there are no per-column labels to default or match
        assert not hasattr(TimeSeries(np.ones(5)), "labels")
        with pytest.raises(TypeError):
            TimeSeries(np.ones(5), labels=("ch0",))

    def test_column_accepted_wider_arrays_rejected(self):
        x = np.arange(5.0)
        s = TimeSeries(x[:, None])
        assert s.values.shape == (5,)
        assert np.array_equal(s.values, x)
        with pytest.raises(ValueError, match="2 columns"):
            TimeSeries(np.ones((5, 2)))
        with pytest.raises(ValueError):
            TimeSeries(np.ones((5, 1, 1)))
        with pytest.raises(ValueError):
            TimeSeries(3.0)

    def test_centered_has_zero_mean(self):
        s = TimeSeries([3.0, 5.0, 9.0, 11.0])
        assert abs(s.centered().mean()) < 1e-14


class TestCentralMoment:
    def test_hand_computed_lag_one(self, small_series):
        # deviations (-1.5, -0.5, 0.5, 1.5); (1/4)(0.75 - 0.25 + 0.75)
        assert central_moment_estimate(small_series, (1,)) == pytest.approx(0.3125, abs=1e-15)

    def test_third_order_zero_lag_cancels(self, small_series):
        # deviations are antisymmetric, so the cubes cancel
        assert central_moment_estimate(small_series, (0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_empty_sum_is_zero(self, small_series):
        assert central_moment_estimate(small_series, (10,)) == 0.0
        assert central_moment_estimate(small_series, (-10,)) == 0.0
        assert central_moment_estimate(small_series, (3, -3)) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        a = central_moment_estimate(TimeSeries(x), (2, 1))
        b = central_moment_estimate(TimeSeries(x + 123.456), (2, 1))
        assert a == pytest.approx(b, abs=1e-12)

    def test_negative_lags_allowed(self):
        rng = np.random.default_rng(8)
        s = TimeSeries(rng.normal(size=30))
        # second-order central moment is even in the lag
        assert central_moment_estimate(s, (4,)) == pytest.approx(
            central_moment_estimate(s, (-4,)), abs=1e-14)

    def test_order_out_of_range(self, small_series):
        with pytest.raises(OrderError):
            central_moment_estimate(small_series, (1, 2, 3))

    def test_third_order_symmetry_relations_exact(self):
        rng = np.random.default_rng(3)
        s = TimeSeries(rng.standard_normal(50) ** 2)
        for t1 in range(-10, 11, 3):
            for t2 in range(-10, 11, 3):
                base = central_moment_estimate(s, (t1, t2))
                for image in [(t2, t1), (-t1, t2 - t1), (t1 - t2, -t2)]:
                    assert central_moment_estimate(s, image) == base


class TestJointCumulant:
    def test_variance_partition_sum(self, small_series):
        # mu{0,0} - mu{0}^2 = 7.5 - 6.25
        assert joint_cumulant_estimate(small_series, (0,)) == pytest.approx(1.25, abs=1e-14)

    def test_zero_series_third_order(self):
        s = TimeSeries(np.zeros(20) + 0.0)
        assert joint_cumulant_estimate(s, (1, 2)) == 0.0

    def test_fourth_order_supported(self):
        rng = np.random.default_rng(4)
        s = TimeSeries(rng.normal(size=60))
        val = joint_cumulant_estimate(s, (1, 2, 3))
        assert np.isfinite(val)

    def test_order_five_rejected(self):
        s = TimeSeries(np.ones(10))
        with pytest.raises(OrderError):
            joint_cumulant_estimate(s, (1, 2, 3, 4))

    @pytest.mark.parametrize("order_lags", [(1,), (2, 1)])
    def test_agrees_with_central_moment_for_large_samples(self, order_lags):
        # both estimate the same cumulant; the gap shrinks with N
        gaps = []
        for N in (200, 5000):
            rng = np.random.default_rng(99)
            s = TimeSeries(rng.standard_normal(N) ** 2)
            gaps.append(abs(joint_cumulant_estimate(s, order_lags)
                            - central_moment_estimate(s, order_lags)))
        assert gaps[1] < gaps[0]


class TestNormalizedCumulant:
    def test_zero_lag_is_one(self):
        rng = np.random.default_rng(5)
        s = TimeSeries(rng.normal(size=25))
        assert normalized_cumulant(s, (0,)) == pytest.approx(1.0, abs=1e-14)

    def test_hand_computed_ratio(self, small_series):
        assert normalized_cumulant(small_series, (1,)) == pytest.approx(0.25, abs=1e-14)

    def test_third_order_iid_noise_is_small(self):
        rng = np.random.default_rng(12)
        s = TimeSeries(rng.standard_normal(10_000))
        assert abs(normalized_cumulant(s, (2, 1))) < 0.05

    def test_constant_series_degenerate(self):
        s = TimeSeries(np.full(30, 2.5))
        with pytest.raises(DegenerateSeriesError):
            normalized_cumulant(s, (1,))

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        a = normalized_cumulant(TimeSeries(x), (2, 1))
        b = normalized_cumulant(TimeSeries(17.0 * x), (2, 1))
        assert a == pytest.approx(b, rel=1e-12)


def test_ma1_expectation_bias_small_sample():
    # sample mean of C-hat(1) over replications tracks (1 - 1/N) C(1)
    # (a light version of the full Monte-Carlo acceptance check)
    theta, N, reps = 0.5, 100, 400
    vals = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        z = rng.standard_normal(N + 1)
        x = z[1:] + theta * z[:-1]
        vals[r] = central_moment_estimate(TimeSeries(x), (1,))
    target = (1 - 1 / N) * theta
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) < 4 * se + 5.0 / N
