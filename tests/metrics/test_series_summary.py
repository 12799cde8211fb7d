"""Tests for time-series primitives and summary statistics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.metrics.series import BinnedSeries
from repro.metrics.summary import Summary, cdf, describe
from repro.obs.timeseries import TimeSeries


class TestBinnedSeries:
    def test_binning(self):
        series = BinnedSeries(bin_width=1.0)
        series.add(0.1, 10.0)
        series.add(0.9, 5.0)
        series.add(1.5, 2.0)
        times, values = series.series(until=3.0)
        assert list(times) == [0.0, 1.0, 2.0]
        assert list(values) == [15.0, 2.0, 0.0]

    def test_rate_series(self):
        series = BinnedSeries(bin_width=0.5)
        series.add(0.1, 100.0)
        _, rates = series.rate_series(until=0.5)
        assert rates[0] == pytest.approx(200.0)

    def test_window_sum(self):
        series = BinnedSeries(bin_width=1.0)
        for t in (0.5, 1.5, 2.5, 3.5):
            series.add(t, 1.0)
        assert series.window_sum(1.0, 3.0) == 2.0

    def test_total(self):
        series = BinnedSeries(bin_width=1.0)
        series.add(0.0, 3.0)
        series.add(10.0, 4.0)
        assert series.total == 7.0

    def test_t0_offset(self):
        series = BinnedSeries(bin_width=1.0, t0=10.0)
        series.add(10.4)
        times, values = series.series(until=12.0)
        assert times[0] == 10.0
        assert values[0] == 1.0

    def test_invalid_width(self):
        with pytest.raises(SimulationError):
            BinnedSeries(bin_width=0.0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        min_size=1, max_size=60))
    def test_mass_conserved(self, events):
        """Σ bins == Σ added values, whatever the binning."""
        series = BinnedSeries(bin_width=0.7)
        for t, v in events:
            series.add(t, v)
        _, values = series.series(until=101.0)
        assert float(values.sum()) == pytest.approx(
            sum(v for _, v in events))


class TestGaugeSeries:
    def test_sampling_and_windows(self):
        gauge = TimeSeries("g", "gauge", 1.0, capacity=10)
        for t in range(10):
            gauge.record(float(t), float(t * t))
        assert len(gauge) == 10
        assert gauge.mean_in(0.0, 3.0) == pytest.approx((0 + 1 + 4) / 3)
        assert gauge.max_in(5.0, 10.0) == 81.0

    def test_empty_window_is_nan(self):
        gauge = TimeSeries("g", "gauge", 1.0)
        assert np.isnan(gauge.mean_in(0.0, 1.0))


class TestSummary:
    def test_describe_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        summary = describe(values)
        assert summary.count == 8
        assert summary.mean == pytest.approx(np.mean(values))
        assert summary.std == pytest.approx(np.std(values))
        assert summary.median == pytest.approx(np.median(values))
        assert summary.q1 == pytest.approx(np.percentile(values, 25))
        assert summary.q3 == pytest.approx(np.percentile(values, 75))

    def test_empty(self):
        summary = describe([])
        assert summary.count == 0
        assert np.isnan(summary.mean)

    def test_whiskers_clip_to_data(self):
        summary = describe([1.0, 2.0, 3.0, 4.0, 100.0])
        low, high = summary.whiskers()
        assert low >= 1.0
        assert high <= 100.0

    def test_cdf(self):
        values, probs = cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(probs) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_empty(self):
        values, probs = cdf([])
        assert len(values) == 0 and len(probs) == 0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=80))
    def test_order_statistics_ordered(self, values):
        summary = describe(values)
        assert summary.minimum <= summary.q1 <= summary.median \
            <= summary.q3 <= summary.maximum
