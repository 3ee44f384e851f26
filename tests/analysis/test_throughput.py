"""Tests for throughput timeseries extraction."""

import pytest

from repro.analysis.throughput import (
    DeliveryLog,
    average_throughput_series,
    instantaneous_throughput_series,
)


# 1 MB delivered linearly over 1 second starting at t=0.
LINEAR_LOG = DeliveryLog([k / 10.0 for k in range(11)],
                         [k * 100_000 for k in range(11)])


class TestAverageSeries:
    def test_constant_rate_gives_flat_series(self):
        series = average_throughput_series(LINEAR_LOG, start_time=0.0,
                                           step_s=0.1)
        rates = [rate for _, rate in series]
        assert rates[0] == pytest.approx(rates[-1], rel=0.01)
        assert rates[0] == pytest.approx(8.0, rel=0.01)  # 1 MB/s = 8 Mbit/s

    def test_ramping_delivery_shows_growth(self):
        # All bytes arrive in the second half.
        log = DeliveryLog([0.0, 0.5, 1.0], [0, 0, 1_000_000])
        series = average_throughput_series(log, 0.0, step_s=0.25)
        rates = dict(series)
        assert rates[0.25] == 0.0
        assert rates[1.0] == pytest.approx(8.0, rel=0.01)

    def test_empty_log(self):
        assert average_throughput_series(DeliveryLog(), 0.0) == []

    def test_end_time_extends_series(self):
        series = average_throughput_series(LINEAR_LOG, 0.0, step_s=0.5,
                                           end_time=2.0)
        assert series[-1][0] == pytest.approx(2.0)
        # Average halves once delivery stops.
        assert series[-1][1] == pytest.approx(4.0, rel=0.05)


class TestInstantaneousSeries:
    def test_window_rate_tracks_delivery(self):
        series = instantaneous_throughput_series(
            LINEAR_LOG, 0.0, window_s=0.2, step_s=0.1)
        rates = [rate for t, rate in series if 0.3 <= t <= 0.9]
        for rate in rates:
            assert rate == pytest.approx(8.0, rel=0.15)

    def test_rate_drops_to_zero_after_completion(self):
        series = instantaneous_throughput_series(
            LINEAR_LOG, 0.0, window_s=0.2, step_s=0.1, end_time=2.0)
        assert series[-1][1] == 0.0

    def test_empty_log(self):
        assert instantaneous_throughput_series(DeliveryLog(), 0.0) == []
