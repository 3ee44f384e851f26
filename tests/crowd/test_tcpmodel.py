"""Tests for the analytic TCP-throughput model, cross-validated against
the packet simulator."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PathConfig, Scenario
from repro.core.errors import ConfigurationError
from repro.crowd.tcpmodel import (
    count_wins,
    estimate_tcp_throughput_mbps,
    transfer_time_s,
)

MB = 1_048_576
MSS = 1448


def loop_transfer_time_s(rate_mbps, rtt_ms, nbytes, mss_bytes=MSS,
                         initial_cwnd=10):
    """The round-by-round model ``transfer_time_s`` used to run.

    Kept verbatim as the oracle for the closed form.
    """
    if rate_mbps <= 0:
        raise ConfigurationError(f"rate must be positive: {rate_mbps}")
    if rtt_ms < 0:
        raise ConfigurationError(f"negative RTT: {rtt_ms}")
    if nbytes <= 0:
        return 0.0
    rtt = rtt_ms / 1000.0
    rate_bps = rate_mbps * 1e6 / 8.0
    total_segments = max(1, (nbytes + mss_bytes - 1) // mss_bytes)
    bdp_segments = max(1.0, rate_bps * rtt / mss_bytes)

    elapsed = rtt  # SYN / SYN-ACK
    sent = 0.0
    cwnd = float(initial_cwnd)
    while sent < total_segments and cwnd < bdp_segments:
        round_segments = min(cwnd, total_segments - sent)
        sent += round_segments
        elapsed += rtt
        cwnd *= 2.0
    if sent < total_segments:
        elapsed += (total_segments - sent) * mss_bytes / rate_bps + rtt / 2.0
    return elapsed


def _rate_for_bdp(segments, rtt_ms):
    """The rate whose bandwidth-delay product is ``segments`` MSS."""
    return segments * MSS * 8.0 / 1e6 / (rtt_ms / 1000.0)


class TestTransferTime:
    def test_zero_bytes_is_instant(self):
        assert transfer_time_s(10.0, 40.0, 0) == 0.0

    def test_includes_handshake(self):
        # Even a tiny transfer costs at least one RTT.
        assert transfer_time_s(1000.0, 100.0, 100) >= 0.1

    def test_monotone_in_size(self):
        small = transfer_time_s(10.0, 40.0, 10_000)
        large = transfer_time_s(10.0, 40.0, 1_000_000)
        assert large > small

    def test_monotone_in_rate(self):
        slow = transfer_time_s(2.0, 40.0, MB)
        fast = transfer_time_s(20.0, 40.0, MB)
        assert fast < slow

    def test_monotone_in_rtt(self):
        near = transfer_time_s(10.0, 20.0, 100_000)
        far = transfer_time_s(10.0, 200.0, 100_000)
        assert far > near

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            transfer_time_s(0.0, 40.0, 1000)


class TestClosedFormMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(
        rate=st.floats(min_value=0.05, max_value=500.0),
        rtt=st.floats(min_value=1.0, max_value=1200.0),
        nbytes=st.integers(min_value=1, max_value=8 * MB),
    )
    @example(rate=10.0, rtt=40.0, nbytes=1)           # one segment
    @example(rate=10.0, rtt=40.0, nbytes=MSS)         # exactly one MSS
    @example(rate=10.0, rtt=40.0, nbytes=150 * MSS)   # 10+20+40+80 exactly
    @example(rate=500.0, rtt=1200.0, nbytes=8 * MB)   # never leaves slow start
    @example(rate=0.05, rtt=1.0, nbytes=MB)           # BDP below one segment
    def test_within_1e12_of_the_loop(self, rate, rtt, nbytes):
        assert transfer_time_s(rate, rtt, nbytes) == pytest.approx(
            loop_transfer_time_s(rate, rtt, nbytes), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("segments", [10, 20, 40, 80, 160, 320, 640])
    @pytest.mark.parametrize("nbytes", [1, MSS, 10 * MSS, 70 * MSS, MB, 4 * MB])
    def test_bdp_exactly_on_a_window(self, segments, nbytes):
        # The ramp stops at the first window >= BDP: a BDP that is
        # exactly a window (and one ulp either side) is the boundary.
        exact = _rate_for_bdp(segments, 80.0)
        for rate in (math.nextafter(exact, 0.0), exact,
                     math.nextafter(exact, math.inf)):
            assert transfer_time_s(rate, 80.0, nbytes) == pytest.approx(
                loop_transfer_time_s(rate, 80.0, nbytes), rel=1e-12, abs=0.0
            )

    def test_other_mss_and_initial_window(self):
        for mss, iw in ((536, 2), (1448, 4), (9000, 10), (1, 1)):
            for nbytes in (1, 1000, 100_000, MB):
                assert transfer_time_s(8.0, 60.0, nbytes, mss, iw) == (
                    pytest.approx(
                        loop_transfer_time_s(8.0, 60.0, nbytes, mss, iw),
                        rel=1e-12, abs=0.0,
                    )
                )

    def test_degenerate_inputs_unchanged(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                transfer_time_s(rate, 40.0, 1000)
        with pytest.raises(ConfigurationError):
            transfer_time_s(10.0, -0.1, 1000)
        assert transfer_time_s(10.0, 40.0, 0) == 0.0
        assert transfer_time_s(10.0, 40.0, -5) == 0.0
        assert estimate_tcp_throughput_mbps(10.0, 40.0, 0) == 0.0
        # A zero RTT is legal: pure serialization time.
        assert transfer_time_s(8.0, 0.0, 1000) == pytest.approx(1448 / 1e6)
        # The loop spun forever on this; the table builder refuses.
        with pytest.raises(ConfigurationError):
            transfer_time_s(10.0, 40.0, 1000, initial_cwnd=0)


def measured(row, rate, rtt, rate_floor=0.0, rtt_floor=0.0,
             rtt_cap=math.inf):
    """What one ``count_wins`` row measures, through the public estimator."""
    rate_mult, rtt_mult, noise = row[:3]
    return estimate_tcp_throughput_mbps(
        max(rate_floor, rate * rate_mult),
        min(max(rtt_floor, rtt * rtt_mult), rtt_cap),
    ) * noise


def oracle_wins(rows, rate, rtt, *bounds):
    """``count_wins`` spelled as a plain count over the public estimator."""
    return sum(measured(row, rate, rtt, *bounds) > row[3] for row in rows)


def _around(value):
    """The value and its two neighbouring floats: a tie and both near misses."""
    return (math.nextafter(value, 0.0), value, math.nextafter(value, math.inf))


@st.composite
def calibration_counts(draw):
    """``(rows, rate, rtt, bounds)`` with rivals on, next to, or away from
    what each row measures, so a one-ulp slip in the kernel flips a win."""
    rate = draw(st.floats(min_value=0.05, max_value=500.0))
    rtt = draw(st.floats(min_value=0.0, max_value=1200.0))
    rate_floor = draw(st.sampled_from([0.0, 0.1])
                      | st.floats(min_value=0.0, max_value=5.0))
    rtt_floor = draw(st.sampled_from([0.0, 15.0])
                     | st.floats(min_value=0.0, max_value=50.0))
    rtt_cap = draw(st.sampled_from([math.inf, 1200.0])
                   | st.floats(min_value=rtt_floor, max_value=2000.0))
    bounds = (rate_floor, rtt_floor, rtt_cap)
    mults = st.floats(min_value=0.01, max_value=100.0)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        row = (draw(mults), draw(mults),
               draw(st.floats(min_value=0.5, max_value=2.0)))
        rival = draw(st.sampled_from(_around(measured(row, rate, rtt, *bounds)))
                     | st.floats(min_value=0.0, max_value=1000.0))
        rows.append(row + (rival,))
    return rows, rate, rtt, bounds


class TestWinCountKernel:
    """``count_wins`` is the calibration's inner loop; the public
    estimator stays its oracle, bit for bit, as for the crowd sampler's
    inlined probes (``tests/crowd/test_sampling.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(case=calibration_counts())
    def test_equals_a_count_over_the_estimator(self, case):
        rows, rate, rtt, bounds = case
        assert count_wins(rows, rate, rtt, *bounds) == (
            oracle_wins(rows, rate, rtt, *bounds))

    @pytest.mark.parametrize("segments", [10, 20, 40, 80, 160, 320, 640])
    def test_bdp_exactly_on_a_window(self, segments):
        # Rate multipliers over a unit median are the rates themselves:
        # each edge rate meets rivals one ulp under, on, and over what
        # it measures, so it wins exactly once.
        rows = [
            (rate, 80.0, 1.0, rival)
            for rate in _around(_rate_for_bdp(segments, 80.0))
            for rival in _around(estimate_tcp_throughput_mbps(rate, 80.0))
        ]
        assert count_wins(rows, 1.0, 1.0) == oracle_wins(rows, 1.0, 1.0) == 3


class TestThroughputEstimate:
    def test_never_exceeds_link_rate(self):
        for rate in (1.0, 5.0, 30.0):
            assert estimate_tcp_throughput_mbps(rate, 40.0) < rate

    def test_small_flows_penalized_more(self):
        small = estimate_tcp_throughput_mbps(10.0, 40.0, nbytes=10_000)
        large = estimate_tcp_throughput_mbps(10.0, 40.0, nbytes=4 * MB)
        assert small < large


class TestAgainstSimulator:
    @pytest.mark.parametrize("rate,rtt", [(4.0, 40.0), (10.0, 80.0),
                                          (2.0, 120.0)])
    def test_matches_packet_simulation_within_25_percent(self, rate, rtt):
        analytic = estimate_tcp_throughput_mbps(rate, rtt, nbytes=MB)
        scenario = Scenario()
        scenario.add_path(PathConfig(
            name="x", down_mbps=rate, up_mbps=rate / 2, rtt_ms=rtt,
            queue_packets=500,
        ))
        simulated = scenario.run_transfer(
            scenario.tcp("x", MB, cc="cubic")).throughput_mbps
        assert analytic == pytest.approx(simulated, rel=0.25)
