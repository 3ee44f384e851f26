"""Closed-form model of a 1-MByte TCP transfer's throughput.

The crowdsourced dataset contains thousands of runs; simulating every
one packet-by-packet would be wasteful when the quantity consumed by
the paper's analysis is just the average throughput of a 1 MB flow.
This analytic model — handshake, slow-start ramp, then link-rate
transfer — matches the packet simulator closely (validated in
``tests/crowd/test_tcpmodel.py``), and the Fig. 6 experiment checks
the two agree at the CDF level.

The slow-start ramp depends on the flow size alone, so it is tabulated
once per size and a transfer time is one ``bisect`` into that table;
the round-by-round loop lives on as the oracle in the test module.
"""

import math
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Tuple

from repro.core.errors import ConfigurationError
from repro.core.units import throughput_mbps

__all__ = ["transfer_time_s", "estimate_tcp_throughput_mbps",
           "ramp_table", "count_wins"]

ONE_MBYTE = 1_048_576


@lru_cache(maxsize=256)
def ramp_table(nbytes: int, mss_bytes: int = 1448, initial_cwnd: int = 10,
               ) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]:
    """``(cwnds, ramp_rtts, drain_bytes)`` of an ``nbytes`` flow.

    ``cwnds[k]`` opens slow-start round ``k``; the table ends with the
    round that would finish the flow.  Slow start leaving at round
    ``k = bisect_left(cwnds, bdp)`` costs ``ramp_rtts[k]`` RTTs plus
    ``drain_bytes[k]`` at the link rate; the last row, a ramp that
    outlasts the flow, drains 0 bytes (and ``x + 0.0`` is ``x``).
    Bytes are floats (all exact), which keeps a kernel reading the
    table on the interpreter's float-float fast path.
    """
    if initial_cwnd < 1:  # the ramp would never grow
        raise ConfigurationError(f"initial cwnd must be >= 1: {initial_cwnd}")
    total_segments = max(1, (nbytes + mss_bytes - 1) // mss_bytes)
    cwnds = [initial_cwnd]
    while 2 * cwnds[-1] - initial_cwnd < total_segments:
        cwnds.append(2 * cwnds[-1])
    return (tuple(cwnds),
            tuple(1.5 + k for k in range(len(cwnds))) + (float(1 + len(cwnds)),),
            tuple(float((total_segments - (cwnd - initial_cwnd)) * mss_bytes)
                  for cwnd in cwnds) + (0.0,))


def _ramp_time_s(nbytes: int, rate_bps: float, rtt: float,
                 mss_bytes: int = 1448, initial_cwnd: int = 10) -> float:
    """The model's core, on pre-validated SI inputs (bytes/s, seconds).

    Slow start runs while the window is below the bandwidth-delay
    product: if that outlasts the flow, it took one RTT per round;
    otherwise the remainder drains at the link rate.
    """
    cwnds, ramp_rtts, drain_bytes = ramp_table(nbytes, mss_bytes, initial_cwnd)
    rounds = bisect_left(cwnds, rate_bps * rtt / mss_bytes)
    return rtt * ramp_rtts[rounds] + drain_bytes[rounds] / rate_bps


def transfer_time_s(
    rate_mbps: float,
    rtt_ms: float,
    nbytes: int,
    mss_bytes: int = 1448,
    initial_cwnd: int = 10,
) -> float:
    """Time to move ``nbytes`` over a clean link of ``rate_mbps``.

    Models: one RTT of handshake, exponential slow-start rounds until
    the window covers the bandwidth-delay product, then ACK-clocked
    transfer at the link rate, plus half an RTT for the last byte to
    arrive.
    """
    if rate_mbps <= 0:
        raise ConfigurationError(f"rate must be positive: {rate_mbps}")
    if rtt_ms < 0:
        raise ConfigurationError(f"negative RTT: {rtt_ms}")
    if nbytes <= 0:
        return 0.0
    return _ramp_time_s(nbytes, rate_mbps * 1e6 / 8.0, rtt_ms / 1000.0,
                        mss_bytes, initial_cwnd)


def estimate_tcp_throughput_mbps(
    rate_mbps: float,
    rtt_ms: float,
    nbytes: int = ONE_MBYTE,
    mss_bytes: int = 1448,
    initial_cwnd: int = 10,
) -> float:
    """Average throughput (Mbit/s) of an ``nbytes`` transfer."""
    elapsed = transfer_time_s(rate_mbps, rtt_ms, nbytes, mss_bytes, initial_cwnd)
    return throughput_mbps(nbytes, elapsed)


def count_wins(rows: Iterable[Tuple[float, float, float, float]],
               rate_mbps: float, rtt_ms: float, rate_floor: float = 0.0,
               rtt_floor: float = 0.0, rtt_cap: float = math.inf) -> int:
    """How many ``(rate_mult, rtt_mult, noise, rival)`` rows a 1-MB flow wins.

    Row by row the flow runs at ``max(rate_floor, rate_mbps * rate_mult)``
    over ``min(max(rtt_floor, rtt_ms * rtt_mult), rtt_cap)``, measures
    :func:`estimate_tcp_throughput_mbps` of that times ``noise``, and
    wins where the measurement exceeds ``rival``.  This is the world
    calibration's inner loop (hundreds of thousands of rows per world):
    the ramp table is bound once and ``_ramp_time_s`` and
    ``throughput_mbps`` are inlined, their floating-point operations in
    the same order, so every row measures exactly what the estimator
    would.  Rates must come out positive and RTTs non-negative.
    """
    cwnds, ramp_rtts, drain_bytes = ramp_table(ONE_MBYTE)
    nbytes, bisect = float(ONE_MBYTE), bisect_left
    wins = 0
    for rate_mult, rtt_mult, noise, rival in rows:
        rate = rate_mbps * rate_mult
        if rate < rate_floor:
            rate = rate_floor
        rtt = rtt_ms * rtt_mult
        if rtt < rtt_floor:
            rtt = rtt_floor
        elif rtt > rtt_cap:
            rtt = rtt_cap
        rate_bps = rate * 1e6 / 8.0
        rtt_s = rtt / 1000.0
        rounds = bisect(cwnds, rate_bps * rtt_s / 1448.0)
        elapsed = rtt_s * ramp_rtts[rounds] + drain_bytes[rounds] / rate_bps
        if nbytes / elapsed * 8.0 / 1e6 * noise > rival:
            wins += 1
    return wins
