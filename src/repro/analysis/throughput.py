"""Throughput metrics extracted from connection delivery logs.

Two families of helpers live here:

* **whole-transfer metrics** — duration, mean throughput, and the
  paper's flow-size metrics ``time_to_bytes`` / ``throughput_at_bytes``
  ("flow size is measured using the cumulative number of bytes
  acknowledged").  These used to be implemented twice, once on the live
  :class:`~repro.tcp.connection.ConnectionBase` and once on the
  picklable summary type; both now delegate here, as does the
  canonical :class:`~repro.workload.TransferReport`.
* **timeseries** — Figures 9 and 10 of the paper plot "the average
  throughput from the time the MPTCP session is established, to the
  current time t"; :func:`average_throughput_series` turns a
  :class:`DeliveryLog` — ``(time, cumulative bytes)`` points — into
  exactly that series, plus a windowed instantaneous variant.
"""

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.units import throughput_mbps

__all__ = [
    "DeliveryLog",
    "average_throughput_series",
    "instantaneous_throughput_series",
    "mean_throughput_mbps",
    "throughput_at_bytes",
    "time_to_bytes",
    "transfer_duration_s",
]

Point = Tuple[float, float]


class DeliveryLog:
    """Cumulative in-order bytes vs time, held as two columns.

    ``times`` (``array('d')``) and ``cums`` (``array('q')``) *are* the
    log — 16 B a point, pickled as raw buffers, bisected directly; a
    writer appends to both.  Reads like the list of ``(time, bytes)``
    pairs it replaced, and ``==`` accepts one.
    """

    __slots__ = ("times", "cums")

    def __init__(self, times: Iterable[float] = (), cums: Iterable[int] = ()):
        self.times = array("d", times)
        self.cums = array("q", cums)

    def copy(self) -> "DeliveryLog":
        """An independent snapshot (two memcpys)."""
        return DeliveryLog(self.times, self.cums)

    __copy__ = copy

    def delivered_by(self, when: float) -> int:
        """Cumulative bytes at the last point with ``time <= when``."""
        index = bisect_right(self.times, when)
        return self.cums[index - 1] if index else 0

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return zip(self.times, self.cums)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DeliveryLog(self.times[index], self.cums[index])
        return self.times[index], self.cums[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeliveryLog):
            return self.times == other.times and self.cums == other.cums
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"DeliveryLog({list(self.times)!r}, {list(self.cums)!r})"


def transfer_duration_s(
    started_at: Optional[float], completed_at: Optional[float]
) -> Optional[float]:
    """Transfer duration, or ``None`` while either endpoint is unknown."""
    if started_at is None or completed_at is None:
        return None
    return completed_at - started_at


def mean_throughput_mbps(
    total_bytes: int,
    started_at: Optional[float],
    completed_at: Optional[float],
) -> Optional[float]:
    """Whole-transfer average throughput (Mbit/s), ``None`` if unfinished."""
    duration = transfer_duration_s(started_at, completed_at)
    if not duration:
        return None
    return throughput_mbps(total_bytes, duration)


def time_to_bytes(
    delivery_log: DeliveryLog,
    started_at: Optional[float],
    nbytes: int,
) -> Optional[float]:
    """Seconds from start until ``nbytes`` were delivered in order.

    This is the paper's flow-size metric; it bisects the log's
    cumulative in-order byte column.
    """
    if started_at is None or nbytes <= 0:
        return None
    index = bisect_left(delivery_log.cums, nbytes)
    if index >= len(delivery_log):
        return None
    return delivery_log.times[index] - started_at


def throughput_at_bytes(
    delivery_log: DeliveryLog,
    started_at: Optional[float],
    nbytes: int,
) -> Optional[float]:
    """Average throughput (Mbit/s) over the first ``nbytes`` delivered."""
    elapsed = time_to_bytes(delivery_log, started_at, nbytes)
    if elapsed is None or elapsed <= 0:
        return None
    return throughput_mbps(nbytes, elapsed)


def average_throughput_series(
    delivery_log: DeliveryLog,
    start_time: float,
    step_s: float = 0.05,
    end_time: Optional[float] = None,
) -> List[Point]:
    """Cumulative-average throughput vs time (the paper's Fig. 9/10 metric).

    Each output point ``(t, mbps)`` is total bytes delivered by ``t``
    divided by ``t - start_time``.
    """
    if not delivery_log:
        return []
    if end_time is None:
        end_time = delivery_log.times[-1]
    points: List[Point] = []
    step = 1
    while True:
        t = start_time + step * step_s  # avoid float accumulation drift
        if t > end_time + 1e-9:
            break
        delivered = delivery_log.delivered_by(t + 1e-9)
        points.append((t, throughput_mbps(delivered, t - start_time)))
        step += 1
    return points


def instantaneous_throughput_series(
    delivery_log: DeliveryLog,
    start_time: float,
    window_s: float = 0.2,
    step_s: float = 0.05,
    end_time: Optional[float] = None,
) -> List[Point]:
    """Sliding-window throughput vs time.

    Useful for visualizing subflow ramp-up; not used by the paper's
    figures directly but handy for debugging and the examples.
    """
    if not delivery_log:
        return []
    if end_time is None:
        end_time = delivery_log.times[-1]
    delivered_by = delivery_log.delivered_by
    points: List[Point] = []
    step = 1
    while True:
        t = start_time + step * step_s
        if t > end_time + 1e-9:
            break
        lo = max(start_time, t - window_s)
        window_bytes = delivered_by(t + 1e-9) - delivered_by(lo + 1e-9)
        points.append((t, throughput_mbps(window_bytes, t - lo)))
        step += 1
    return points
