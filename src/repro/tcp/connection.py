"""Connection-level machinery: reassembly, progress tracking, plain TCP.

:class:`ConnectionBase` holds everything shared between single-path TCP
and MPTCP: the data source, connection-level (data-sequence)
reassembly with duplicate suppression, the delivery timeline used by
every throughput figure, progress callbacks, and teardown.  The
single-path :class:`TcpConnection` is the one-subflow specialization;
:class:`repro.mptcp.connection.MptcpConnection` is the multi-subflow one.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analysis import throughput as metrics
from repro.core.errors import ConfigurationError
from repro.core.events import EventLoop
from repro.core.intervals import IntervalSet
from repro.core.units import throughput_mbps
from repro.net.fabric import AttachedPath
from repro.tcp.cc.base import CongestionControl
from repro.tcp.cc.reno import Reno
from repro.tcp.config import TcpConfig
from repro.tcp.source import BulkSource, Chunk
from repro.tcp.subflow import Subflow

__all__ = ["ConnectionBase", "TcpConnection", "ConnectionStats"]

_flow_ids = itertools.count(1)


@dataclass
class ConnectionStats:
    """Summary of a finished (or in-flight) transfer."""

    flow_id: int
    total_bytes: int
    started_at: Optional[float]
    completed_at: Optional[float]
    bytes_delivered: int
    retransmits: int
    timeouts: int

    @property
    def duration_s(self) -> Optional[float]:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def throughput_mbps(self) -> Optional[float]:
        duration = self.duration_s
        if duration is None:
            return None
        return throughput_mbps(self.total_bytes, duration)


class ConnectionBase:
    """Shared state and logic for any (MP)TCP connection."""

    def __init__(self, loop: EventLoop, total_bytes: int, config: TcpConfig):
        self.loop = loop
        self.config = config
        self.obs = None  # optional TraceRecorder (attach_recorder)
        self.flow_id = next(_flow_ids)
        self.source = BulkSource(total_bytes)
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._received = IntervalSet()
        self._delivered_prefix = 0
        #: (time, cumulative in-order bytes) whenever the prefix advances.
        self.delivery_log = metrics.DeliveryLog()
        self._log_time = self.delivery_log.times.append
        self._log_bytes = self.delivery_log.cums.append
        self.on_complete: List[Callable[["ConnectionBase"], None]] = []
        self._progress_thresholds: List[Tuple[int, Callable[[], None]]] = []
        self._closed_by_app = False

    # -- to be provided by subclasses ----------------------------------
    @property
    def subflows(self) -> List[Subflow]:
        raise NotImplementedError

    def _pump(self) -> None:
        raise NotImplementedError

    def attach_recorder(self, recorder) -> None:
        """Route this connection's transport events to ``recorder``.

        Purely passive: the recorder never schedules events or consumes
        RNG, so an observed run is bit-identical to an unobserved one.
        """
        self.obs = recorder
        for subflow in self.subflows:
            subflow.attach_recorder(recorder)

    # -- public queries -------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.source.total_bytes

    @property
    def bytes_delivered(self) -> int:
        """In-order bytes delivered to the receiving application."""
        return self._delivered_prefix

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def stats(self) -> ConnectionStats:
        retransmits = sum(sf.sender.stats.retransmits for sf in self.subflows)
        timeouts = sum(sf.sender.stats.timeouts for sf in self.subflows)
        return ConnectionStats(
            flow_id=self.flow_id,
            total_bytes=self.total_bytes,
            started_at=self.started_at,
            completed_at=self.completed_at,
            bytes_delivered=self.bytes_delivered,
            retransmits=retransmits,
            timeouts=timeouts,
        )

    def throughput_mbps(self) -> Optional[float]:
        """Whole-transfer average throughput, if the transfer finished."""
        return self.stats().throughput_mbps

    def time_to_bytes(self, nbytes: int) -> Optional[float]:
        """Seconds from start until ``nbytes`` were delivered in order.

        This is the paper's flow-size metric ("flow size is measured
        using the cumulative number of bytes acknowledged").
        """
        return metrics.time_to_bytes(self.delivery_log, self.started_at, nbytes)

    def throughput_at_bytes(self, nbytes: int) -> Optional[float]:
        """Average throughput (Mbit/s) over the first ``nbytes`` delivered."""
        return metrics.throughput_at_bytes(
            self.delivery_log, self.started_at, nbytes
        )

    def notify_at_bytes(self, threshold: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``threshold`` in-order bytes are delivered."""
        if threshold <= self._delivered_prefix:
            callback()
            return
        self._progress_thresholds.append((threshold, callback))
        self._progress_thresholds.sort(key=lambda item: item[0])

    # -- transfer extension (persistent HTTP connections) ---------------
    def append_transfer(self, extra_bytes: int) -> None:
        """Add more bytes to send on this (already open) connection."""
        if self._closed_by_app:
            raise ConfigurationError("cannot append to a closed connection")
        self.source.extend(extra_bytes)
        if extra_bytes > 0:
            self.completed_at = None
        self._pump()

    def close(self) -> None:
        """Application close: FINs go out once everything is delivered."""
        self._closed_by_app = True
        self._maybe_close_subflows()

    def release(self) -> None:
        """Drop every callback that points back into this connection
        (:meth:`repro.scenario.Scenario.close`); queries still work."""
        self.on_complete.clear()
        self._progress_thresholds.clear()
        for subflow in self.subflows:
            subflow.release()

    # -- plumbing shared with subclasses --------------------------------
    def _handle_data(self, subflow: Subflow, data_seq: int, length: int) -> None:
        new_bytes = self._received.add(data_seq, data_seq + length)
        if new_bytes == 0:
            return
        prefix = self._received.contiguous_from(0)
        if prefix > self._delivered_prefix:
            self._delivered_prefix = prefix
            self._log_time(self.loop.now)
            self._log_bytes(prefix)
            self._fire_progress()
            self._maybe_complete()

    def _fire_progress(self) -> None:
        while (
            self._progress_thresholds
            and self._progress_thresholds[0][0] <= self._delivered_prefix
        ):
            _, callback = self._progress_thresholds.pop(0)
            callback()

    def _maybe_complete(self) -> None:
        if self.completed_at is None and self._delivered_prefix >= self.total_bytes:
            self.completed_at = self.loop.now
            for callback in list(self.on_complete):
                callback(self)
            self._maybe_close_subflows()

    def _handle_acked(self, subflow: Subflow, chunks: List[Chunk]) -> None:
        self._maybe_close_subflows()

    def _maybe_close_subflows(self) -> None:
        # FINs only go out after the *application* closes: completion
        # alone must not tear down a persistent (keep-alive) connection.
        if not self._closed_by_app:
            return
        # ... and never before the receiver has everything: a subflow
        # that idles mid-transfer must stay open, because a failover on
        # the other path may reinject data onto it later.
        if not self.complete:
            return
        if self.source.has_data():
            return
        # Runs on every ACK of the FIN drain: a subflow whose FIN is out
        # (``_fin_sent`` never resets) is skipped before the checks.
        for subflow in self.subflows:
            if (not subflow._fin_sent and subflow.alive
                    and subflow.sender.done and subflow.sender_established):
                subflow.start_close()

    def _live_reinjection_filter(self, chunks: List[Chunk]) -> List[Chunk]:
        """Drop chunk ranges the receiver already has."""
        surviving: List[Chunk] = []
        for data_seq, length in chunks:
            for start, end in self._received.missing_within(
                data_seq, data_seq + length
            ):
                surviving.append((start, end - start))
        return surviving


class TcpConnection(ConnectionBase):
    """A single-path TCP bulk transfer over one attached path.

    Parameters
    ----------
    direction:
        ``"down"`` for a server-to-client transfer (the paper's default
        presentation), ``"up"`` for client-to-server.
    cc_factory:
        Builds the congestion controller; defaults to Reno, matching
        the decoupled baseline.  Pass ``Cubic`` for Linux defaults.
    """

    def __init__(
        self,
        loop: EventLoop,
        attached: AttachedPath,
        total_bytes: int,
        direction: str = "down",
        cc_factory: Callable[[TcpConfig], CongestionControl] = Reno,
        config: Optional[TcpConfig] = None,
    ) -> None:
        config = config if config is not None else TcpConfig()
        super().__init__(loop, total_bytes, config)
        self.direction = direction
        self.subflow = Subflow(
            loop, attached, self.flow_id, 0, direction,
            cc_factory(config), config, is_primary=True,
        )
        self.subflow.on_data_arrived = self._handle_data
        self.subflow.on_data_acked = self._handle_acked
        self.subflow.on_window_open = lambda sf: self._pump()
        self.subflow.on_established = lambda sf: self._pump()

    @property
    def subflows(self) -> List[Subflow]:
        return [self.subflow]

    def start(self) -> None:
        """Begin the handshake (and then the transfer)."""
        if self.started_at is not None:
            return
        self.started_at = self.loop.now
        self._log_time(self.loop.now)
        self._log_bytes(0)
        self.subflow.connect()
        self._maybe_complete()

    def _pump(self) -> None:
        while self.source.has_data() and self.subflow.can_send():
            chunk = self.source.next_chunk(self.config.mss_bytes)
            if chunk is None:
                break
            self.subflow.send_chunk(chunk)
        self._maybe_close_subflows()
