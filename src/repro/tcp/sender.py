"""The transmit engine driving one (sub)flow's data direction.

Implements the loss recovery of the Linux stack the paper measured:
cumulative ACKs with SACK blocks, duplicate-ACK-triggered fast
retransmit, SACK-based hole retransmission during recovery (one
retransmission per hole per recovery epoch, paced by the pipe), and an
RFC 6298 retransmission timer with exponential backoff.  RTT samples
come from the receiver's timestamp echo (RFC 7323 style), so they stay
clean even during recovery.  Window growth is delegated to a pluggable
:class:`~repro.tcp.cc.base.CongestionControl`.

Bookkeeping is sized for one ACK, not one window.  Unacknowledged
segments sit in a list in sequence order (``send_chunk`` only ever
appends at ``snd_nxt``); a cumulative ACK advances a head index and
the dead prefix is sliced off every :data:`_TRIM_THRESHOLD` records.
The SACK scoreboard is *resumable*: for each block start it remembers
how far that block has been applied, as ``(end, absolute position)``
— a position counts records since the sender was created, so trimming
does not move it.  The receiver only ever extends a block rightwards
(or merges it into the block on its left when a hole fills) and can
never report bytes beyond ``snd_nxt``, so the next ACK carrying the
same start has news only past the remembered position.  Records
tile the sequence space, hence at most one — the one just before the
remembered position — can straddle the old block edge; the scan steps
back over it.  A block that comes back *smaller* (ACKs reordered by a
delay spike) covers nothing new and is skipped.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, Dict, List, Tuple

from repro.core.events import EventLoop, Timer, noop
from repro.core.packet import Packet, PacketFlags
from repro.tcp.cc.base import CongestionControl
from repro.tcp.config import TcpConfig
from repro.tcp.rtt import RttEstimator
from repro.tcp.source import Chunk

__all__ = ["SubflowSender", "SenderStats"]

#: Acknowledged records are sliced off the front of the outstanding
#: list once this many have accumulated.
_TRIM_THRESHOLD = 256

_record_seq = attrgetter("seq")


@dataclass(slots=True)
class _SegmentRecord:
    seq: int
    length: int
    data_seq: int
    sent_at: float
    retransmitted: bool = False
    sacked: bool = False
    rxt_epoch: int = -1


@dataclass(slots=True)
class SenderStats:
    """Counters exposed for analysis and tests."""

    segments_sent: int = 0
    bytes_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0


class SubflowSender:
    """Reliable, congestion-controlled byte transmission on one subflow."""

    __slots__ = (
        "loop", "config", "cc", "rtt", "_transmit", "flow_id", "subflow_id",
        "snd_una", "snd_nxt", "_outstanding", "_head", "_trimmed",
        "_sack_marks", "_pipe", "_dupacks",
        "_in_recovery", "_recovery_point", "_recovery_epoch",
        "_max_sacked_end", "_head_retries", "_dead", "peer_window_bytes",
        "stats", "_rto_timer", "on_data_acked", "on_window_open", "on_dead",
        "on_rto_event", "obs", "obs_path",
    )

    def __init__(
        self,
        loop: EventLoop,
        config: TcpConfig,
        cc: CongestionControl,
        rtt: RttEstimator,
        transmit: Callable[[Packet], None],
        flow_id: int,
        subflow_id: int,
    ) -> None:
        self.loop = loop
        self.config = config
        self.cc = cc
        self.rtt = rtt
        self._transmit = transmit
        self.flow_id = flow_id
        self.subflow_id = subflow_id

        self.snd_una = 0
        self.snd_nxt = 0
        #: Sent segments in sequence order; those before ``_head`` are
        #: cumulatively ACKed and await the next trim.
        self._outstanding: List[_SegmentRecord] = []
        self._head = 0
        self._trimmed = 0  # records already sliced off the front
        #: SACK block start -> (block end applied, absolute position
        #: of the first record at or past that end).
        self._sack_marks: Dict[int, Tuple[int, int]] = {}
        self._pipe = 0  # outstanding, un-SACKed segments
        self._dupacks = 0
        self._in_recovery = False
        self._recovery_point = 0
        self._recovery_epoch = 0
        self._max_sacked_end = 0
        self._head_retries = 0
        self._dead = False
        #: Peer's advertised receive window (flow control); starts at
        #: the sender's own configured window until the first ACK.
        self.peer_window_bytes = config.receive_window_bytes
        self.stats = SenderStats()
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; every hot
        #: path only pays an is-None test when tracing is disabled.
        self.obs = None
        self.obs_path = ""

        self._rto_timer = Timer(loop, self._on_rto)

        # Connection-level callbacks (wired by the Subflow).
        self.on_data_acked = self.on_window_open = noop
        self.on_dead = self.on_rto_event = noop

        cc.srtt_getter = lambda: self.rtt.smoothed_rtt
        if hasattr(cc, "now_getter"):
            cc.now_getter = lambda: self.loop.now

    def release(self) -> None:
        """See :meth:`~repro.tcp.subflow.Subflow.release`."""
        self.on_data_acked = self.on_window_open = noop
        self.on_dead = self.on_rto_event = noop
        self._rto_timer.release()
        cc = self.cc
        cc.srtt_getter = noop
        if hasattr(cc, "now_getter"):
            cc.now_getter = noop
        cc.detach()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def inflight_segments(self) -> int:
        """Un-SACKed segments in flight (the SACK "pipe")."""
        return self._pipe

    @property
    def done(self) -> bool:
        """True when every byte handed to this sender has been ACKed."""
        return not self._unacked() and self.snd_una == self.snd_nxt

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def in_recovery(self) -> bool:
        return self._in_recovery

    def _unacked(self) -> int:
        """Segments sent and not yet cumulatively ACKed (SACKed or not)."""
        return len(self._outstanding) - self._head

    def window_space(self) -> int:
        """Whole segments that fit in min(cwnd, peer receive window)."""
        if self._dead:
            return 0
        space = int(self.cc.cwnd) - self._pipe
        flight_bytes = self.snd_nxt - self.snd_una
        rwnd_space = (
            self.peer_window_bytes - flight_bytes
        ) // self.config.mss_bytes
        if rwnd_space < space:
            space = rwnd_space
        return space if space > 0 else 0

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send_chunk(self, chunk: Chunk) -> None:
        """Assign subflow sequence space to ``chunk`` and transmit it."""
        data_seq, length = chunk
        record = _SegmentRecord(
            seq=self.snd_nxt, length=length, data_seq=data_seq, sent_at=self.loop.now
        )
        self._outstanding.append(record)
        self._pipe += 1
        self.snd_nxt += length
        self._emit(record)
        if not self._rto_timer.running:
            self._rto_timer.start(self.rtt.rto)

    def _emit(self, record: _SegmentRecord, retransmission: bool = False) -> None:
        now = self.loop.now
        packet = Packet(
            flow_id=self.flow_id,
            subflow_id=self.subflow_id,
            seq=record.seq,
            ack=0,
            flags=PacketFlags.ACK,
            payload_bytes=record.length,
            data_seq=record.data_seq,
            retransmitted=retransmission,
            sent_at=now,
        )
        record.sent_at = now
        stats = self.stats
        stats.segments_sent += 1
        stats.bytes_sent += record.length
        if retransmission:
            record.retransmitted = True
            stats.retransmits += 1
        if self.obs is not None:
            # Adjacent to the stats increments so trace-derived counts
            # reconcile exactly with SenderStats (see repro.obs.summary).
            self.obs.emit(
                "send", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                seq=record.seq, length=record.length,
                data_seq=record.data_seq, rxt=retransmission,
            )
        self._transmit(packet)

    def _emit_cwnd(self, reason: str) -> None:
        """Trace a cwnd/ssthresh change (caller checked ``obs``)."""
        ssthresh = self.cc.ssthresh
        self.obs.emit(
            "cwnd", self.loop.now, path=self.obs_path,
            flow_id=self.flow_id, subflow_id=self.subflow_id,
            cwnd=self.cc.cwnd,
            ssthresh=None if ssthresh == math.inf else ssthresh,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack_packet(self, packet: Packet) -> None:
        """Process a (possibly SACK-bearing) acknowledgment."""
        if self._dead:
            return
        if packet.rwnd is not None:
            self.peer_window_bytes = packet.rwnd
        if packet.echo_ts is not None and packet.echo_ts >= 0:
            sample = self.loop.now - packet.echo_ts
            self.rtt.add_sample(sample)
            self.cc.on_rtt_sample(sample)
        sack_advanced = self._apply_sack(packet)
        ack = packet.ack
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self._unacked():
            self._on_dup_ack()
        if self._in_recovery and sack_advanced:
            self._sack_retransmit()

    def _apply_sack(self, packet: Packet) -> bool:
        if not packet.sack:
            return False
        advanced = False
        outstanding = self._outstanding
        count = len(outstanding)
        head = self._head
        trimmed = self._trimmed
        marks = self._sack_marks
        pipe = self._pipe
        max_sacked = self._max_sacked_end
        for start, end in packet.sack:
            if end > max_sacked:
                max_sacked = end
            mark = marks.get(start)
            if mark is None:
                index = bisect_left(outstanding, start, head, count,
                                    key=_record_seq)
            elif end <= mark[0]:
                continue
            else:
                # One back: the record straddling the old block edge.
                index = max(head, mark[1] - trimmed - 1)
            while index < count:
                record = outstanding[index]
                seq = record.seq
                if seq >= end:
                    break
                if (not record.sacked and seq >= start
                        and seq + record.length <= end):
                    record.sacked = True
                    pipe -= 1
                    advanced = True
                index += 1
            marks[start] = (end, trimmed + index)
        self._pipe = pipe
        self._max_sacked_end = max_sacked
        return advanced

    def _on_new_ack(self, ack: int) -> None:
        acked_chunks: List[Chunk] = []
        outstanding = self._outstanding
        count = len(outstanding)
        first = head = self._head
        pipe = self._pipe
        while head < count:
            record = outstanding[head]
            if record.seq + record.length > ack:
                break
            head += 1
            if not record.sacked:
                pipe -= 1
            acked_chunks.append((record.data_seq, record.length))
        acked_segments = head - first
        unacked = count - head
        self._pipe = pipe
        if head > _TRIM_THRESHOLD:
            del outstanding[:head]
            self._trimmed += head
            head = 0
        self._head = head
        marks = self._sack_marks
        if marks:
            for start in [start for start in marks if start <= ack]:
                del marks[start]
        self.snd_una = ack
        self._dupacks = 0
        self._head_retries = 0

        if self._in_recovery:
            if ack >= self._recovery_point:
                self._in_recovery = False
                self.cc.cwnd = max(self.cc.ssthresh, 2.0)
                if self.obs is not None:
                    self._emit_cwnd("recovery_exit")
            else:
                # Partial ACK: the next hole is also lost (NewReno) —
                # SACK-driven retransmission handles it when blocks are
                # present; retransmit the head as the fallback.
                self._retransmit_head()
                self._sack_retransmit()
        else:
            self.cc.on_ack(float(acked_segments))
            if self.obs is not None:
                self._emit_cwnd("ack")
            if unacked and self._max_sacked_end > ack:
                # Holes left behind by an RTO (we are no longer in fast
                # recovery): keep repairing them, paced by the window.
                self._retransmit_head()
                self._sack_retransmit()

        if unacked:
            self._rto_timer.start(self.rtt.rto)
        else:
            self._rto_timer.stop()

        if acked_chunks:
            self.on_data_acked(acked_chunks)
        self.on_window_open()

    def _on_dup_ack(self) -> None:
        self._dupacks += 1
        if self.obs is not None:
            self.obs.emit(
                "dupack", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                count=self._dupacks,
            )
        if self._dupacks == self.config.dupack_threshold and not self._in_recovery:
            self._enter_recovery()
        elif self._in_recovery:
            self.on_window_open()

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recovery_point = self.snd_nxt
        self._recovery_epoch += 1
        # RFC 5681 FlightSize counts SACKed-but-unacked data too.
        self.cc.on_enter_recovery(float(self._unacked()))
        self.stats.fast_retransmits += 1
        if self.obs is not None:
            self.obs.emit(
                "fast_retransmit", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                recovery_point=self._recovery_point,
            )
            self._emit_cwnd("fast_retransmit")
        self._retransmit_head()
        self._sack_retransmit()

    def _retransmission_allowed(self, record: _SegmentRecord) -> bool:
        """Whether ``record`` may be (re)retransmitted right now.

        A segment is retransmitted at most once per recovery epoch —
        unless the retransmission itself has evidently been lost (no
        ACK/SACK for a full RTO), which Linux detects similarly.
        """
        if record.sacked:
            return False
        if record.rxt_epoch < self._recovery_epoch:
            return True
        return (self.loop.now - record.sent_at) > self.rtt.rto

    def _retransmit_head(self) -> None:
        for record in islice(self._outstanding, self._head, None):
            if record.sacked:
                continue
            if self._retransmission_allowed(record):
                record.rxt_epoch = self._recovery_epoch
                self._emit(record, retransmission=True)
                self._rto_timer.start(self.rtt.rto)
            return

    def _sack_retransmit(self) -> None:
        """Retransmit SACK-inferred holes, bounded by the window."""
        budget = self.window_space()
        if budget <= 0:
            return
        lost_boundary = self._max_sacked_end - (
            self.config.dupack_threshold * self.config.mss_bytes
        )
        for record in islice(self._outstanding, self._head, None):
            if budget <= 0:
                break
            if record.seq >= lost_boundary:
                break
            if record.sacked or not self._retransmission_allowed(record):
                continue
            record.rxt_epoch = self._recovery_epoch
            self._emit(record, retransmission=True)
            budget -= 1
        self._rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # Timeout handling
    # ------------------------------------------------------------------
    def _on_rto(self) -> None:
        if self._dead or not self._unacked():
            return
        self.stats.timeouts += 1
        self._head_retries += 1
        if self.obs is not None:
            # Before the retries-exhausted bail-out so every timeout
            # counted in SenderStats also appears in the trace.
            self.obs.emit(
                "rto", self.loop.now, path=self.obs_path,
                flow_id=self.flow_id, subflow_id=self.subflow_id,
                retries=self._head_retries, rto_s=self.rtt.rto,
            )
        if self._head_retries > self.config.max_data_retries:
            self._die()
            return
        self._in_recovery = False
        self._dupacks = 0
        self._recovery_epoch += 1
        self.cc.on_timeout(float(self._unacked()))
        self.rtt.back_off()
        if self.obs is not None:
            self._emit_cwnd("rto")
        self._retransmit_head()
        self.on_rto_event()

    def _die(self) -> None:
        self._dead = True
        self._rto_timer.stop()
        self.on_dead()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail(self) -> List[Chunk]:
        """Stop this sender and return the data chunks it never delivered.

        Called when the underlying interface is administratively
        removed; the connection reinjects the returned chunks onto the
        surviving subflows.
        """
        self._dead = True
        self._rto_timer.stop()
        # SACKed chunks are included too: a subflow-level SACK only
        # means the far receiver buffered them out of order; if they
        # never became in-order there, the connection never saw them.
        # The connection filters out anything already reassembled.
        chunks = [
            (r.data_seq, r.length) for r in self._outstanding[self._head:]
        ]
        self._outstanding.clear()
        self._head = 0
        self._sack_marks.clear()
        self._pipe = 0
        return chunks

    def __repr__(self) -> str:
        return (
            f"SubflowSender(flow={self.flow_id}.{self.subflow_id}, "
            f"una={self.snd_una}, nxt={self.snd_nxt}, "
            f"pipe={self._pipe}, cwnd={self.cc.cwnd:.1f})"
        )
