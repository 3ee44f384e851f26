"""The resumable SACK scoreboard against the full rescan it replaced.

``SubflowSender._apply_sack`` used to walk the whole outstanding
window once per SACK block per ACK.  It now resumes each block where
it left off; :class:`RescanSender` below keeps the old loop as the
reference.  Hypothesis drives both senders through the same random
history — sends (whole and odd-length, i.e. reinjected, chunks),
deliveries and losses seen through a model receiver that builds real
three-block SACKs (which merge when a hole fills), stale ACKs replayed
out of order, arbitrary unaligned blocks that later grow, clock advances that fire the
RTO timer, and ``fail()`` — and after every step the two must agree on
the pipe, every record's ``sacked`` flag, ``snd_una``, ``done``, each
packet put on the wire and each chunk handed back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventLoop
from repro.core.intervals import IntervalSet
from repro.core.packet import Packet, PacketFlags
from repro.tcp.cc.reno import Reno
from repro.tcp.config import TcpConfig
from repro.tcp.rtt import RttEstimator
from repro.tcp.sender import _TRIM_THRESHOLD, SubflowSender

MSS = 1448


class RescanSender(SubflowSender):
    """Reference: every block rescans every live record (the old loop)."""

    __slots__ = ()

    def _apply_sack(self, packet):
        if not packet.sack:
            return False
        advanced = False
        pipe = self._pipe
        max_sacked = self._max_sacked_end
        for start, end in packet.sack:
            if end > max_sacked:
                max_sacked = end
            for record in self._outstanding[self._head:]:
                if record.sacked:
                    continue
                seq = record.seq
                if seq >= start and seq + record.length <= end:
                    record.sacked = True
                    pipe -= 1
                    advanced = True
                elif seq >= end:
                    break
        self._pipe = pipe
        self._max_sacked_end = max_sacked
        return advanced


class Endpoint:
    """One sender under test plus everything it emitted."""

    def __init__(self, sender_class):
        self.loop = EventLoop()
        config = TcpConfig(max_rto_s=2.0, initial_cwnd_segments=4)
        self.wire = []
        self.acked = []
        self.sender = sender_class(
            self.loop, config, Reno(config), RttEstimator(config),
            self.wire.append, flow_id=1, subflow_id=0,
        )
        self.sender.on_data_acked = self.acked.extend
        self.returned = None

    def state(self):
        sender = self.sender
        live = sender._outstanding[sender._head:]
        return {
            "pipe": sender._pipe,
            "records": [(r.seq, r.length, r.data_seq, r.sacked,
                         r.retransmitted, r.rxt_epoch) for r in live],
            "snd_una": sender.snd_una,
            "snd_nxt": sender.snd_nxt,
            "done": sender.done,
            "dead": sender.dead,
            "in_recovery": sender.in_recovery,
            "cwnd": sender.cc.cwnd,
            "window_space": sender.window_space(),
            "max_sacked_end": sender._max_sacked_end,
            "wire": [(p.seq, p.payload_bytes, p.data_seq, p.retransmitted,
                      p.sent_at) for p in self.wire],
            "acked": list(self.acked),
            "returned": self.returned,
            "timeouts": sender.stats.timeouts,
            "now": self.loop.now,
        }


class History:
    """Applies one generated history to both senders in lock step."""

    def __init__(self):
        self.fast = Endpoint(SubflowSender)
        self.reference = Endpoint(RescanSender)
        self.ends = (self.fast, self.reference)
        self.received = IntervalSet()  # the model receiver
        self.acks = []  # every ACK built so far, for stale replays
        self.blocks = []  # every block sent so far, for regrowth
        self.next_data_seq = 0

    def check(self):
        fast, reference = self.fast.state(), self.reference.state()
        assert fast == reference
        live = self.fast.sender._outstanding[self.fast.sender._head:]
        assert fast["pipe"] == sum(1 for r in live if not r.sacked)

    def send(self, count, odd):
        for _ in range(count):
            length = odd if odd else MSS
            for end in self.ends:
                end.sender.send_chunk((self.next_data_seq, length))
            self.next_data_seq += length
        self.check()

    def _ack(self, ack, sack):
        self.blocks.extend(sack or ())
        for end in self.ends:
            end.sender.on_ack_packet(Packet(
                flow_id=1, ack=ack, flags=PacketFlags.ACK,
                sack=sack, echo_ts=max(0.0, end.loop.now - 0.05),
            ))
        self.check()

    def deliver(self, pick, burst):
        """The receiver gets ``burst`` wire packets starting at ``pick``."""
        wire = self.fast.wire
        if not wire:
            return
        for offset in range(burst):
            packet = wire[(pick + offset) % len(wire)]
            self.received.add(packet.seq, packet.seq + packet.payload_bytes)
            rcv_nxt = self.received.contiguous_from(0)
            blocks = tuple(
                (start, end) for start, end in self.received
                if end > rcv_nxt
            )[-3:]
            self.acks.append((rcv_nxt, blocks or None))
            self._ack(rcv_nxt, blocks or None)

    def replay(self, pick):
        if self.acks:
            self._ack(*self.acks[pick % len(self.acks)])

    def junk(self, blocks):
        """Blocks that ignore segment boundaries, below ``snd_nxt``."""
        snd_nxt = self.fast.sender.snd_nxt
        clipped = tuple(
            (start, min(start + length, snd_nxt))
            for start, length in blocks if start < snd_nxt
        )
        self._ack(self.fast.sender.snd_una, clipped or None)

    def grow(self, pick, extra):
        """An earlier block again, ``extra`` bytes longer: its new edge
        may cut a segment in two, or swallow one the old edge cut."""
        if self.blocks:
            start, end = self.blocks[pick % len(self.blocks)]
            end = min(end + extra, self.fast.sender.snd_nxt)
            if start < end:
                self._ack(self.fast.sender.snd_una, ((start, end),))

    def advance(self, seconds):
        for end in self.ends:
            end.loop.run(until=end.loop.now + seconds)
        self.check()

    def fail(self):
        for end in self.ends:
            end.returned = end.sender.fail()
        self.check()


STEPS = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 12),
              st.sampled_from([0, 0, 0, 1, 517, 1447])),
    st.tuples(st.just("deliver"), st.integers(0, 2000), st.integers(1, 12)),
    st.tuples(st.just("deliver"), st.integers(0, 2000), st.integers(1, 12)),
    st.tuples(st.just("replay"), st.integers(0, 2000)),
    st.tuples(st.just("junk"), st.lists(
        st.tuples(st.integers(0, 60 * MSS), st.integers(1, 9 * MSS)),
        min_size=1, max_size=3)),
    st.tuples(st.just("grow"), st.integers(0, 2000),
              st.sampled_from([1, 700, MSS, MSS + 1, 3 * MSS])),
    st.tuples(st.just("advance"), st.sampled_from([0.01, 0.3, 1.1, 2.5])),
)


def _run(history, steps):
    for step in steps:
        getattr(history, step[0])(*step[1:])


@given(st.lists(STEPS, min_size=1, max_size=40), st.booleans())
@settings(max_examples=250, deadline=None)
def test_scoreboard_matches_full_rescan(steps, fail_midway):
    history = History()
    _run(history, steps)
    if fail_midway:
        # The interface goes away: both hand back the same chunks, and
        # a dead sender ignores whatever arrives afterwards.
        history.fail()
        assert history.fast.sender._sack_marks == {}
        _run(history, steps[:5])


@given(st.integers(_TRIM_THRESHOLD + 60, _TRIM_THRESHOLD + 200),
       st.lists(STEPS, min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_scoreboard_survives_trimming(window, steps):
    """A block grows past the trim threshold, then the head is cut off."""
    history = History()
    history.send(window, 0)
    history.deliver(0, 3)
    # Segment 3 is lost; the block behind it grows across > 256 records.
    history.deliver(4, window - 40)
    # A second hole (segment window-35) with a block above the trim line.
    history.deliver(window - 34, 20)
    assert len(history.fast.sender._sack_marks) == 2
    history.deliver(3, 1)  # the cumulative ACK jumps past the threshold
    assert history.fast.sender._trimmed > _TRIM_THRESHOLD
    assert list(history.fast.sender._sack_marks) == [(window - 34) * MSS]
    history.deliver(window - 14, 6)  # ... and the surviving block resumes
    _run(history, steps)


def test_three_blocks_merge_when_a_hole_fills():
    history = History()
    history.send(12, 0)
    for index in (2, 3, 5, 7, 8):  # blocks [2,4) [5,6) [7,9), in segments
        history.deliver(index, 1)
    assert history.acks[-1][1] == (
        (2 * MSS, 4 * MSS), (5 * MSS, 6 * MSS), (7 * MSS, 9 * MSS))
    history.deliver(4, 1)  # first two blocks become one
    history.deliver(6, 1)  # ... and swallow the third
    assert history.acks[-1][1] == ((2 * MSS, 9 * MSS),)
    records = history.fast.state()["records"]
    assert [sacked for _, _, _, sacked, _, _ in records] == (
        [False] * 2 + [True] * 7 + [False] * 3)
    history.replay(0)  # a stale, smaller block changes nothing
    history.deliver(0, 2)
    assert history.fast.sender.snd_una == 9 * MSS
    assert history.fast.sender._sack_marks == {}
