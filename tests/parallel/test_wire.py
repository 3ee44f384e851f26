"""Wire framing robustness: EOF, truncation, garbage, checksums."""

import socket
import struct
import threading

import pytest

from repro.parallel import chaos, wire
from repro.parallel.chaos import ChaosController, ChaosEvent, ChaosSpec


pytestmark = pytest.mark.usefixtures("isolated_env")  # no ambient chaos


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_json_round_trip(self, pair):
        left, right = pair
        wire.send_json(left, wire.MSG_HELLO, {"version": 2, "pid": 7})
        msg_type, payload = wire.recv_frame(right)
        assert msg_type == wire.MSG_HELLO
        assert wire.recv_json(payload) == {"version": 2, "pid": 7}

    def test_pickle_round_trip(self, pair):
        left, right = pair
        shard = (3, [{"value": 1}, {"value": 2}])
        wire.send_pickle(left, wire.MSG_RESULT, shard)
        msg_type, payload = wire.recv_frame(right)
        assert msg_type == wire.MSG_RESULT
        import pickle

        assert pickle.loads(payload) == shard

    def test_empty_payload_frame(self, pair):
        left, right = pair
        wire.send_frame(left, wire.MSG_SHUTDOWN)
        assert wire.recv_frame(right) == (wire.MSG_SHUTDOWN, b"")

    def test_concurrent_senders_interleave_whole_frames(self, pair):
        left, right = pair
        lock = threading.Lock()
        threads = [
            threading.Thread(
                target=wire.send_json,
                args=(left, wire.MSG_REPORT, {"i": i}),
                kwargs={"lock": lock},
            )
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seen = set()
        for _ in range(8):
            msg_type, payload = wire.recv_frame(right)
            assert msg_type == wire.MSG_REPORT
            seen.add(wire.recv_json(payload)["i"])
        assert seen == set(range(8))


class TestRobustness:
    def test_clean_eof_between_frames(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(wire.WireError,
                           match="peer closed the connection"):
            wire.recv_frame(right)

    def test_eof_mid_frame(self, pair):
        left, right = pair
        # Header promises 100 payload bytes; only 10 arrive, then EOF.
        left.sendall(struct.pack(">BII", wire.MSG_RESULT, 100, 0) + b"x" * 10)
        left.close()
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.recv_frame(right)

    def test_oversize_frame_rejected_before_allocation(self, pair):
        left, right = pair
        left.sendall(struct.pack(
            ">BII", wire.MSG_RESULT, wire.MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(wire.WireError, match="cap"):
            wire.recv_frame(right)

    def test_receive_deadline(self, pair):
        _, right = pair
        with pytest.raises(wire.WireError, match="silent"):
            wire.recv_frame(right, timeout_s=0.1)

    def test_checksum_catches_corrupt_payload(self, pair):
        left, right = pair
        payload = b"trustworthy bytes"
        left.sendall(struct.pack(">BII", wire.MSG_RESULT, len(payload),
                                 12345678) + payload)
        with pytest.raises(wire.WireError, match="checksum mismatch"):
            wire.recv_frame(right)


class TestChaosWireSeam:
    def _arm(self, kind, nth=1, seed=0):
        spec = ChaosSpec(
            events=(ChaosEvent(kind=kind, target=0, nth=nth),), seed=seed)
        chaos.set_controller(ChaosController(spec, index=0,
                                             actions=object()))

    def test_truncated_result_frame_raises_at_receiver(self, pair):
        left, right = pair
        self._arm("frame_truncate")
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}] * 8))
        with pytest.raises(wire.WireError):
            wire.recv_frame(right)

    def test_garbled_result_frame_fails_its_checksum(self, pair):
        left, right = pair
        self._arm("frame_garbage")
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}] * 8))
        # The CRC was computed over the clean payload, so the flip is
        # always detected — never silently unpickled.
        with pytest.raises(wire.WireError, match="checksum mismatch"):
            wire.recv_frame(right)

    def test_heartbeats_do_not_advance_the_frame_counter(self, pair):
        left, right = pair
        self._arm("frame_garbage", nth=1)
        # Heartbeat cadence is wall-clock-driven; if it advanced the
        # counter, "the 1st RESULT frame" would be nondeterministic.
        wire.send_frame(left, wire.MSG_HEARTBEAT)
        wire.send_json(left, wire.MSG_HEARTBEAT, {"pid": 1})
        assert wire.recv_frame(right) == (wire.MSG_HEARTBEAT, b"")
        msg_type, _ = wire.recv_frame(right)
        assert msg_type == wire.MSG_HEARTBEAT
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}] * 8))
        with pytest.raises(wire.WireError, match="checksum mismatch"):
            wire.recv_frame(right)

    def test_chaos_off_sends_clean_frames(self, pair):
        left, right = pair
        assert chaos.active_controller() is None
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}]))
        msg_type, _ = wire.recv_frame(right)
        assert msg_type == wire.MSG_RESULT
