"""Wire framing robustness: EOF, truncation, garbage, checksums."""

import argparse
import socket
import struct
import threading
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.parallel import resolve_executor_spec, wire
from tests.parallel.chaos import ChaosController, ChaosEvent, ChaosSpec, arm


pytestmark = pytest.mark.usefixtures("isolated_env")


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


class TestAddresses:
    def test_whitespace_around_the_host_is_stripped(self):
        assert wire.parse_address(" h : 80 ") == ("h", 80)

    @pytest.mark.parametrize("text", [
        "h:80:90",      # host "h:80"
        "[::1]:80",     # an IPv6 literal; the listener is IPv4 only
        "[h]:80",
        "h x:80",       # whitespace inside the host
    ])
    def test_a_host_that_can_never_resolve_is_configuration(self, text):
        # --connect and socket:… specs parse with it, --listen through it.
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            wire.parse_address(text)
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            resolve_executor_spec(f"socket:{text}")
        with pytest.raises(argparse.ArgumentTypeError, match="HOST:PORT"):
            wire.listen_address(text)


class TestChaosWireSeam:
    """The harness's wire wrapper, installed in-process."""

    @pytest.fixture
    def armed(self, monkeypatch):
        def arm_one(kind, seed=0, **trigger):
            spec = ChaosSpec(events=(ChaosEvent(kind=kind, **trigger),),
                             seed=seed)
            controller = ChaosController(spec, index=0, actions=object())
            arm(controller, monkeypatch.setattr)
            return controller
        return arm_one

    def test_truncated_result_frame_raises_at_receiver(self, pair, armed):
        left, right = pair
        armed("frame_truncate", nth=1)
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}] * 8))
        with pytest.raises(wire.WireError):
            wire.recv_frame(right)

    def test_garbled_result_frame_fails_its_checksum(self, pair, armed):
        left, right = pair
        armed("frame_garbage", nth=1)
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}] * 8))
        # The CRC was computed over the clean payload, so the flip is
        # always detected — never silently unpickled.
        with pytest.raises(wire.WireError, match="checksum mismatch"):
            wire.recv_frame(right)

    def test_heartbeats_do_not_advance_the_frame_counter(self, pair, armed):
        left, right = pair
        armed("frame_garbage", nth=1)
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

    def test_dropped_heartbeats_vanish_and_results_still_go(self, pair,
                                                            armed):
        left, right = pair
        controller = armed("heartbeat_drop", after_tasks=1, duration_s=30.0)
        wire.send_frame(left, wire.MSG_HEARTBEAT)  # not suppressed yet
        controller.on_task_done()
        wire.send_json(left, wire.MSG_HEARTBEAT, {"pid": 1})
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}]))
        assert wire.recv_frame(right) == (wire.MSG_HEARTBEAT, b"")
        assert wire.recv_frame(right)[0] == wire.MSG_RESULT
        assert controller.injected == {"heartbeat_drop": 1}

    def test_slow_connect_delays_the_first_hello_reply(self, pair, armed):
        client, server = pair
        wire.send_json(client, wire.MSG_HELLO, wire.hello_payload())
        controller = armed("slow_connect", duration_s=0.3)
        walls = []
        for _ in range(2):
            started = time.monotonic()
            assert wire.accept_hello(server, log=lambda message: None)
            walls.append(time.monotonic() - started)
            assert wire.recv_frame(client)[0] == wire.MSG_HELLO
            wire.send_json(client, wire.MSG_HELLO, wire.hello_payload())
        assert walls[0] >= 0.3 > walls[1]
        assert controller.injected == {"slow_connect": 1}

    def test_chaos_off_sends_clean_frames(self, pair):
        left, right = pair
        # Nothing is armed unless a test arms it: the seam is wire's own.
        assert wire.send_frame.__module__ == "repro.parallel.wire"
        wire.send_pickle(left, wire.MSG_RESULT, (0, [{"v": 1}]))
        msg_type, _ = wire.recv_frame(right)
        assert msg_type == wire.MSG_RESULT
