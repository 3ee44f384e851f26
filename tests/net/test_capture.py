"""Tests for the tcpdump-analog packet capture."""

from repro import MptcpOptions, PathConfig, Scenario
from repro.core.packet import PacketFlags
from repro.net.capture import CapturedPacket, PacketCapture
from repro.obs.trace import TraceRecorder


def _captured(flags: PacketFlags) -> CapturedPacket:
    return CapturedPacket(time=0.0, direction="in", interface="wifi",
                          flow_id=1, subflow_id=0, seq=0, ack=0,
                          payload_bytes=0, flags=flags)


class TestFlagString:
    """tcpdump compound forms: ACK renders as a trailing ``.``."""

    def test_syn_ack_is_compound(self):
        assert _captured(PacketFlags.SYN | PacketFlags.ACK).flag_string() == "S."

    def test_fin_ack_is_compound(self):
        assert _captured(PacketFlags.FIN | PacketFlags.ACK).flag_string() == "F."

    def test_pure_ack_is_dot(self):
        assert _captured(PacketFlags.ACK).flag_string() == "."

    def test_bare_syn(self):
        assert _captured(PacketFlags.SYN).flag_string() == "S"

    def test_no_flags_is_dash(self):
        assert _captured(PacketFlags.NONE).flag_string() == "-"


def _scenario():
    scenario = Scenario()
    scenario.add_path(PathConfig(name="wifi", down_mbps=10, up_mbps=5,
                                 rtt_ms=40))
    scenario.add_path(PathConfig(name="lte", down_mbps=8, up_mbps=4,
                                 rtt_ms=80))
    return scenario


class TestPacketCapture:
    def test_captures_both_directions(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 50 * 1024))
        directions = {p.direction for p in capture.packets}
        assert directions == {"in", "out"}

    def test_handshake_and_teardown_visible(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 50 * 1024))
        flags = [p.flag_string() for p in capture.packets]
        assert "S" in flags          # SYN out
        assert any("F" in f for f in flags)  # FINs
        assert "." in flags          # plain ACKs

    def test_bytes_received_matches_transfer(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 50 * 1024))
        assert capture.bytes_received == 50 * 1024

    def test_times_are_monotone(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 100 * 1024))
        times = [p.time for p in capture.packets]
        assert times == sorted(times)

    def test_flow_filter(self):
        scenario = _scenario()
        first = scenario.tcp("wifi", 10 * 1024)
        capture = PacketCapture(scenario.path("wifi"),
                                flow_filter=first.flow_id)
        scenario.run_transfer(first)
        scenario.run_transfer(scenario.tcp("wifi", 10 * 1024))
        assert all(p.flow_id == first.flow_id for p in capture.packets)

    def test_mp_join_annotated(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("lte"))
        connection = scenario.mptcp(
            50 * 1024, options=MptcpOptions(primary="wifi"))
        scenario.run_transfer(connection)
        assert any("mp_join" in p.format() for p in capture.packets)

    def test_text_format(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 10 * 1024))
        text = capture.to_text(limit=5)
        assert len(text.splitlines()) == 5
        assert "Flags [S]" in text.splitlines()[0]

    def test_save(self, tmp_path):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 10 * 1024))
        out = str(tmp_path / "trace.txt")
        capture.save(out)
        assert len(open(out).read().splitlines()) == len(capture)

    def test_syn_ack_rendered_compound_in_live_capture(self):
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.run_transfer(scenario.tcp("wifi", 10 * 1024))
        flags = [p.flag_string() for p in capture.packets]
        # The server's SYN-ACK arrives as the compound "S." form.
        assert "S." in flags

    def test_recorder_sink_mirrors_capture(self):
        recorder = TraceRecorder()
        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"), recorder=recorder)
        scenario.run_transfer(scenario.tcp("wifi", 10 * 1024))
        events = recorder.of_kind("packet")
        assert len(events) == len(capture.packets)
        assert [e.fields["flags"] for e in events] == [
            p.flag_string() for p in capture.packets
        ]

    def test_window_update_flagged(self):
        from repro.faults import FaultEvent, FaultSpec

        scenario = _scenario()
        capture = PacketCapture(scenario.path("wifi"))
        scenario.inject_faults(FaultSpec(events=(
            FaultEvent("blackhole", "lte", at_s=0.3),)))
        connection = scenario.mptcp(
            500 * 1024, options=MptcpOptions(primary="lte", mode="backup"))
        connection.start()
        scenario.run(until=10.0)
        assert any("W" in p.flag_string() for p in capture.packets)
