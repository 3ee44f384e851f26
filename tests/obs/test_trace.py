"""Tests for the typed trace recorder and its JSONL serialization."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.trace import (
    EVENT_KINDS,
    TraceEvent,
    TraceRecorder,
    active_trace_dir,
    iter_events,
    load_events,
    trace_filename,
)


class TestTraceRecorder:
    def test_emit_records_envelope_and_fields(self):
        recorder = TraceRecorder()
        recorder.emit("send", 1.25, path="wifi", flow_id=3, subflow_id=0,
                      seq=1448, length=1448, rxt=False)
        (event,) = recorder.events
        assert event.time == 1.25
        assert event.kind == "send"
        assert event.path == "wifi"
        assert event.flow_id == 3
        assert event.subflow_id == 0
        assert event.fields == {"seq": 1448, "length": 1448, "rxt": False}

    def test_unknown_kind_rejected(self):
        recorder = TraceRecorder()
        with pytest.raises(ConfigurationError):
            recorder.emit("teleport", 0.0)
        assert len(recorder) == 0

    def test_every_documented_kind_accepted(self):
        recorder = TraceRecorder()
        for kind in sorted(EVENT_KINDS):
            recorder.emit(kind, 0.0)
        assert len(recorder) == len(EVENT_KINDS)

    def test_of_kind_filters_in_order(self):
        recorder = TraceRecorder()
        recorder.emit("send", 0.1, seq=1)
        recorder.emit("cwnd", 0.2, cwnd=11.0)
        recorder.emit("send", 0.3, seq=2)
        sends = recorder.of_kind("send")
        assert [e.fields["seq"] for e in sends] == [1, 2]

    def test_kinds_counts(self):
        recorder = TraceRecorder()
        recorder.emit("send", 0.1)
        recorder.emit("send", 0.2)
        recorder.emit("rto", 0.3)
        assert recorder.kinds() == {"send": 2, "rto": 1}


class TestJsonlRoundTrip:
    def test_round_trip_preserves_events(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit("handshake", 0.034, path="wifi", subflow_id=0,
                      rtt_s=0.0339)
        recorder.emit("cwnd", 0.08, path="wifi", subflow_id=0,
                      cwnd=11.0, ssthresh=None, reason="ack")
        target = tmp_path / "run.jsonl"
        recorder.save(str(target))
        loaded = load_events(str(target))
        assert loaded == recorder.events

    def test_jsonl_is_one_compact_object_per_line(self):
        recorder = TraceRecorder()
        recorder.emit("syn", 0.0, path="lte", subflow_id=1, retries=0)
        recorder.emit("rto", 1.0, path="lte", subflow_id=1, rto_s=0.4)
        lines = recorder.to_jsonl().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith('{"flow":-1,"kind":"syn"')
        assert " " not in lines[0]

    def test_empty_trace_saves_empty_file(self, tmp_path):
        target = tmp_path / "empty.jsonl"
        TraceRecorder().save(str(target))
        assert target.read_text() == ""
        assert load_events(str(target)) == []

    def test_malformed_line_raises_with_line_number(self):
        lines = ['{"t": 0.0, "kind": "syn"}', "not json"]
        with pytest.raises(ConfigurationError, match="line 2"):
            list(iter_events(lines))

    @pytest.mark.parametrize("line, names", [
        ("[1, 2]", "JSON object"),
        ('"syn"', "JSON object"),
        ('{"kind": "syn"}', "missing field 't'"),
        ('{"t": 0.5}', "missing field 'kind'"),
        ('{"t": NaN, "kind": "syn"}', "field 't'"),
        ('{"t": Infinity, "kind": "syn"}', "field 't'"),
        ('{"t": "soon", "kind": "syn"}', "field 't'"),
        ('{"t": 0.5, "kind": "syn", "flow": "x"}', "field 'flow'"),
    ])
    def test_malformed_event_names_line_and_field(self, line, names):
        lines = ['{"t": 0.0, "kind": "syn"}', line]
        with pytest.raises(ConfigurationError, match=names) as excinfo:
            list(iter_events(lines))
        assert "trace line 2" in str(excinfo.value)

    def test_blank_lines_skipped(self):
        lines = ["", '{"t": 1.0, "kind": "rto"}', "   "]
        events = list(iter_events(lines))
        assert len(events) == 1
        assert events[0] == TraceEvent(time=1.0, kind="rto")


class TestTraceEnv:
    def test_active_trace_dir_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        assert active_trace_dir() is None

    def test_active_trace_dir_blank_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", "   ")
        assert active_trace_dir() is None

    def test_active_trace_dir_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/traces")
        assert active_trace_dir() == "/tmp/traces"

    def test_trace_filename_sanitizes_key(self):
        name = trace_filename("mptcp.3:wifi/coupled", 42)
        assert name == "mptcp.3_wifi_coupled-s42.jsonl"

    def test_trace_filename_without_seed(self):
        assert trace_filename("tcp.1.wifi", None) == "tcp.1.wifi.jsonl"
