"""Tests for the ``python -m repro.obs`` command-line interface."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.manifest import RunManifest
from repro.obs.trace import TraceRecorder


@pytest.fixture()
def trace_file(tmp_path):
    recorder = TraceRecorder()
    recorder.emit("handshake", 0.03, path="wifi", subflow_id=0, rtt_s=0.03)
    recorder.emit("send", 0.05, path="wifi", subflow_id=0,
                  seq=1, length=1448, rxt=False)
    recorder.emit("cwnd", 0.06, path="wifi", subflow_id=0,
                  cwnd=11.0, ssthresh=None, reason="ack")
    target = tmp_path / "run.jsonl"
    recorder.save(str(target))
    return str(target)


def _manifest_file(tmp_path, name, **overrides):
    data = dict(
        key="tcp.1.wifi", spec_hash="aa", seed=7, cache_hit=False,
        wall_time_s=0.5, worker_pid=1, workers=1, package_version="1.0.0",
    )
    data.update(overrides)
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return str(target)


class TestSummarizeCommand:
    def test_summarize_prints_digest(self, trace_file, capsys):
        assert main(["summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "trace: 3 events" in out
        assert "subflow wifi/0:" in out
        assert "1448 bytes" in out

    def test_timeline_points_flag(self, trace_file, capsys):
        assert main(["summarize", trace_file, "--timeline-points", "2"]) == 0
        assert "cwnd timeline" in capsys.readouterr().out


class TestSummarizeManifests:
    """A sweep's run record: ``run-spec --trace`` / ``--metrics-out``."""

    def _write(self, tmp_path, rows):
        target = tmp_path / "sweep.manifests.json"
        target.write_text(json.dumps(rows))
        return str(target)

    def _row(self, key, **overrides):
        data = dict(
            key=key, spec_hash="aa", seed=7, cache_hit=False,
            wall_time_s=0.5, worker_pid=1, workers=2,
            package_version="1.0.0", resolved_s=0.6, extra={},
        )
        data.update(overrides)
        return data

    def test_renders_totals_and_rows(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            self._row("tcp.1.wifi"),
            self._row("tcp.2.wifi", cache_hit=True, wall_time_s=0.0,
                      resolved_s=0.1),
            self._row("tcp.3.wifi", wall_time_s=0.0, resolved_s=0.9,
                      extra={"attempts": 3, "failed": True,
                             "error": "ValueError: nope"}),
        ])
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "manifests: tasks 3   cache_hits 1   executed 2" in out
        assert "failed 1" in out
        assert "tcp.3.wifi  attempts=3  error=ValueError: nope" in out
        assert "units" not in out

    def test_units_columns_for_crowd_shards(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            self._row(f"crowd.crowd.shard.{i}", extra={"units": 250})
            for i in range(2)
        ])
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "units/s" in out
        assert "250        500  crowd.crowd.shard.0" in out

    def test_file_written_before_resolved_s_existed(self, tmp_path, capsys):
        row = self._row("old")
        del row["resolved_s"]
        assert main(["summarize", self._write(tmp_path, [row])]) == 0
        assert "max outstanding: 0" in capsys.readouterr().out

    def test_single_manifest_document_is_a_one_task_sweep(self, tmp_path,
                                                          capsys):
        path = _manifest_file(tmp_path, "one.json")
        assert main(["summarize", path]) == 0
        assert "manifests: tasks 1" in capsys.readouterr().out

    def test_not_a_run_record_falls_through_to_exit_2(self, tmp_path,
                                                      capsys):
        for rows in ([], [{"key": "half a manifest"}], [1, 2, 3]):
            assert main(["summarize", self._write(tmp_path, rows)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "summarize: cannot read" in captured.err
            assert "Traceback" not in captured.err


class TestDiffCommand:
    def test_identical_manifests_exit_zero(self, tmp_path, capsys):
        a = _manifest_file(tmp_path, "a.json")
        b = _manifest_file(tmp_path, "b.json")
        assert main(["diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_manifests_exit_one(self, tmp_path, capsys):
        a = _manifest_file(tmp_path, "a.json")
        b = _manifest_file(tmp_path, "b.json", seed=9)
        assert main(["diff", a, b]) == 1
        assert "seed" in capsys.readouterr().out

    def test_diff_round_trips_written_manifest(self, tmp_path):
        manifest = RunManifest(
            key="k", spec_hash="h", seed=None, cache_hit=True,
            wall_time_s=0.0, worker_pid=2, workers=2,
            package_version="1.0.0",
        )
        path = tmp_path / "m.json"
        manifest.write(str(path))
        assert main(["diff", str(path), str(path)]) == 0


@pytest.mark.parametrize("text", [
    "{}", "[1, 2]", "not json", '"x"',
    json.dumps({"key": "k", "spec_hash": "aa", "cache_hit": False,
                "wall_time_s": "slow", "worker_pid": 1, "workers": 1,
                "package_version": "1.0.0"}),
])
def test_diff_of_a_malformed_manifest_exits_2_with_one_line(
        tmp_path, capsys, text):
    good = _manifest_file(tmp_path, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for pair in ([str(bad), good], [good, str(bad)]):
        assert main(["diff", *pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("diff: cannot read manifest:")


class TestSummarizeBadInput:
    """Unknown/missing schema markers exit 2 with one line, no traceback."""

    def test_unknown_schema_json_exits_2(self, tmp_path, capsys):
        target = tmp_path / "unknown.json"
        target.write_text(json.dumps({"schema": "mystery/v9", "data": []},
                                     indent=2))
        assert main(["summarize", str(target)]) == 2
        captured = capsys.readouterr()
        error_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(error_lines) == 1
        assert "summarize: cannot read" in error_lines[0]

    def test_schemaless_object_exits_2(self, tmp_path, capsys):
        target = tmp_path / "plain.json"
        target.write_text(json.dumps({"results": [1, 2, 3]}))
        assert main(["summarize", str(target)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "summarize: cannot read" in err

    def test_jsonl_missing_required_field_exits_2(self, tmp_path, capsys):
        target = tmp_path / "bad.jsonl"
        target.write_text('{"kind": "send"}\n')  # no "t" timestamp
        assert main(["summarize", str(target)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe\x00garbage", b'{"t": NaN, "kind": "syn"}\n',
        b"[1, 2]\n", b'{"t": 1.0}\n',
    ])
    def test_undecodable_files_exit_2(self, tmp_path, capsys, content):
        target = tmp_path / "odd.jsonl"
        target.write_bytes(content)
        assert main(["summarize", str(target)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("summarize: cannot read")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "summarize: cannot read" in capsys.readouterr().err


class TestSummarizeTelemetry:
    def test_renders_sink_timeline(self, tmp_path, capsys):
        from repro.obs.telemetry import TelemetryBus, TelemetrySink

        bus = TelemetryBus()
        bus.sweep.begin(2)
        path = tmp_path / "telemetry.jsonl"
        with TelemetrySink(bus, str(path), interval_s=30.0):
            bus.sweep.add(cache_hit=False)
            bus.sweep.add(cache_hit=True)
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry timeline" in out
        assert "tasks: 2/2" in out
