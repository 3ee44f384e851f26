"""``python -m repro.obs top``: rendering and both snapshot sources."""

import json

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import TelemetryBus, TelemetryServer
from repro.obs.top import (
    fetch_http_snapshot,
    read_last_snapshot,
    render_top,
    top_main,
)


@pytest.fixture(autouse=True)
def _clean_plane():
    telemetry.disable()
    yield
    telemetry.disable()


def _busy_bus():
    bus = TelemetryBus()
    bus.record("sweep.tasks_total", 8)
    bus.count("sweep.tasks_done", 3)
    bus.publish_worker("127.0.0.1:41001", {
        "pid": 11, "interval_s": 1.0, "tasks_done": 2, "in_flight": 1,
        "queue_depth": 3, "tasks_per_s": 0.8, "rss_kb": 40960.0,
    })
    bus.publish_worker("127.0.0.1:41002", {
        "pid": 12, "interval_s": 1.0, "tasks_done": 1, "in_flight": 0,
        "queue_depth": 2, "tasks_per_s": 0.4, "rss_kb": 38912.0,
    })
    return bus


class TestRender:
    def test_fleet_header_and_worker_rows(self):
        frame = render_top(_busy_bus().snapshot())
        assert "tasks 3/8" in frame
        assert "workers: 2" in frame
        assert "127.0.0.1:41001" in frame
        assert "127.0.0.1:41002" in frame
        # Per-worker throughput and queue-depth columns are present.
        assert "tasks/s" in frame
        assert "queue" in frame
        assert "0.8" in frame and "0.4" in frame
        assert "40.0" in frame  # 40960 KiB -> 40.0 MB

    def test_degraded_worker_flagged(self):
        bus = _busy_bus()
        snapshot = bus.snapshot(now=bus.snapshot()["time"] + 100.0)
        frame = render_top(snapshot)
        assert "DEGRADED: 2" in frame
        assert "degraded" in frame

    def test_no_workers_renders_hint(self):
        bus = TelemetryBus()
        bus.record("sweep.tasks_total", 2)
        frame = render_top(bus.snapshot())
        assert "no worker heartbeats" in frame


class TestFileSource:
    def test_reads_last_snapshot(self, tmp_path):
        bus = _busy_bus()
        path = tmp_path / "telemetry.jsonl"
        first = bus.snapshot()
        bus.count("sweep.tasks_done")
        second = bus.snapshot()
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        snap = read_last_snapshot(str(path))
        assert snap["fleet"]["tasks_done"] == 4.0

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"schema": "not/telemetry"}\n')
        with pytest.raises(ValueError):
            read_last_snapshot(str(path))

    def test_top_main_once_with_file(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(json.dumps(_busy_bus().snapshot()) + "\n")
        assert top_main([str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "tasks 3/8" in out

    def test_top_main_missing_file_exits_2(self, tmp_path, capsys):
        assert top_main([str(tmp_path / "nope.jsonl"), "--once"]) == 2
        assert "repro.obs top:" in capsys.readouterr().err


class TestHttpSource:
    def test_fetch_and_top_main_connect(self, capsys):
        server = TelemetryServer(_busy_bus())
        host, port = server.start()
        try:
            snap = fetch_http_snapshot(host, port)
            assert snap["fleet"]["tasks_done"] == 3.0
            assert top_main(["--connect", f"{host}:{port}", "--once"]) == 0
        finally:
            server.stop()
        assert "127.0.0.1:41001" in capsys.readouterr().out

    def test_connect_refused_exits_2(self, capsys):
        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert top_main(["--connect", f"127.0.0.1:{port}", "--once"]) == 2
        assert "repro.obs top:" in capsys.readouterr().err


class TestCliDispatch:
    def test_obs_main_routes_top(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "telemetry.jsonl"
        path.write_text(json.dumps(_busy_bus().snapshot()) + "\n")
        assert main(["top", str(path), "--once"]) == 0
        assert "tasks 3/8" in capsys.readouterr().out


class TestResilienceLine:
    def test_absent_when_all_counters_zero(self):
        from repro.obs.top import resilience_line

        assert resilience_line({}) is None
        assert resilience_line({"sweep.tasks_done": 5.0}) is None
        frame = render_top(_busy_bus().snapshot())
        assert "resilience:" not in frame

    def test_present_with_only_nonzero_events(self):
        from repro.obs.top import resilience_line

        line = resilience_line({
            "executor.redispatches": 3.0,
            "sweep.degraded": 1.0,
        })
        assert line == "resilience: redispatches 3   degraded sweeps 1"

    def test_labelled_counters_are_summed(self):
        from repro.obs.top import resilience_line

        line = resilience_line({
            "fleet.restarts{worker=127.0.0.1:9001}": 2.0,
            "fleet.restarts{worker=127.0.0.1:9002}": 1.0,
        })
        assert "restarts 3" in line

    def test_rendered_into_top_frame(self):
        bus = _busy_bus()
        bus.count("executor.redispatches")
        bus.count("fleet.restarts", worker="127.0.0.1:41001")
        frame = render_top(bus.snapshot())
        assert "resilience: restarts 1   redispatches 1" in frame

    def test_rendered_into_timeline(self):
        from repro.obs.telemetry import render_telemetry_timeline

        bus = _busy_bus()
        bus.count("executor.redispatches")
        text = render_telemetry_timeline([bus.snapshot()])
        assert "redispatches 1" in text
