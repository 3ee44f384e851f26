"""The live telemetry plane: bus, staleness, exporters, bit-identity."""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.core.errors import ConfigurationError
from repro.linkem.conditions import make_conditions
from repro.obs import telemetry
from repro.obs.telemetry import (
    STALE_INTERVALS,
    TELEMETRY_SCHEMA,
    TelemetryBus,
    TelemetryServer,
    TelemetrySink,
    WorkerHealth,
    active_bus,
    load_telemetry_snapshots,
    render_prometheus,
    render_telemetry_timeline,
    telemetry_enabled_by_env,
)
from repro.parallel import SimTask, SweepRunner
from repro.workload import Session, TransferSpec

FLOW_BYTES = 16 * 1024


pytestmark = pytest.mark.usefixtures("isolated_env")


class _FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _double_tasks(n=6):
    return [
        SimTask(fn="tests.parallel._tasks:double",
                kwargs={"value": value}, key=f"double.{value}")
        for value in range(n)
    ]


# ---------------------------------------------------------------------------
# Bus basics
# ---------------------------------------------------------------------------
def _resolve(bus, count, cache_hit=False):
    for _ in range(count):
        bus.sweep.add(cache_hit)


class TestBus:
    def test_count_feeds_counter(self):
        bus = TelemetryBus(clock=_FakeClock())
        bus.count("fleet.restarts", worker="w0")
        bus.count("fleet.restarts", 2, worker="w0")
        snap = bus.snapshot()["metrics"]
        assert snap == {"fleet.restarts{worker=w0}": 3.0}
        assert "repro_fleet_restarts{worker=\"w0\"} 3.0" in \
            render_prometheus(bus)

    def test_sweep_series_are_read_off_the_tally(self):
        bus = TelemetryBus(clock=_FakeClock())
        assert bus.snapshot()["metrics"] == {}  # no sweep, no series
        bus.sweep.begin(7)
        bus.sweep.add(cache_hit=True)
        bus.sweep.add(cache_hit=False, failed=True)
        assert bus.snapshot()["metrics"] == {
            "sweep.runs": 1.0, "sweep.tasks_total": 7.0,
            "sweep.tasks_done": 2.0, "sweep.cache_hits": 1.0,
            "sweep.tasks_failed": 1.0, "sweep.degraded": 0.0,
            "sweep.queue_depth": 5.0,
        }
        text = render_prometheus(bus)
        for name, kind in (("runs", "counter"), ("tasks_done", "counter"),
                           ("cache_hits", "counter"),
                           ("tasks_failed", "counter"),
                           ("degraded", "counter"),
                           ("tasks_total", "gauge"),
                           ("queue_depth", "gauge")):
            assert f"# TYPE repro_sweep_{name} {kind}\n" in text
        # The time-series expansions are gone for good.
        assert "_last" not in text and "_rate" not in text

    def test_timer_observes_histogram(self):
        bus = TelemetryBus()
        with bus.timer("coordinator.dispatch"):
            pass
        snap = bus.registry.snapshot()
        assert snap["coordinator.dispatch_s_count"] == 1.0
        assert snap["coordinator.dispatch_s_sum"] >= 0.0

    def test_snapshot_fleet_totals_and_eta(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.sweep.begin(10)
        clock.advance(1.0)
        _resolve(bus, 1)
        clock.advance(2.0)
        _resolve(bus, 3)
        snap = bus.snapshot()
        assert snap["schema"] == TELEMETRY_SCHEMA
        fleet = snap["fleet"]
        assert fleet["tasks_total"] == 10.0
        assert fleet["tasks_done"] == 4.0
        # 4 resolutions, the last 3 of them 2s after the first.
        assert fleet["rate_per_s"] == pytest.approx(1.5)
        # 4 executed in 3s since the sweep began, 6 left -> 4.5s.
        assert fleet["eta_s"] == pytest.approx(4.5)

    def test_cache_hits_do_not_forecast_the_eta(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.sweep.begin(10)
        _resolve(bus, 5, cache_hit=True)
        clock.advance(1.0)
        assert bus.snapshot()["fleet"]["eta_s"] is None
        _resolve(bus, 1)
        # 1 executed in 1s, 4 left: a warm prefix does not make it ~0s.
        assert bus.snapshot()["fleet"]["eta_s"] == pytest.approx(4.0)

    def test_snapshot_is_json_serializable(self):
        bus = TelemetryBus()
        bus.sweep.begin(2)
        _resolve(bus, 1)
        bus.publish_worker("w:1", {"pid": 9, "tasks_done": 1})
        json.dumps(bus.snapshot())

    def test_clear_resets_everything(self):
        bus = TelemetryBus()
        bus.sweep.begin(2)
        _resolve(bus, 1)
        bus.count("executor.redispatches")
        bus.publish_worker("w:1", {"pid": 9})
        bus.clear()
        assert bus.snapshot()["metrics"] == {}
        assert bus.snapshot()["fleet"]["tasks_total"] == 0.0
        assert bus.workers() == []

    def test_concurrent_publishers_do_not_corrupt(self):
        bus = TelemetryBus()

        def hammer(worker_id):
            for i in range(200):
                bus.sweep.add(cache_hit=False)
                bus.count("executor.redispatches")
                bus.publish_worker(worker_id, {"pid": 1, "tasks_done": i})

        threads = [
            threading.Thread(target=hammer, args=(f"w:{n}",))
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert bus.snapshot()["fleet"]["tasks_done"] == 800.0
        assert bus.snapshot()["metrics"]["executor.redispatches"] == 800.0
        assert len(bus.workers()) == 4


# ---------------------------------------------------------------------------
# The process-wide switch
# ---------------------------------------------------------------------------
class TestSwitch:
    def test_off_by_default(self):
        assert active_bus() is None

    def test_enable_disable(self):
        bus = telemetry.enable()
        assert active_bus() is bus
        assert telemetry.get_bus() is bus  # idempotent
        telemetry.disable()
        assert active_bus() is None

    def test_env_var_lazily_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry_enabled_by_env()
        bus = active_bus()
        assert bus is not None
        assert active_bus() is bus

    def test_falsy_env_values_stay_off(self, monkeypatch):
        for value in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            assert not telemetry_enabled_by_env()
            assert active_bus() is None


# ---------------------------------------------------------------------------
# Worker health / staleness
# ---------------------------------------------------------------------------
class TestStaleness:
    def test_fresh_worker_is_ok(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("127.0.0.1:9", {"pid": 4, "interval_s": 1.0})
        (health,) = bus.workers()
        assert health.state(clock()) == "ok"

    def test_no_heartbeat_past_three_intervals_is_degraded(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("127.0.0.1:9", {"pid": 4, "interval_s": 1.0})
        clock.advance(STALE_INTERVALS * 1.0 + 0.01)
        (health,) = bus.workers()
        assert health.state(clock()) == "degraded"
        snap = bus.snapshot()
        assert snap["fleet"]["workers_degraded"] == 1
        assert snap["workers"][0]["state"] == "degraded"

    def test_interval_from_stats_scales_staleness(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {"interval_s": 10.0})
        clock.advance(5.0)  # within 3 x 10s
        (health,) = bus.workers()
        assert health.state(clock()) == "ok"

    def test_new_beat_recovers(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {"interval_s": 1.0})
        clock.advance(10.0)
        bus.publish_worker("w", {"interval_s": 1.0})
        (health,) = bus.workers()
        assert health.state(clock()) == "ok"

    def test_exactly_three_intervals_is_still_ok(self):
        # The boundary is strict: a beat that is exactly
        # STALE_INTERVALS x interval old has not *passed* the deadline.
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {"pid": 4, "interval_s": 1.0})
        clock.advance(STALE_INTERVALS * 1.0)
        (health,) = bus.workers()
        assert health.state(clock()) == "ok"
        clock.advance(0.001)
        assert health.state(clock()) == "degraded"

    def test_flapping_worker_tracks_every_transition(self):
        # ok -> degraded -> (beat) ok -> degraded again: each poll
        # reflects the instantaneous truth, no sticky state.
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {"pid": 4, "interval_s": 1.0})
        states = [bus.workers()[0].state(clock())]
        clock.advance(5.0)
        states.append(bus.workers()[0].state(clock()))
        bus.publish_worker("w", {"pid": 4, "interval_s": 1.0})
        states.append(bus.workers()[0].state(clock()))
        clock.advance(5.0)
        states.append(bus.workers()[0].state(clock()))
        assert states == ["ok", "degraded", "ok", "degraded"]

    def test_interval_change_mid_run_rescales_staleness(self):
        # A worker relaunched with a slower heartbeat must be judged
        # by the interval it *now* claims, not the one it started with.
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {"pid": 4, "interval_s": 1.0})
        clock.advance(2.0)
        bus.publish_worker("w", {"pid": 4, "interval_s": 10.0})
        clock.advance(5.0)  # stale under 1s beats, fresh under 10s
        (health,) = bus.workers()
        assert health.state(clock()) == "ok"
        clock.advance(26.0)  # now past 3 x 10s
        assert health.state(clock()) == "degraded"

    def test_empty_stats_payload_gets_safe_defaults(self):
        # A bare liveness beat ({} payload) must neither crash nor
        # divide by a zero interval.
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {})
        (health,) = bus.workers()
        assert health.pid == 0
        assert health.interval_s == 1.0
        assert health.state(clock()) == "ok"
        import json as json_module

        json_module.dumps(bus.snapshot())  # snapshot stays serializable

    @pytest.mark.parametrize("beat", [
        {"pid": "x", "tasks_done": 5},
        {"pid": 4, "interval_s": float("nan"), "tasks_done": 5},
        {"pid": 4, "interval_s": float("inf"), "tasks_done": 5},
        {"pid": 4, "interval_s": 0, "tasks_done": 5},
        {"pid": 4, "interval_s": "1", "tasks_done": 5},
        {"pid": float("nan"), "tasks_done": 5},
    ])
    def test_malformed_beat_counts_as_liveness_only(self, beat):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("w", {"pid": 3, "interval_s": 1.0,
                                 "tasks_done": 1})
        clock.advance(2.0)
        bus.publish_worker("w", beat)
        (health,) = bus.workers()
        assert (health.pid, health.interval_s, health.stats) == (
            3, 1.0, {"tasks_done": 1})
        assert health.last_seen == clock()
        # A NaN interval would have kept the worker "ok" forever.
        clock.advance(STALE_INTERVALS * 1.0 + 0.01)
        assert health.state(clock()) == "degraded"

    def test_worker_health_to_dict_merges_stats(self):
        health = WorkerHealth("w", pid=3, interval_s=1.0, last_seen=5.0,
                              stats={"tasks_done": 7.0})
        row = health.to_dict(now=6.0)
        assert row["worker"] == "w"
        assert row["tasks_done"] == 7.0
        assert row["state"] == "ok"


# ---------------------------------------------------------------------------
# Wire STATS round-trip (satellite: heartbeat payload through framing)
# ---------------------------------------------------------------------------
class TestWireStatsRoundTrip:
    def test_stats_payload_through_framing(self):
        from repro.parallel import wire

        left, right = socket.socketpair()
        try:
            stats = {"pid": 42, "tasks_done": 3, "in_flight": 1,
                     "queue_depth": 2, "tasks_per_s": 1.5,
                     "rss_kb": 2048.0, "uptime_s": 2.0, "interval_s": 0.5}
            wire.send_frame(left, wire.MSG_HEARTBEAT,
                            json.dumps(stats).encode("utf-8"))
            msg_type, payload = wire.recv_frame(right, timeout_s=5.0)
            assert msg_type == wire.MSG_HEARTBEAT
            assert wire.recv_json(payload) == stats
        finally:
            left.close()
            right.close()

    def test_empty_heartbeat_still_valid(self):
        from repro.parallel import wire

        left, right = socket.socketpair()
        try:
            wire.send_frame(left, wire.MSG_HEARTBEAT)
            msg_type, payload = wire.recv_frame(right, timeout_s=5.0)
            assert msg_type == wire.MSG_HEARTBEAT
            assert payload == b""
        finally:
            left.close()
            right.close()

    def test_worker_emits_stats_shaped_payload(self):
        from repro.parallel.worker import _ShardStats

        stats = _ShardStats()
        stats.start_shard(4)
        stats.start_task()
        stats.finish_task()
        payload = stats.payload(interval_s=0.5)
        assert payload["tasks_done"] == 1
        assert payload["in_flight"] == 0
        assert payload["queue_depth"] == 3
        assert payload["interval_s"] == 0.5
        assert payload["rss_kb"] >= 0.0
        assert payload["tasks_per_s"] >= 0.0
        json.dumps(payload)  # must be wire-JSON-able


# ---------------------------------------------------------------------------
# Prometheus exposition + HTTP exporter
# ---------------------------------------------------------------------------
class TestExposition:
    def test_names_sanitized_and_typed(self):
        bus = TelemetryBus()
        bus.sweep.begin(3)
        _resolve(bus, 1)
        text = render_prometheus(bus)
        assert "# TYPE repro_sweep_tasks_done counter" in text
        assert "repro_sweep_tasks_done 1.0" in text
        assert "repro_sweep_queue_depth 2" in text
        assert "." not in text.replace(".0", "").split("{")[0].split()[1]

    def test_worker_rows_and_up_flag(self):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.publish_worker("127.0.0.1:9", {"pid": 1, "interval_s": 1.0,
                                           "tasks_done": 5})
        text = render_prometheus(bus)
        assert 'repro_worker_up{worker="127.0.0.1:9"} 1' in text
        assert 'repro_worker_tasks_done{worker="127.0.0.1:9"} 5' in text
        clock.advance(100.0)
        assert 'repro_worker_up{worker="127.0.0.1:9"} 0' in \
            render_prometheus(bus)

    def test_every_line_is_comment_or_sample(self):
        bus = TelemetryBus()
        bus.count("a.b")
        bus.observe("lat_s", 0.1)
        bus.publish_worker("w", {"tasks_done": 1})
        for line in render_prometheus(bus).strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE repro_")
            else:
                name, value = line.rsplit(" ", 1)
                assert name.startswith("repro_")
                float(value)


class TestHttpServer:
    def _serve(self):
        bus = TelemetryBus()
        bus.sweep.begin(4)
        _resolve(bus, 1)
        server = TelemetryServer(bus)
        host, port = server.start()
        return bus, server, host, port

    def _get(self, host, port, path):
        conn = HTTPConnection(host, port, timeout=5.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.getheader("Content-Type"), \
                response.read()
        finally:
            conn.close()

    def test_metrics_endpoint(self):
        _, server, host, port = self._serve()
        try:
            status, content_type, body = self._get(host, port, "/metrics")
        finally:
            server.stop()
        assert status == 200
        assert content_type.startswith("text/plain")
        assert b"repro_sweep_tasks_done 1.0" in body

    def test_healthz_endpoint(self):
        _, server, host, port = self._serve()
        try:
            status, content_type, body = self._get(host, port, "/healthz")
        finally:
            server.stop()
        assert status == 200
        assert content_type == "application/json"
        snap = json.loads(body)
        assert snap["schema"] == TELEMETRY_SCHEMA
        assert snap["ok"] is True
        assert snap["fleet"]["tasks_done"] == 1.0

    def test_unknown_path_404(self):
        _, server, host, port = self._serve()
        try:
            status, _, _ = self._get(host, port, "/nope")
        finally:
            server.stop()
        assert status == 404

    def test_stop_is_idempotent(self):
        _, server, _, _ = self._serve()
        server.stop()
        server.stop()


# ---------------------------------------------------------------------------
# JSONL sink + post-hoc timeline
# ---------------------------------------------------------------------------
class TestSink:
    def test_sink_writes_final_snapshot(self, tmp_path):
        bus = TelemetryBus()
        bus.sweep.begin(2)
        path = str(tmp_path / "telemetry.jsonl")
        with TelemetrySink(bus, path, interval_s=30.0):
            _resolve(bus, 2)
        snapshots = load_telemetry_snapshots(path)
        assert snapshots[-1]["fleet"]["tasks_done"] == 2.0

    def test_sink_rejects_bad_interval(self, tmp_path):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TelemetrySink(TelemetryBus(), str(tmp_path / "x"), interval_s=0)

    def test_periodic_snapshots_accumulate(self, tmp_path):
        bus = TelemetryBus()
        path = str(tmp_path / "telemetry.jsonl")
        sink = TelemetrySink(bus, path, interval_s=0.02).start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with open(path, "r", encoding="utf-8") as handle:
                    if len(handle.readlines()) >= 2:
                        break
                time.sleep(0.01)
        finally:
            sink.stop()
        assert len(load_telemetry_snapshots(path)) >= 2

    def test_load_rejects_foreign_files(self, tmp_path):
        foreign = tmp_path / "other.jsonl"
        foreign.write_text('{"schema": "something/else"}\n')
        with pytest.raises(ConfigurationError, match="field 'schema'"):
            load_telemetry_snapshots(str(foreign))
        for text in ("not json\n", "[1, 2]\n"):
            foreign.write_text(text)
            with pytest.raises(ConfigurationError, match="other.jsonl:1"):
                load_telemetry_snapshots(str(foreign))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigurationError):
            load_telemetry_snapshots(str(empty))

    def test_timeline_renders(self, tmp_path):
        clock = _FakeClock()
        bus = TelemetryBus(clock=clock)
        bus.sweep.begin(4)
        snaps = []
        for done in (1, 3):
            _resolve(bus, done)
            snaps.append(bus.snapshot())
            clock.advance(1.0)
        text = render_telemetry_timeline(snaps)
        assert "telemetry timeline" in text
        assert "snapshots: 2" in text
        assert "tasks: 4/4" in text  # totals come from the last snapshot


# ---------------------------------------------------------------------------
# Producers: coordinator/session publish; results stay bit-identical
# ---------------------------------------------------------------------------
class TestProducers:
    def test_sweep_publishes_counts_and_spans(self):
        bus = telemetry.enable()
        runner = SweepRunner(workers=1, cache=False, executor="inprocess")
        results = runner.run(_double_tasks(6))
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8, 10]
        snap = bus.snapshot()["metrics"]
        assert snap["sweep.tasks_done"] == 6.0
        assert snap["sweep.tasks_total"] == 6.0
        assert snap["sweep.runs"] == 1.0
        assert snap["coordinator.dispatch_s_count"] == 1.0
        assert snap["sweep.queue_depth"] == 0.0

    def test_a_sweep_that_raises_leaves_the_tally_idle(self):
        clock = _FakeClock()
        bus = telemetry.enable(TelemetryBus(clock=clock))

        def crash(index, task, value, cache_hit):
            raise RuntimeError("consumer died")

        with pytest.raises(RuntimeError, match="consumer died"):
            SweepRunner(workers=1, cache=False, executor="inprocess",
                        on_result=crash).run(_double_tasks(6))
        fleet = bus.snapshot()["fleet"]
        # The one task resolved stays counted; the five never reached
        # leave the total, so nothing is queued and no ETA is forecast.
        assert fleet["tasks_done"] == fleet["tasks_total"] == 1.0
        assert fleet["eta_s"] is None
        assert bus.snapshot()["metrics"]["sweep.queue_depth"] == 0.0
        # A day later the next sweep's ETA counts from its own start.
        clock.advance(86_400.0)
        bus.sweep.begin(4)
        clock.advance(1.0)
        bus.sweep.add(False)
        assert bus.snapshot()["fleet"]["eta_s"] == pytest.approx(3.0)

    def test_sharded_sweep_observes_roundtrips(self):
        bus = telemetry.enable()
        runner = SweepRunner(workers=2, cache=False, executor="process")
        runner.run(_double_tasks(4))
        snap = bus.registry.snapshot()
        key = "executor.roundtrip_s_count{executor=process}"
        assert snap[key] == 2.0  # one arrival per shard

    def test_cache_spans_recorded(self, tmp_path, monkeypatch):
        from repro.parallel import ResultCache

        monkeypatch.setenv("REPRO_CACHE", "1")
        bus = telemetry.enable()
        cache = ResultCache(str(tmp_path / "cache"))
        runner = SweepRunner(workers=1, cache=cache, executor="inprocess")
        runner.run(_double_tasks(3))
        snap = bus.registry.snapshot()
        assert snap["cache.get_s_count"] >= 3.0
        assert snap["cache.put_s_count"] == 3.0
        # Second run: all hits, counted on the bus.
        runner.run(_double_tasks(3))
        assert bus.snapshot()["metrics"]["sweep.cache_hits"] == 3.0

    def test_session_publishes_nothing(self):
        # A transfer is counted once, by the sweep that resolves it.
        spec = TransferSpec(
            kind="tcp",
            condition=make_conditions(seed=5)[1],
            nbytes=FLOW_BYTES, path="wifi", seed=3, fidelity="flow",
        )
        bus = telemetry.enable()
        Session(seed=3).run(spec)
        assert bus.snapshot()["metrics"] == {}
        Session(seed=3).run_many([spec], workers=1, executor="inprocess",
                                 cache=False)
        assert bus.snapshot()["metrics"]["sweep.tasks_done"] == 1.0
        assert not any(name.startswith("session.")
                       for name in bus.snapshot()["metrics"])

    def test_reports_bit_identical_with_telemetry_on(self):
        spec = TransferSpec(
            kind="tcp",
            condition=make_conditions(seed=5)[1],
            nbytes=FLOW_BYTES, path="wifi", seed=3,
        )
        off = Session(seed=3).run(spec)
        telemetry.enable()
        on = Session(seed=3).run(spec)
        assert on == off
        assert on.to_dict() == off.to_dict()

    def test_sweep_results_bit_identical_with_telemetry_on(self):
        runner = SweepRunner(workers=2, cache=False, executor="process")
        off = runner.run(_double_tasks(5))
        telemetry.enable()
        on = SweepRunner(workers=2, cache=False,
                         executor="process").run(_double_tasks(5))
        assert on == off

    def test_crowd_pipeline_publishes(self):
        from repro.crowd import PopulationSpec
        from repro.crowd.pipeline import simulate

        population = PopulationSpec(users=200, seed=11)
        off = simulate(population=population, sink="sketch", workers=1,
                       shard_users=50, label="tele-test")
        bus = telemetry.enable()
        on = simulate(population=population, sink="sketch", workers=1,
                      shard_users=50, label="tele-test")
        snap = bus.snapshot()["metrics"]
        assert snap["crowd.users_done"] == 200.0
        assert snap["sweep.queue_depth"] == 0.0
        assert on.value == off.value
