"""SocketExecutor against real worker processes on loopback."""

import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.errors import ExecutorError, SweepTaskError
from repro.experiments.common import mptcp_spec, tcp_spec
from repro.linkem.conditions import make_conditions
from repro.parallel import SimTask, SweepRunner, coordinator, wire
from repro.workload import Session

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
))
FLOW_BYTES = 20 * 1024


pytestmark = pytest.mark.usefixtures("isolated_env")


def _spawn_worker(*extra_args):
    """Start one loopback worker; returns ``(process, "host:port")``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                          env.get("PYTHONPATH")) if path
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.parallel", "worker",
         "--listen", "127.0.0.1:0", "--quiet", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env, cwd=REPO_ROOT,
    )
    line = proc.stdout.readline()
    match = re.match(r"repro-worker listening on (\S+:\d+) pid=\d+", line)
    if not match:
        proc.terminate()
        raise RuntimeError(f"worker failed to start: {line!r}")
    return proc, match.group(1)


@pytest.fixture
def two_workers():
    procs_addrs = [_spawn_worker() for _ in range(2)]
    yield procs_addrs
    for proc, _ in procs_addrs:
        proc.terminate()
    for proc, _ in procs_addrs:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()


def _free_port() -> int:
    """A port nothing listens on (bound momentarily, then closed)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def _transfer_tasks(seed: int = 7):
    condition = make_conditions(seed=1)[4]
    return [Session().task_for(spec) for spec in (
        tcp_spec(condition, "wifi", FLOW_BYTES, seed=seed),
        tcp_spec(condition, "lte", FLOW_BYTES, seed=seed),
        mptcp_spec(condition, "wifi", "decoupled", FLOW_BYTES, seed=seed),
    )]


def _double_tasks(count: int = 6):
    return [
        SimTask(fn="tests.parallel._tasks:double",
                kwargs={"value": i, "seed": i}, key=f"d{i}")
        for i in range(count)
    ]


class TestSocketExecutor:
    def test_bit_identical_to_inprocess_at_1_and_4(self, two_workers):
        tasks = _transfer_tasks()
        reference = SweepRunner(
            workers=1, cache=False, executor="inprocess"
        ).run(tasks)
        spec = "socket:" + ",".join(addr for _, addr in two_workers)
        for workers in (1, 4):
            runner = SweepRunner(workers=workers, cache=False,
                                 executor=spec)
            assert runner.run(tasks) == reference, workers
            assert runner.last_stats.executor == "socket"

    def test_single_worker_sweep_still_crosses_the_wire(self, two_workers):
        # inline_when_serial=False: even a one-shard sweep must reach
        # the fleet, otherwise a dead fleet is silently masked by
        # in-process fallback.
        proc, addr = two_workers[0]
        runner = SweepRunner(workers=1, cache=False,
                             executor=f"socket:{addr}")
        (result,) = runner.run([
            SimTask(fn="tests.faults._tasks:ok_task",
                    kwargs={"value": 5, "seed": 1}, key="wired")
        ])
        assert result["value"] == 10
        # The task's recorded pid proves it ran in the worker process,
        # not inline in this one.
        assert result["pid"] != os.getpid()
        assert runner.last_stats.executor == "socket"

    def test_dead_worker_in_fleet_does_not_lose_tasks(self, two_workers):
        (dead_proc, dead_addr), (_, live_addr) = two_workers
        dead_proc.terminate()
        dead_proc.wait(timeout=5)
        runner = SweepRunner(
            workers=4, cache=False,
            executor=f"socket:{dead_addr},{live_addr}",
        )
        results = runner.run(_double_tasks())
        assert results == [{"value": i * 2, "seed": i} for i in range(6)]

    def test_unreachable_fleet_degrades_to_local_pool(self):
        # The executor raises; the coordinator answers with one
        # warning and finishes the sweep on the local process pool —
        # full-fleet loss costs latency, never results.
        runner = SweepRunner(
            workers=2, cache=False,
            executor=f"socket:127.0.0.1:{_free_port()}",
        )
        with pytest.warns(RuntimeWarning, match="degrading"):
            results = runner.run(_double_tasks())
        assert results == [{"value": i * 2, "seed": i} for i in range(6)]

    def test_degraded_sweep_reports_the_executor_it_ended_on(self):
        # Regression: the stats named the configured backend, so a
        # sweep that never reached a socket worker read "[socket]".
        runner = SweepRunner(
            workers=2, cache=False,
            executor=f"socket:127.0.0.1:{_free_port()}",
        )
        with pytest.warns(RuntimeWarning, match="degrading"):
            runner.run(_double_tasks())
        assert runner.last_stats.executor == "process"
        assert "[socket]" not in runner.last_stats.summary()
        assert runner.last_stats.executed == 6
        assert runner.executor.name == "socket"  # the next sweep retries it

    def test_unreachable_fleet_raises_at_executor_level(self):
        from repro.parallel.socketexec import SocketExecutor

        executor = SocketExecutor([("127.0.0.1", _free_port())])
        with pytest.raises(ExecutorError, match="no socket worker"):
            list(executor.run_shards([_double_tasks()[:2]]))

    def test_worker_reused_across_sweeps(self, two_workers):
        _, addr = two_workers[0]
        spec = f"socket:{addr}"
        first = SweepRunner(workers=2, cache=False, executor=spec)
        second = SweepRunner(workers=2, cache=False, executor=spec)
        expected = [{"value": i * 2, "seed": i} for i in range(6)]
        assert first.run(_double_tasks()) == expected
        assert second.run(_double_tasks()) == expected

    def test_abandoned_run_stops_feeding_the_fleet(self, two_workers,
                                                   monkeypatch):
        # A caller that stops reading (its sweep raised) must not leave
        # the dispatch threads running every remaining shard.
        from repro.parallel.socketexec import SocketExecutor

        executor = SocketExecutor([
            (addr.rsplit(":", 1)[0], int(addr.rsplit(":", 1)[1]))
            for _, addr in two_workers
        ])
        dispatched = []
        real = executor._dispatch

        def counting(conn, shard_index, *args, **kwargs):
            dispatched.append(shard_index)
            return real(conn, shard_index, *args, **kwargs)

        monkeypatch.setattr(executor, "_dispatch", counting)
        shards = [[SimTask(fn="tests.parallel._tasks:slow_double",
                           kwargs={"value": i, "seed": i,
                                   "duration_s": 0.3},
                           key=f"s{i}")] for i in range(6)]
        outcomes = executor.run_shards(shards)
        next(outcomes)
        outcomes.close()
        time.sleep(0.1)  # a claim racing the close may still land
        at_close = len(dispatched)
        time.sleep(1.5)
        assert len(dispatched) == at_close < len(shards)


class TestHeartbeatStats:
    """STATS heartbeats: 2-worker fleet -> bus -> `obs top` rows.

    The acceptance path for the live telemetry plane: per-worker
    throughput/queue-depth rows in ``python -m repro.obs top`` must be
    sourced from real heartbeat STATS frames crossing the wire.
    """

    @pytest.fixture(autouse=True)
    def _clean_bus(self):
        from repro.obs import telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    @pytest.fixture
    def fast_beat_workers(self):
        procs_addrs = [_spawn_worker("--heartbeat-s", "0.05")
                       for _ in range(2)]
        yield procs_addrs
        for proc, _ in procs_addrs:
            proc.terminate()
        for proc, _ in procs_addrs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()

    def _sleep_tasks(self, count=4, duration_s=0.2):
        return [
            SimTask(fn="tests.faults._tasks:sleep_task",
                    kwargs={"duration_s": duration_s, "seed": i},
                    key=f"sleep.{i}")
            for i in range(count)
        ]

    def test_fleet_stats_reach_bus_and_top(self, fast_beat_workers):
        from repro.obs import telemetry
        from repro.obs.top import render_top

        addrs = [addr for _, addr in fast_beat_workers]
        bus = telemetry.enable()
        runner = SweepRunner(workers=2, cache=False,
                             executor=f"socket:{','.join(addrs)}")
        results = runner.run(self._sleep_tasks())
        assert results == [0.2] * 4

        # Both workers heartbeated STATS frames into the bus.
        workers = bus.workers()
        assert sorted(h.worker_id for h in workers) == sorted(addrs)
        total_done = 0
        for health in workers:
            assert health.pid > 0
            assert health.state() == "ok"
            assert health.interval_s == pytest.approx(0.05)
            assert "queue_depth" in health.stats
            assert "tasks_per_s" in health.stats
            total_done += health.stats["tasks_done"]
        # Every task ran on some worker; final beats may precede the
        # last finish_task, so the sum is bounded by the task count.
        assert 0 < total_done <= 4

        # The live view renders one row per worker with the
        # throughput/queue-depth columns filled from those frames.
        frame = render_top(bus.snapshot())
        for addr in addrs:
            assert addr in frame
        assert "tasks/s" in frame and "queue" in frame
        assert "DEGRADED" not in frame

    def test_stats_ignored_when_plane_off(self, fast_beat_workers):
        from repro.obs import telemetry

        addrs = [addr for _, addr in fast_beat_workers]
        assert telemetry.active_bus() is None
        runner = SweepRunner(workers=2, cache=False,
                             executor=f"socket:{','.join(addrs)}")
        assert runner.run(self._sleep_tasks(count=2)) == [0.2] * 2
        # No bus was ever created as a side effect of the sweep.
        assert telemetry.active_bus() is None

    def test_results_identical_with_and_without_bus(self, fast_beat_workers):
        from repro.obs import telemetry

        addrs = [addr for _, addr in fast_beat_workers]
        spec = f"socket:{','.join(addrs)}"
        off = SweepRunner(workers=2, cache=False,
                          executor=spec).run(_double_tasks())
        telemetry.enable()
        on = SweepRunner(workers=2, cache=False,
                         executor=spec).run(_double_tasks())
        assert on == off


class TestFleetRun:
    """Dispatch-state bookkeeping: budgets and duplicates."""

    def _run(self, nshards=2, max_dispatches=2):
        from repro.parallel.socketexec import _FleetRun

        return _FleetRun([["task"]] * nshards, max_dispatches)

    def test_claims_drain_in_order_then_none(self):
        state = self._run(nshards=2)
        assert state.claim() == 0
        assert state.claim() == 1
        assert state.claim() is None  # nothing pending

    def test_release_requeues_until_budget_then_fails(self):
        state = self._run(nshards=1, max_dispatches=2)
        assert state.claim() == 0
        assert state.requeue(0, "boom") is True
        assert state.claim() == 0  # redispatched to a peer
        assert state.requeue(0, "boom again") is False  # budget spent
        shard_id, outcome = state.outcomes.get_nowait()
        assert shard_id == 0
        assert outcome.error == "boom again"
        assert state.finished()

    def test_duplicate_delivery_is_dropped(self):
        from repro.parallel.executors import ShardOutcome

        # Worker "a" goes silent, the shard is requeued to "b", and
        # then both answer: only the first outcome may be published.
        state = self._run(nshards=1, max_dispatches=3)
        state.claim()
        assert state.requeue(0, "a went silent") is True
        state.claim()
        assert state.deliver(0, ShardOutcome(values=[1])) is True
        assert state.deliver(0, ShardOutcome(values=[1])) is False
        assert state.outcomes.qsize() == 1


class TestDispatchVerdicts:
    """A task error ends in local isolation — it is not an
    infrastructure failure, so it is never redispatched."""

    @pytest.fixture
    def bus(self):
        from repro.obs import telemetry

        telemetry.disable()
        yield telemetry.enable()
        telemetry.disable()

    def test_task_error_on_a_worker_is_isolated_then_retried(
            self, two_workers, bus, monkeypatch):
        monkeypatch.setattr(coordinator, "MAX_RETRIES", 1)
        monkeypatch.setattr(coordinator, "RETRY_BACKOFF_S", 0.0)
        spec = "socket:" + ",".join(addr for _, addr in two_workers)
        bad = SimTask(fn="tests.faults._tasks:fail_always_task",
                      kwargs={"seed": 0}, key="bad")
        runner = SweepRunner(workers=3, cache=False, executor=spec)
        with pytest.raises(SweepTaskError) as excinfo:
            runner.run(_double_tasks(2) + [bad])
        assert excinfo.value.results[:2] == [
            {"value": i * 2, "seed": i} for i in range(2)]
        (failure,) = excinfo.value.failures
        assert failure.key == "bad"
        assert "this task always fails" in failure.error
        # The SHARD_ERR dispatch was attempt 1, the isolated re-run 2.
        assert failure.attempts == 2
        assert "executor.redispatches" not in bus.registry.snapshot()


class TestDegradeTelemetry:
    def test_degraded_sweep_is_counted_on_the_bus(self):
        from repro.obs import telemetry

        telemetry.disable()
        bus = telemetry.enable()
        try:
            runner = SweepRunner(
                workers=2, cache=False,
                executor=f"socket:127.0.0.1:{_free_port()}",
            )
            with pytest.warns(RuntimeWarning, match="degrading"):
                results = runner.run(_double_tasks())
            assert results == [{"value": i * 2, "seed": i}
                               for i in range(6)]
            assert bus.snapshot()["metrics"]["sweep.degraded"] == 1.0
        finally:
            telemetry.disable()


class _FakePeer:
    """A loopback peer that shakes hands like a worker, then answers each
    SHARD with the frames it was given and hangs up."""

    def __init__(self, *frames):
        self.frames = frames
        self.shards = 0
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(8)
        self.address = "127.0.0.1:%d" % self._server.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # closed
            try:
                if (wire.accept_hello(conn, lambda line: None)
                        and wire.recv_frame(conn, 10.0)[0] == wire.MSG_SHARD):
                    self.shards += 1
                    for msg_type, payload in self.frames:
                        wire.send_frame(conn, msg_type, payload)
            except (OSError, wire.WireError):
                pass
            finally:
                wire.close_quietly(conn)

    def close(self):
        self._server.close()


class TestMalformedReplies:
    """A reply that decodes but is not what the protocol promises heals
    like a broken connection: the shard is requeued, never stranded."""

    @pytest.fixture
    def healthy_worker(self):
        proc, address = _spawn_worker()
        yield address
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()

    @pytest.mark.parametrize("frame, telemetry_on", [
        ((wire.MSG_SHARD_ERR, b"[1, 2]"), False),
        ((wire.MSG_REFUSED, b'"go away"'), False),
        ((wire.MSG_HEARTBEAT, b'{"pid": "x"}'), True),
    ], ids=["shard-err-list", "refused-string", "stats-bad-pid"])
    def test_fleet_sweep_finishes_beside_a_malformed_peer(
            self, healthy_worker, frame, telemetry_on):
        from repro.obs import telemetry

        fake = _FakePeer(frame)
        telemetry.disable()
        if telemetry_on:
            telemetry.enable()
        tasks = [SimTask(fn="tests.parallel._tasks:slow_double",
                         kwargs={"value": i, "seed": i, "duration_s": 0.05},
                         key=f"s{i}") for i in range(8)]
        runner = SweepRunner(
            workers=8, cache=False,
            executor=f"socket:{fake.address},{healthy_worker}")
        outcome = []
        sweep = threading.Thread(
            target=lambda: outcome.append(runner.run(tasks)), daemon=True)
        try:
            sweep.start()
            sweep.join(timeout=60.0)
        finally:
            telemetry.disable()
            fake.close()
        assert not sweep.is_alive(), "the sweep hung on a stranded shard"
        assert fake.shards >= 1  # the malformed reply was really sent
        assert outcome == [[{"value": i * 2, "seed": i} for i in range(8)]]
