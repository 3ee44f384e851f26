"""FleetSupervisor: launch, restart, stall-kill, state file, CLI."""

import json
import os
import signal
import time

import pytest

from repro.core.env import CHAOS_INDEX
from repro.core.errors import ConfigurationError, ExecutorError
from repro.core.proc import pid_alive
from repro.obs import telemetry
from repro.parallel import SimTask, SweepRunner
from repro.parallel.supervisor import (
    FLEET_STATE_SCHEMA,
    FleetSpec,
    FleetSupervisor,
    _load_state,
    _probe_state,
    fleet_main,
)


pytestmark = pytest.mark.usefixtures("isolated_env")


def _fast_spec(**overrides):
    defaults = dict(workers=2, heartbeat_s=0.05, max_restarts=2,
                    restart_backoff_s=0.05, restart_backoff_cap_s=0.1)
    defaults.update(overrides)
    return FleetSpec(**defaults)


def _double_tasks(count=6):
    return [
        SimTask(fn="tests.parallel._tasks:double",
                kwargs={"value": i, "seed": i}, key=f"d{i}")
        for i in range(count)
    ]


class TestFleetSpec:
    def test_round_trips_through_json(self):
        spec = FleetSpec(workers=3, ports=(9001, 9002, 9003),
                         heartbeat_s=0.5, max_restarts=5, label="bench")
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            FleetSpec(workers=0)

    def test_ports_must_match_worker_count(self):
        with pytest.raises(ConfigurationError, match="one port per worker"):
            FleetSpec(workers=2, ports=(9001,))

    def test_command_needs_listen_placeholder(self):
        with pytest.raises(ConfigurationError, match="listen"):
            FleetSpec(workers=1, command=("sleep", "60"))

    def test_backoff_cap_cannot_undercut_base(self):
        with pytest.raises(ConfigurationError, match="cap"):
            FleetSpec(workers=1, restart_backoff_s=2.0,
                      restart_backoff_cap_s=1.0)

    def test_heartbeat_must_fit_the_silence_deadline(self):
        from repro.parallel.wire import (
            HEARTBEAT_TIMEOUT_S,
            MAX_HEARTBEAT_INTERVAL_S,
        )
        from repro.parallel.worker import main as worker_main

        # Beating slower than a third of the executor's silence
        # deadline gets a healthy worker declared dead mid-shard.
        assert MAX_HEARTBEAT_INTERVAL_S * 3 == pytest.approx(
            HEARTBEAT_TIMEOUT_S)
        FleetSpec(workers=1, heartbeat_s=MAX_HEARTBEAT_INTERVAL_S)
        with pytest.raises(ConfigurationError, match="heartbeat_s"):
            FleetSpec(workers=1, heartbeat_s=HEARTBEAT_TIMEOUT_S)
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--heartbeat-s", f"{HEARTBEAT_TIMEOUT_S:g}"])
        assert excinfo.value.code == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            FleetSpec.from_json('{"workers": 2, "replicas": 3}')


class TestLifecycle:
    def test_up_sweep_down(self, tmp_path):
        state_path = str(tmp_path / "fleet.json")
        supervisor = FleetSupervisor(_fast_spec(), state_path=state_path)
        try:
            addresses = supervisor.up()
            assert len(addresses) == 2
            assert all(port > 0 for _, port in addresses)

            # A real sweep through the supervised fleet.
            results = SweepRunner(
                workers=2, cache=False, executor=supervisor.executor_spec
            ).run(_double_tasks())
            assert results == [{"value": i * 2, "seed": i}
                               for i in range(6)]

            # The state file records live, verifiable workers.
            data = _probe_state(_load_state(state_path))
            assert data["schema"] == FLEET_STATE_SCHEMA
            assert [w["state"] for w in data["workers"]] == ["running"] * 2
            pids = [w["pid"] for w in data["workers"]]
        finally:
            supervisor.down()
        assert not os.path.exists(state_path)
        deadline = time.monotonic() + 5.0
        while any(pid_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(pid_alive(p) for p in pids)

    def test_failed_start_reaps_every_launched_worker(self, tmp_path):
        # Worker 0 prints its banner and lingers; worker 1 exits at once.
        script = (
            "import os, sys, time\n"
            f"if os.environ['{CHAOS_INDEX}'] == '1':\n"
            "    sys.exit(3)\n"
            "print('repro-worker listening on ' + sys.argv[1]"
            " + ' pid=' + str(os.getpid()), flush=True)\n"
            "time.sleep(60)\n"
        )
        state_path = str(tmp_path / "fleet.json")
        supervisor = FleetSupervisor(
            _fast_spec(command=("{python}", "-c", script, "{listen}")),
            state_path=state_path)
        with pytest.raises(ExecutorError, match="worker 1"):
            supervisor.up()
        procs = [record.proc for record in supervisor._records]
        assert all(proc.poll() is not None for proc in procs)
        assert not any(pid_alive(proc.pid) for proc in procs)
        assert not os.path.exists(state_path)

    def test_crashed_worker_restarts_on_same_port(self, tmp_path):
        bus = telemetry.enable()
        supervisor = FleetSupervisor(
            _fast_spec(), state_path=str(tmp_path / "fleet.json"))
        try:
            supervisor.up()
            record = supervisor._records[0]
            old_pid, old_port = record.pid, record.port
            os.kill(old_pid, signal.SIGKILL)
            record.proc.wait(timeout=5)

            actions = supervisor.poll(now=time.monotonic())
            assert any("restart 1/2" in action for action in actions)
            assert record.state == "backoff"
            # Drive the clock past the backoff instead of sleeping.
            actions = supervisor.poll(now=time.monotonic() + 60.0)
            assert any("restarted" in action for action in actions)
            assert record.state == "running"
            assert record.restarts == 1
            assert record.pid != old_pid
            assert record.port == old_port  # addresses survive restarts

            # The healing was counted on the bus, labelled by worker.
            snap = bus.registry.snapshot()
            assert snap.get(
                "fleet.restarts{worker=" + record.worker_id + "}") == 1.0

            # The restarted fleet still serves sweeps.
            results = SweepRunner(
                workers=2, cache=False, executor=supervisor.executor_spec
            ).run(_double_tasks())
            assert results == [{"value": i * 2, "seed": i}
                               for i in range(6)]
        finally:
            supervisor.down()

    def test_restart_budget_exhaustion_marks_failed(self, tmp_path):
        bus = telemetry.enable()
        supervisor = FleetSupervisor(
            _fast_spec(workers=1, max_restarts=0),
            state_path=str(tmp_path / "fleet.json"))
        try:
            supervisor.up()
            record = supervisor._records[0]
            os.kill(record.pid, signal.SIGKILL)
            record.proc.wait(timeout=5)
            actions = supervisor.poll(now=time.monotonic())
            assert any("budget spent" in action for action in actions)
            assert record.state == "failed"
            assert bus.registry.snapshot().get("fleet.failures") == 1.0
            # A failed worker stays failed: no restart attempts later.
            assert supervisor.poll(now=time.monotonic() + 60.0) == []
        finally:
            supervisor.down()

    def test_stalled_worker_is_killed_and_restarted(self, tmp_path):
        bus = telemetry.enable()
        supervisor = FleetSupervisor(
            _fast_spec(workers=1), state_path=str(tmp_path / "fleet.json"))
        try:
            supervisor.up()
            record = supervisor._records[0]
            old_pid = record.pid
            # Simulate a wedged worker: heartbeats went stale *after*
            # this incarnation launched, with a task still in flight.
            bus.publish_worker(record.worker_id, {
                "pid": old_pid, "interval_s": 0.01, "in_flight": 1,
            })
            time.sleep(0.05)  # > 3x the claimed heartbeat interval
            actions = supervisor.poll(now=time.monotonic())
            assert any("stalled" in action for action in actions)
            actions = supervisor.poll(now=time.monotonic() + 60.0)
            assert any("restarted" in action for action in actions)
            assert record.pid != old_pid

            # The stale health entry predates the new incarnation, so
            # the supervisor must NOT kill the fresh worker for it.
            assert supervisor.poll(now=time.monotonic() + 61.0) == []
            assert record.state == "running"
            assert record.restarts == 1
        finally:
            supervisor.down()


class TestStateFileAndCli:
    def test_probe_marks_dead_pids(self):
        data = {
            "schema": FLEET_STATE_SCHEMA,
            "workers": [
                {"index": 0, "address": "127.0.0.1:9001",
                 "pid": 2 ** 22 + 17, "start_token": "123",
                 "restarts": 0, "state": "running"},
                {"index": 1, "address": "127.0.0.1:9002",
                 "pid": 0, "start_token": "", "restarts": 3,
                 "state": "failed"},
            ],
        }
        probed = _probe_state(data)
        assert probed["workers"][0]["state"] == "dead"
        assert probed["workers"][1]["state"] == "failed"  # left alone

    def test_status_without_state_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert fleet_main(["status", "--state", missing]) == 2
        assert "is a fleet up?" in capsys.readouterr().err

    def test_status_reports_live_fleet(self, tmp_path, capsys):
        state_path = str(tmp_path / "fleet.json")
        supervisor = FleetSupervisor(_fast_spec(workers=1),
                                     state_path=state_path)
        try:
            supervisor.up()
            assert fleet_main(["status", "--state", state_path]) == 0
            out = capsys.readouterr().out
            assert "running" in out
            assert supervisor.executor_spec.removeprefix("socket:") in out
        finally:
            supervisor.down()

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        state_path = str(tmp_path / "fleet.json")
        supervisor = FleetSupervisor(_fast_spec(workers=1),
                                     state_path=state_path)
        try:
            supervisor.up()
            assert fleet_main(
                ["status", "--state", state_path, "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["schema"] == FLEET_STATE_SCHEMA
            assert data["workers"][0]["state"] == "running"
        finally:
            supervisor.down()

    def test_fleet_down_stops_recorded_workers(self, tmp_path, capsys):
        state_path = str(tmp_path / "fleet.json")
        supervisor = FleetSupervisor(_fast_spec(workers=1),
                                     state_path=state_path)
        try:
            supervisor.up()
            pid = supervisor._records[0].pid
            # A second process (here: this one) takes the fleet down
            # purely off the state file, (pid, token)-verified.
            assert fleet_main(["down", "--state", state_path]) == 0
            assert "stopped 1 worker(s)" in capsys.readouterr().out
            assert not os.path.exists(state_path)
            # The worker is our own child here, so reap the zombie
            # before probing — a real `fleet down` signals orphans.
            supervisor._records[0].proc.wait(timeout=5)
            assert not pid_alive(pid)
        finally:
            supervisor.down()
