"""The infrastructure chaos harness: spec, controller, healing runs.

Unit tests pin the deterministic trigger semantics (fake actions, no
processes); the integration tests arm real chaos specs in real socket
workers (:mod:`tests.parallel.chaos_worker`) and assert the acceptance
criterion of the self-healing plane: **results stay bit-identical while
the fleet is being hurt**.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.obs import telemetry
from repro.parallel import SimTask, SweepRunner, task, wire, worker
from tests.parallel import chaos_worker
from tests.parallel.chaos import (
    KILL_EXIT_STATUS,
    ChaosController,
    ChaosEvent,
    ChaosSpec,
    CorruptingCache,
    arm,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


pytestmark = pytest.mark.usefixtures("isolated_env")


class _Actions:
    """Records process side effects instead of performing them."""

    def __init__(self):
        self.kills = 0
        self.stalls = []

    def kill(self):
        self.kills += 1

    def stall(self, duration_s):
        self.stalls.append(duration_s)


def _controller(index, *events, seed=0):
    spec = ChaosSpec(events=tuple(events), seed=seed)
    return ChaosController(spec, index=index, actions=_Actions())


# ---------------------------------------------------------------------------
# Spec validation and serialization
# ---------------------------------------------------------------------------
class TestChaosSpec:
    def test_round_trips_through_json(self):
        spec = ChaosSpec(
            events=(
                ChaosEvent(kind="worker_kill", target=1, after_tasks=2),
                ChaosEvent(kind="worker_stall", after_tasks=1,
                           duration_s=0.5),
                ChaosEvent(kind="frame_garbage", nth=3),
                ChaosEvent(kind="cache_corrupt", nth=1),
            ),
            seed=7, label="soak",
        )
        assert ChaosSpec.from_json(spec.to_json()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ChaosEvent(kind="meteor_strike", after_tasks=1)

    def test_task_kinds_need_after_tasks(self):
        with pytest.raises(ConfigurationError, match="after_tasks"):
            ChaosEvent(kind="worker_kill")

    def test_frame_kinds_need_nth(self):
        with pytest.raises(ConfigurationError, match="nth"):
            ChaosEvent(kind="frame_truncate")

    def test_duration_kinds_need_duration(self):
        with pytest.raises(ConfigurationError, match="duration_s"):
            ChaosEvent(kind="worker_stall", after_tasks=1)

    def test_mismatched_trigger_rejected(self):
        with pytest.raises(ConfigurationError, match="only valid"):
            ChaosEvent(kind="worker_kill", after_tasks=1, nth=2)

    def test_negative_target_rejected(self):
        with pytest.raises(ConfigurationError, match="target"):
            ChaosEvent(kind="worker_kill", target=-1, after_tasks=1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            ChaosSpec.from_json(json.dumps({
                "events": [{"kind": "worker_kill", "after_tasks": 1,
                            "frequency": "often"}],
            }))

    def test_empty_events_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ChaosSpec.from_json('{"events": []}')

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            ChaosSpec.from_json('["worker_kill"]')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ChaosSpec.from_json("{nope")

    def test_the_sample_schedule_loads(self):
        spec = ChaosSpec.from_file(os.path.join(HERE, "chaos.json"))
        assert [event.target for event in spec.events] == [0, 1, 2, 3]
        assert ChaosSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# Controller trigger semantics (deterministic, no real side effects)
# ---------------------------------------------------------------------------
class TestControllerTriggers:
    def test_kill_fires_once_at_task_count(self):
        controller = _controller(
            0, ChaosEvent(kind="worker_kill", target=0, after_tasks=2))
        controller.on_task_done()
        assert controller._actions.kills == 0
        controller.on_task_done()
        assert controller._actions.kills == 1
        controller.on_task_done()
        assert controller._actions.kills == 1  # at most once
        assert controller.injected == {"worker_kill": 1}

    def test_other_roles_are_untouched(self):
        controller = _controller(
            1, ChaosEvent(kind="worker_kill", target=0, after_tasks=1))
        controller.on_task_done()
        assert controller._actions.kills == 0
        assert controller.injected == {}

    def test_observer_index_matches_no_worker_event(self):
        controller = _controller(
            -1, ChaosEvent(kind="worker_kill", target=0, after_tasks=1))
        controller.on_task_done()
        assert controller._actions.kills == 0

    def test_stall_passes_duration(self):
        controller = _controller(
            0, ChaosEvent(kind="worker_stall", target=0, after_tasks=1,
                          duration_s=1.5))
        controller.on_task_done()
        assert controller._actions.stalls == [1.5]

    def test_heartbeat_drop_suppresses_for_duration(self):
        controller = _controller(
            0, ChaosEvent(kind="heartbeat_drop", target=0, after_tasks=1,
                          duration_s=0.05))
        assert not controller.heartbeats_suppressed()
        controller.on_task_done()
        assert controller.heartbeats_suppressed()
        time.sleep(0.08)
        assert not controller.heartbeats_suppressed()

    def test_frame_counter_ignores_non_result_frames(self):
        controller = _controller(
            0, ChaosEvent(kind="frame_garbage", target=0, nth=1))
        assert controller.frame_action(is_result=False) is None
        assert controller.frame_action(is_result=False) is None
        # Heartbeats did not advance the counter: the *first* RESULT
        # frame is still the one that gets mangled.
        assert controller.frame_action(is_result=True) == "frame_garbage"
        assert controller.frame_action(is_result=True) is None

    def test_nth_result_frame_truncated(self):
        controller = _controller(
            0, ChaosEvent(kind="frame_truncate", target=0, nth=2))
        assert controller.frame_action(is_result=True) is None
        assert controller.frame_action(is_result=True) == "frame_truncate"

    def test_slow_connect_delay_fires_once(self):
        controller = _controller(
            0, ChaosEvent(kind="slow_connect", target=0, duration_s=2.0))
        assert controller.connect_delay_s() == 2.0
        assert controller.connect_delay_s() == 0.0

    def test_garble_is_seed_deterministic(self):
        event = ChaosEvent(kind="frame_garbage", target=0, nth=1)
        payload = bytes(range(256)) * 4
        first = _controller(0, event, seed=3).garble(payload)
        second = _controller(0, event, seed=3).garble(payload)
        assert first == second
        assert first != payload
        assert len(first) == len(payload)


class TestCacheCorruptSeam:
    def test_flips_payload_byte_after_header(self, tmp_path):
        path = tmp_path / "entry.pkl"
        header = b"H" * 10
        payload = b"P" * 100
        path.write_bytes(header + payload)
        controller = _controller(
            -1, ChaosEvent(kind="cache_corrupt", nth=1))
        controller.on_cache_put(str(path), header_bytes=10)
        blob = path.read_bytes()
        assert len(blob) == 110
        assert blob[:10] == header  # checksum region is the target
        assert blob[10:] != payload
        assert controller.injected == {"cache_corrupt": 1}

    def test_only_the_nth_put_is_hit(self, tmp_path):
        first = tmp_path / "a.pkl"
        second = tmp_path / "b.pkl"
        first.write_bytes(b"H" * 4 + b"A" * 32)
        second.write_bytes(b"H" * 4 + b"B" * 32)
        controller = _controller(
            -1, ChaosEvent(kind="cache_corrupt", nth=2))
        controller.on_cache_put(str(first), header_bytes=4)
        controller.on_cache_put(str(second), header_bytes=4)
        assert first.read_bytes() == b"H" * 4 + b"A" * 32
        assert second.read_bytes() != b"H" * 4 + b"B" * 32

    # The once-per-process corruption warning may or may not fire here
    # depending on test order; either way it is expected, not a defect.
    @pytest.mark.filterwarnings("ignore:sweep cache entry")
    def test_checksum_turns_corruption_into_a_miss(self, tmp_path):
        controller = _controller(-1, ChaosEvent(kind="cache_corrupt", nth=1))
        cache = CorruptingCache(controller, str(tmp_path), fingerprint="t")
        assert cache.put("aa" * 32, {"answer": 42})
        hit, value = cache.get("aa" * 32)
        assert (hit, value) == (False, None)  # never garbage, never a crash

    @pytest.mark.filterwarnings("ignore:sweep cache entry")
    def test_a_sweep_heals_a_corrupted_entry_by_recomputing(self, tmp_path):
        tasks = [SimTask(fn="tests.parallel._tasks:double",
                         kwargs={"value": i, "seed": i}, key=f"d{i}")
                 for i in range(4)]
        controller = _controller(-1, ChaosEvent(kind="cache_corrupt", nth=2))
        cache = CorruptingCache(controller, str(tmp_path))
        results = []
        for _ in range(2):  # cold (the 2nd write rots), then warm
            runner = SweepRunner(workers=1, cache=cache, executor="inprocess")
            results.append(runner.run(tasks))
        assert results[0] == results[1]
        assert runner.last_stats.cache_hits == 3
        assert controller.injected == {"cache_corrupt": 1}


# ---------------------------------------------------------------------------
# Arming: only a test arms chaos, through seams the product already has
# ---------------------------------------------------------------------------
class TestActivation:
    def test_off_by_default(self):
        assert worker.run_task_timed is task.run_task_timed
        assert wire.send_frame.__module__ == "repro.parallel.wire"

    def test_arm_wraps_both_seams_and_monkeypatch_restores_them(
            self, monkeypatch):
        controller = _controller(
            0, ChaosEvent(kind="worker_kill", after_tasks=2))
        with monkeypatch.context() as patch:
            arm(controller, patch.setattr)
            run = SimTask(fn="tests.parallel._tasks:double",
                          kwargs={"value": 3, "seed": 1}, key="d")
            for _ in range(3):
                assert worker.run_task_timed(run)[0] == {"value": 6,
                                                         "seed": 1}
            assert controller._actions.kills == 1
            assert wire.send_frame.__module__ == "tests.parallel.chaos"
        self.test_off_by_default()

    def test_worker_entry_arms_its_spec_as_its_index(self, tmp_path,
                                                     monkeypatch):
        spec = ChaosSpec(
            events=(ChaosEvent(kind="worker_kill", after_tasks=1),),
            label="from-file",
        )
        path = tmp_path / "chaos.json"
        path.write_text(spec.to_json())
        armed, served = [], []
        monkeypatch.setattr(chaos_worker, "arm", armed.append)
        monkeypatch.setattr(worker, "main",
                            lambda argv: served.append(argv) or 0)
        assert chaos_worker.main(["--spec", str(path), "--index", "3", "--",
                                  "--listen", "127.0.0.1:0"]) == 0
        assert [(c.spec, c.index) for c in armed] == [(spec, 3)]
        assert served == [["--listen", "127.0.0.1:0"]]
        # A restarted incarnation of the same role serves unarmed.
        assert chaos_worker.main(["--spec", str(path), "--index", "3", "--",
                                  "--listen", "127.0.0.1:0"]) == 0
        assert len(armed) == 1 and len(served) == 2


# ---------------------------------------------------------------------------
# ``--chaos FILE`` is no option of any CLI: refused before anything starts
# ---------------------------------------------------------------------------
def _chaos_clis():
    from repro.experiments.runner import run_spec_main
    from repro.parallel.service import serve_main, submit_main
    from repro.parallel.supervisor import fleet_main

    workload = os.path.join(REPO_ROOT, "examples", "workload.json")
    return {
        "run-spec": lambda flag: run_spec_main([workload] + flag),
        "submit": lambda flag: submit_main([workload] + flag),
        "serve": lambda flag: serve_main(flag),
        "fleet up": lambda flag: fleet_main(["up"] + flag),
    }


_BAD_CHAOS_FILES = {
    "missing file": None,
    "malformed JSON": "{not json",
    "unknown field": json.dumps({
        "events": [{"kind": "worker_kill", "after_tasks": 1}],
        "surprise": 1,
    }),
}


class TestChaosFlag:
    @pytest.mark.parametrize("bad", sorted(_BAD_CHAOS_FILES))
    @pytest.mark.parametrize("prog", ["run-spec", "submit", "serve",
                                      "fleet up"])
    def test_bad_file_is_refused_before_anything_starts(
            self, prog, bad, tmp_path, capsys, monkeypatch):
        path = tmp_path / "chaos.json"
        if _BAD_CHAOS_FILES[bad] is not None:
            path.write_text(_BAD_CHAOS_FILES[bad])
        # Nothing may be launched: a sweep, a listening socket, a worker.
        for owner, attr in ((subprocess, "Popen"), (SweepRunner, "run")):
            monkeypatch.setattr(owner, attr, lambda *a, **k: pytest.fail(
                f"{prog} started work on a --chaos flag"))
        before = dict(os.environ)
        with pytest.raises(SystemExit) as excinfo:
            _chaos_clis()[prog](["--chaos", str(path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --chaos" in captured.err
        assert dict(os.environ) == before


# ---------------------------------------------------------------------------
# Integration: chaos specs armed in real socket workers
# ---------------------------------------------------------------------------
def _spawn_chaos_worker(chaos_path, index):
    """One loopback worker with the chaos spec armed at role ``index``."""
    child = dict(os.environ)
    child["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                          child.get("PYTHONPATH")) if path
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "tests.parallel.chaos_worker",
         "--spec", str(chaos_path), "--index", str(index), "--",
         "--listen", "127.0.0.1:0", "--quiet", "--heartbeat-s", "0.05"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=child, cwd=REPO_ROOT,
    )
    line = proc.stdout.readline()
    match = re.match(r"repro-worker listening on (\S+:\d+) pid=\d+", line)
    if not match:
        proc.terminate()
        raise RuntimeError(f"worker failed to start: {line!r}")
    return proc, match.group(1)


def _sleep_tasks(count=6, duration_s=0.2):
    return [
        SimTask(fn="tests.parallel._tasks:slow_double",
                kwargs={"value": i, "seed": i, "duration_s": duration_s},
                key=f"slow.{i}")
        for i in range(count)
    ]


def _reap(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


class TestChaosIntegration:
    def _chaos_fleet(self, tmp_path, spec):
        path = tmp_path / "chaos.json"
        path.write_text(spec.to_json())
        return [_spawn_chaos_worker(path, index) for index in range(2)]

    def test_worker_kill_is_healed_by_redispatch(self, tmp_path):
        """Worker 0 crashes after its first task; results are intact."""
        fleet = self._chaos_fleet(tmp_path, ChaosSpec(events=(
            ChaosEvent(kind="worker_kill", target=0, after_tasks=1),
        )))
        (killed, _), _ = fleet
        try:
            reference = SweepRunner(workers=1, cache=False,
                                    executor="inprocess").run(_sleep_tasks())
            bus = telemetry.enable()
            spec = "socket:" + ",".join(addr for _, addr in fleet)
            results = SweepRunner(workers=4, cache=False,
                                  executor=spec).run(_sleep_tasks())
            assert results == reference
            # The crash really happened (chaos exit status) ...
            assert killed.wait(timeout=15) == KILL_EXIT_STATUS
            assert "repro-chaos: injecting worker_kill" in \
                killed.stderr.read()
            # ... and healing it was counted on the bus.
            snap = bus.registry.snapshot()
            assert snap.get("executor.redispatches", 0) >= 1
        finally:
            _reap([proc for proc, _ in fleet])

    @pytest.mark.parametrize("kind", ["frame_garbage", "frame_truncate"])
    def test_mangled_result_frame_is_healed(self, tmp_path, kind):
        """Worker 0's first RESULT frame is corrupted; results intact."""
        fleet = self._chaos_fleet(tmp_path, ChaosSpec(events=(
            ChaosEvent(kind=kind, target=0, nth=1),
        ), seed=5))
        try:
            reference = SweepRunner(workers=1, cache=False,
                                    executor="inprocess").run(_sleep_tasks())
            bus = telemetry.enable()
            spec = "socket:" + ",".join(addr for _, addr in fleet)
            results = SweepRunner(workers=4, cache=False,
                                  executor=spec).run(_sleep_tasks())
            assert results == reference
            assert bus.registry.snapshot().get(
                "executor.redispatches", 0) >= 1
        finally:
            _reap([proc for proc, _ in fleet])

    def test_short_stall_resumes_and_results_hold(self, tmp_path):
        """SIGSTOP+SIGCONT round trip: the stalled worker comes back."""
        fleet = self._chaos_fleet(tmp_path, ChaosSpec(events=(
            ChaosEvent(kind="worker_stall", target=0, after_tasks=1,
                       duration_s=0.3),
        )))
        try:
            reference = SweepRunner(workers=1, cache=False,
                                    executor="inprocess").run(_sleep_tasks())
            spec = "socket:" + ",".join(addr for _, addr in fleet)
            results = SweepRunner(workers=4, cache=False,
                                  executor=spec).run(_sleep_tasks())
            assert results == reference
            # The worker survived its own stall.
            assert fleet[0][0].poll() is None
        finally:
            _reap([proc for proc, _ in fleet])
