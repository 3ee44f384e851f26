"""End-to-end chaos soak: hurt a supervised fleet, demand identical bits.

The acceptance check for the self-healing PR, run as one script so CI
exercises every layer together — supervisor, socket executor,
redispatch, chaos harness, telemetry:

1. bring up a 2-worker fleet under :class:`FleetSupervisor` and run a
   reference sweep (no chaos);
2. bring up a second fleet whose ``FleetSpec.command`` launches the
   test-side chaos worker (``tests.parallel.chaos_worker``, handed
   each worker's ``{index}``) with a schedule armed — worker 0 is
   killed after its first task, worker 1 is SIGSTOP-stalled, each
   once — run the same sweep while a supervision thread heals the
   fleet, and assert the sweep finished on the fleet (no degrade
   warning) with results **byte-identical** (``pickle.dumps``
   equality) to the reference;
3. assert the healing really happened: the killed worker died with the
   chaos exit status, the supervisor restarted it (``fleet.restarts``
   on the bus), and the executor redispatched at least one shard;
4. tear both fleets down and assert a sweep against the dead addresses
   degrades to the local executor — with a warning, not an error —
   and still produces the same bytes.

Exit 0 on success, 1 with a diagnostic on any failure::

    PYTHONPATH=src python benchmarks/smoke_chaos.py
"""

import os
import pickle
import sys
import tempfile
import threading
import time
import warnings

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tasks(count=8, duration_s=0.2):
    from repro.parallel import SimTask

    # Slow enough that shards spread across both workers, so the
    # chaos-armed ones are guaranteed to hold in-flight work.
    return [
        SimTask(fn="tests.parallel._tasks:slow_double",
                kwargs={"value": i, "seed": i, "duration_s": duration_s},
                key=f"soak.{i}")
        for i in range(count)
    ]


def _sweep(executor_spec, tasks):
    from repro.parallel import SweepRunner

    return SweepRunner(workers=4, cache=False,
                       executor=executor_spec).run(tasks)


def _metric_total(snapshot, name):
    return sum(value for key, value in snapshot.items()
               if key == name or key.startswith(name + "{"))


def main() -> int:
    os.environ["REPRO_CACHE"] = "0"

    import dataclasses

    from repro.obs import telemetry
    from repro.parallel.supervisor import FleetSpec, FleetSupervisor
    from tests.parallel.chaos import KILL_EXIT_STATUS, ChaosEvent, ChaosSpec

    spec = FleetSpec(workers=2, heartbeat_s=0.1, max_restarts=3,
                     restart_backoff_s=0.1, restart_backoff_cap_s=0.5,
                     label="chaos-soak")
    tasks = _tasks()

    # -- 1. reference run on a healthy fleet ---------------------------
    healthy = FleetSupervisor(spec)
    try:
        healthy.up()
        reference = _sweep(healthy.executor_spec, tasks)
    finally:
        healthy.down()
    reference_bytes = pickle.dumps(reference)
    print(f"reference: {len(reference)} results")

    # -- 2. the same sweep on a fleet under attack ---------------------
    chaos_spec = ChaosSpec(
        events=(
            ChaosEvent(kind="worker_kill", target=0, after_tasks=1),
            ChaosEvent(kind="worker_stall", target=1, after_tasks=1,
                       duration_s=0.5),
        ),
        seed=7, label="soak",
    )
    with tempfile.TemporaryDirectory() as tmp:
        chaos_path = os.path.join(tmp, "chaos.json")
        with open(chaos_path, "w") as handle:
            handle.write(chaos_spec.to_json())
        # Chaos arms in the workers only, through the launch template.
        attacked = dataclasses.replace(spec, command=(
            "{python}", "-m", "tests.parallel.chaos_worker",
            "--spec", chaos_path, "--index", "{index}", "--",
            "--listen", "{listen}", "--heartbeat-s", "{heartbeat_s}",
            "--quiet"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (REPO_ROOT, env.get("PYTHONPATH")) if path)

        bus = telemetry.enable()
        supervisor = FleetSupervisor(attacked, env=env)
        stop = threading.Event()
        try:
            supervisor.up()
            keeper = threading.Thread(
                target=supervisor.supervise,
                kwargs={"stop": stop, "poll_interval_s": 0.1,
                        "on_action": lambda a: print(f"  supervisor: {a}")},
                daemon=True,
            )
            keeper.start()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                hurt = _sweep(supervisor.executor_spec, tasks)
            # The local pool would match the reference too: a sweep that
            # degraded proves nothing about healing.
            degraded = [str(w.message) for w in caught
                        if "degrading" in str(w.message)]
            assert not degraded, \
                f"the fleet degraded instead of healing: {degraded[0]}"
            assert pickle.dumps(hurt) == reference_bytes, \
                "results diverged under chaos"
            print("chaos run: results byte-identical to the reference")

            # The kill really happened and the supervisor healed it.
            deadline = time.monotonic() + 20.0
            record = supervisor._records[0]
            while (record.restarts < 1 and record.state != "failed"
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert record.restarts >= 1, \
                f"worker 0 was not restarted (state {record.state})"
            assert record.last_error == "" or "137" in record.last_error \
                or "stalled" in record.last_error, record.last_error
            snap = bus.registry.snapshot()
            restarts = _metric_total(snap, "fleet.restarts")
            redispatches = _metric_total(snap, "executor.redispatches")
            assert restarts >= 1, f"fleet.restarts = {restarts}"
            assert redispatches >= 1, \
                f"executor.redispatches = {redispatches}"
            print(f"healing: restarts {restarts:.0f}, "
                  f"redispatches {redispatches:.0f} "
                  f"(kill status {KILL_EXIT_STATUS})")
        finally:
            stop.set()
            supervisor.down()
            dead_spec = supervisor.executor_spec
            telemetry.disable()

    # -- 3. full fleet loss degrades, never fails ----------------------
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        degraded = _sweep(dead_spec, tasks)
    assert pickle.dumps(degraded) == reference_bytes, \
        "degraded run diverged"
    assert any("degrading" in str(w.message) for w in caught), \
        "no degrade warning for a dead fleet"
    print("fleet loss: degraded to the local executor, same bytes")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, REPO_ROOT)  # tests.parallel._tasks for the workers
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        raise SystemExit(1)
