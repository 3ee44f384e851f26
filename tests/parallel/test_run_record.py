"""One run record: every view of a sweep is the same manifest stream.

``SweepRunner._emit`` is the only place a resolved task is recorded or
announced, so the manifest list, ``SweepStats``, the progress line,
the telemetry bus (both read a ``SweepTally`` that ``_emit`` feeds) and
``on_result`` cannot disagree.  These tests pin
that — including for the resolution that used to bypass the emit, a
task that exhausts its retry budget.
"""

import io
import os
import tempfile
import threading
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SweepTaskError
from repro.flow.validate import validation_conditions
from repro.obs import telemetry
from repro.obs.manifest import RunManifest, tally, write_manifests
from repro.obs.progress import SweepProgress
from repro.obs.top import resilience_line
from repro.parallel import ResultCache, SimTask, SweepRunner
from repro.parallel import cache as cache_module
from repro.parallel import coordinator
from repro.parallel.task import SweepStats
from repro.workload import Session, TransferSpec

_TASKS = "tests.parallel._tasks"


pytestmark = pytest.mark.usefixtures("isolated_env")


def _double(value):
    return SimTask(fn=f"{_TASKS}:double", kwargs={"value": value, "seed": 1},
                   key=f"double.{value}")


_POISON = SimTask(fn="tests.faults._tasks:fail_always_task",
                  kwargs={"seed": 1}, key="poison")


class TestFailedTaskReachesTheBus:
    """Regression: budget exhaustion is a resolution like any other."""

    def _poisoned_sweep(self):
        bus = telemetry.enable(telemetry.TelemetryBus())
        stream = io.StringIO()
        runner = SweepRunner(
            workers=1, cache=False, executor="inprocess",
            progress=SweepProgress(4, stream=stream, min_interval_s=0.0),
        )
        with pytest.MonkeyPatch.context() as patch, \
                pytest.raises(SweepTaskError) as excinfo:
            patch.setattr(coordinator, "MAX_RETRIES", 0)
            runner.run([_double(0), _POISON, _double(1), _double(2)])
        return bus, runner, stream, excinfo.value

    def test_done_reaches_total_and_the_queue_drains(self):
        bus, runner, _, _ = self._poisoned_sweep()
        snap = bus.snapshot()["metrics"]
        assert snap["sweep.tasks_total"] == 4.0
        assert snap["sweep.tasks_done"] == 4.0
        assert snap["sweep.tasks_failed"] == 1.0
        assert snap["sweep.queue_depth"] == 0.0
        assert bus.snapshot()["fleet"]["eta_s"] is None

    def test_every_view_tells_the_same_story(self):
        bus, runner, stream, error = self._poisoned_sweep()
        assert runner.last_stats.executed == 4
        assert runner.last_stats.failed == 1
        assert "sweep: 4/4" in stream.getvalue()
        (failure,) = error.failures
        manifest = runner.last_manifests[failure.index]
        assert (failure.key, failure.attempts) == ("poison", 1)
        assert manifest.extra == {"attempts": 1, "failed": True,
                                  "error": failure.error}
        assert "RuntimeError" in failure.error

    def test_obs_top_shows_failures_only_when_there_are_some(self):
        bus, _, _, _ = self._poisoned_sweep()
        assert "failed tasks 1" in resilience_line(bus.snapshot()["metrics"])
        assert resilience_line({"sweep.tasks_failed": 0.0}) is None


class TestStatsAreAReduction:
    def test_no_counter_is_kept_while_the_sweep_runs(self):
        runner = SweepRunner(workers=1, cache=False, executor="inprocess")
        runner.run([_double(i) for i in range(3)])
        stats = runner.last_stats
        assert stats == SweepStats.from_manifests(
            runner.last_manifests, stats.workers, stats.executor,
            stats.elapsed_s,
        )
        assert stats.tasks == 3 and stats.executed == 3

    def test_resolved_s_orders_completions_within_the_elapsed_wall(self):
        runner = SweepRunner(workers=1, cache=False, executor="inprocess")
        runner.run([_double(i) for i in range(4)])
        stamps = [m.resolved_s for m in runner.last_manifests]
        assert stamps == sorted(stamps)
        assert 0.0 < stamps[0] and stamps[-1] <= runner.last_stats.elapsed_s


class TestTaskIdentityOnDemand:
    """Only a cache needs a task's identity while the sweep runs.

    Without one, each manifest hashes its task on first read, and every
    reader sees the string an eager hash would have written.
    """

    @staticmethod
    def _specs():
        condition = validation_conditions(1)[0]
        return [
            TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                         primary="wifi", seed=seed, fidelity="flow")
            for nbytes, seed in ((30_000, 3), (100_000, 4), (30_000, None))
        ]

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        real = cache_module.spec_hash

        def counting(fn, kwargs):
            calls.append(fn)
            return real(fn, kwargs)

        monkeypatch.setattr(cache_module, "spec_hash", counting)
        return calls, real

    def test_a_cache_off_sweep_hashes_only_what_is_read(self, monkeypatch,
                                                        tmp_path):
        calls, real = self._counting(monkeypatch)
        session, specs = Session(), self._specs()
        session.run_many(specs, workers=1, executor="inprocess", cache=False)
        assert calls == []
        tasks = [session.task_for(spec).seeded(session.seed)
                 for spec in specs]
        expected = [real(task.fn, task.kwargs) for task in tasks]
        lazy = session.last_manifests
        # The eager form, built without reading the deferred field.
        eager = [
            RunManifest(**{f.name: getattr(manifest, f.name)
                           for f in fields(RunManifest)
                           if f.name != "spec_hash"}, spec_hash=identity)
            for manifest, identity in zip(lazy, expected)
        ]
        write_manifests(lazy, str(tmp_path / "lazy.json"))
        write_manifests(eager, str(tmp_path / "eager.json"))
        assert (tmp_path / "lazy.json").read_bytes() == \
            (tmp_path / "eager.json").read_bytes()
        assert len(calls) == len(specs)
        assert [manifest.spec_hash for manifest in lazy] == expected
        assert lazy == eager
        assert len(calls) == len(specs)  # hashed once, then kept

    def test_a_cached_sweep_hashes_each_task_once(self, monkeypatch,
                                                  tmp_path):
        calls, real = self._counting(monkeypatch)
        session, specs = Session(), self._specs()
        session.run_many(specs, workers=1, executor="inprocess",
                         cache=ResultCache(str(tmp_path)))
        assert len(calls) == len(specs)
        tasks = [session.task_for(spec).seeded(session.seed)
                 for spec in specs]
        assert [manifest.spec_hash for manifest in session.last_manifests] \
            == [real(task.fn, task.kwargs) for task in tasks]
        assert len(calls) == len(specs)


@settings(max_examples=12, deadline=None)
@given(
    hits=st.integers(0, 3),
    misses=st.integers(0, 3),
    retried=st.booleans(),
    poison=st.booleans(),
    waited=st.booleans(),
    backend=st.sampled_from([("inprocess", 1), ("process", 2)]),
)
def test_every_view_agrees_for_any_mix_of_outcomes(
        hits, misses, retried, poison, waited, backend):
    """Progress, stats, manifests, the bus and on_result: one count."""
    executor, workers = backend
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(os.path.join(root, "cache"))
        warm = [_double(i) for i in range(hits)]
        SweepRunner(workers=1, cache=cache, executor="inprocess").run(warm)
        tasks = warm + [_double(100 + i) for i in range(misses)]
        if retried:
            tasks.append(SimTask(
                fn=f"{_TASKS}:fail_once", key="flaky",
                kwargs={"flag_path": os.path.join(root, "failed-once"),
                        "value": 7, "seed": 1},
            ))
        if poison:
            tasks.append(_POISON)
        publisher = None
        if waited:
            # Another runner holds this key and publishes it shortly.
            foreign = _double(999)
            key = cache.key_for(foreign.fn, foreign.kwargs)
            assert cache.acquire(key)
            publisher = threading.Timer(
                0.1, lambda: cache.put(key, {"value": "foreign"}))
            tasks.append(foreign)
        if not tasks:
            return

        seen = []
        stream = io.StringIO()
        progress = SweepProgress(len(tasks), stream=stream,
                                 min_interval_s=0.0)
        bus = telemetry.enable(telemetry.TelemetryBus())
        runner = SweepRunner(
            workers=workers, cache=cache, executor=executor,
            progress=progress,
            on_result=lambda index, task, value, cached: seen.append(
                (index, cached)),
        )
        failures = []
        patch = pytest.MonkeyPatch()
        patch.setattr(coordinator, "MAX_RETRIES", 1)
        patch.setattr(coordinator, "RETRY_BACKOFF_S", 0.0)
        try:
            if publisher is not None:
                publisher.start()
            runner.run(tasks)
        except SweepTaskError as error:
            failures = error.failures
        finally:
            patch.undo()
            if publisher is not None:
                publisher.join()
                cache.release(key)
            telemetry.disable()

    manifests, stats = runner.last_manifests, runner.last_stats
    # The bus as its consumers read it: /healthz, the sink, `obs top`.
    snapshot = bus.snapshot()
    fleet, snap = snapshot["fleet"], snapshot["metrics"]
    counts = tally(manifests)
    # What happened, exactly where the mix pins it...
    assert counts["tasks"] == len(tasks)
    assert counts["cache_hits"] == hits + waited
    assert counts["failed"] == int(poison)
    assert counts["flight_waits"] == int(waited)
    assert counts["retried"] >= int(retried)  # shard-mates may retry too
    # ...and every other view is that same count.
    assert {name: getattr(stats, name) for name in counts} == counts
    live = progress.tally.read()
    assert (live["done"], live["cache_hits"], live["failed"]) == (
        counts["tasks"], counts["cache_hits"], counts["failed"])
    assert live["executed"] == counts["executed"]
    assert f"sweep: {len(tasks)}/{len(tasks)}" in stream.getvalue()
    assert snap["sweep.tasks_total"] == snap["sweep.tasks_done"] == len(tasks)
    assert snap["sweep.cache_hits"] == counts["cache_hits"]
    assert snap["sweep.tasks_failed"] == counts["failed"]
    assert snap["sweep.queue_depth"] == 0.0
    assert snap["sweep.runs"] == 1.0
    assert fleet["tasks_total"] == fleet["tasks_done"] == len(tasks)
    assert fleet["cache_hits"] == counts["cache_hits"]
    assert fleet["eta_s"] is None
    assert [f.index for f in failures] == [
        index for index, m in enumerate(manifests) if m.extra.get("failed")]
    assert sorted(seen) == [
        (index, m.cache_hit) for index, m in enumerate(manifests)
        if not m.extra.get("failed")]
