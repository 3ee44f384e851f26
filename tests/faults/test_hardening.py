"""Hardened sweep execution: crashes, retries, timeouts, corruption."""

import os
import pickle

import pytest

from repro.core.errors import ConfigurationError, SweepTaskError
from repro.parallel.cache import ResultCache
from repro.parallel.runner import SimTask, SweepRunner

_TASKS = "tests.faults._tasks"


# These tests crash and hang workers on purpose, which only the
# process-pool backend can contain: the fixture unsets REPRO_EXECUTOR.
pytestmark = pytest.mark.usefixtures("isolated_env")


def _ok_tasks(count=4):
    return [
        SimTask(fn=f"{_TASKS}:ok_task", kwargs={"value": i, "seed": i},
                key=f"ok-{i}")
        for i in range(count)
    ]


def _expected(task):
    return {"value": task.kwargs["value"] * 2, "seed": task.kwargs["seed"]}


def _matches(result, task):
    return {k: result[k] for k in ("value", "seed")} == _expected(task)


class TestConstructorValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(max_retries=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(retry_backoff_s=-0.1)

    def test_zero_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(task_timeout_s=0)


class TestCrashIsolation:
    def test_worker_crash_does_not_poison_other_tasks(self):
        """One worker-killing task; everything else still computes."""
        okay = _ok_tasks(4)
        poison = SimTask(fn=f"{_TASKS}:crash_task", kwargs={"seed": 0},
                         key="poison")
        runner = SweepRunner(workers=2, cache=False, retry_backoff_s=0.0)
        with pytest.raises(SweepTaskError) as excinfo:
            runner.run(okay + [poison])
        error = excinfo.value
        assert [f.key for f in error.failures] == ["poison"]
        # Budget = max_retries + 1 total attempts, all recorded.
        assert error.failures[0].attempts == runner.max_retries + 1
        for index, task in enumerate(okay):
            assert _matches(error.results[index], task)
        assert runner.last_stats.failed == 1

    def test_failure_provenance_in_manifests(self):
        okay = _ok_tasks(2)
        poison = SimTask(fn=f"{_TASKS}:crash_task", kwargs={"seed": 0},
                         key="poison")
        runner = SweepRunner(workers=2, cache=False, retry_backoff_s=0.0)
        with pytest.raises(SweepTaskError):
            runner.run(okay + [poison])
        by_key = {m.key: m for m in runner.last_manifests}
        extra = by_key["poison"].extra
        assert extra["failed"] is True
        assert extra["attempts"] == runner.max_retries + 1
        assert "error" in extra
        assert "failed" not in by_key["ok-0"].extra

    def test_crash_once_recovers_with_retry_provenance(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        okay = _ok_tasks(2)
        flaky = SimTask(
            fn=f"{_TASKS}:crash_once_task",
            kwargs={"flag_path": flag, "seed": 0}, key="flaky",
        )
        runner = SweepRunner(workers=2, cache=False, retry_backoff_s=0.0)
        results = runner.run(okay + [flaky])
        assert results[2] == "recovered"
        by_key = {m.key: m for m in runner.last_manifests}
        assert by_key["flaky"].extra == {"attempts": 2, "retried": True}
        # The crash may also poison the flaky task's shard-mates (they
        # get retried too), so only bound the retry count from below.
        assert runner.last_stats.retried >= 1
        assert runner.last_stats.failed == 0

    def test_serial_exception_path_exhausts_budget(self):
        bad = SimTask(fn=f"{_TASKS}:fail_always_task", kwargs={"seed": 0},
                      key="always-bad")
        runner = SweepRunner(workers=1, cache=False, max_retries=1,
                             retry_backoff_s=0.0)
        with pytest.raises(SweepTaskError) as excinfo:
            runner.run([bad])
        failure = excinfo.value.failures[0]
        assert failure.attempts == 2
        assert "RuntimeError" in failure.error

    def test_failed_results_not_cached(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        poison = SimTask(fn=f"{_TASKS}:crash_task", kwargs={"seed": 0},
                         key="poison")
        runner = SweepRunner(workers=2, cache=cache, retry_backoff_s=0.0,
                             max_retries=0)
        with pytest.raises(SweepTaskError):
            runner.run(_ok_tasks(2) + [poison])
        hit, _ = cache.get(cache.key_for(poison.fn, poison.kwargs))
        assert not hit
        for task in _ok_tasks(2):
            hit, value = cache.get(cache.key_for(task.fn, task.kwargs))
            assert hit and _matches(value, task)


class TestTaskTimeout:
    def test_hung_task_fails_fast_and_others_complete(self):
        okay = _ok_tasks(2)
        hung = SimTask(fn=f"{_TASKS}:sleep_task",
                       kwargs={"duration_s": 60.0, "seed": 0}, key="hung")
        runner = SweepRunner(workers=2, cache=False, max_retries=0,
                             retry_backoff_s=0.0, task_timeout_s=1.0)
        with pytest.raises(SweepTaskError) as excinfo:
            runner.run(okay + [hung])
        failure = excinfo.value.failures[0]
        assert failure.key == "hung"
        # The shard timeout marks the task; the exact per-task budget
        # is enforced (and reported) by the isolated re-run.
        assert "task_timeout_s" in failure.error
        assert failure.attempts == 1
        for index, task in enumerate(okay):
            assert _matches(excinfo.value.results[index], task)


class TestCorruptCacheRecovery:
    def _corrupt(self, cache, task):
        path = cache._path(cache.key_for(task.fn, task.kwargs))
        with open(path, "r+b") as handle:
            handle.write(b"garbage!")
        return path

    def test_recompute_and_warn_once(self, tmp_path):
        import repro.parallel.cache as cache_module

        cache = ResultCache(root=str(tmp_path))
        tasks = _ok_tasks(3)
        runner = SweepRunner(workers=1, cache=cache)
        first = runner.run(tasks)
        self._corrupt(cache, tasks[0])
        self._corrupt(cache, tasks[1])
        try:
            cache_module._corruption_warned = False
            with pytest.warns(RuntimeWarning, match="corrupt") as caught:
                again = runner.run(tasks)
            corruption = [w for w in caught
                          if "corrupt" in str(w.message)]
            assert len(corruption) == 1  # warn once, not per entry
        finally:
            cache_module._corruption_warned = False
        assert again == first
        assert runner.last_stats.cache_hits == 1
        # The recomputed entries were re-written and verify again.
        for task in tasks:
            hit, _ = cache.get(cache.key_for(task.fn, task.kwargs))
            assert hit

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cache.put("k" * 64, {"payload": 1})
        path = cache._path("k" * 64)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:10])
        import repro.parallel.cache as cache_module

        try:
            cache_module._corruption_warned = False
            with pytest.warns(RuntimeWarning):
                hit, _ = cache.get("k" * 64)
        finally:
            cache_module._corruption_warned = False
        assert not hit

    def test_legacy_plain_pickle_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        key = "a" * 64
        path = cache._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump({"old": "format"}, handle)
        import repro.parallel.cache as cache_module

        try:
            cache_module._corruption_warned = False
            with pytest.warns(RuntimeWarning):
                hit, _ = cache.get(key)
        finally:
            cache_module._corruption_warned = False
        assert not hit


class TestAcceptanceScenario:
    def test_crash_plus_corruption_in_one_sweep(self, tmp_path):
        """ISSUE acceptance: one worker-crashing task + one corrupted
        cache entry; every healthy task is correct, retries land in the
        manifests, and the run fails only because the poison task
        exhausted its budget."""
        import repro.parallel.cache as cache_module

        cache = ResultCache(root=str(tmp_path))
        okay = _ok_tasks(4)
        warm = SweepRunner(workers=2, cache=cache).run(okay)
        # Corrupt one warm entry, then sweep again with a poison task.
        path = cache._path(cache.key_for(okay[1].fn, okay[1].kwargs))
        with open(path, "wb") as handle:
            handle.write(b"bit rot")
        poison = SimTask(fn=f"{_TASKS}:crash_task", kwargs={"seed": 9},
                         key="poison")
        runner = SweepRunner(workers=2, cache=cache, retry_backoff_s=0.0)
        try:
            cache_module._corruption_warned = False
            with pytest.warns(RuntimeWarning, match="corrupt"):
                with pytest.raises(SweepTaskError) as excinfo:
                    runner.run(okay + [poison])
        finally:
            cache_module._corruption_warned = False
        # Cached hits replay the warm values verbatim; the recomputed
        # entry matches modulo the worker pid baked into the payload.
        for index, task in enumerate(okay):
            assert _matches(excinfo.value.results[index], task)
        assert excinfo.value.results[0] == warm[0]
        assert [f.key for f in excinfo.value.failures] == ["poison"]
        by_key = {m.key: m for m in runner.last_manifests}
        assert by_key["poison"].extra["failed"] is True
        assert by_key["poison"].extra["attempts"] == runner.max_retries + 1
        assert by_key["ok-1"].cache_hit is False  # recomputed
        assert by_key["ok-0"].cache_hit is True
        assert runner.last_stats.failed == 1
