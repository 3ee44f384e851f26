"""The result store as a shared, concurrency-safe service.

Covers the single-flight protocol in-process (deterministic unit
tests against a lock the test itself owns) and across two real runner
processes racing on one ``REPRO_CACHE_DIR``, plus the ``python -m
repro.parallel cache`` maintenance CLI.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.parallel import SimTask, SweepRunner
from repro.parallel.cache import ResultCache
from repro.parallel.service import cache_main

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
))

_TASKS = "tests.parallel._tasks"


pytestmark = pytest.mark.usefixtures("isolated_env")


def _tasks(count=3):
    return [
        SimTask(fn=f"{_TASKS}:double", kwargs={"value": i, "seed": i},
                key=f"d{i}")
        for i in range(count)
    ]


class TestSingleFlightPrimitives:
    def test_acquire_is_exclusive_then_released(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.acquire("k") is True
        assert cache.acquire("k") is False
        cache.release("k")
        assert cache.acquire("k") is True

    def test_release_is_idempotent(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.release("never-acquired")  # must not raise

    def test_wait_for_returns_published_value(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        # Same-process "other runner": hold the lock under a different
        # pretend pid so the waiter cannot treat it as its own.
        assert cache.acquire("k")
        publisher = threading.Timer(
            0.15, lambda: cache.put("k", {"answer": 42})
        )
        publisher.start()
        try:
            hit, value = cache.wait_for("k", timeout_s=5.0)
        finally:
            publisher.join()
            cache.release("k")
        assert hit and value == {"answer": 42}

    def test_wait_for_gives_up_when_owner_releases_unpublished(
        self, tmp_path
    ):
        cache = ResultCache(str(tmp_path))
        assert cache.acquire("k")
        releaser = threading.Timer(0.15, lambda: cache.release("k"))
        releaser.start()
        try:
            hit, value = cache.wait_for("k", timeout_s=5.0)
        finally:
            releaser.join()
        assert not hit  # poison-task signal: the caller takes over

    def test_dead_owner_lock_is_broken(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        lock_path = cache._lock_path("k")
        os.makedirs(os.path.dirname(lock_path), exist_ok=True)
        # A pid far above any live process on a test box.
        with open(lock_path, "w", encoding="utf-8") as handle:
            json.dump({"pid": 2 ** 22 + 17, "time": time.time()}, handle)
        assert cache.acquire("k") is True  # stale lock broken, not queued

    def test_runner_waits_for_foreign_computation(self, tmp_path):
        """A runner whose key is locked ingests the other side's result."""
        cache = ResultCache(str(tmp_path))
        (task,) = _tasks(1)
        key = cache.key_for(task.seeded(0).fn, task.seeded(0).kwargs)
        assert cache.acquire(key)
        sentinel = {"value": "published-by-other-runner"}
        publisher = threading.Timer(0.2, lambda: cache.put(key, sentinel))
        publisher.start()
        runner = SweepRunner(workers=1, cache=cache, seed=0)
        try:
            results = runner.run([task])
        finally:
            publisher.join()
            cache.release(key)
        # The foreign value (not a local computation) came back.
        assert results == [sentinel]
        assert runner.last_stats.flight_waits == 1
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.executed == 0
        (manifest,) = runner.last_manifests
        assert manifest.cache_hit is True
        assert manifest.extra.get("single_flight") == "waited"

    def test_runner_takes_over_abandoned_key(self, tmp_path):
        """Owner releases without publishing -> this runner computes."""
        cache = ResultCache(str(tmp_path))
        (task,) = _tasks(1)
        key = cache.key_for(task.seeded(0).fn, task.seeded(0).kwargs)
        assert cache.acquire(key)
        releaser = threading.Timer(0.2, lambda: cache.release(key))
        releaser.start()
        runner = SweepRunner(workers=1, cache=cache, seed=0)
        try:
            results = runner.run([task])
        finally:
            releaser.join()
        assert results == [{"value": 0, "seed": 0}]
        assert runner.last_stats.executed == 1
        assert cache.get(key) == (True, {"value": 0, "seed": 0})


_CHILD_SCRIPT = """
import json, sys
from repro.parallel import SimTask, SweepRunner

log_path, cache_dir, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
from repro.parallel.cache import ResultCache
tasks = [
    SimTask(fn="tests.parallel._tasks:logged_task",
            kwargs={"log_path": log_path, "value": i, "seed": i},
            key=f"t{i}")
    for i in range(count)
]
runner = SweepRunner(workers=2, cache=ResultCache(cache_dir), seed=0)
results = runner.run(tasks)
stats = runner.last_stats
print(json.dumps({
    "results": results,
    "hits": stats.cache_hits,
    "executed": stats.executed,
    "flight_waits": stats.flight_waits,
    "manifest_hits": [m.cache_hit for m in runner.last_manifests],
}))
"""


class TestConcurrentRunners:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """The satellite acceptance test: two racing runner processes.

        Exactly one execution per key across both (single-flight), no
        corrupted reads, identical results both sides, and per-side
        manifests that add up (hit + executed == tasks).
        """
        log_path = str(tmp_path / "executions.log")
        cache_dir = str(tmp_path / "cache")
        count = 6
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                              env.get("PYTHONPATH")) if path
        )
        env.pop("REPRO_EXECUTOR", None)
        env["REPRO_CACHE"] = "1"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CHILD_SCRIPT, log_path, cache_dir,
                 str(count)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env, cwd=REPO_ROOT,
            )
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outputs.append(json.loads(out))

        expected = [{"value": i * 2, "seed": i} for i in range(count)]
        for side in outputs:
            # No torn/corrupt reads: every result is exact, whichever
            # process computed it.
            assert side["results"] == expected
            assert side["hits"] + side["executed"] == count
            assert sum(side["manifest_hits"]) == side["hits"]
            assert side["manifest_hits"].count(False) == side["executed"]

        # Single-flight: each key was computed exactly once across
        # BOTH processes — the whole point of the shared store.
        with open(log_path, encoding="utf-8") as handle:
            executions = [line.split()[0] for line in handle
                          if line.strip()]
        assert sorted(executions) == [str(i) for i in range(count)]
        assert (outputs[0]["executed"] + outputs[1]["executed"]) == count

        # And the store holds every entry afterwards.
        cache = ResultCache(cache_dir)
        stats = cache.stats()
        assert stats["entries"] == count
        assert stats["locks"] == 0


class TestCacheCli:
    def _put_entries(self, cache_dir, count=3):
        cache = ResultCache(cache_dir)
        for i in range(count):
            cache.put(f"{i:02d}aabbcc", {"i": i})
        return cache

    def test_stats_json(self, tmp_path, capsys):
        self._put_entries(str(tmp_path))
        assert cache_main(["stats", "--dir", str(tmp_path),
                           "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert stats["locks"] == 0

    def test_stats_counts_locks_and_orphans(self, tmp_path, capsys):
        cache = self._put_entries(str(tmp_path))
        cache.acquire("99ffee")
        orphan = tmp_path / "00" / "leftover.tmp"
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_bytes(b"partial write")
        assert cache_main(["stats", "--dir", str(tmp_path),
                           "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["locks"] == 1
        assert stats["orphan_tmp"] == 1

    def test_gc_removes_stale_state_keeps_live(self, tmp_path, capsys):
        cache = self._put_entries(str(tmp_path))
        # A live lock owned by this process must survive gc.
        cache.acquire("11aabb")
        # A dead-owner lock and an old orphan tempfile must not.
        dead_lock = cache._lock_path("22ccdd")
        os.makedirs(os.path.dirname(dead_lock), exist_ok=True)
        with open(dead_lock, "w", encoding="utf-8") as handle:
            json.dump({"pid": 2 ** 22 + 19, "time": time.time()}, handle)
        orphan = tmp_path / "33" / "crashed.tmp"
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_bytes(b"x")
        old = time.time() - 3600
        os.utime(orphan, (old, old))
        assert cache_main(["gc", "--dir", str(tmp_path), "--json"]) == 0
        removed = json.loads(capsys.readouterr().out)
        assert removed == {"entries": 0, "locks": 1, "tmp": 1}
        assert os.path.exists(cache._lock_path("11aabb"))
        assert cache.stats()["entries"] == 3

    def test_gc_max_age_drops_old_entries(self, tmp_path, capsys):
        cache = self._put_entries(str(tmp_path))
        path = cache._path("00aabbcc")
        old = time.time() - 7200
        os.utime(path, (old, old))
        assert cache_main(["gc", "--dir", str(tmp_path),
                           "--max-age-s", "3600", "--json"]) == 0
        removed = json.loads(capsys.readouterr().out)
        assert removed["entries"] == 1
        assert cache.stats()["entries"] == 2

    @pytest.mark.parametrize("max_age", ["-1", "nan", "inf"])
    def test_gc_refuses_a_window_that_is_not_an_age(self, tmp_path, capsys,
                                                    max_age):
        # -1 would make a fresh entry "stale"; nan would keep every one.
        cache = self._put_entries(str(tmp_path))
        assert cache_main(["gc", "--dir", str(tmp_path),
                           "--max-age-s", max_age]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("cache: max_age_s"), err
        assert cache.stats()["entries"] == 3
        with pytest.raises(ConfigurationError):
            cache.gc(max_age_s=float(max_age))

    def test_clear_empties_the_store(self, tmp_path, capsys):
        self._put_entries(str(tmp_path))
        assert cache_main(["clear", "--dir", str(tmp_path),
                           "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"entries": 3}
        assert ResultCache(str(tmp_path)).stats()["entries"] == 0

    def test_human_output_mentions_dir(self, tmp_path, capsys):
        self._put_entries(str(tmp_path))
        assert cache_main(["stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries" in out


class TestPidReuseLock:
    """The (pid, start-token) pair vs recycled pids and old locks."""

    def _forge_lock(self, cache, key, body):
        lock_path = cache._lock_path(key)
        os.makedirs(os.path.dirname(lock_path), exist_ok=True)
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(body))
        return lock_path

    def test_dead_owner_with_token_is_broken(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="t")
        self._forge_lock(cache, "k", {
            "pid": 2 ** 22 + 17, "start": "12345", "time": time.time(),
        })
        assert cache.acquire("k") is True

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="needs /proc start tokens")
    def test_recycled_pid_is_not_mistaken_for_the_owner(self, tmp_path):
        from repro.core.proc import pid_start_token

        cache = ResultCache(str(tmp_path), fingerprint="t")
        # A *live* pid (our parent) under a token from a different
        # incarnation: pre-token code would have kept this lock alive
        # until stale_lock_s; the pair check breaks it immediately.
        live_pid = os.getppid()
        assert pid_start_token(live_pid) != ""
        self._forge_lock(cache, "k", {
            "pid": live_pid, "start": "1", "time": time.time(),
        })
        assert cache.acquire("k") is True

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="needs /proc start tokens")
    def test_live_owner_with_matching_token_keeps_the_lock(self, tmp_path):
        from repro.core.proc import pid_start_token

        cache = ResultCache(str(tmp_path), fingerprint="t")
        live_pid = os.getppid()
        self._forge_lock(cache, "k", {
            "pid": live_pid, "start": pid_start_token(live_pid),
            "time": time.time(),
        })
        assert cache.acquire("k") is False

    def test_old_format_live_lock_still_respected(self, tmp_path):
        # Locks written before the token existed carry only a pid;
        # a live owner must keep them (bare kill-0 semantics).
        cache = ResultCache(str(tmp_path), fingerprint="t")
        self._forge_lock(cache, "k", {
            "pid": os.getppid(), "time": time.time(),
        })
        assert cache.acquire("k") is False

    def test_new_locks_carry_the_token_pair(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="t")
        assert cache.acquire("k") is True
        with open(cache._lock_path("k"), encoding="utf-8") as handle:
            body = json.load(handle)
        assert body["pid"] == os.getpid()
        assert isinstance(body["start"], str)
        if os.path.exists("/proc/self/stat"):
            assert body["start"] != ""
