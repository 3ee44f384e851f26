"""The result store as a shared service.

Two real runner processes race on one ``REPRO_CACHE_DIR``: atomic
writes and deterministic results keep every answer exact, with no lock
between them.  Also the ``python -m repro.parallel cache`` maintenance
CLI.
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
    "manifest_hits": [m.cache_hit for m in runner.last_manifests],
}))
"""


class TestConcurrentRunners:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Two racing runner processes on one directory, no locks.

        Both sides return the exact results, the store ends with one
        valid entry per key and no tempfile, and each key was computed
        once or twice — never zero times, never more than once a side.
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

        with open(log_path, encoding="utf-8") as handle:
            executions = [line.split()[0] for line in handle
                          if line.strip()]
        assert count <= len(executions) <= 2 * count
        assert set(executions) == {str(i) for i in range(count)}
        assert len(executions) == sum(side["executed"] for side in outputs)

        cache = ResultCache(cache_dir)
        stats = cache.stats()
        assert (stats["entries"], stats["orphan_tmp"]) == (count, 0)
        for i in range(count):
            task = SimTask(fn=f"{_TASKS}:logged_task",
                           kwargs={"log_path": log_path, "value": i,
                                   "seed": i})
            assert cache.get(cache.key_for(task.fn, task.kwargs)) == (
                True, expected[i])

    def test_leftover_lock_and_tempfile_do_not_delay_a_runner(self,
                                                              tmp_path):
        """Older versions of the store left a ``.lock`` per key being
        computed; a runner today computes straight past one, and
        ``gc`` removes it once it is a minute old."""
        cache = ResultCache(str(tmp_path))
        (task,) = _tasks(1)
        seeded = task.seeded(0)
        key = cache.key_for(seeded.fn, seeded.kwargs)
        entry = cache._path(key)
        os.makedirs(os.path.dirname(entry))
        lock, orphan = entry + ".lock", entry + ".x.tmp"
        with open(lock, "w", encoding="utf-8") as handle:
            # What a live owner in this very process once wrote.
            json.dump({"pid": os.getpid(), "time": time.time()}, handle)
        with open(orphan, "wb") as handle:
            handle.write(b"partial write")
        runner = SweepRunner(workers=1, cache=cache, seed=0,
                             executor="inprocess")
        outcome = {}
        worker = threading.Thread(
            target=lambda: outcome.update(results=runner.run([task])),
            daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "the runner waited on the lock"
        assert outcome["results"] == [{"value": 0, "seed": 0}]
        assert runner.last_stats.executed == 1
        assert cache.get(key) == (True, {"value": 0, "seed": 0})

        assert cache.gc() == {"entries": 0, "tmp": 0}  # both still fresh
        old = time.time() - 61
        os.utime(lock, (old, old))
        assert cache.gc() == {"entries": 0, "tmp": 1}
        assert not os.path.exists(lock) and os.path.exists(orphan)
        assert cache.stats()["entries"] == 1


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
        assert stats["orphan_tmp"] == 0

    def test_stats_counts_locks_and_orphans(self, tmp_path, capsys):
        # A leftover per-key lock of an older version is an orphan too.
        self._put_entries(str(tmp_path))
        orphans = tmp_path / "00"
        orphans.mkdir(exist_ok=True)
        (orphans / "99ffee.pkl.lock").write_text("{}")
        (orphans / "leftover.tmp").write_bytes(b"partial write")
        assert cache_main(["stats", "--dir", str(tmp_path),
                           "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["orphan_tmp"] == 2
        assert stats["entries"] == 3

    def test_stats_ages_count_an_entry_with_mtime_zero(self, tmp_path,
                                                      capsys):
        # An archive restored with normalised times holds epoch mtimes.
        cache = self._put_entries(str(tmp_path), count=2)
        os.utime(cache._path("00aabbcc"), (0, 0))
        stats = cache.stats()
        now = time.time()
        assert stats["oldest_age_s"] == pytest.approx(now, abs=60)
        assert 0 <= stats["newest_age_s"] < 60
        assert cache_main(["stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"oldest {stats['oldest_age_s']:.0f}s" in out

    def test_gc_removes_stale_state_keeps_live(self, tmp_path, capsys):
        cache = self._put_entries(str(tmp_path))
        # Orphans a minute old go; a fresh one may be a put() in
        # progress and must survive gc.
        fresh = tmp_path / "11" / "fresh.tmp"
        fresh.parent.mkdir(exist_ok=True)
        fresh.write_bytes(b"x")
        old = time.time() - 3600
        for name in ("22/ccdd.pkl.lock", "33/crashed.tmp"):
            orphan = tmp_path / name
            orphan.parent.mkdir(exist_ok=True)
            orphan.write_bytes(b"x")
            os.utime(orphan, (old, old))
        assert cache_main(["gc", "--dir", str(tmp_path), "--json"]) == 0
        removed = json.loads(capsys.readouterr().out)
        assert removed == {"entries": 0, "tmp": 2}
        assert fresh.exists()
        assert cache.stats()["entries"] == 3
        assert cache.stats()["orphan_tmp"] == 1

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
