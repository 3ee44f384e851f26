"""Tests for the parallel sweep engine: determinism, sharding, cache."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import derive_seed
from repro.experiments.common import mptcp_spec, tcp_spec
from repro.linkem.conditions import make_conditions
from repro.parallel import (
    ResultCache,
    SimTask,
    SweepRunner,
    resolve_workers,
)
from repro.parallel.cache import canonical_spec, spec_key
from repro.workload import Session

FLOW_BYTES = 20 * 1024


# Tests that want caching pass an explicit ResultCache, which beats the
# fixture's REPRO_CACHE=0.  REPRO_EXECUTOR is deliberately left alone:
# CI runs this module under an executor matrix, and every test here
# must pass unchanged on any backend.
KEEP_ENV = ("REPRO_EXECUTOR",)
pytestmark = pytest.mark.usefixtures("isolated_env")


def _small_tasks(seed: int = 7):
    """Six quick transfer tasks spanning both task kinds."""
    conditions = make_conditions(seed=1)
    specs = []
    for condition in conditions[4:6]:
        specs.append(tcp_spec(condition, "wifi", FLOW_BYTES, seed=seed))
        specs.append(tcp_spec(condition, "lte", FLOW_BYTES, seed=seed))
        specs.append(
            mptcp_spec(condition, "wifi", "decoupled", FLOW_BYTES, seed=seed)
        )
    return [Session().task_for(spec) for spec in specs]


class TestSimTask:
    def test_resolves_module_callable(self):
        task = SimTask(fn="repro.workload.session:run_transfer_spec")
        assert callable(task.resolve())

    def test_rejects_malformed_path(self):
        with pytest.raises(ConfigurationError):
            SimTask(fn="no.colon.here").resolve()

    def test_rejects_missing_attribute(self):
        with pytest.raises(ConfigurationError):
            SimTask(fn="repro.workload.session:nope").resolve()

    def test_seeded_derives_from_key_not_order(self):
        task = SimTask(fn="m:f", kwargs={"x": 1}, key="alpha")
        seeded = task.seeded(99)
        assert seeded.kwargs["seed"] == derive_seed(99, "sweep-task.alpha")

    def test_seeded_keeps_explicit_seed(self):
        task = SimTask(fn="m:f", kwargs={"seed": 123}, key="alpha")
        assert task.seeded(99).kwargs["seed"] == 123


class TestWorkersResolution:
    # The precedence table for all ten variables is tests/test_env.py.
    def test_defaults_to_one(self):
        assert resolve_workers() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ConfigurationError):
            resolve_workers()


class TestParallelSerialDeterminism:
    def test_workers_do_not_change_results(self):
        tasks = _small_tasks()
        serial = SweepRunner(workers=1, cache=False).run(tasks)
        parallel = SweepRunner(workers=4, cache=False).run(tasks)
        assert serial == parallel  # TransferReport dataclass equality
        assert all(summary.completed for summary in serial)

    def test_results_come_back_in_task_order(self):
        tasks = _small_tasks()
        results = SweepRunner(workers=3, cache=False).run(tasks)
        for task, report in zip(tasks, results):
            assert report.total_bytes == task.kwargs["spec"].nbytes


class TestResultCache:
    def test_cold_then_warm(self, tmp_path):
        tasks = _small_tasks()
        cache = ResultCache(root=str(tmp_path))
        runner = SweepRunner(workers=1, cache=cache)
        cold = runner.run(tasks)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == len(tasks)

        warm_runner = SweepRunner(workers=1, cache=ResultCache(str(tmp_path)))
        warm = warm_runner.run(tasks)
        assert warm_runner.last_stats.cache_hits == len(tasks)
        assert warm_runner.last_stats.executed == 0
        assert warm == cold

    def test_cache_shared_between_worker_counts(self, tmp_path):
        tasks = _small_tasks()
        SweepRunner(workers=2, cache=ResultCache(str(tmp_path))).run(tasks)
        warm = SweepRunner(workers=1, cache=ResultCache(str(tmp_path)))
        warm.run(tasks)
        assert warm.last_stats.cache_hits == len(tasks)

    def test_code_change_invalidates(self, tmp_path):
        tasks = _small_tasks()
        before = SweepRunner(
            workers=1, cache=ResultCache(str(tmp_path), fingerprint="rev-a")
        )
        before.run(tasks)
        after = SweepRunner(
            workers=1, cache=ResultCache(str(tmp_path), fingerprint="rev-b")
        )
        after.run(tasks)
        # Different code fingerprint -> different content address -> miss.
        assert after.last_stats.cache_hits == 0
        assert after.last_stats.executed == len(tasks)

    def test_env_toggle_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert SweepRunner(workers=1).cache is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert SweepRunner(workers=1).cache is not None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), fingerprint="f")
        key = cache.key_for("m:f", {"x": 1})
        cache.put(key, {"ok": True})
        hit, value = cache.get(key)
        assert hit and value == {"ok": True}
        path = cache._path(key)
        # Two corruption flavours: an UnpicklingError and a truncated
        # opcode stream that raises ValueError inside pickle.
        import warnings

        for garbage in (b"not a pickle", b"garbage\n"):
            with open(path, "wb") as handle:
                handle.write(garbage)
            with warnings.catch_warnings():
                # The warn-once corruption notice is covered by
                # tests/faults/test_hardening.py; here it is noise.
                warnings.simplefilter("ignore", RuntimeWarning)
                hit, _ = cache.get(key)
            assert not hit


class TestSpecKeys:
    def test_kwarg_value_changes_key(self):
        a = spec_key("m:f", {"x": 1}, fingerprint="f")
        b = spec_key("m:f", {"x": 2}, fingerprint="f")
        assert a != b

    def test_dataclasses_canonicalize(self):
        condition = make_conditions(seed=1)[0]
        spec = canonical_spec({"condition": condition})
        assert spec["condition"]["__dataclass__"].endswith("ConditionSpec")
        assert spec_key("m:f", {"condition": condition}, "f") == spec_key(
            "m:f", {"condition": condition}, "f"
        )

    def test_unrepresentable_kwargs_rejected(self):
        with pytest.raises(TypeError):
            canonical_spec({"fn": lambda: None})


def _run_with_workers(run, workers, monkeypatch, swept=None):
    """An experiment takes its worker count from the environment.

    ``swept`` collects the :class:`SweepRunner` of every sweep the run
    makes (``last_stats`` says what each executed).
    """
    swept = [] if swept is None else swept
    real = SweepRunner.run

    def recording(self, tasks):
        swept.append(self)
        return real(self, tasks)

    with monkeypatch.context() as patch:
        patch.setenv("REPRO_WORKERS", str(workers))
        patch.setattr(SweepRunner, "run", recording)
        result = run(fast=True)
    # It swept, and at that count.
    assert {runner.workers for runner in swept} == {workers}
    return result


class TestExperimentLevelParity:
    def test_fig04_metrics_identical_across_worker_counts(self, monkeypatch):
        from repro.experiments import fig04

        serial = _run_with_workers(fig04.run, 1, monkeypatch)
        parallel = _run_with_workers(fig04.run, 2, monkeypatch)
        assert serial.metrics == parallel.metrics
        assert serial.body == parallel.body

    def test_fig09_10_spec_sweep_body_identical_across_worker_counts(
            self, monkeypatch):
        # Spec-driven sweep: the rendered figure body must be
        # byte-identical for --workers 1 vs 4.
        from repro.experiments import fig09_10

        serial = _run_with_workers(fig09_10.run, 1, monkeypatch)
        parallel = _run_with_workers(fig09_10.run, 4, monkeypatch)
        assert serial.body == parallel.body
        assert serial.metrics == parallel.metrics

    @pytest.mark.parametrize("module, fn", [
        ("fig06", "run"),
        ("fig08", "run"),
        ("fig13", "run"),
        ("fig14", "run"),
        ("fig15", "run"),
        ("fig16", "run"),
        ("fig18_19", "run"),
        ("fig20_21", "run"),
        ("ablations", "run_slowstart_ablation"),
    ])
    def test_spec_grid_renders_identically_any_workers_cold_or_warm(
        self, module, fn, monkeypatch, tmp_path
    ):
        import importlib

        run = getattr(
            importlib.import_module(f"repro.experiments.{module}"), fn
        )
        # REPRO_CACHE=0 (the fixture) for the serial reference.
        reference = _run_with_workers(run, 1, monkeypatch).render()
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold, warm = [], []
        cold_text = _run_with_workers(run, 2, monkeypatch, cold).render()
        assert sum(runner.last_stats.executed for runner in cold) > 0
        warm_text = _run_with_workers(run, 2, monkeypatch, warm).render()
        assert [runner.last_stats.executed for runner in warm] == [0] * len(cold)
        assert reference == cold_text == warm_text

    def test_fig14_after_fig13_executes_nothing(self, monkeypatch, tmp_path):
        # Two reductions of one grid: the second figure is all hits.
        from repro.experiments import fig13, fig14

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        fig13.run(fast=True)
        first = _session_stats()
        assert first.executed == first.tasks > 0
        fig14.run(fast=True)
        second = _session_stats()
        assert (second.tasks, second.cache_hits, second.executed) == (
            first.tasks, first.tasks, 0
        )

    def test_ablation_join_after_slowstart_runs_only_the_join_grid(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments import ablations

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ablations.run_slowstart_ablation(fast=True)
        ablations.run_join_ablation(fast=True)
        stats = _session_stats()
        # Sequential-join half = slow-start's baseline grid (cached);
        # only the simultaneous-join half is new work.
        assert stats.cache_hits == stats.executed == stats.tasks // 2 > 0


def _session_stats():
    """SweepStats of the experiments' last ``Session.run_many``."""
    from repro.experiments import common

    return common._SESSION.last_stats
