"""Pluggable executor backends: selection, contracts, bit-identity."""

import pytest

from repro.core.errors import ConfigurationError, SweepTaskError
from repro.experiments.common import mptcp_spec, tcp_spec
from repro.linkem.conditions import make_conditions
from repro.parallel import SimTask, SweepRunner
from repro.parallel.executors import (
    Executor,
    InProcessExecutor,
    LocalPoolExecutor,
    ShardOutcome,
    make_executor,
    parse_socket_addresses,
    resolve_executor_spec,
)
from repro.workload import Session

FLOW_BYTES = 20 * 1024


pytestmark = pytest.mark.usefixtures("isolated_env")


def _transfer_tasks(seed: int = 7):
    """Four real simulation tasks (the reference identity workload)."""
    condition = make_conditions(seed=1)[4]
    return [Session().task_for(spec) for spec in (
        tcp_spec(condition, "wifi", FLOW_BYTES, seed=seed),
        tcp_spec(condition, "lte", FLOW_BYTES, seed=seed),
        mptcp_spec(condition, "wifi", "decoupled", FLOW_BYTES, seed=seed),
        mptcp_spec(condition, "lte", "coupled", FLOW_BYTES, seed=seed),
    )]


class TestSpecResolution:
    def test_default_is_process(self):
        assert resolve_executor_spec() == "process"

    def test_aliases(self):
        # Case and padding are normalised; the documented names are
        # the only spellings.
        assert resolve_executor_spec(" InProcess ") == "inprocess"
        assert resolve_executor_spec("  PROCESS ") == "process"
        for gone in ("in-process", "serial", "pool", "local"):
            with pytest.raises(ConfigurationError):
                resolve_executor_spec(gone)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "inprocess")
        assert resolve_executor_spec() == "inprocess"

    def test_explicit_beats_default_beats_env(self, monkeypatch):
        # Three outcomes and no fourth: argument, variable, default.
        assert resolve_executor_spec() == "process"
        monkeypatch.setenv("REPRO_EXECUTOR", "inprocess")
        assert resolve_executor_spec() == "inprocess"
        assert resolve_executor_spec("process") == "process"

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor_spec("threads")

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        with pytest.raises(ConfigurationError):
            resolve_executor_spec()

    def test_socket_spec_normalized(self):
        spec = resolve_executor_spec("socket:127.0.0.1:4000,127.0.0.1:4001")
        assert spec.startswith("socket:")
        assert parse_socket_addresses(spec[len("socket:"):]) == [
            ("127.0.0.1", 4000), ("127.0.0.1", 4001),
        ]

    def test_socket_spec_validated_eagerly(self):
        with pytest.raises(ConfigurationError):
            resolve_executor_spec("socket:no-port-here")
        with pytest.raises(ConfigurationError):
            resolve_executor_spec("socket:host:99999")
        with pytest.raises(ConfigurationError):
            resolve_executor_spec("socket:")


class TestMakeExecutor:
    def test_builds_named_backends(self):
        assert isinstance(make_executor("inprocess"), InProcessExecutor)
        assert isinstance(make_executor("process"), LocalPoolExecutor)

    def test_instance_passes_through(self):
        executor = InProcessExecutor()
        assert make_executor(executor) is executor

    def test_socket_backend_lazy_built(self):
        from repro.parallel.socketexec import SocketExecutor

        executor = make_executor("socket:127.0.0.1:1")
        assert isinstance(executor, SocketExecutor)
        assert executor.inline_when_serial is False

    def test_runner_accepts_instance(self):
        runner = SweepRunner(cache=False, executor=InProcessExecutor())
        tasks = [SimTask(fn="tests.parallel._tasks:double",
                         kwargs={"value": 3, "seed": 0})]
        assert runner.run(tasks) == [{"value": 6, "seed": 0}]
        assert runner.last_stats.executor == "inprocess"


class TestShardContracts:
    def test_inprocess_always_one_shard(self):
        executor = InProcessExecutor()
        assert executor.shard_count(8, 100) == 1
        assert executor.shard_count(1, 0) == 0

    def test_pool_shards_capped_by_misses(self):
        executor = LocalPoolExecutor()
        assert executor.shard_count(4, 2) == 2
        assert executor.shard_count(4, 100) == 4

    def test_task_error_becomes_outcome_not_exception(self):
        executor = InProcessExecutor()
        bad = SimTask(fn="tests.parallel._tasks:missing", kwargs={})
        outcomes = dict(executor.run_shards([[bad]]))
        assert not outcomes[0].ok
        assert "missing" in outcomes[0].error

    def test_shard_outcome_ok_flag(self):
        assert ShardOutcome(values=[]).ok
        assert not ShardOutcome(error="boom").ok

    def test_base_class_is_abstract(self):
        executor = Executor()
        with pytest.raises(NotImplementedError):
            executor.shard_count(1, 1)
        with pytest.raises(NotImplementedError):
            executor.run_one(SimTask(fn="x:y"))


class TestBitIdentity:
    """The acceptance bar: same results on every backend and width."""

    def test_inprocess_and_process_identical_at_1_and_4(self):
        tasks = _transfer_tasks()
        reference = SweepRunner(
            workers=1, cache=False, executor="inprocess"
        ).run(tasks)
        for executor in ("inprocess", "process"):
            for workers in (1, 4):
                got = SweepRunner(
                    workers=workers, cache=False, executor=executor
                ).run(tasks)
                assert got == reference, (executor, workers)

    def test_stats_record_backend_name(self):
        tasks = _transfer_tasks()[:1]
        runner = SweepRunner(workers=1, cache=False, executor="inprocess")
        runner.run(tasks)
        assert runner.last_stats.executor == "inprocess"
        runner = SweepRunner(workers=2, cache=False, executor="process")
        runner.run(tasks)
        assert runner.last_stats.executor == "process"


class TestInProcessFailureSemantics:
    def test_failing_task_reports_sweep_task_error(self):
        tasks = [
            SimTask(fn="tests.parallel._tasks:double",
                    kwargs={"value": 1, "seed": 0}, key="ok"),
            SimTask(fn="tests.faults._tasks:fail_always_task",
                    kwargs={"seed": 0}, key="bad"),
        ]
        runner = SweepRunner(workers=1, cache=False, executor="inprocess",
                             max_retries=1, retry_backoff_s=0.0)
        with pytest.raises(SweepTaskError) as excinfo:
            runner.run(tasks)
        assert excinfo.value.results[0] == {"value": 2, "seed": 0}
        (failure,) = excinfo.value.failures
        assert failure.key == "bad"
        assert failure.attempts == 2
        assert runner.last_stats.failed == 1
