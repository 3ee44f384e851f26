"""Pluggable sweep execution backends.

The :class:`~repro.parallel.coordinator.SweepRunner` owns *what*
runs (cache lookups, retries, manifests); an :class:`Executor` owns
*where* it runs.  Three backends ship:

``inprocess``
    Everything executes serially in the calling process — no pickling,
    no subprocesses.  Debugging and profiling stay trivial, and it is
    the reference against which the parallel backends must be
    bit-identical.
``process``
    The classic local :class:`~concurrent.futures.ProcessPoolExecutor`
    shard pool (the default, and the pre-refactor behavior).
``socket:HOST:PORT[,HOST:PORT...]``
    Shards dispatched to remote worker processes (``python -m
    repro.parallel worker --listen HOST:PORT``) over the
    length-prefixed TCP protocol of :mod:`repro.parallel.wire`.

Selection: explicit argument > ``REPRO_EXECUTOR`` > ``"process"``
(the one rule of :mod:`repro.core.env`).  Determinism is the backends'
contract: sharding is computed by the coordinator from task order
alone, every task carries its own seed, and results are reassembled
by task index — so any backend at any worker count produces
bit-identical sweep results.
"""

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.core import env
from repro.core.errors import ConfigurationError
from repro.parallel.task import SimTask, run_shard, run_task_timed

__all__ = [
    "Executor",
    "InProcessExecutor",
    "LOCAL_POOL",
    "LocalPoolExecutor",
    "ShardOutcome",
    "make_executor",
    "resolve_executor_spec",
]


def _normalize_spec(spec: str) -> str:
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"executor must be a spec string, got {spec!r}"
        )
    text = spec.strip().lower()
    if text in ("inprocess", "process"):
        return text
    if text.startswith("socket:"):
        # Validate eagerly so a typo'd REPRO_EXECUTOR fails at
        # configuration time, not mid-sweep.
        parse_socket_addresses(spec[len("socket:"):])
        return "socket:" + spec[len("socket:"):].strip()
    raise ConfigurationError(
        f"unknown executor {spec!r} (expected 'inprocess', 'process', or "
        f"'socket:HOST:PORT[,HOST:PORT...]')"
    )


def parse_socket_addresses(text: str) -> List[Tuple[str, int]]:
    """Parse ``HOST:PORT[,HOST:PORT...]`` into address tuples."""
    from repro.parallel.wire import parse_address

    addresses = [parse_address(part)
                 for part in text.split(",") if part.strip()]
    if not addresses:
        raise ConfigurationError(
            "socket executor needs at least one HOST:PORT address"
        )
    return addresses


def resolve_executor_spec(spec: Optional[str] = None) -> str:
    """Explicit argument > ``REPRO_EXECUTOR`` > ``"process"``, normalised."""
    if spec is not None:
        return _normalize_spec(spec)
    configured = env.text(env.EXECUTOR)
    if configured is None:
        return "process"
    try:
        return _normalize_spec(configured)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{env.EXECUTOR}: {exc}") from None


def make_executor(spec=None) -> "Executor":
    """Instantiate the executor selected by ``spec``.

    ``spec`` may be an :class:`Executor` instance (used as given), a
    spec string, or ``None`` (resolved via ``REPRO_EXECUTOR``).
    """
    if isinstance(spec, Executor):
        return spec
    resolved = resolve_executor_spec(spec)
    if resolved == "inprocess":
        return InProcessExecutor()
    if resolved == "process":
        return LocalPoolExecutor()
    # resolve_executor_spec admits nothing else: a ``socket:`` spec.
    from repro.parallel.socketexec import SocketExecutor

    return SocketExecutor(parse_socket_addresses(resolved[len("socket:"):]))


@dataclass
class ShardOutcome:
    """What happened to one dispatched shard.

    Either ``values`` holds one ``(value, wall_s, pid)`` triple per
    task (in shard order), or ``error`` explains why the whole shard
    must be re-run task-by-task in isolation.
    """

    values: Optional[List[Tuple[Any, float, int]]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Executor:
    """Interface every sweep backend implements.

    Backends execute *shards* (ordered task lists) and single tasks;
    they never see the cache, retries, or manifests — the coordinator
    owns those, so every backend inherits the same hardening.
    """

    #: Human/stats-facing backend name.
    name = "executor"

    #: When the coordinator cuts a single shard, may it skip the
    #: backend and run inline (no pool, no pickling)?  True preserves
    #: the classic ``workers=1`` debugging contract; remote backends
    #: set False so even a one-worker sweep exercises the wire.
    inline_when_serial = True

    def shard_count(self, workers: int, nmisses: int) -> int:
        """How many shards to cut ``nmisses`` tasks into."""
        raise NotImplementedError

    def run_shards(
        self,
        shards: List[List[SimTask]],
        task_timeout_s: Optional[float] = None,
    ) -> Iterator[Tuple[int, ShardOutcome]]:
        """Execute shards, yielding ``(shard_index, outcome)``.

        Yield order is completion order and may be arbitrary; the
        coordinator reassembles results by task index.  A backend must
        never raise for a *task* problem — that is reported as a
        failed :class:`ShardOutcome` — only for its own unusable
        configuration (e.g. no reachable socket worker).
        """
        raise NotImplementedError

    def run_one(
        self, task: SimTask, task_timeout_s: Optional[float] = None
    ) -> Tuple[Any, float, int]:
        """Run one task with the best isolation the backend offers.

        Used for poison-task isolation re-runs; raises on failure or
        timeout (the coordinator's retry loop catches).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any long-lived backend resources."""


class InProcessExecutor(Executor):
    """Serial in-process execution: one shard, no isolation.

    A crashing task crashes the caller and a hung task hangs it — by
    design: this backend trades isolation for zero-overhead debugging.
    """

    name = "inprocess"

    def shard_count(self, workers: int, nmisses: int) -> int:
        return 1 if nmisses else 0

    def run_shards(self, shards, task_timeout_s=None):
        for shard_index, shard in enumerate(shards):
            try:
                yield shard_index, ShardOutcome(values=run_shard(shard))
            except Exception as exc:
                yield shard_index, ShardOutcome(
                    error=f"{type(exc).__name__}: {exc}"
                )

    def run_one(self, task, task_timeout_s=None):
        return run_task_timed(task)


class LocalPoolExecutor(Executor):
    """Shards across a local :class:`ProcessPoolExecutor`.

    Failure containment: a shard whose worker crashes
    (``BrokenProcessPool``), raises, or blows the scaled shard
    deadline is reported as a failed :class:`ShardOutcome`; the
    coordinator re-runs its tasks through :meth:`run_one`, where the
    per-task budget is exact and a hung worker is terminated.

    ``concurrent.futures`` and ``multiprocessing`` are imported when a
    pool is built, so a serial process never loads them.
    """

    name = "process"

    def shard_count(self, workers: int, nmisses: int) -> int:
        return min(workers, nmisses)

    def run_shards(self, shards, task_timeout_s=None):
        from concurrent.futures import (
            ProcessPoolExecutor,
            TimeoutError as FuturesTimeout,
            as_completed,
        )

        try:
            pool = ProcessPoolExecutor(max_workers=len(shards),
                                       mp_context=self._mp_context())
        except (OSError, ValueError) as exc:
            # No pool at all (fd/process limits): every shard degrades
            # to the coordinator's isolation path (which falls back to
            # in-process execution when pools stay unavailable).
            error = f"{type(exc).__name__}: {exc}"
            for shard_index in range(len(shards)):
                yield shard_index, ShardOutcome(error=error)
            return
        hung = False
        try:
            futures = {
                pool.submit(run_shard, shard): shard_index
                for shard_index, shard in enumerate(shards)
            }
            # The shard phase deadline scales with the longest shard
            # (tasks run sequentially inside a shard) plus one extra
            # task budget of slack; the per-task budget is enforced
            # exactly during isolation re-runs.
            timeout = None
            if task_timeout_s is not None:
                longest = max(len(shard) for shard in shards)
                timeout = task_timeout_s * (longest + 1)
            done = set()
            try:
                for future in as_completed(futures, timeout=timeout):
                    done.add(future)
                    yield futures[future], self._outcome(future)
            except FuturesTimeout:
                hung = True
                for future, shard_index in futures.items():
                    if future in done:
                        continue
                    if future.done():
                        yield shard_index, self._outcome(future)
                        continue
                    future.cancel()
                    yield shard_index, ShardOutcome(error=(
                        f"shard timed out after {timeout:g}s "
                        f"(task_timeout_s={task_timeout_s:g})"
                    ))
        finally:
            if hung:
                # Cancelled futures may already be running; reclaim
                # their workers so shutdown cannot block forever.
                self._terminate_pool(pool)
            pool.shutdown(wait=not hung, cancel_futures=True)

    @staticmethod
    def _outcome(future) -> ShardOutcome:
        try:
            return ShardOutcome(values=future.result(timeout=0))
        except Exception as exc:  # BrokenProcessPool, task exception, ...
            # BrokenProcessPool poisons every pending future of the
            # pool, so innocent shards land here too — their isolation
            # re-run succeeds on the first retry.
            return ShardOutcome(error=f"{type(exc).__name__}: {exc}")

    def run_one(self, task, task_timeout_s=None):
        """Run one task in its own single-worker pool.

        A crash (``BrokenProcessPool``) or timeout is confined to this
        task; a hung worker is terminated.  If no pool can be spawned
        at all, the task runs in-process — losing crash isolation but
        keeping the sweep alive.
        """
        from concurrent.futures import (
            ProcessPoolExecutor,
            TimeoutError as FuturesTimeout,
        )

        try:
            pool = ProcessPoolExecutor(max_workers=1,
                                       mp_context=self._mp_context())
        except (OSError, ValueError):
            return run_task_timed(task)
        hung = False
        try:
            future = pool.submit(run_task_timed, task)
            try:
                return future.result(timeout=task_timeout_s)
            except FuturesTimeout:
                hung = True
                future.cancel()
                raise FuturesTimeout(
                    f"task {task.label()!r} exceeded "
                    f"task_timeout_s={task_timeout_s:g}s"
                )
        finally:
            if hung:
                self._terminate_pool(pool)
            pool.shutdown(wait=not hung, cancel_futures=True)

    @staticmethod
    def _terminate_pool(pool) -> None:
        """Kill worker processes of a pool with hung tasks."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass

    @staticmethod
    def _mp_context():
        """Prefer ``fork`` so workers inherit ``sys.path`` untouched."""
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()


#: The one local pool every fallback lands on: remote backends isolate
#: poison tasks here, and the coordinator moves the rest of a sweep
#: here when the fleet is gone.  Stateless — each call spawns (and
#: reaps) its own process pool — so sharing the instance is free.
LOCAL_POOL = LocalPoolExecutor()
