"""The sweep engine: declarative tasks, pluggable executors.

:class:`SweepRunner` owns everything about a sweep that is *not*
"where code runs": deterministic seeding and sharding, result-cache
lookups with per-key single-flight, per-task retry/backoff budgets,
poison-task isolation, progress reporting, and
:class:`~repro.obs.manifest.RunManifest` provenance.  Backends
(:mod:`repro.parallel.executors`) only execute shards — so every
backend, including remote socket workers, inherits the same hardening
with zero per-backend code.

Execution plan for one ``run(tasks)``:

1. every task gets its derived seed, then its cache key;
2. hits resolve immediately; each miss is either *owned* (this runner
   won the per-key single-flight lock and will compute it) or
   *awaited* (another runner sharing the cache directory is already
   computing it);
3. owned misses shard deterministically — miss ``j`` goes to shard
   ``j % nshards`` — and run on the executor; each result is published
   to the cache (and its lock released) the moment it lands, so
   concurrent runners unblock as early as possible;
4. failed shards degrade to per-task isolation re-runs through
   ``executor.run_one`` under the retry budget;
5. awaited keys are collected (or taken over if their owner vanished);
6. every resolution has by then passed through
   :meth:`SweepRunner._emit` — manifest written; the progress line's and
   the bus's :class:`~repro.obs.manifest.SweepTally` fed, ``on_result``
   told — and ``last_stats`` reduces the manifests; if any
   task exhausted its budget a
   :class:`~repro.core.errors.SweepTaskError` carries the healthy
   results out.

Because each simulation derives all randomness from seeds carried in
its task spec (see :func:`repro.core.rng.derive_seed`) and shares no
process state, and results are reassembled by task index, executor
choice, worker count, shard scheduling, and single-flight interleaving
can never change (or reorder) the output — only the wall-clock.
"""

import contextlib
import functools
import os
import time
import warnings
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import __version__
from repro.core.errors import ExecutorError, SweepTaskError
from repro.core.rng import DEFAULT_SEED
from repro.obs.manifest import RunManifest
from repro.obs.progress import SweepProgress, progress_enabled_by_env
from repro.obs.telemetry import active_bus
from repro.obs.trace import active_trace_dir
from repro.parallel import cache as result_cache
from repro.parallel.cache import ResultCache, cache_enabled_by_env
from repro.parallel.executors import LOCAL_POOL, Executor, make_executor
from repro.parallel.task import (
    SimTask,
    SweepStats,
    TaskFailure,
    resolve_workers,
    run_task_timed,
)

__all__ = ["SweepRunner"]

#: Extra attempts a task gets after its first failure (crash or
#: exception); ``0`` would fail fast.
MAX_RETRIES = 2
#: Sleep before a task's first retry; doubles per attempt.
RETRY_BACKOFF_S = 0.05
#: How long a runner waits on another runner's single-flight lock
#: before it takes the key over.
FLIGHT_TIMEOUT_S = 600.0

#: ``on_result`` callback type: ``(index, task, value, cached)``.
ResultHook = Callable[[int, SimTask, Any, bool], None]


class _RunState:
    """Bookkeeping for one ``run()``: a resolved task's facts live only
    in its manifest, the rest tracks tasks still in flight."""

    def __init__(self, tasks: List[SimTask], cache: Optional[ResultCache],
                 progress: Optional[SweepProgress], started: float) -> None:
        self.started = started
        self.tasks = tasks
        self.cache = cache
        self.progress = progress
        # Never force the all-files code_fingerprint() walk when the
        # cache is off; with it on, reuse its already-computed one.
        self.fingerprint = cache.fingerprint if cache is not None else ""
        self.results: List[Any] = [None] * len(tasks)
        self.manifests: List[Optional[RunManifest]] = [None] * len(tasks)
        #: Hashed once when a cache needs the address: cache key and
        #: manifest ``spec_hash`` both come from it.  Without a cache
        #: nothing on the run's path reads a task's identity, so each
        #: manifest hashes its own task on first read (:meth:`identity`).
        self.hashes: Optional[List[str]] = None
        if cache is not None:
            self.hashes = [result_cache.spec_hash(task.fn, task.kwargs)
                           for task in tasks]
        self.keys: List[Optional[str]] = [None] * len(tasks)
        self.attempts: Dict[int, int] = {}
        self.locked: Set[int] = set()
        #: Tasks of failed shards, awaiting one-by-one isolation
        #: re-runs, and the shard error each one starts from.
        self.needs_isolation: List[int] = []
        self.shard_errors: Dict[int, str] = {}

    def identity(self, index: int) -> Union[str, Callable[[], str]]:
        """Task ``index``'s spec hash, or the call that takes it."""
        if self.hashes is not None:
            return self.hashes[index]
        task = self.tasks[index]
        return functools.partial(result_cache.spec_hash, task.fn, task.kwargs)

    def unlock(self, index: int) -> None:
        """Release ``index``'s single-flight lock if this run holds it."""
        if index in self.locked:
            self.cache.release(self.keys[index])
            self.locked.discard(index)


class SweepRunner:
    """Execute a list of :class:`SimTask` with caching and workers.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` resolves via
        :func:`resolve_workers` (``REPRO_WORKERS``, else 1).
        ``1`` executes in-process on the local backends — no executor
        round-trip, no pickling.
    cache:
        ``None`` uses the default on-disk cache (subject to the
        ``REPRO_CACHE`` env toggle); ``False`` disables caching; a
        :class:`ResultCache` instance is used as given.  The cache is
        safe to share between concurrent runners: atomic writes plus
        per-key single-flight mean no key is ever computed twice.
    seed:
        Master seed for :meth:`SimTask.seeded` derivation of tasks
        that do not carry an explicit ``seed`` kwarg.
    progress:
        Live progress/ETA on stderr: ``True``/``False``, a configured
        :class:`~repro.obs.progress.SweepProgress`, or ``None`` to
        consult the ``REPRO_PROGRESS`` env toggle.
    executor:
        Backend selection: an :class:`~repro.parallel.executors.Executor`
        instance, a spec string (``"inprocess"``, ``"process"``,
        ``"socket:HOST:PORT[,...]"``), or ``None`` to resolve via
        ``REPRO_EXECUTOR``, else the ``process`` default.
    on_result:
        Streaming hook ``(index, task, value, cached)`` invoked the
        moment each task resolves (cache hit, fresh execution, or
        single-flight wait), in completion order.  Presentation only —
        it must not raise and cannot influence results.

    Failure model (DESIGN.md §15 has the full table): a shard whose
    worker crashes or raises does not abort the sweep — its tasks are
    re-run one-by-one in isolation, so one poison task costs its own
    retry budget (:data:`MAX_RETRIES`) and nothing else, with the
    provenance in its manifest (``extra.attempts``/``failed``/``error``).

    When ``REPRO_TRACE_DIR`` is active, the cache is bypassed for the
    run: a cache hit would skip the simulation and silently produce no
    trace file.

    After each :meth:`run`, ``last_manifests`` holds one
    :class:`~repro.obs.manifest.RunManifest` per task (provenance:
    spec hash, seed, cache hit/miss, wall time, worker pid, when it
    resolved) and ``last_stats`` their :class:`SweepStats` reduction.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[ResultCache, bool, None] = None,
        seed: Optional[int] = None,
        progress: Union[SweepProgress, bool, None] = None,
        executor: Union[Executor, str, None] = None,
        on_result: Optional[ResultHook] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.executor = make_executor(executor)
        if cache is None:
            cache = cache_enabled_by_env()
        if isinstance(cache, bool):
            cache = ResultCache() if cache else None
        self.cache: Optional[ResultCache] = cache
        self.seed = seed if seed is not None else DEFAULT_SEED
        self.progress = progress
        self.on_result = on_result
        self.last_stats = SweepStats()
        self.last_manifests: List[RunManifest] = []
        # Telemetry is resolved per run() so a bus enabled later is
        # still seen; None keeps every publish site zero-cost.
        self._bus = None

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[SimTask]) -> List[Any]:
        """Run every task; results are ordered like ``tasks``."""
        started = time.perf_counter()
        seeded = [task.seeded(self.seed) for task in tasks]
        self._bus = active_bus()

        # Tracing bypasses the cache: a hit would skip the simulation
        # and silently produce no trace file.
        cache = None if active_trace_dir() is not None else self.cache
        progress = self._resolve_progress(len(seeded))
        state = _RunState(seeded, cache, progress, started)
        if progress is not None:
            progress.start()

        executor = self.executor
        if self._bus is not None:
            self._bus.sweep.begin(len(seeded))
        try:
            owned, awaited = self._scan_cache(state)
            if owned:
                with self._span("coordinator.dispatch"):
                    executor = self._execute(state, owned)
            if awaited:
                self._resolve_awaited(state, awaited, executor)
        finally:
            # Locks of tasks that never published (poison tasks, an
            # executor blow-up) must not strand concurrent runners.
            for index in sorted(state.locked):
                state.unlock(index)
            if self._bus is not None:
                # A run that raised leaves the bus's total with what it
                # resolved, so the process tally can go idle again.
                self._bus.sweep.settle(state.manifests.count(None))

        if progress is not None:
            progress.finish()

        self.last_manifests = state.manifests
        self.last_stats = SweepStats.from_manifests(
            state.manifests, self.workers, executor.name,
            time.perf_counter() - state.started,
        )
        failures = [
            TaskFailure(index=index, key=manifest.key,
                        error=manifest.extra["error"],
                        attempts=manifest.extra["attempts"])
            for index, manifest in enumerate(state.manifests)
            if manifest.extra.get("failed")
        ]
        if failures:
            # Stats, manifests, and every healthy result are already
            # recorded (and cached) before the sweep reports failure.
            raise SweepTaskError(failures, results=state.results)
        return state.results

    # ------------------------------------------------------------------
    # Cache scan: hits, owned misses, awaited misses
    # ------------------------------------------------------------------
    def _scan_cache(self, state: _RunState) -> Tuple[List[int], List[int]]:
        cache = state.cache
        if cache is None:
            return list(range(len(state.tasks))), []
        owned: List[int] = []
        awaited: List[int] = []
        for index, identity in enumerate(state.hashes):
            key = state.keys[index] = cache.key_of(identity)
            if self._try_hit(state, index):
                continue
            if cache.acquire(key):
                state.locked.add(index)
                # Re-check: a concurrent runner may have published
                # between our miss and our lock grab.
                if self._try_hit(state, index):
                    state.unlock(index)
                else:
                    owned.append(index)
            else:
                awaited.append(index)
        return owned, awaited

    def _try_hit(self, state: _RunState, index: int) -> bool:
        with self._span("cache.get"):
            hit, value = state.cache.get(state.keys[index])
        if hit:
            self._emit(state, index, value, cache_hit=True)
        return hit

    # ------------------------------------------------------------------
    # Execution: deterministic shards + isolation re-runs
    # ------------------------------------------------------------------
    def _execute(self, state: _RunState, misses: List[int]) -> Executor:
        """Run the owned misses; returns the executor the run ended on.

        That is ``self.executor`` unless the fleet was lost, in which
        case the rest of *this* run (isolation re-runs included) lands
        on the local pool — a recovered fleet is used again by the
        next sweep.
        """
        executor = self.executor
        try:
            self._run_on(executor, state, misses)
        except ExecutorError as exc:
            # Full fleet loss (zero reachable workers, or every
            # connection died mid-sweep).  Degrade this run to the
            # local process pool rather than failing a sweep whose
            # tasks are all still perfectly runnable here.
            self._warn_degraded(exc)
            executor = LOCAL_POOL
            isolating = set(state.needs_isolation)
            self._run_on(executor, state, [
                index for index in misses
                if state.manifests[index] is None and index not in isolating
            ])
        for index in sorted(state.needs_isolation):
            # The failed shard run counts as an attempt, but never the
            # last one: every casualty gets at least one isolated
            # re-run, so an innocent shard-mate of a poison task
            # survives even with MAX_RETRIES = 0.
            state.attempts[index] = min(
                state.attempts.get(index, 0) + 1, MAX_RETRIES
            )
            self._run_with_retries(state, index, executor.run_one,
                                   state.shard_errors.get(index))
        return executor

    def _run_on(self, executor: Executor, state: _RunState,
                misses: List[int]) -> None:
        """Run ``misses`` on ``executor``: inline if one shard, else sharded."""
        nshards = executor.shard_count(self.workers, len(misses))
        if nshards <= 1 and executor.inline_when_serial:
            # One shard on an inline-capable backend: run in-process
            # with per-task retries — no pool, no pickling (the
            # ``workers=1`` debugging contract).
            for index in misses:
                self._run_with_retries(state, index, run_task_timed)
        else:
            self._run_sharded(executor, state, misses, nshards)

    def _run_sharded(self, executor: Executor, state: _RunState,
                     misses: List[int], nshards: int) -> None:
        """Run ``misses`` as shards on ``executor``, resolving results.

        Deterministic sharding: miss j -> shard j % nshards.  The
        assignment depends only on task order and shard count, and
        results are reassembled by original index, so scheduling
        jitter cannot reorder (or change) anything.
        """
        shard_indices = [misses[offset::nshards] for offset in range(nshards)]
        shard_tasks = [[state.tasks[index] for index in shard]
                       for shard in shard_indices]
        dispatched = time.perf_counter()
        for shard_id, outcome in executor.run_shards(shard_tasks):
            if self._bus is not None:
                # Executor round-trip: dispatch to this shard's
                # arrival (completion-order latency profile).
                self._bus.observe(
                    "executor.roundtrip_s",
                    time.perf_counter() - dispatched,
                    executor=executor.name,
                )
            shard = shard_indices[shard_id]
            if outcome.ok:
                for index, (value, wall, pid) in zip(shard, outcome.values):
                    self._resolve_executed(state, index, value, wall, pid)
            else:
                # A broken shard does not abort the sweep: every task
                # of every failed shard is retried one-by-one in
                # isolation, so only the actual poison task can
                # exhaust its budget.
                for index in shard:
                    state.shard_errors[index] = outcome.error
                state.needs_isolation.extend(shard)

    def _warn_degraded(self, exc: ExecutorError) -> None:
        """Announce that the rest of this run moves to the local pool."""
        warnings.warn(
            f"{self.executor.name} executor unavailable ({exc}); "
            f"degrading this sweep to the local process executor",
            RuntimeWarning,
            stacklevel=4,
        )
        if self._bus is not None:
            self._bus.sweep.note_degraded()

    def _run_with_retries(
        self,
        state: _RunState,
        index: int,
        run_one: Callable[[SimTask], Tuple[Any, float, int]],
        initial_error: Optional[str] = None,
    ) -> None:
        """Drive one task to success or budget exhaustion."""
        task = state.tasks[index]
        budget = MAX_RETRIES + 1
        delay = RETRY_BACKOFF_S
        error_text = initial_error or "unknown error"
        while state.attempts.get(index, 0) < budget:
            state.attempts[index] = state.attempts.get(index, 0) + 1
            try:
                value, wall, pid = run_one(task)
            except Exception as exc:
                error_text = f"{type(exc).__name__}: {exc}"
                if state.attempts[index] < budget and delay > 0:
                    time.sleep(delay)
                    delay *= 2
                continue
            self._resolve_executed(state, index, value, wall, pid)
            return
        # Never cache a failure placeholder — but do free the key so a
        # concurrent runner can try its own luck.
        state.unlock(index)
        self._emit(state, index, None, error=error_text)

    def _resolve_executed(self, state: _RunState, index: int, value: Any,
                          wall: float, pid: int) -> None:
        """Record one freshly computed result and publish it."""
        if state.cache is not None and state.keys[index] is not None:
            # Publish immediately (atomic replace), then release the
            # single-flight lock so awaiting runners unblock now, not
            # at sweep end.
            with self._span("cache.put"):
                state.cache.put(state.keys[index], value)
            state.unlock(index)
        self._emit(state, index, value, wall=wall, pid=pid)

    # ------------------------------------------------------------------
    # Awaited keys: collect another runner's results (or take over)
    # ------------------------------------------------------------------
    def _resolve_awaited(self, state: _RunState, awaited: List[int],
                         executor: Executor) -> None:
        cache = state.cache
        for index in awaited:
            key = state.keys[index]
            hit, value = cache.wait_for(key, timeout_s=FLIGHT_TIMEOUT_S)
            if not hit:
                # The owner vanished (crash, poison task) or is too
                # slow: take over.  The lock may be stale or contested
                # — acquire is best-effort; determinism makes a rare
                # double computation harmless.
                if cache.acquire(key):
                    state.locked.add(index)
                hit, value = cache.get(key)
            if hit:
                state.unlock(index)
                self._emit(state, index, value, cache_hit=True, waited=True)
                continue
            self._run_with_retries(state, index, executor.run_one)

    # ------------------------------------------------------------------
    def _span(self, name: str):
        """Telemetry span timer, or a no-op when the plane is off."""
        if self._bus is None:
            return contextlib.nullcontext()
        return self._bus.timer(name)

    def _emit(self, state: _RunState, index: int, value: Any, *,
              cache_hit: bool = False, wall: float = 0.0,
              pid: Optional[int] = None, error: Optional[str] = None,
              waited: bool = False) -> None:
        """Resolve one task: write its manifest, then report it — the
        only place either happens, so no two views can disagree."""
        task = state.tasks[index]
        attempts = state.attempts.pop(index, 1)
        extra: Dict[str, Any] = {}
        if error is not None:
            extra = {"attempts": attempts, "failed": True, "error": error}
        elif attempts > 1:
            extra = {"attempts": attempts, "retried": True}
        if waited:
            extra["single_flight"] = "waited"
        state.results[index] = value
        state.manifests[index] = RunManifest(
            key=task.label(),
            spec_hash=state.identity(index),
            seed=task.kwargs.get("seed"),
            cache_hit=cache_hit,
            wall_time_s=wall,
            worker_pid=os.getpid() if pid is None else pid,
            workers=self.workers,
            package_version=__version__,
            code_fingerprint=state.fingerprint,
            resolved_s=time.perf_counter() - state.started,
            extra=extra,
        )
        if state.progress is not None:
            state.progress.tally.add(cache_hit, error is not None)
            state.progress.render()
        if self._bus is not None:
            self._bus.sweep.add(cache_hit, error is not None)
        if self.on_result is not None and error is None:
            self.on_result(index, task, value, cache_hit)

    def _resolve_progress(self, total: int) -> Optional[SweepProgress]:
        configured = self.progress
        if isinstance(configured, SweepProgress):
            return configured
        if configured is None:
            configured = progress_enabled_by_env()
        return SweepProgress(total) if configured else None
