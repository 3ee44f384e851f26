"""Task specs and the worker-side execution helpers.

A :class:`SimTask` names a module-level callable (``"pkg.mod:fn"``)
plus keyword arguments; both the arguments and the return value must
be picklable, so tasks can cross a process boundary (local pool or
socket wire) and live in the on-disk cache.  The module also carries
the small execution helpers every backend shares — run one task with
timing provenance, run a shard of tasks in order — plus the
worker-count resolver (``REPRO_WORKERS``).
"""

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import env
from repro.core.errors import ConfigurationError
from repro.core.rng import derive_seed
from repro.obs.manifest import RunManifest, tally

__all__ = [
    "SimTask",
    "SweepStats",
    "TaskFailure",
    "resolve_workers",
    "run_shard",
    "run_task_timed",
]

def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_WORKERS`` > 1 (see :mod:`repro.core.env`)."""
    if workers is not None:
        # A JOB frame or a JSON document can carry anything here.
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 1:
            raise ConfigurationError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        return workers
    value = env.integer(env.WORKERS)
    if value is None:
        return 1
    if value < 1:
        raise ConfigurationError(f"{env.WORKERS} must be >= 1: {value}")
    return value


@dataclass(frozen=True)
class SimTask:
    """One unit of sweep work.

    ``fn`` is a ``"module.path:callable"`` reference resolved at
    execution time (inside the worker process), so the spec itself is
    tiny and always picklable.  ``key`` is a stable human-readable
    identity used for per-task seed derivation; it defaults to the
    function path and does not affect cache addressing (the kwargs
    already do).
    """

    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Optional[str] = None

    def label(self) -> str:
        return self.key if self.key is not None else self.fn

    def resolve(self) -> Callable[..., Any]:
        """Import and return the task callable."""
        if ":" not in self.fn:
            raise ConfigurationError(
                f"task fn must be 'module:callable', got {self.fn!r}"
            )
        module_path, _, attr = self.fn.partition(":")
        module = importlib.import_module(module_path)
        try:
            fn = getattr(module, attr)
        except AttributeError:
            raise ConfigurationError(
                f"module {module_path!r} has no callable {attr!r}"
            )
        if not callable(fn):
            raise ConfigurationError(f"{self.fn!r} is not callable")
        return fn

    def seeded(self, master_seed: int) -> "SimTask":
        """Fill in a derived ``seed`` kwarg when the task lacks one.

        The derivation only depends on the master seed and the task's
        ``key`` — never on shard assignment, executor backend, or
        worker count — so the same sweep always simulates the same
        randomness.
        """
        if "seed" in self.kwargs:
            return self
        seed = derive_seed(master_seed, f"sweep-task.{self.label()}")
        return SimTask(fn=self.fn, kwargs={**self.kwargs, "seed": seed},
                       key=self.key)


def run_task_timed(task: SimTask) -> Tuple[Any, float, int]:
    """Run a task, returning ``(value, wall_time_s, worker_pid)``."""
    started = time.perf_counter()
    value = task.resolve()(**task.kwargs)
    return value, time.perf_counter() - started, os.getpid()


def run_shard(tasks: List[SimTask]) -> List[Tuple[Any, float, int]]:
    """Backend entry point: run one shard's tasks in order."""
    return [run_task_timed(task) for task in tasks]


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget."""

    index: int
    key: str
    error: str
    attempts: int


@dataclass
class SweepStats:
    """The last :meth:`SweepRunner.run` call, reduced from its manifests."""

    tasks: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    #: Tasks that needed more than one attempt but eventually succeeded.
    retried: int = 0
    #: Tasks that exhausted the retry budget (see :class:`TaskFailure`).
    failed: int = 0
    #: Executor backend the sweep *ended* on (``"process"`` once degraded).
    executor: str = "process"

    @classmethod
    def from_manifests(cls, manifests: Sequence[RunManifest], workers: int,
                       executor: str, elapsed_s: float) -> "SweepStats":
        """Nothing is counted while a sweep runs; this is the count."""
        return cls(workers=workers, executor=executor, elapsed_s=elapsed_s,
                   **tally(manifests))

    def summary(self) -> str:
        text = (
            f"{self.tasks} tasks, {self.cache_hits} cached, "
            f"{self.executed} run on {self.workers} worker"
            f"{'s' if self.workers != 1 else ''} in {self.elapsed_s:.1f}s"
        )
        if self.executor != "process":
            text += f" [{self.executor}]"
        if self.retried:
            text += f", {self.retried} retried"
        if self.failed:
            text += f", {self.failed} failed"
        return text
