"""The distributed sweep service.

Every experiment in the reproduction is a sweep of fully independent
simulated transfers (locations x flow sizes x MPTCP variants).  This
package turns such sweeps into declarative task lists and runs them
across three separated layers:

* :mod:`repro.parallel.task` — :class:`SimTask`, a picklable spec
  naming a module-level callable plus keyword arguments;
* :mod:`repro.parallel.executors` — pluggable backends selected via
  ``--executor``/``REPRO_EXECUTOR``: ``inprocess`` (serial, zero
  overhead), ``process`` (local pool, the default), and
  ``socket:HOST:PORT,...`` (remote workers started with ``python -m
  repro.parallel worker``);
* :mod:`repro.parallel.coordinator` — the executor-agnostic
  :class:`SweepRunner` engine owning caching, single-flight, retries,
  poison-task isolation, timeouts, progress, and manifests;

plus the shared :mod:`~repro.parallel.cache` result store (atomic
writes, per-key single-flight — safe for many concurrent runners on
one ``REPRO_CACHE_DIR``), the :mod:`~repro.parallel.service` CLI
(``python -m repro.parallel submit/serve/cache``), and the
self-healing fleet layer: :mod:`~repro.parallel.supervisor`
(:class:`FleetSupervisor` + ``python -m repro.parallel fleet``) keeps
socket workers alive through crashes and stalls.

:class:`SweepRunner` is the one-call surface over all of it.
Every backend at every worker count produces bit-identical results:
tasks carry their own seeds (derived via
:func:`repro.core.rng.derive_seed`), simulations share no state, and
results are reassembled in task-list order regardless of which worker
finished first.
"""

from repro.parallel.cache import ResultCache, code_fingerprint, spec_key
from repro.parallel.executors import (
    Executor,
    InProcessExecutor,
    LocalPoolExecutor,
    make_executor,
    resolve_executor_spec,
)
from repro.parallel.runner import (
    SimTask,
    SweepRunner,
    SweepStats,
    TaskFailure,
    resolve_workers,
)
from repro.parallel.supervisor import FleetSpec, FleetSupervisor

__all__ = [
    "Executor",
    "FleetSpec",
    "FleetSupervisor",
    "InProcessExecutor",
    "LocalPoolExecutor",
    "ResultCache",
    "SimTask",
    "SweepRunner",
    "SweepStats",
    "TaskFailure",
    "code_fingerprint",
    "make_executor",
    "resolve_executor_spec",
    "resolve_workers",
    "spec_key",
]
