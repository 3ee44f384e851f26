"""The Session: one interpreter from specs to reports.

A :class:`Session` is the single place where a declarative
:class:`~repro.workload.spec.TransferSpec` becomes a live simulation:
build the :class:`~repro.scenario.Scenario` from the spec's condition,
open the TCP or MPTCP connection it describes, drive the transfer to
completion, and snapshot the outcome as a canonical
:class:`~repro.workload.report.TransferReport`.

Batches go through the same interpreter: :meth:`Session.run_many`
turns each spec into a :class:`~repro.parallel.SimTask` executing
:func:`run_transfer_spec` (i.e. ``Session.run`` in a worker
process), so workloads inherit the sweep engine's result
cache and its bit-identical ``workers=N`` determinism.

This module is the one caller of :func:`~repro.linkem.shells.mpshell`:
every simulated network comes from :meth:`Session.open` or the scoped
:meth:`Session.network`, and its owner closes it with ``with scenario:``.

Reproducibility contract: for a spec with an explicit ``seed``,
``Session.run`` is exactly :func:`~repro.linkem.shells.mpshell` →
``scenario.tcp``/``scenario.mptcp`` → ``run_transfer`` driven inline
(``tests/workload/test_session.py`` holds the two to equality).  Specs
without a seed get one derived from the sweep master seed and the
spec's :meth:`~repro.workload.spec.TransferSpec.key`.
"""

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.rng import DEFAULT_SEED
from repro.flow.fidelity import apply_fidelity_override
from repro.linkem.shells import mpshell
from repro.obs.manifest import RunManifest
from repro.obs.metrics import collect_transfer_metrics
from repro.obs.trace import TraceRecorder, active_trace_dir, trace_filename
from repro.parallel.cache import ResultCache
from repro.parallel.runner import SimTask, SweepRunner, SweepStats
from repro.scenario import Scenario
from repro.tcp.connection import ConnectionBase
from repro.workload.report import TransferReport
from repro.workload.spec import TransferSpec, WorkloadSpec

__all__ = ["Session", "run_transfer_spec"]

#: ``"module:callable"`` reference executed by sweep workers.
RUN_SPEC_FN = "repro.workload.session:run_transfer_spec"


class Session:
    """Interprets transfer specs against fresh scenarios.

    Parameters
    ----------
    seed:
        Fallback seed for specs that carry none (``Session.run`` only;
        batch entry points derive per-spec seeds from the sweep master
        seed instead, exactly like any other sweep task).
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        #: Engine bookkeeping from the last batch entry point.
        self.last_stats: Optional[SweepStats] = None
        #: Per-task provenance from the last batch entry point.
        self.last_manifests: List[RunManifest] = []

    # ------------------------------------------------------------------
    # Single spec
    # ------------------------------------------------------------------
    @contextmanager
    def network(self, condition, seed: Optional[int], key: str) -> Iterator[Scenario]:
        """``condition`` in a fresh MpShell, for callers that drive the
        loop themselves; traced as ``key``, closed on exit."""
        with _tracing(None, key, seed) as rec, mpshell(condition, seed, rec) as scenario:
            yield scenario

    def open(
        self, spec: TransferSpec, seed: Optional[int] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> Tuple[Scenario, ConnectionBase]:
        """Build the scenario and create (but not start) the transfer.

        The seam for callers that need the live objects — to attach
        monitors, inject link events mid-transfer, or drive the loop
        themselves — while still describing the workload as data.
        Pass a :class:`~repro.obs.trace.TraceRecorder` to observe the
        run.  The scenario stays live until the caller closes it,
        best with ``with scenario:``.
        """
        scenario = mpshell(spec.condition, self._seed_for(spec, seed), recorder)
        if spec.faults is not None:
            scenario.inject_faults(spec.faults)
        if spec.kind == "tcp":
            connection: ConnectionBase = scenario.tcp(
                spec.path, spec.nbytes, direction=spec.direction,
                cc=spec.cc, config=spec.tcp_config(),
            )
        else:
            connection = scenario.mptcp(
                spec.nbytes, direction=spec.direction,
                options=spec.mptcp_options(), config=spec.tcp_config(),
            )
        return scenario, connection

    def run(
        self, spec: TransferSpec, seed: Optional[int] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> TransferReport:
        """Execute one spec to completion (or deadline).

        With ``REPRO_TRACE_DIR`` set and no ``recorder``, the run is
        traced (passively: the report is the same) and saved as JSONL.

        The spec's ``fidelity`` (after any run-level override, see
        :mod:`repro.flow.fidelity`) selects the engine: ``"packet"``
        drives the event simulator below; ``"flow"`` dispatches to
        :func:`repro.flow.engine.run_flow_spec`, which returns the
        same canonical report shape from the analytic model.
        """
        spec = apply_fidelity_override(spec)
        key, seed = spec.key(), self._seed_for(spec, seed)
        with _tracing(recorder, key, seed) as recorder:
            if spec.fidelity == "flow":
                from repro.flow.engine import run_flow_spec

                return run_flow_spec(spec, seed=seed, recorder=recorder)
            scenario, connection = self.open(
                spec, seed=seed, recorder=recorder
            )
            with scenario:
                # A spec-driven run reports deadline expiry as data
                # (``report.completed``) rather than raising: batch
                # sweeps must deliver every report, and fault schedules
                # time transfers out on purpose.
                result = scenario.run_transfer(
                    connection, deadline_s=spec.deadline_s, partial_ok=True
                )
                return TransferReport.from_result(
                    result, label=key,
                    metrics_snapshot=collect_transfer_metrics(
                        connection, scenario.paths
                    ),
                    faults=scenario.applied_faults(),
                )

    def _seed_for(self, spec: TransferSpec, seed: Optional[int]) -> int:
        if spec.seed is not None:
            return spec.seed
        if seed is not None:
            return seed
        return self.seed

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def task_for(self, spec: TransferSpec) -> SimTask:
        """The sweep task executing ``spec`` in a worker process.

        A spec with an explicit seed pins the ``seed`` kwarg so its
        cache key is independent of the sweep master seed; otherwise
        the engine injects a seed derived from the spec's key (see
        :meth:`~repro.parallel.task.SimTask.seeded`).

        Any run-level fidelity override is folded into the spec *here*,
        before the task (and therefore its cache key) is built, so
        cached packet and flow results can never collide.
        """
        spec = apply_fidelity_override(spec)
        kwargs = {"spec": spec}
        if spec.seed is not None:
            kwargs["seed"] = spec.seed
        return SimTask(fn=RUN_SPEC_FN, kwargs=kwargs, key=spec.key())

    def run_many(
        self,
        specs: Sequence[TransferSpec],
        workers: Optional[int] = None,
        cache: Union[ResultCache, bool, None] = None,
        seed: Optional[int] = None,
        executor=None,
        on_result=None,
    ) -> List[TransferReport]:
        """Execute a batch through the sweep engine (cache + workers).

        Results come back in spec order, bit-identical for any worker
        count and any ``executor`` backend (``"inprocess"``,
        ``"process"``, ``"socket:HOST:PORT,..."``, or an
        :class:`~repro.parallel.executors.Executor` instance).  Specs
        without an explicit seed get one derived from the master
        ``seed`` (default: this session's seed) and their
        :meth:`~repro.workload.spec.TransferSpec.key`.  ``on_result``
        streams ``(index, task, report, cached)`` in completion order
        (presentation only; see :class:`~repro.parallel.SweepRunner`).
        """
        runner = SweepRunner(
            workers=workers, cache=cache,
            seed=seed if seed is not None else self.seed,
            executor=executor, on_result=on_result,
        )
        reports = runner.run([self.task_for(spec) for spec in specs])
        self.last_stats = runner.last_stats
        self.last_manifests = runner.last_manifests
        return reports

    def run_workload(
        self,
        workload: WorkloadSpec,
        workers: Optional[int] = None,
        cache: Union[ResultCache, bool, None] = None,
        executor=None,
        on_result=None,
    ) -> List[TransferReport]:
        """Execute a named workload batch (master seed from the spec)."""
        return self.run_many(
            workload.transfers, workers=workers, cache=cache,
            seed=workload.seed, executor=executor, on_result=on_result,
        )


@contextmanager
def _tracing(recorder, key: str, seed: Optional[int]) -> Iterator:
    """``recorder``, or with none given and ``REPRO_TRACE_DIR`` set, a
    fresh one saved as ``trace_filename(key, seed)`` after the run."""
    trace_dir = active_trace_dir() if recorder is None else None
    if trace_dir is None:
        yield recorder
        return
    recorder = TraceRecorder()
    yield recorder
    os.makedirs(trace_dir, exist_ok=True)
    recorder.save(os.path.join(trace_dir, trace_filename(key, seed)))


def run_transfer_spec(
    spec: TransferSpec, seed: Optional[int] = None
) -> TransferReport:
    """Worker entry point: interpret one transfer spec.

    ``seed`` is the sweep engine's derived fallback for specs that
    carry none (injected by :meth:`~repro.parallel.task.SimTask.seeded`);
    an explicit ``spec.seed`` always wins.
    """
    return Session().run(spec, seed=seed)
