"""Flow-level fidelity: analytic bandwidth-share transfer engine.

The packet engine (:mod:`repro.scenario` and below) simulates every
segment; this package predicts the same :class:`~repro.workload.report.
TransferReport` from per-subflow bandwidth-share state machines that
only generate events when shares change — a fault edge, a slow-start
doubling, a subflow joining — in the style of flow-level MPTCP
simulators.  Sweeps that only need throughput/duration aggregates run
100–1000× faster at this fidelity (see DESIGN.md §10 for the model and
its error bounds).

Select it per spec (``TransferSpec(fidelity="flow")``) or per run
(``--fidelity flow`` / ``REPRO_FIDELITY=flow``); the
:class:`~repro.workload.session.Session` dispatches transparently and
cache keys include the fidelity, so the two engines never share a
result.

Submodules (imported lazily to keep the spec layer import-light):

* :mod:`repro.flow.fidelity` — run-level fidelity override plumbing;
* :mod:`repro.flow.model` — the analytic throughput model;
* :mod:`repro.flow.engine` — the event-regeneration executor;
* :mod:`repro.flow.validate` — cross-fidelity validation harness.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "apply_fidelity_override": ".fidelity", "resolve_fidelity": ".fidelity",
})
