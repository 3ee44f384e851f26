"""repro.obs — the unified observability layer.

One instrumentation pathway for the whole simulator:

* :mod:`repro.obs.trace` — typed, timestamped transport event traces
  (:class:`TraceRecorder`), exported as JSONL.
* :mod:`repro.obs.metrics` — counters/gauges/histograms
  (:class:`MetricsRegistry`) snapshotted onto ``TransferReport``.
* :mod:`repro.obs.manifest` — the run record of a sweep: one
  :class:`RunManifest` per task, emitted by the sweep engine the
  moment the task resolves; sweep stats, the crowd per-shard table and
  ``obs summarize FILE.manifests.json`` are reductions of that list.
* :mod:`repro.obs.progress` — live sweep progress/ETA
  (:class:`SweepProgress`), fed from the same emit.
* :mod:`repro.obs.telemetry` — the *live* plane: a process-wide
  :class:`TelemetryBus` fed by worker STATS heartbeats and
  coordinator/Session/crowd publishers, with a Prometheus-style HTTP
  exporter, a JSONL snapshot sink, and ``python -m repro.obs top``.
* :mod:`repro.obs.summary` — offline trace digests backing the
  ``python -m repro.obs`` CLI.

The legacy probes — :class:`~repro.net.capture.PacketCapture` and
:class:`~repro.net.telemetry.QueueDepthTracker` — are sinks of this
layer: both accept a ``recorder=`` and feed the same event stream
(re-exported here for discoverability).
"""

from repro.net.capture import PacketCapture
from repro.net.telemetry import QueueDepthTracker
from repro.obs.manifest import RunManifest, diff_manifests, render_diff
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanTimer,
    TimeSeries,
    collect_transfer_metrics,
    reconcile,
)
from repro.obs.progress import (
    SweepProgress,
    progress_enabled_by_env,
)
from repro.obs.summary import (
    SubflowSummary,
    TraceSummary,
    render_summary,
    summarize_events,
)
from repro.obs.telemetry import (
    TelemetryBus,
    TelemetryServer,
    TelemetrySink,
    WorkerHealth,
    active_bus,
    load_telemetry_snapshots,
    render_prometheus,
    telemetry_enabled_by_env,
)
from repro.obs.trace import (
    EVENT_KINDS,
    TraceEvent,
    TraceRecorder,
    active_trace_dir,
    load_events,
    trace_filename,
)

__all__ = [
    "EVENT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTimer",
    "PacketCapture",
    "QueueDepthTracker",
    "RunManifest",
    "SubflowSummary",
    "SweepProgress",
    "TelemetryBus",
    "TelemetryServer",
    "TelemetrySink",
    "TimeSeries",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "WorkerHealth",
    "active_bus",
    "active_trace_dir",
    "collect_transfer_metrics",
    "diff_manifests",
    "load_events",
    "load_telemetry_snapshots",
    "render_prometheus",
    "progress_enabled_by_env",
    "reconcile",
    "render_diff",
    "render_summary",
    "summarize_events",
    "telemetry_enabled_by_env",
    "trace_filename",
]
