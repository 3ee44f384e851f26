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
  (:class:`SweepProgress`), a renderer of the ``SweepTally`` that the
  same emit feeds.
* :mod:`repro.obs.telemetry` — the *live* plane: a process-wide
  :class:`TelemetryBus` fed by worker STATS heartbeats, that same
  emit, and the fleet's healing counters, with a Prometheus-style HTTP
  exporter, a JSONL snapshot sink, and ``python -m repro.obs top``.
* :mod:`repro.obs.summary` — offline trace digests backing the
  ``python -m repro.obs`` CLI.

The legacy probes — :class:`~repro.net.capture.PacketCapture` and
:class:`~repro.net.telemetry.QueueDepthTracker` — are sinks of this
layer: both accept a ``recorder=`` and feed the same event stream
(re-exported here for discoverability).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PacketCapture": "..net.capture",
    "QueueDepthTracker": "..net.telemetry",
    "RunManifest": ".manifest", "diff_manifests": ".manifest",
    "render_diff": ".manifest",
    "Counter": ".metrics", "Gauge": ".metrics", "Histogram": ".metrics",
    "MetricsRegistry": ".metrics", "SpanTimer": ".metrics",
    "collect_transfer_metrics": ".metrics",
    "reconcile": ".metrics",
    "SweepProgress": ".progress", "progress_enabled_by_env": ".progress",
    "SubflowSummary": ".summary", "TraceSummary": ".summary",
    "render_summary": ".summary", "summarize_events": ".summary",
    "TelemetryBus": ".telemetry", "TelemetryServer": ".telemetry",
    "TelemetrySink": ".telemetry", "WorkerHealth": ".telemetry",
    "active_bus": ".telemetry", "load_telemetry_snapshots": ".telemetry",
    "render_prometheus": ".telemetry", "telemetry_enabled_by_env": ".telemetry",
    "EVENT_KINDS": ".trace", "TraceEvent": ".trace", "TraceRecorder": ".trace",
    "active_trace_dir": ".trace", "load_events": ".trace",
    "trace_filename": ".trace",
})
