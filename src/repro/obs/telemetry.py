"""Live telemetry plane: a process-wide bus, exporters, and sinks.

Traces and manifests are read after a sweep ends; the telemetry plane
watches it *while it happens*, as the paper's crowd-sourced backend
(§2) watched measurements arrive.  Workers stream ``STATS`` heartbeats,
every sweep feeds the bus's :class:`~repro.obs.manifest.SweepTally`
from the manifests it writes, the fleet layer counts its healing
events, and consumers (``repro.obs top``, a Prometheus scrape, a JSONL
sink) read a consistent snapshot at any moment.

Contract (the same as tracing's): **presentation only**.  Telemetry
on/off is bit-identical in results (``tests/obs/test_telemetry.py``);
its cost is the ledger leg ``obs.telemetry.overhead_ratio``.  The
enforcement pattern is the zero-cost guard: every producer does ::

    bus = active_bus()          # None unless telemetry is enabled
    ...
    if bus is not None:
        bus.count("executor.redispatches")

so a disabled bus costs one ``None`` check per publish site, and the
bus itself never feeds values back into the code that computes
results.

Enable with ``REPRO_TELEMETRY=1`` (or any truthy value), or
programmatically via :func:`enable`.  ``serve --telemetry-port`` and
``submit/serve --telemetry-out`` enable it implicitly.
"""

import json
import math
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import env
from repro.core.errors import ConfigurationError, json_object
from repro.obs.manifest import SweepTally
from repro.obs.metrics import MetricsRegistry, Sample, SpanTimer

__all__ = [
    "STALE_INTERVALS",
    "TELEMETRY_SCHEMA",
    "TelemetryBus",
    "TelemetryServer",
    "TelemetrySink",
    "WorkerHealth",
    "active_bus",
    "disable",
    "enable",
    "get_bus",
    "load_telemetry_snapshots",
    "render_prometheus",
    "render_telemetry_timeline",
    "telemetry_enabled_by_env",
    "telemetry_snapshot",
]

#: Marker key identifying a telemetry-snapshot JSONL document.
TELEMETRY_SCHEMA = "repro.obs.telemetry/v1"

#: A worker is "degraded" after this many missed heartbeat intervals.
STALE_INTERVALS = 3.0


def telemetry_enabled_by_env() -> bool:
    return env.flag(env.TELEMETRY, False)


@dataclass
class WorkerHealth:
    """The last-known state of one remote worker, from STATS beats."""

    worker_id: str
    pid: int = 0
    interval_s: float = 1.0
    last_seen: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    def state(self, now: Optional[float] = None) -> str:
        """``"ok"`` while beats arrive; ``"degraded"`` once stale.

        A worker is stale when no heartbeat has been seen for more
        than :data:`STALE_INTERVALS` × its advertised interval.
        """
        now = time.time() if now is None else now
        if now - self.last_seen > STALE_INTERVALS * self.interval_s:
            return "degraded"
        return "ok"

    def to_dict(self, now: Optional[float] = None) -> dict:
        out = {
            "worker": self.worker_id,
            "pid": self.pid,
            "interval_s": self.interval_s,
            "last_seen": self.last_seen,
            "state": self.state(now),
        }
        out.update(self.stats)
        return out


class TelemetryBus:
    """Process-wide, thread-safe aggregation point for live signals.

    Producers on any thread publish through :meth:`count` /
    :meth:`observe` / :meth:`timer` / :meth:`publish_worker`, and every
    sweep feeds :attr:`sweep`; consumers call :meth:`snapshot` for a
    consistent JSON-able view.  The bus owns its *own*
    :class:`MetricsRegistry` — nothing here ever lands on a
    ``TransferReport``, which is how bit-identity stays trivially
    true.

    ``clock`` is injectable so staleness tests don't sleep.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._lock = threading.RLock()
        self.registry = MetricsRegistry()
        self.sweep = SweepTally(clock=clock)
        self._workers: Dict[str, WorkerHealth] = {}
        self.started_at = clock()

    # -- producer surface -------------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        with self._lock:
            self.registry.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        with self._lock:
            self.registry.histogram(name, **labels).observe(value)

    def timer(self, name: str, **labels: str) -> SpanTimer:
        """Span timer whose elapsed seconds land in ``<name>_s``."""
        return SpanTimer(
            lambda elapsed: self.observe(f"{name}_s", elapsed, **labels)
        )

    def publish_worker(self, worker_id: str, stats: Dict) -> None:
        """Ingest one STATS heartbeat payload from a remote worker.

        A beat whose ``pid`` or ``interval_s`` is not a finite number
        (the interval positive) proves liveness only.
        """
        with self._lock:
            health = self._workers.setdefault(worker_id, WorkerHealth(worker_id))
            health.last_seen = self._clock()
            pid = stats.get("pid", health.pid)
            interval_s = stats.get("interval_s", health.interval_s)
            if not (_finite(pid) and _finite(interval_s) and interval_s > 0):
                return
            health.pid, health.interval_s = int(pid), float(interval_s)
            health.stats = {
                key: value
                for key, value in stats.items()
                if key not in ("pid", "interval_s") and _finite(value)
            }

    # -- consumer surface -------------------------------------------------

    def workers(self, now: Optional[float] = None) -> List[WorkerHealth]:
        with self._lock:
            return sorted(self._workers.values(),
                          key=lambda h: h.worker_id)

    def _sweep_samples(self, counts: dict) -> List[Sample]:
        """The ``sweep.*`` series (none before the first sweep)."""
        if not counts["runs"]:
            return []
        return [(kind, "sweep." + name, (), float(value)) for kind, name, value in (
            ("counter", "runs", counts["runs"]),
            ("counter", "tasks_done", counts["done"]),
            ("counter", "cache_hits", counts["cache_hits"]),
            ("counter", "tasks_failed", counts["failed"]),
            ("counter", "degraded", counts["degraded"]),
            ("gauge", "tasks_total", counts["total"]),
            ("gauge", "queue_depth", max(0, counts["remaining"])),
        )]

    def snapshot(self, now: Optional[float] = None) -> dict:
        """One consistent, JSON-able view of the whole plane."""
        now = self._clock() if now is None else now
        with self._lock:
            counts = self.sweep.read()
            metrics = self.registry.snapshot()
            metrics.update((name, value) for _, name, _, value
                           in self._sweep_samples(counts))
            worker_rows = [health.to_dict(now) for health in self.workers()]
            return {
                "schema": TELEMETRY_SCHEMA,
                "time": now,
                "uptime_s": now - self.started_at,
                "fleet": {
                    "tasks_total": float(counts["total"]),
                    "tasks_done": float(counts["done"]),
                    "cache_hits": float(counts["cache_hits"]),
                    "rate_per_s": counts["rate_per_s"],
                    "eta_s": counts["eta_s"],
                    "workers": len(worker_rows),
                    "workers_degraded": sum(row["state"] != "ok"
                                            for row in worker_rows),
                },
                "workers": worker_rows,
                "metrics": dict(sorted(metrics.items())),
            }

    def clear(self) -> None:
        with self._lock:
            self.registry = MetricsRegistry()
            self.sweep = SweepTally(clock=self._clock)
            self._workers.clear()
            self.started_at = self._clock()


def _finite(value) -> bool:  # a bool is not a number here
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# -- process-wide switch ---------------------------------------------------

_BUS: Optional[TelemetryBus] = None
_BUS_LOCK = threading.Lock()


def enable(bus: Optional[TelemetryBus] = None) -> TelemetryBus:
    """Switch the telemetry plane on (idempotent); returns the bus."""
    global _BUS
    with _BUS_LOCK:
        if bus is not None:
            _BUS = bus
        elif _BUS is None:
            _BUS = TelemetryBus()
        return _BUS


def disable() -> None:
    global _BUS
    with _BUS_LOCK:
        _BUS = None


def get_bus() -> TelemetryBus:
    """The active bus, enabling the plane if it was off."""
    return enable()


def active_bus() -> Optional[TelemetryBus]:
    """The bus if telemetry is on, else ``None``.

    This is the producer-side guard: publish sites resolve it once
    and skip all work when it returns ``None``.  The environment
    switch (``REPRO_TELEMETRY=1``) lazily creates the bus on first
    use so subprocess workers inherit the setting for free.
    """
    if _BUS is not None:
        return _BUS
    if telemetry_enabled_by_env():
        return enable()
    return None


# -- Prometheus-style text exposition --------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_SANITIZE.sub("_", name)


def _render_label_pairs(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_SANITIZE.sub("_", key)}="{value}"' for key, value in labels
    )
    return "{" + inner + "}"


def render_prometheus(bus: TelemetryBus,
                      now: Optional[float] = None) -> str:
    """The bus as Prometheus text exposition (``/metrics``).

    The ``sweep.*`` series are read off the bus's tally, the rest come
    straight from the registry; per-worker STATS fields become
    ``repro_worker_<field>{worker="host:port"}`` gauges, plus a
    ``repro_worker_up`` 0/1 health flag from staleness.
    """
    with bus._lock:
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for kind, name, labels, value in (bus._sweep_samples(bus.sweep.read())
                                          + list(bus.registry.iter_samples())):
            metric = _metric_name(name)
            if metric not in seen_types:
                seen_types[metric] = kind
                lines.append(f"# TYPE {metric} {kind}")
            lines.append(
                f"{metric}{_render_label_pairs(labels)} {value}"
            )
        workers = bus.workers()
        clock_now = bus._clock() if now is None else now
    if workers:
        lines.append("# TYPE repro_worker_up gauge")
        for health in workers:
            up = 1 if health.state(clock_now) == "ok" else 0
            lines.append(
                f'repro_worker_up{{worker="{health.worker_id}"}} {up}'
            )
        fields = sorted({key for h in workers for key in h.stats})
        for stat in fields:
            metric = _metric_name(f"worker_{stat}")
            lines.append(f"# TYPE {metric} gauge")
            for health in workers:
                if stat in health.stats:
                    lines.append(
                        f'{metric}{{worker="{health.worker_id}"}} '
                        f"{health.stats[stat]}"
                    )
    return "\n".join(lines) + "\n"


# -- HTTP exporter ---------------------------------------------------------

class _TelemetryHandler:
    """GET-only exporter: ``/metrics`` text, ``/healthz`` JSON.

    Mixed into ``http.server.BaseHTTPRequestHandler`` by
    :meth:`TelemetryServer.start`, so only a serving process imports
    the HTTP stack.
    """

    bus: TelemetryBus  # set by TelemetryServer on the handler class

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self.bus).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/healthz":
            snapshot = self.bus.snapshot()
            degraded = snapshot["fleet"]["workers_degraded"]
            snapshot["ok"] = degraded == 0
            body = (json.dumps(snapshot, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            content_type = "application/json"
        elif path == "/":
            body = b"repro telemetry: /metrics /healthz\n"
            content_type = "text/plain; charset=utf-8"
        else:
            self.send_error(404, "unknown path (try /metrics or /healthz)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # exporter traffic is not worth stderr noise


class TelemetryServer:
    """Serve a bus over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the
    actual ``(host, port)``.
    """

    def __init__(self, bus: TelemetryBus, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.bus = bus
        self.host = host
        self.port = port
        self._httpd = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> Tuple[str, int]:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        handler = type(
            "_BoundTelemetryHandler",
            (_TelemetryHandler, BaseHTTPRequestHandler), {"bus": self.bus},
        )
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-http",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# -- JSONL sink ------------------------------------------------------------

class TelemetrySink:
    """Write periodic bus snapshots to a JSONL file.

    One JSON object per line, each carrying the schema marker, so
    ``python -m repro.obs summarize FILE`` can render the fleet
    timeline after the run.  A final snapshot is flushed on
    :meth:`stop` so short runs still record at least one line.
    """

    def __init__(self, bus: TelemetryBus, path: str,
                 interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ConfigurationError(
                f"telemetry sink interval must be > 0: {interval_s}"
            )
        self.bus = bus
        self.path = path
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._handle = None

    def _write_snapshot(self) -> None:
        self._handle.write(
            json.dumps(self.bus.snapshot(), sort_keys=True) + "\n"
        )
        self._handle.flush()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._write_snapshot()

    def start(self) -> "TelemetrySink":
        self._handle = open(self.path, "w", encoding="utf-8")
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-sink", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._handle is not None:
            self._write_snapshot()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetrySink":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


#: What every snapshot reader indexes without a default.
_FLEET_FIELDS = ("tasks_total", "tasks_done", "cache_hits", "rate_per_s",
                 "workers", "workers_degraded")


def telemetry_snapshot(text: str, where: str) -> dict:
    """Parse one snapshot, checked for every field the readers index.

    Not JSON, not an object, another schema, or a missing field raises
    :class:`ConfigurationError` naming ``where`` and the field.
    """
    data = json_object(text, where)
    if data.get("schema") != TELEMETRY_SCHEMA:
        raise ConfigurationError(
            f"{where} is not a telemetry snapshot "
            f"(field 'schema' is not {TELEMETRY_SCHEMA})"
        )
    for name in ("time", "uptime_s", "fleet"):
        if name not in data:
            raise ConfigurationError(f"{where}: missing field {name!r}")
    fleet = data["fleet"]
    if not isinstance(fleet, dict):
        raise ConfigurationError(f"{where}: field 'fleet' is not an object")
    for name in _FLEET_FIELDS:
        if name not in fleet:
            raise ConfigurationError(f"{where}: missing field 'fleet.{name}'")
    return dict(data)


def load_telemetry_snapshots(path: str) -> List[dict]:
    """Parse a sink file back into snapshot dicts (schema-checked)."""
    snapshots: List[dict] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                snapshots.append(telemetry_snapshot(line, f"{path}:{line_no}"))
    if not snapshots:
        raise ConfigurationError(f"{path} holds no telemetry snapshots")
    return snapshots


def render_telemetry_timeline(snapshots: List[dict]) -> str:
    """Post-hoc fleet timeline for ``obs summarize`` (one row/snapshot)."""
    first, last = snapshots[0], snapshots[-1]
    fleet = last["fleet"]
    span_s = last["time"] - first["time"]
    lines = [
        "telemetry timeline",
        f"  snapshots: {len(snapshots)}   span: {span_s:.1f}s   "
        f"workers: {fleet['workers']}"
        + (
            f" ({fleet['workers_degraded']} degraded)"
            if fleet["workers_degraded"]
            else ""
        ),
        f"  tasks: {fleet['tasks_done']:.0f}/{fleet['tasks_total']:.0f}"
        f"   cache hits: {fleet['cache_hits']:.0f}"
        f"   final rate: {fleet['rate_per_s']:.1f}/s",
    ]
    from repro.obs.top import resilience_line

    healing = resilience_line(last.get("metrics", {}))
    if healing is not None:
        lines.append("  " + healing)
    lines += [
        "",
        f"  {'t+s':>7}  {'done':>8}  {'rate/s':>8}  {'hits':>6}  "
        f"{'workers':>7}  {'eta_s':>7}",
    ]
    for snap in snapshots:
        snap_fleet = snap["fleet"]
        eta = snap_fleet.get("eta_s")
        eta_text = "-" if eta is None else f"{eta:.1f}"
        lines.append(
            f"  {snap['time'] - first['time']:>7.1f}  "
            f"{snap_fleet['tasks_done']:>8.0f}  "
            f"{snap_fleet['rate_per_s']:>8.1f}  "
            f"{snap_fleet['cache_hits']:>6.0f}  "
            f"{snap_fleet['workers']:>7}  "
            f"{eta_text:>7}"
        )
    return "\n".join(lines)
