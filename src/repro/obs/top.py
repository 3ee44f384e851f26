"""``python -m repro.obs top`` — live fleet view in the terminal.

Renders per-worker rows (tasks done, in-flight, queue depth,
throughput, RSS) and fleet totals with an ETA, refreshing in place.
Two sources:

* ``--connect HOST:PORT`` — polls ``/healthz`` on a running
  ``serve --telemetry-port`` exporter.
* ``FILE`` — tails the last snapshot of a ``--telemetry-out`` JSONL
  sink, so a sweep in another terminal can be watched through the
  file it is already writing.

Purely a consumer: it never touches the bus it reads from.
"""

import argparse
import sys
import time
from http.client import HTTPConnection
from typing import Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.obs.telemetry import telemetry_snapshot

__all__ = ["fetch_http_snapshot", "read_last_snapshot", "render_top",
           "resilience_line", "top_main"]

_CLEAR = "\x1b[2J\x1b[H"


def fetch_http_snapshot(host: str, port: int,
                        timeout_s: float = 5.0) -> dict:
    """GET ``/healthz`` from a telemetry exporter."""
    conn = HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError(
                f"telemetry endpoint {host}:{port} answered "
                f"{response.status}"
            )
    finally:
        conn.close()
    return telemetry_snapshot(
        body.decode("utf-8", errors="replace"), f"{host}:{port}/healthz"
    )


def read_last_snapshot(path: str) -> dict:
    """The most recent snapshot line of a ``--telemetry-out`` file."""
    last: Optional[Tuple[str, str]] = None
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.strip():
                last = (line, f"{path}:{line_no}")
    if last is None:
        raise ConfigurationError(f"{path} holds no telemetry snapshots yet")
    return telemetry_snapshot(*last)


def _fmt(value, spec: str = ".0f", missing: str = "-") -> str:
    if value is None:
        return missing
    return format(value, spec)


def _metric_total(metrics: dict, name: str) -> float:
    """Sum a counter across label sets (``name`` and ``name{...}`` keys)."""
    return sum(
        value for key, value in metrics.items()
        if key == name or key.startswith(name + "{")
    )


def resilience_line(metrics: dict) -> Optional[str]:
    """The self-healing event totals, or ``None`` when all quiet.

    One line covering the fleet layer: supervisor restarts, executor
    redispatches/breaker trips, sweeps degraded to the local
    pool, and tasks that exhausted their retry budget.
    """
    events = [
        ("restarts", _metric_total(metrics, "fleet.restarts")),
        ("redispatches", _metric_total(metrics, "executor.redispatches")),
        ("breaker trips", _metric_total(metrics, "executor.breaker_trips")),
        ("degraded sweeps", _metric_total(metrics, "sweep.degraded")),
        ("failed tasks", _metric_total(metrics, "sweep.tasks_failed")),
    ]
    if not any(count for _, count in events):
        return None
    return "resilience: " + "   ".join(
        f"{label} {count:.0f}" for label, count in events if count
    )


def render_top(snapshot: dict) -> str:
    """One frame of the live view (no ANSI — caller clears)."""
    fleet = snapshot["fleet"]
    eta = fleet.get("eta_s")
    lines = [
        f"repro fleet — up {snapshot['uptime_s']:.0f}s   "
        f"tasks {fleet['tasks_done']:.0f}/{fleet['tasks_total']:.0f}   "
        f"hits {fleet['cache_hits']:.0f}   "
        f"rate {fleet['rate_per_s']:.1f}/s   "
        f"eta {_fmt(eta, '.0f')}s",
        f"workers: {fleet['workers']}"
        + (
            f"   DEGRADED: {fleet['workers_degraded']}"
            if fleet["workers_degraded"]
            else ""
        ),
    ]
    healing = resilience_line(snapshot.get("metrics", {}))
    if healing is not None:
        lines.append(healing)
    workers = snapshot.get("workers", [])
    if workers:
        lines.append("")
        lines.append(
            f"  {'worker':<22} {'state':<9} {'tasks':>7} {'inflt':>5} "
            f"{'queue':>5} {'tasks/s':>8} {'rss_mb':>7} {'age_s':>6}"
        )
        now = snapshot["time"]
        for row in workers:
            rss_kb = row.get("rss_kb")
            lines.append(
                f"  {row['worker']:<22} {row['state']:<9} "
                f"{_fmt(row.get('tasks_done')):>7} "
                f"{_fmt(row.get('in_flight')):>5} "
                f"{_fmt(row.get('queue_depth')):>5} "
                f"{_fmt(row.get('tasks_per_s'), '.1f'):>8} "
                f"{_fmt(None if rss_kb is None else rss_kb / 1024, '.1f'):>7} "
                f"{now - row['last_seen']:>6.1f}"
            )
    else:
        lines.append("  (no worker heartbeats — local executor or idle)")
    return "\n".join(lines)


def top_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs top",
        description="Live fleet telemetry view.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="poll /healthz on a serve --telemetry-port exporter",
    )
    source.add_argument(
        "file",
        nargs="?",
        help="tail a --telemetry-out JSONL snapshot file",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (for scripts/tests)",
    )
    args = parser.parse_args(argv)

    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")

        def fetch() -> dict:
            return fetch_http_snapshot(host or "127.0.0.1", port)
    else:

        def fetch() -> dict:
            return read_last_snapshot(args.file)

    use_ansi = sys.stdout.isatty() and not args.once
    try:
        while True:
            try:
                snapshot = fetch()
            except (OSError, ConfigurationError) as exc:
                print(f"repro.obs top: {exc}", file=sys.stderr)
                return 2
            frame = render_top(snapshot)
            if use_ansi:
                sys.stdout.write(_CLEAR + frame + "\n")
                sys.stdout.flush()
            else:
                print(frame)
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
