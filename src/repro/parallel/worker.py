"""The remote sweep worker: ``python -m repro.parallel worker``.

A worker is one process that listens on ``HOST:PORT``, accepts one
coordinator connection at a time, and executes the shards it is sent
— tasks in order, results streamed back per shard.  While a shard
runs, a background thread emits ``HEARTBEAT`` frames so the
coordinator can tell a slow shard from a dead worker.

Startup prints exactly one line to stdout::

    repro-worker listening on 127.0.0.1:40913 pid=12345

so launchers (tests, fleet scripts) binding port ``0`` can scrape the
kernel-assigned port.  The handshake refuses clients running a
different source tree (see :mod:`repro.parallel.wire`), keeping
cross-revision result mixing structurally impossible.
"""

import argparse
import json
import os
import pickle
import socket
import sys
import threading
import time
from typing import List, Optional

from repro.parallel import chaos, wire
from repro.parallel.task import run_task_timed

__all__ = ["main", "serve_worker"]

#: Seconds between heartbeat frames while a shard executes.
HEARTBEAT_INTERVAL_S = 1.0


def _rss_kb() -> float:
    """Peak resident set size in KiB (0.0 where unavailable)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB already; macOS reports bytes.
    return float(usage) / 1024.0 if sys.platform == "darwin" else float(usage)


class _ShardStats:
    """Live counters the heartbeat thread snapshots into STATS payloads.

    The shard loop (main thread) writes, the heartbeat thread reads;
    a lock keeps each payload internally consistent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._tasks_done = 0
        self._in_flight = 0
        self._queue_depth = 0

    def start_shard(self, queue_depth: int) -> None:
        with self._lock:
            self._queue_depth = queue_depth
            self._in_flight = 0

    def start_task(self) -> None:
        with self._lock:
            self._in_flight = 1
            self._queue_depth = max(0, self._queue_depth - 1)

    def finish_task(self) -> None:
        with self._lock:
            self._in_flight = 0
            self._tasks_done += 1

    def finish_shard(self) -> None:
        with self._lock:
            self._in_flight = 0
            self._queue_depth = 0

    def payload(self, interval_s: float) -> dict:
        now = time.time()
        with self._lock:
            uptime_s = max(now - self._started, 1e-9)
            return {
                "pid": os.getpid(),
                "tasks_done": self._tasks_done,
                "in_flight": self._in_flight,
                "queue_depth": self._queue_depth,
                "tasks_per_s": self._tasks_done / uptime_s,
                "rss_kb": _rss_kb(),
                "uptime_s": uptime_s,
                "interval_s": interval_s,
            }


class _Heartbeat:
    """Emit HEARTBEAT ``STATS`` frames on ``sock`` until stopped.

    One frame goes out immediately on ``__enter__`` so even a shard
    that finishes inside the first interval ships at least one STATS
    payload to the coordinator's telemetry bus.
    """

    def __init__(self, sock: socket.socket, send_lock: threading.Lock,
                 interval_s: float, stats: "_ShardStats") -> None:
        self._sock = sock
        self._lock = send_lock
        self._interval_s = interval_s
        self._stats = stats
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._beat()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval_s * 2)

    def _beat(self) -> bool:
        controller = chaos.active_controller()
        if controller is not None and controller.heartbeats_suppressed():
            # Chaos seam: the worker keeps computing but its keepalives
            # vanish — indistinguishable from a stall to the peer.
            return True
        payload = json.dumps(
            self._stats.payload(self._interval_s)
        ).encode("utf-8")
        try:
            wire.send_frame(self._sock, wire.MSG_HEARTBEAT, payload,
                            lock=self._lock)
        except OSError:
            return False  # connection gone; the main loop will notice
        return True

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            if not self._beat():
                return


def _handle_connection(conn: socket.socket, heartbeat_s: float,
                       log) -> int:
    """Serve one coordinator connection; returns shards executed."""
    if not wire.accept_hello(conn, log):
        return 0
    send_lock = threading.Lock()
    controller = chaos.active_controller()
    stats = _ShardStats()
    shards_done = 0
    while True:
        conn.settimeout(None)  # idle between shards is fine
        try:
            msg_type, payload = wire.recv_frame(conn)
        except wire.WireError:
            return shards_done  # coordinator went away
        if msg_type == wire.MSG_SHUTDOWN:
            return shards_done
        if msg_type != wire.MSG_SHARD:
            wire.send_json(conn, wire.MSG_REFUSED,
                           {"error": f"unexpected message {msg_type}"},
                           lock=send_lock)
            return shards_done
        try:
            shard_id, tasks = pickle.loads(payload)
        except Exception as exc:
            wire.send_json(conn, wire.MSG_REFUSED,
                           {"error": f"undecodable shard: {exc}"},
                           lock=send_lock)
            return shards_done
        log(f"shard {shard_id}: {len(tasks)} task(s)")
        stats.start_shard(len(tasks))
        with _Heartbeat(conn, send_lock, heartbeat_s, stats):
            try:
                # Task-by-task (not run_shard) so a mid-shard crash of
                # this process has already shipped nothing partial:
                # results leave only as one complete RESULT frame.
                values = []
                for task in tasks:
                    stats.start_task()
                    values.append(run_task_timed(task))
                    stats.finish_task()
                    if controller is not None:
                        # Chaos seam: kill/stall/heartbeat-drop trigger
                        # on the completed-task counter.
                        controller.on_task_done()
            except Exception as exc:
                stats.finish_shard()
                wire.send_json(
                    conn, wire.MSG_SHARD_ERR,
                    {"shard_id": shard_id,
                     "error": f"{type(exc).__name__}: {exc}"},
                    lock=send_lock,
                )
                shards_done += 1
                continue
            stats.finish_shard()
        wire.send_pickle(conn, wire.MSG_RESULT, (shard_id, values),
                         lock=send_lock)
        shards_done += 1


def serve_worker(host: str, port: int, once: bool = False,
                 heartbeat_s: float = HEARTBEAT_INTERVAL_S,
                 quiet: bool = False) -> int:
    """Listen on ``host:port`` and serve coordinator connections."""
    def log(message: str) -> None:
        if not quiet:
            print(f"repro-worker: {message}", file=sys.stderr, flush=True)

    def handle(conn: socket.socket) -> None:
        shards = _handle_connection(conn, heartbeat_s, log)
        log(f"connection closed after {shards} shard(s)")

    return wire.serve_connections((host, port), "repro-worker", handle, log,
                                  once=once)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel worker",
        description="Serve sweep shards to a SocketExecutor coordinator. "
                    "SECURITY: the protocol deserializes pickle — listen "
                    "on loopback or a trusted network only.",
    )
    parser.add_argument("--listen", metavar="HOST:PORT",
                        type=wire.listen_address, default="127.0.0.1:0",
                        help="bind address (default 127.0.0.1:0 — port 0 "
                             "lets the kernel pick; the chosen port is "
                             "printed on stdout)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first connection closes")
    parser.add_argument("--heartbeat-s", type=float,
                        default=HEARTBEAT_INTERVAL_S,
                        help="seconds between liveness frames while a "
                             "shard runs (default %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-connection logging on stderr")
    args = parser.parse_args(argv)
    if not 0 < args.heartbeat_s <= wire.MAX_HEARTBEAT_INTERVAL_S:
        parser.error(
            f"--heartbeat-s must be in (0, "
            f"{wire.MAX_HEARTBEAT_INTERVAL_S:g}] — the coordinator "
            f"declares a worker dead after "
            f"{wire.HEARTBEAT_TIMEOUT_S:g}s of silence"
        )
    host, port = args.listen
    return serve_worker(host, port, once=args.once,
                        heartbeat_s=args.heartbeat_s, quiet=args.quiet)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
