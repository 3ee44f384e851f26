"""The sweep service CLI: submit, serve, and cache maintenance.

``python -m repro.parallel submit workload.json`` executes a
declarative :class:`~repro.workload.spec.WorkloadSpec` and streams one
JSON line per finished transfer to stdout, in completion order, while
the sweep is still running — the scripting-friendly sibling of
``repro-experiments run-spec`` (which prints a human table at the
end).  With ``--connect HOST:PORT`` the workload is shipped to a
``python -m repro.parallel serve`` process instead and results are
ingested live off the socket; the local process never imports the
simulator.

``serve`` accepts one JOB per connection, runs it through the normal
:class:`~repro.workload.session.Session` engine (honouring the
server's ``--executor``/``--workers`` and shared result cache), and
streams a REPORT frame per task followed by a final DONE frame with
the sweep stats.  Reports cross the wire as JSON
(:meth:`~repro.workload.report.TransferReport.to_dict`), not pickle:
a submission client only needs to trust the server's *data*.

``cache`` exposes the shared result store's maintenance surface
(:meth:`~repro.parallel.cache.ResultCache.stats`/``gc``/``clear``)
so fleets sharing one ``REPRO_CACHE_DIR`` can inspect and prune it.

Stream protocol (stdout of ``submit``): one JSON object per line.

``{"event": "result", "index": i, "key": k, "cached": bool,
"report": {...}}``
    One finished transfer; ``report`` is the summary form, or the
    full round-trippable form under ``--full-reports``.
``{"event": "done", "stats": {...}, "failures": [...]}``
    Terminal line; ``failures`` lists tasks that exhausted retries.
"""

import argparse
import dataclasses
import json
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core import env
from repro.core.errors import ConfigurationError, ReproError, SweepTaskError
from repro.parallel import wire
from repro.parallel.executors import resolve_executor_spec
from repro.parallel.task import resolve_workers

__all__ = ["cache_main", "serve_main", "submit_main"]

#: ``submit --connect`` handshake budget: how many connection attempts
#: before giving up, and the backoff between them.  Covers the window
#: where ``serve`` was just launched and is still binding its socket,
#: so serve→submit orchestration needs no ad-hoc sleeps.
CONNECT_ATTEMPTS = 8
CONNECT_BACKOFF_S = 0.1
CONNECT_BACKOFF_CAP_S = 1.0


def _connect_with_retry(host: str, port: int,
                        timeout_s: float = 10.0,
                        attempts: int = CONNECT_ATTEMPTS) -> socket.socket:
    """Connect, retrying refused/unreachable with exponential backoff.

    Raises the final ``OSError`` once the attempt budget is spent; the
    caller turns that into the exit-2 diagnostic.
    """
    delay = CONNECT_BACKOFF_S
    started = time.monotonic()
    for attempt in range(1, attempts + 1):
        try:
            return socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            if attempt >= attempts:
                elapsed = time.monotonic() - started
                raise OSError(
                    f"{exc} (after {attempts} attempts over "
                    f"{elapsed:.1f}s — is 'python -m repro.parallel "
                    f"serve' running there?)"
                ) from exc
            time.sleep(delay)
            delay = min(delay * 2, CONNECT_BACKOFF_CAP_S)
    raise AssertionError("unreachable")  # pragma: no cover


def _emit(obj: Dict[str, Any], stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    stream.write(json.dumps(obj, sort_keys=True) + "\n")
    stream.flush()


def _stats_dict(stats) -> Optional[Dict[str, Any]]:
    return dataclasses.asdict(stats) if stats is not None else None


def _report_payload(index: int, task, report, cached: bool,
                    full: bool) -> Dict[str, Any]:
    body = report.to_dict() if full else report.summary_dict()
    return {
        "event": "result",
        "index": index,
        "key": task.label(),
        "cached": bool(cached),
        "report": body,
    }


def _failures_payload(exc: SweepTaskError) -> List[Dict[str, Any]]:
    return [
        {"index": f.index, "key": f.key, "error": f.error,
         "attempts": f.attempts}
        for f in getattr(exc, "failures", [])
    ]


def _load_workload(path: str):
    from repro.workload import WorkloadSpec

    with open(path, "r", encoding="utf-8") as handle:
        return WorkloadSpec.from_json(handle.read())


def _run_job(workload, workers, executor, full: bool, emit) -> bool:
    """Run ``workload``, handing every stream event to ``emit``.

    One ``result`` event per finished transfer (completion order), then
    the terminal ``done`` event.  Returns True when any task exhausted
    its retries; configuration and engine errors propagate to the
    caller, which owns how they are reported.
    """
    from repro.workload import Session

    def on_result(index, task, report, cached):
        emit(_report_payload(index, task, report, cached, full))

    session = Session(seed=workload.seed)
    failures: List[Dict[str, Any]] = []
    try:
        session.run_workload(workload, workers=workers, executor=executor,
                             on_result=on_result)
    except SweepTaskError as exc:
        failures = _failures_payload(exc)
    emit({"event": "done", "stats": _stats_dict(session.last_stats),
          "failures": failures})
    return bool(failures)


# ---------------------------------------------------------------------------
# submit
# ---------------------------------------------------------------------------
def _telemetry_sink(path: Optional[str]):
    """A started JSONL sink on the process bus, or a no-op context."""
    import contextlib

    if not path:
        return contextlib.nullcontext()
    from repro.obs.telemetry import TelemetrySink, get_bus

    return TelemetrySink(get_bus(), path)


def _run_local(args) -> int:
    try:
        workload = _load_workload(args.workload)
    except (OSError, ConfigurationError, ValueError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    try:
        with _telemetry_sink(args.telemetry_out):
            # The flags are in the environment (env.exported).
            failed = _run_job(workload, None, None,
                              args.full_reports, _emit)
    except ReproError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    return 3 if failed else 0


def _run_remote(args) -> int:
    from repro.obs.progress import SweepProgress, progress_enabled_by_env

    try:
        host, port = wire.parse_address(args.connect)
        workload = _load_workload(args.workload)
    except (OSError, ConfigurationError, ValueError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2

    # Unknown total on purpose: the server owns the sweep; this side
    # just ingests whatever streams back (done/? + rate, no fake ETA).
    progress = (SweepProgress(None, label=workload.name)
                if progress_enabled_by_env() else None)
    try:
        sock = _connect_with_retry(host, port)
    except OSError as exc:
        print(f"submit: cannot reach {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        wire.client_hello(sock, wire.HANDSHAKE_TIMEOUT_S, who="server")
        wire.send_json(sock, wire.MSG_JOB, {
            "workload": workload.to_dict(),
            "workers": args.workers,
            "executor": args.executor,
            "full_reports": bool(args.full_reports),
        })
        if progress is not None:
            progress.start()
        sock.settimeout(None)  # the server heartbeats via REPORT frames
        while True:
            msg_type, payload = wire.recv_frame(sock)
            if msg_type == wire.MSG_REPORT:
                event = wire.recv_json(payload)
                _emit(event)
                if progress is not None:
                    progress.tally.add(bool(event.get("cached")))
                    progress.render()
            elif msg_type == wire.MSG_DONE:
                if progress is not None:
                    progress.finish()
                done = wire.recv_json(payload)
                _emit(done)
                return 3 if done.get("failures") else 0
            elif msg_type == wire.MSG_REFUSED:
                error = wire.recv_json(payload).get("error")
                print(f"submit: server refused job: {error}",
                      file=sys.stderr)
                return 2
            else:
                print(f"submit: unexpected message {msg_type}",
                      file=sys.stderr)
                return 2
    except wire.WireError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    finally:
        wire.close_quietly(sock)


#: ``--executor``/``--workers`` also travel in the JOB frame as the
#: client's request when ``--connect`` is given.
_SUBMIT_FLAGS = ("--executor", "--workers", "--no-cache")


def submit_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel submit",
        description="Execute a WorkloadSpec JSON file, streaming one "
                    "JSON line per finished transfer to stdout.",
    )
    parser.add_argument("workload", help="path to a workload JSON file")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="submit to a 'python -m repro.parallel "
                             "serve' process instead of running locally")
    env.add_flags(parser, *_SUBMIT_FLAGS)
    parser.add_argument("--full-reports", action="store_true",
                        help="stream full round-trippable report dicts "
                             "instead of compact summaries")
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="write periodic telemetry snapshots (JSONL) "
                             "to FILE during a local run; render later "
                             "with 'python -m repro.obs summarize FILE'")
    args = parser.parse_args(argv)
    if args.connect and args.telemetry_out:
        parser.error("--telemetry-out applies to local runs; for remote "
                     "jobs point it at the server's serve --telemetry-out")
    if args.connect and args.no_cache:
        parser.error("--no-cache applies to local runs; a server owns its "
                     "result cache (start it under REPRO_CACHE=0)")
    with env.exported("submit", args, *_SUBMIT_FLAGS):
        return _run_remote(args) if args.connect else _run_local(args)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _handle_job(conn: socket.socket, job: Dict[str, Any], args,
                log) -> None:
    from repro.workload import WorkloadSpec

    send_lock = threading.Lock()
    try:
        workload = WorkloadSpec.from_dict(job["workload"])
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        wire.send_json(conn, wire.MSG_REFUSED,
                       {"error": f"bad workload: {exc}"}, lock=send_lock)
        return
    # Server-side flags win over the client's request: the operator
    # who started `serve` owns this machine's parallelism and fleet.
    # (Which is why they are arguments here and not exported: a job's
    # own request would otherwise beat them.)
    workers = args.workers if args.workers is not None else job.get("workers")
    executor = args.executor if args.executor is not None \
        else job.get("executor")
    full = job.get("full_reports", False)
    try:
        # The frame is bytes we did not write: check it where it lands.
        workers = resolve_workers(workers)
        executor = resolve_executor_spec(executor)
        if not isinstance(full, bool):
            raise ConfigurationError(
                f"full_reports must be true or false, got {full!r}")
    except ConfigurationError as exc:
        wire.send_json(conn, wire.MSG_REFUSED,
                       {"error": f"bad job: {exc}"}, lock=send_lock)
        return
    log(f"job: workload {workload.name!r}, "
        f"{len(workload.transfers)} transfer(s)")

    # A client that disconnects mid-stream must not abort the sweep
    # (results still land in the shared cache) and must never take the
    # server down: the first failed send trips this event and every
    # later send is skipped.
    client_gone = threading.Event()

    def _send(msg_type: int, obj: Dict[str, Any]) -> None:
        if client_gone.is_set():
            return
        try:
            wire.send_json(conn, msg_type, obj, lock=send_lock)
        except OSError:
            client_gone.set()
            log("client disconnected mid-stream; finishing the sweep "
                "for the cache")

    def emit(event: Dict[str, Any]) -> None:
        _send(wire.MSG_DONE if event["event"] == "done" else wire.MSG_REPORT,
              event)

    try:
        _run_job(workload, workers, executor, full, emit)
    except ReproError as exc:
        _send(wire.MSG_REFUSED, {"error": str(exc)})
    except Exception as exc:  # noqa: BLE001 - one job, not the server
        # A job blowing up in unexpected ways is *that connection's*
        # problem: report and return to the accept loop intact.
        log(f"job crashed: {type(exc).__name__}: {exc}")
        _send(wire.MSG_REFUSED,
              {"error": f"job crashed: {type(exc).__name__}: {exc}"})


def _serve_connection(conn: socket.socket, args, log) -> None:
    if not wire.accept_hello(conn, log):
        return
    msg_type, payload = wire.recv_frame(conn, timeout_s=60.0)
    if msg_type != wire.MSG_JOB:
        wire.send_json(conn, wire.MSG_REFUSED,
                       {"error": f"expected JOB, got message {msg_type}"})
        return
    conn.settimeout(None)
    _handle_job(conn, wire.recv_json(payload), args, log)


_SERVE_FLAGS = ("--executor", "--workers")


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel serve",
        description="Accept workload submissions over TCP and stream "
                    "results back as they finish; --executor/--workers "
                    "given here are forced on every job, over the "
                    "client's request. SECURITY: serves "
                    "anyone who can connect — listen on loopback or a "
                    "trusted network only.",
    )
    parser.add_argument("--listen", metavar="HOST:PORT",
                        type=wire.listen_address, default="127.0.0.1:0",
                        help="bind address (default 127.0.0.1:0; the "
                             "chosen port is printed on stdout)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first job completes")
    env.add_flags(parser, *_SERVE_FLAGS)
    parser.add_argument("--telemetry-port", type=int, default=None,
                        metavar="PORT",
                        help="expose live telemetry over HTTP on this "
                             "port (0 = kernel-assigned): /metrics is "
                             "Prometheus text exposition, /healthz a "
                             "JSON snapshot for 'repro.obs top'")
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="write periodic telemetry snapshots (JSONL) "
                             "to FILE while serving")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-connection logging on stderr")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        if not args.quiet:
            print(f"repro-serve: {message}", file=sys.stderr, flush=True)

    host, port = args.listen

    telemetry_server = None
    telemetry_sink = None
    if args.telemetry_port is not None:
        from repro.obs.telemetry import TelemetryServer, get_bus

        if not 0 <= args.telemetry_port < 65536:
            parser.error(
                f"--telemetry-port out of range: {args.telemetry_port}"
            )
        telemetry_server = TelemetryServer(
            get_bus(), host=host, port=args.telemetry_port
        )
    if args.telemetry_out:
        from repro.obs.telemetry import TelemetrySink, get_bus

        telemetry_sink = TelemetrySink(get_bus(), args.telemetry_out)

    def start_telemetry() -> None:
        if telemetry_server is not None:
            tel_host, tel_port = telemetry_server.start()
            print(f"repro-serve telemetry on {tel_host}:{tel_port}",
                  flush=True)
        if telemetry_sink is not None:
            telemetry_sink.start()

    # Nothing above has started anything.  No flag is exported:
    # --executor/--workers are forced on each job as arguments.
    with env.exported("serve", args):
        try:
            return wire.serve_connections(
                (host, port), "repro-serve",
                lambda conn: _serve_connection(conn, args, log), log,
                once=args.once, on_listening=start_telemetry,
            )
        finally:
            if telemetry_sink is not None:
                telemetry_sink.stop()
            if telemetry_server is not None:
                telemetry_server.stop()


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------
def cache_main(argv: Optional[List[str]] = None) -> int:
    from repro.parallel.cache import ResultCache

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel cache",
        description="Inspect and maintain the shared sweep result store.",
    )
    parser.add_argument("command", choices=("stats", "gc", "clear"),
                        help="stats: entry/size summary; gc: drop "
                             "orphan files and aged entries; "
                             "clear: remove every entry")
    parser.add_argument("--dir", default=None,
                        help="cache directory (default: $REPRO_CACHE_DIR, "
                             "else ~/.cache/repro-sweep)")
    parser.add_argument("--max-age-s", type=float, default=None,
                        help="gc only: also drop entries older than this "
                             "many seconds")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)

    cache = ResultCache(args.dir) if args.dir else ResultCache()
    if args.command == "stats":
        stats = cache.stats()
        if args.json:
            _emit(stats)
        else:
            print(f"cache dir : {cache.root}")
            print(f"entries   : {stats['entries']} "
                  f"({stats['total_bytes']} bytes)")
            print(f"orphans   : {stats['orphan_tmp']} (.tmp/.lock)")
            if stats["entries"]:
                print(f"age       : newest {stats['newest_age_s']:.0f}s, "
                      f"oldest {stats['oldest_age_s']:.0f}s")
        return 0
    if args.command == "gc":
        try:
            removed = cache.gc(max_age_s=args.max_age_s)
        except ConfigurationError as exc:
            print(f"cache: {exc}", file=sys.stderr)
            return 2
        if args.json:
            _emit(removed)
        else:
            print(f"removed {removed['entries']} entr"
                  f"{'y' if removed['entries'] == 1 else 'ies'}, "
                  f"{removed['tmp']} orphan file(s)")
        return 0
    removed_count = cache.clear()
    if args.json:
        _emit({"entries": removed_count})
    else:
        print(f"removed {removed_count} entr"
              f"{'y' if removed_count == 1 else 'ies'}")
    return 0
