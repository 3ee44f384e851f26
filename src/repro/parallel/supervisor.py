"""Self-healing worker fleets: launch, probe, restart, tear down.

A :class:`FleetSupervisor` owns N ``python -m repro.parallel worker``
processes described by a :class:`FleetSpec`.  It scrapes each worker's
startup banner for the kernel-assigned port, hands the resulting
``socket:HOST:PORT,...`` spec to sweeps, and then *supervises*:

* a worker that exits is relaunched **on its old port** (executor
  address lists stay valid across restarts) under an exponential
  restart backoff, up to ``max_restarts`` per worker — a crash-looping
  worker is eventually marked ``failed`` and left down;
* a worker whose STATS heartbeats went stale *while a task was in
  flight* (the telemetry bus's "degraded" verdict — see
  :mod:`repro.obs.telemetry`) is SIGKILLed and relaunched: SIGKILL is
  deliverable even to a SIGSTOPped process, so a stalled worker cannot
  dodge its own restart.  Idle workers legitimately stop heartbeating
  between shards and are never touched.

The launch command is a template (``command`` in the spec) with
``{python}``/``{listen}``/``{heartbeat_s}``/``{index}`` placeholders
(``{index}`` numbers the workers 0..N-1), defaulting to a local
subprocess — an ``ssh host ...`` template slots in for remote fleets
without touching the supervisor.

Fleet state (pid + start-token per worker) persists to a JSON file so
``python -m repro.parallel fleet status|down`` works from a different
process; the start token (see :mod:`repro.core.proc`) keeps ``down``
from killing an innocent process that recycled a worker's pid.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.env import exported, for_child
from repro.core.errors import (
    ConfigurationError,
    ExecutorError,
    checked_kwargs as _checked_kwargs,
    json_object as _json_object,
    require as _require,
)
from repro.core.proc import pid_start_token, same_process
from repro.obs.telemetry import active_bus
from repro.parallel.wire import MAX_HEARTBEAT_INTERVAL_S

__all__ = ["FLEET_STATE_SCHEMA", "FleetSpec", "FleetSupervisor",
           "default_state_path", "fleet_main"]

FLEET_STATE_SCHEMA = "repro.parallel.fleet/v1"

#: Launch template; every element is ``str.format``-ed with the
#: strings ``python`` (this interpreter), ``listen`` (HOST:PORT),
#: ``heartbeat_s`` and ``index`` (the worker's number, 0..N-1).
#: Replace with e.g. an ssh wrapper for remote hosts.
DEFAULT_COMMAND = (
    "{python}", "-m", "repro.parallel", "worker",
    "--listen", "{listen}", "--heartbeat-s", "{heartbeat_s}", "--quiet",
)

_BANNER_RE = re.compile(
    r"repro-worker listening on (\S+):(\d+) pid=(\d+)"
)


def _format_command(command: Tuple[str, ...], listen: str,
                    heartbeat_s: float, index: int) -> List[str]:
    return [arg.format(python=sys.executable, listen=listen,
                       heartbeat_s=f"{heartbeat_s:g}", index=str(index))
            for arg in command]


def _is_number(value: Any, types=(int, float)) -> bool:
    """A JSON number: ``bool`` is an ``int`` to Python, not here."""
    return isinstance(value, types) and not isinstance(value, bool)


def default_state_path() -> str:
    """Where ``fleet`` subcommands keep state unless ``--state`` says."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweep",
                        "fleet.json")


@dataclass(frozen=True)
class FleetSpec:
    """How many workers to run, where, and how hard to keep them up."""

    workers: int
    host: str = "127.0.0.1"
    #: Explicit ports, one per worker; empty lets the kernel pick (the
    #: supervisor scrapes each banner and pins the port for restarts).
    ports: Tuple[int, ...] = ()
    heartbeat_s: float = 1.0
    command: Tuple[str, ...] = DEFAULT_COMMAND
    #: Per-worker relaunch budget before it is marked ``failed``.
    max_restarts: int = 3
    restart_backoff_s: float = 0.5
    restart_backoff_cap_s: float = 8.0
    label: str = ""

    def __post_init__(self) -> None:
        _require(_is_number(self.workers, int) and self.workers >= 1,
                 "FleetSpec.workers",
                 f"must be an int >= 1, got {self.workers!r}")
        _require(bool(self.host) and isinstance(self.host, str),
                 "FleetSpec.host", f"must be a host name, got {self.host!r}")
        _require(isinstance(self.ports, (list, tuple)), "FleetSpec.ports",
                 f"must be a list of ports, got {self.ports!r}")
        object.__setattr__(self, "ports", tuple(self.ports))
        _require(not self.ports or len(self.ports) == self.workers,
                 "FleetSpec.ports",
                 f"must list one port per worker ({self.workers}), "
                 f"got {len(self.ports)}")
        for port in self.ports:
            _require(_is_number(port, int) and 0 < port < 65536,
                     "FleetSpec.ports", f"invalid port {port!r}")
        # Above a third of the executor's silence deadline, a healthy
        # worker would be declared dead between two beats.
        _require(_is_number(self.heartbeat_s)
                 and 0 < self.heartbeat_s <= MAX_HEARTBEAT_INTERVAL_S,
                 "FleetSpec.heartbeat_s",
                 f"must be in (0, {MAX_HEARTBEAT_INTERVAL_S:g}], "
                 f"got {self.heartbeat_s!r}")
        _require(isinstance(self.command, (list, tuple))
                 and len(self.command) >= 1
                 and all(isinstance(arg, str) for arg in self.command),
                 "FleetSpec.command", "must be a list of strings")
        object.__setattr__(self, "command", tuple(self.command))
        _require(any("{listen}" in arg for arg in self.command),
                 "FleetSpec.command", "must use the {listen} placeholder")
        # Formatted once here, so a bad template fails as configuration
        # rather than inside the first spawn.
        try:
            _format_command(self.command, f"{self.host}:0",
                            self.heartbeat_s, 0)
        except (AttributeError, IndexError, KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"FleetSpec.command: bad placeholder ({exc!r}); known: "
                f"{{python}} {{listen}} {{heartbeat_s}} {{index}}") from None
        _require(_is_number(self.max_restarts, int) and self.max_restarts >= 0,
                 "FleetSpec.max_restarts",
                 f"must be an int >= 0, got {self.max_restarts!r}")
        _require(_is_number(self.restart_backoff_s)
                 and 0 <= self.restart_backoff_s < math.inf,
                 "FleetSpec.restart_backoff_s",
                 f"must be finite and >= 0, got {self.restart_backoff_s!r}")
        _require(_is_number(self.restart_backoff_cap_s)
                 and self.restart_backoff_s <= self.restart_backoff_cap_s
                 < math.inf,
                 "FleetSpec.restart_backoff_cap_s",
                 f"must be finite and >= restart_backoff_s, "
                 f"got {self.restart_backoff_cap_s!r}")
        _require(isinstance(self.label, str), "FleetSpec.label",
                 f"must be a string, got {self.label!r}")

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """``workers`` plus every field that differs from its default."""
        data: Dict[str, Any] = {"workers": self.workers}
        for spec_field in dataclasses.fields(self)[1:]:
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                data[spec_field.name] = (
                    list(value) if isinstance(value, tuple) else value
                )
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        # __post_init__ turns the JSON lists back into tuples.
        kwargs = _checked_kwargs(cls, data, "FleetSpec")
        _require("workers" in kwargs, "FleetSpec.workers", "missing")
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        return cls.from_dict(_json_object(text, "fleet file"))

    @classmethod
    def from_file(cls, path: str) -> "FleetSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


@dataclass
class _WorkerRecord:
    """One supervised worker: process handle plus restart bookkeeping."""

    index: int
    host: str
    port: int = 0  # 0 until the first banner pins it
    proc: Optional[subprocess.Popen] = None
    pid: int = 0
    start_token: str = ""
    restarts: int = 0
    state: str = "down"  # down | running | backoff | failed | stopped
    next_restart_at: float = 0.0
    launched_at: float = 0.0
    last_error: str = ""

    @property
    def worker_id(self) -> str:
        return f"{self.host}:{self.port}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "address": self.worker_id,
            "pid": self.pid,
            "start_token": self.start_token,
            "restarts": self.restarts,
            "state": self.state,
        }


class FleetSupervisor:
    """Launch and keep alive one fleet of sweep workers."""

    def __init__(self, spec: FleetSpec,
                 state_path: Optional[str] = None,
                 launch_timeout_s: float = 20.0,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.spec = spec
        self.state_path = state_path
        self.launch_timeout_s = launch_timeout_s
        self._env = env
        self._records: List[_WorkerRecord] = [
            _WorkerRecord(index=index, host=spec.host,
                          port=spec.ports[index] if spec.ports else 0)
            for index in range(spec.workers)
        ]
        self._lock = threading.Lock()

    # -- address surface ------------------------------------------------
    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """Concrete ``(host, port)`` pairs (valid after :meth:`up`)."""
        return [(record.host, record.port) for record in self._records]

    @property
    def executor_spec(self) -> str:
        """The ``socket:...`` spec sweeps pass to ``make_executor``."""
        return "socket:" + ",".join(
            f"{host}:{port}" for host, port in self.addresses
        )

    # -- lifecycle ------------------------------------------------------
    def up(self) -> List[Tuple[str, int]]:
        """Launch every worker; returns the concrete addresses.

        Every worker is started before any banner is read, so the fleet
        boots in about one worker's start-up time.  If one fails to
        start, every child already launched is reaped before the error
        propagates.
        """
        try:
            for record in self._records:
                self._spawn(record)
            for record in self._records:
                self._await_banner(record)
        except BaseException:
            for record in self._records:
                self._reap(record)
            raise
        self._write_state()
        return self.addresses

    def _child_env(self) -> Dict[str, str]:
        # The worker must import repro regardless of its cwd.
        import repro

        env = for_child(self._env)
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        return env

    def _spawn(self, record: _WorkerRecord) -> None:
        command = _format_command(self.spec.command,
                                  f"{record.host}:{record.port}",
                                  self.spec.heartbeat_s, record.index)
        record.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=self._child_env(),
        )
        record.launched_at = time.time()

    def _await_banner(self, record: _WorkerRecord) -> None:
        host, port, pid = self._read_banner(record)
        record.host, record.port, record.pid = host, port, pid
        record.start_token = pid_start_token(pid)
        record.state = "running"
        record.last_error = ""

    def _read_banner(self, record: _WorkerRecord) -> Tuple[str, int, int]:
        """Scrape ``repro-worker listening on H:P pid=N`` with a deadline."""
        proc = record.proc
        deadline = time.monotonic() + self.launch_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or proc.poll() is not None:
                self._reap(record)
                raise ExecutorError(
                    f"fleet worker {record.index} did not print its "
                    f"startup banner within {self.launch_timeout_s:g}s "
                    f"(exit code {proc.returncode})"
                )
            ready, _, _ = select.select([proc.stdout], [], [],
                                        min(remaining, 0.2))
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                continue
            match = _BANNER_RE.search(line)
            if match is None:
                continue  # tolerate preamble noise from ssh templates
            return match.group(1), int(match.group(2)), int(match.group(3))

    def _reap(self, record: _WorkerRecord) -> None:
        proc = record.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        if proc.stdout is not None:
            try:
                proc.stdout.close()
            except OSError:
                pass

    # -- supervision ----------------------------------------------------
    def poll(self, now: Optional[float] = None) -> List[str]:
        """One supervision pass; returns human-readable actions taken."""
        now = time.monotonic() if now is None else now
        actions: List[str] = []
        bus = active_bus()
        with self._lock:
            for record in self._records:
                if record.state == "running":
                    self._check_running(record, now, bus, actions)
                if record.state == "backoff" and now >= record.next_restart_at:
                    self._restart(record, bus, actions)
        if actions:
            self._write_state()
        return actions

    def _check_running(self, record: _WorkerRecord, now: float,
                       bus, actions: List[str]) -> None:
        code = record.proc.poll() if record.proc is not None else None
        if code is not None:
            self._reap(record)
            record.last_error = f"exited with status {code}"
            self._schedule_restart(record, now, bus, actions,
                                   reason=record.last_error)
            return
        if bus is None:
            return
        # Stall detection off the STATS heartbeats: degraded + a task
        # in flight + stats from *this* incarnation means the worker is
        # wedged (SIGSTOP, deadlock) — SIGKILL reaches even a stopped
        # process, then the normal restart path picks it up.
        for health in bus.workers():
            if health.worker_id != record.worker_id:
                continue
            if (health.state() == "degraded"
                    and health.last_seen >= record.launched_at
                    and health.stats.get("in_flight", 0) > 0):
                record.proc.kill()
                self._reap(record)
                record.last_error = "stalled (stale heartbeats mid-task)"
                self._schedule_restart(record, now, bus, actions,
                                       reason=record.last_error)
            return

    def _schedule_restart(self, record: _WorkerRecord, now: float,
                          bus, actions: List[str], reason: str) -> None:
        if record.restarts >= self.spec.max_restarts:
            record.state = "failed"
            actions.append(
                f"worker {record.index} ({record.worker_id}) {reason}; "
                f"restart budget spent ({self.spec.max_restarts}) — failed"
            )
            if bus is not None:
                bus.count("fleet.failures")
            return
        delay = min(
            self.spec.restart_backoff_s * (2 ** record.restarts),
            self.spec.restart_backoff_cap_s,
        )
        record.state = "backoff"
        record.next_restart_at = now + delay
        actions.append(
            f"worker {record.index} ({record.worker_id}) {reason}; "
            f"restart {record.restarts + 1}/{self.spec.max_restarts} "
            f"in {delay:g}s"
        )

    def _restart(self, record: _WorkerRecord, bus,
                 actions: List[str]) -> None:
        record.restarts += 1
        try:
            self._spawn(record)  # same host:port — addresses stay valid
            self._await_banner(record)
        except ExecutorError as exc:
            record.last_error = str(exc)
            self._schedule_restart(record, time.monotonic(), bus, actions,
                                   reason="relaunch failed")
            return
        actions.append(
            f"worker {record.index} restarted on {record.worker_id} "
            f"(pid {record.pid}, restart {record.restarts})"
        )
        if bus is not None:
            bus.count("fleet.restarts", worker=record.worker_id)

    def supervise(self, stop: Optional[threading.Event] = None,
                  poll_interval_s: float = 0.5,
                  on_action=None) -> None:
        """Poll until ``stop`` is set (Ctrl-C safe in ``fleet up``)."""
        stop = stop if stop is not None else threading.Event()
        while not stop.is_set():
            for action in self.poll():
                if on_action is not None:
                    on_action(action)
            stop.wait(poll_interval_s)

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema": FLEET_STATE_SCHEMA,
                "label": self.spec.label,
                "executor": self.executor_spec,
                "spec": self.spec.to_dict(),
                "workers": [record.to_dict() for record in self._records],
            }

    def down(self) -> None:
        """Terminate every worker and drop the state file."""
        with self._lock:
            for record in self._records:
                if record.proc is not None and record.proc.poll() is None:
                    record.proc.terminate()
            for record in self._records:
                if record.proc is None:
                    continue
                try:
                    record.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    record.proc.kill()
                self._reap(record)
                record.state = "stopped"
                record.proc = None
        if self.state_path is not None:
            try:
                os.unlink(self.state_path)
            except OSError:
                pass

    # -- state file -----------------------------------------------------
    def _write_state(self) -> None:
        if self.state_path is None:
            return
        payload = json.dumps(self.status(), indent=2)
        directory = os.path.dirname(self.state_path) or "."
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, self.state_path)
        except OSError:
            pass  # state file is advisory; supervision continues


# ----------------------------------------------------------------------
# Out-of-process state-file operations (fleet status / fleet down)
# ----------------------------------------------------------------------
def _load_state(state_path: str) -> Dict[str, Any]:
    try:
        with open(state_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError:
        raise ConfigurationError(
            f"no fleet state at {state_path} — is a fleet up? "
            f"(start one with 'python -m repro.parallel fleet up')"
        )
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"fleet state {state_path} is corrupt: {exc}")
    if not isinstance(data, dict) or data.get("schema") != FLEET_STATE_SCHEMA:
        raise ConfigurationError(
            f"fleet state {state_path} has unknown schema "
            f"{data.get('schema') if isinstance(data, dict) else data!r}"
        )
    return data


def _probe_state(data: Dict[str, Any]) -> Dict[str, Any]:
    """Re-verify each recorded worker against live (pid, token) pairs."""
    for worker in data.get("workers", ()):
        pid = int(worker.get("pid", 0))
        token = worker.get("start_token", "")
        if worker.get("state") in ("stopped", "failed"):
            continue
        worker["state"] = (
            "running" if pid and same_process(pid, token) else "dead"
        )
    return data


def fleet_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel fleet",
        description="Launch and supervise a self-healing worker fleet.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    up = sub.add_parser("up", help="launch a fleet and supervise it")
    up.add_argument("--spec", metavar="FILE",
                    help="FleetSpec JSON file (default: --workers N inline)")
    up.add_argument("--workers", type=int, default=2,
                    help="worker count when --spec is omitted "
                         "(default %(default)s)")
    up.add_argument("--state", metavar="FILE", default=default_state_path(),
                    help="fleet state file (default %(default)s)")

    status = sub.add_parser("status", help="probe the recorded fleet")
    status.add_argument("--state", metavar="FILE",
                        default=default_state_path())
    status.add_argument("--json", action="store_true",
                        help="machine-readable output")

    down = sub.add_parser("down", help="stop the recorded fleet")
    down.add_argument("--state", metavar="FILE",
                      default=default_state_path())

    args = parser.parse_args(argv)

    if args.action == "up":
        # Every variable is resolved before a worker inherits it.
        with exported("fleet up", args):
            try:
                spec = (FleetSpec.from_file(args.spec) if args.spec
                        else FleetSpec(workers=args.workers))
            except (OSError, ConfigurationError) as exc:
                print(f"fleet up: {exc}", file=sys.stderr)
                return 2
            supervisor = FleetSupervisor(spec, state_path=args.state)
            try:
                supervisor.up()
            except ExecutorError as exc:
                print(f"fleet up: {exc}", file=sys.stderr)
                supervisor.down()
                return 2
            print(f"repro-fleet up {spec.workers} worker(s): "
                  f"{supervisor.executor_spec}", flush=True)
            try:
                supervisor.supervise(
                    on_action=lambda action: print(f"repro-fleet: {action}",
                                                   file=sys.stderr, flush=True))
            except KeyboardInterrupt:
                pass
            finally:
                supervisor.down()
            return 0

    if args.action == "status":
        try:
            data = _probe_state(_load_state(args.state))
        except ConfigurationError as exc:
            print(f"fleet status: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(data, indent=2))
            return 0
        print(f"fleet: {data.get('executor', '?')}")
        for worker in data.get("workers", ()):
            print(f"  worker {worker['index']}  {worker['address']:<21} "
                  f"pid {worker['pid']:<7} restarts {worker['restarts']}  "
                  f"{worker['state']}")
        return 0 if all(w.get("state") == "running"
                        for w in data.get("workers", ())) else 1

    if args.action == "down":
        try:
            data = _load_state(args.state)
        except ConfigurationError as exc:
            print(f"fleet down: {exc}", file=sys.stderr)
            return 2
        stopped = 0
        for worker in data.get("workers", ()):
            pid = int(worker.get("pid", 0))
            token = worker.get("start_token", "")
            # The token check means a recycled pid is never signalled.
            if pid and same_process(pid, token):
                try:
                    os.kill(pid, signal.SIGTERM)
                    stopped += 1
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for worker in data.get("workers", ()):
            pid = int(worker.get("pid", 0))
            token = worker.get("start_token", "")
            while (pid and same_process(pid, token)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            if pid and same_process(pid, token):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        try:
            os.unlink(args.state)
        except OSError:
            pass
        print(f"repro-fleet down: stopped {stopped} worker(s)")
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(fleet_main())
