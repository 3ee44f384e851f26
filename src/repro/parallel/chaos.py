"""Deterministic infrastructure chaos: kill, stall, and corrupt on cue.

:mod:`repro.faults` injects faults into the *simulated* network; this
module injects faults into the sweep *infrastructure* itself — worker
processes, the wire protocol, the shared result cache — so tests and a
CI soak can assert the self-healing layer (supervisor restarts,
executor redispatch, cache checksums) actually heals.

A :class:`ChaosSpec` is a JSON schedule in the :class:`FaultSpec`
mould: an ordered tuple of :class:`ChaosEvent` entries, each naming a
chaos kind, which fleet role it hits, and a deterministic trigger
(after N tasks, on the Nth result frame, on the Nth cache write).
Triggers count *deterministic* milestones, never wall-clock time or
heartbeat frames — chaos runs must be reproducible bit-for-bit, and
heartbeat counts depend on scheduling noise.

``worker_kill``
    The worker calls ``os._exit(137)`` after finishing its
    ``after_tasks``-th task — a crash the supervisor must notice and
    restart, and whose in-flight shard the executor must redispatch.
``worker_stall``
    The worker SIGSTOPs itself for ``duration_s`` (a detached helper
    delivers the SIGCONT).  Heartbeats stop mid-shard; the executor's
    staleness deadline fires and the shard is redispatched.
``heartbeat_drop``
    Heartbeats are suppressed for ``duration_s`` while the worker keeps
    computing — the "network ate my keepalives" case that must look
    exactly like a stall from the coordinator's side.
``frame_truncate``
    The worker's ``nth`` RESULT frame is cut mid-payload and the
    connection closed: the reader must raise a typed
    :class:`~repro.parallel.wire.WireError` and recycle the connection.
``frame_garbage``
    The worker's ``nth`` RESULT frame has its payload bytes flipped
    (header intact): the unpickle fails, the shard is redispatched.
``slow_connect``
    The worker sleeps ``duration_s`` before answering the HELLO
    handshake — exercising connect timeouts and breaker behaviour.
``cache_corrupt``
    The ``nth`` cache ``put()`` in *this* process has one payload byte
    flipped after the atomic rename — the reader's checksum must treat
    it as a miss, never return garbage.

Activation: set ``REPRO_CHAOS`` to a spec path (the CLI flag
``--chaos FILE`` exports it for the command and its children, after
the spec has been loaded once so a bad file fails before anything
starts — see :mod:`repro.core.env`) and give each fleet member a
role index via ``REPRO_CHAOS_INDEX``.  The supervisor numbers its
workers 0..N-1; a process without an index is role ``-1``
(an observer — typically the coordinator), which matches no
worker-targeted event but still fires ``cache_corrupt``.  With
``REPRO_CHAOS`` unset, the hot path costs one module-global ``None``
check per seam — nothing else.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core import env
from repro.core.errors import (
    ConfigurationError,
    checked_kwargs as _checked_kwargs,
    json_object as _json_object,
    require as _require,
)

__all__ = [
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosSpec",
    "ChaosController",
    "active_controller",
    "set_controller",
    "disable",
]

#: The closed chaos taxonomy (see module docstring and DESIGN.md §15).
CHAOS_KINDS = (
    "worker_kill",
    "worker_stall",
    "heartbeat_drop",
    "frame_truncate",
    "frame_garbage",
    "slow_connect",
    "cache_corrupt",
)

#: Kinds triggered by the task-completion counter.
_TASK_KINDS = ("worker_kill", "worker_stall", "heartbeat_drop")
#: Kinds triggered by the outbound RESULT-frame counter.
_FRAME_KINDS = ("frame_truncate", "frame_garbage")
#: Kinds that need a duration.
_NEEDS_DURATION = ("worker_stall", "heartbeat_drop", "slow_connect")

#: Exit status a chaos-killed worker dies with (mirrors SIGKILL's 137).
KILL_EXIT_STATUS = 137


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled infrastructure fault on one fleet role.

    ``target`` is the fleet role index the event arms in (workers are
    numbered 0..N-1 by the supervisor; ``cache_corrupt`` ignores it —
    it fires in whichever process performs the matching cache write).
    ``after_tasks`` triggers task-counter kinds once the role has
    completed that many tasks; ``nth`` (1-based) triggers frame and
    cache kinds on the matching counter value.  Every event fires at
    most once.
    """

    kind: str
    target: int = 0
    #: ``worker_kill``/``worker_stall``/``heartbeat_drop``: fire once
    #: the role's completed-task counter reaches this value.
    after_tasks: Optional[int] = None
    #: ``frame_truncate``/``frame_garbage``: the Nth RESULT frame
    #: (1-based); ``cache_corrupt``: the Nth cache put (1-based).
    nth: Optional[int] = None
    #: ``worker_stall``/``heartbeat_drop``/``slow_connect``: seconds.
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.kind in CHAOS_KINDS, "ChaosEvent.kind",
                 f"must be one of {list(CHAOS_KINDS)}, got {self.kind!r}")
        _require(isinstance(self.target, int) and self.target >= 0,
                 "ChaosEvent.target",
                 f"must be a fleet index >= 0, got {self.target!r}")

        if self.kind in _TASK_KINDS:
            _require(isinstance(self.after_tasks, int)
                     and self.after_tasks >= 1,
                     "ChaosEvent.after_tasks",
                     f"must be an int >= 1 for kind={self.kind!r}, "
                     f"got {self.after_tasks!r}")
        else:
            _require(self.after_tasks is None, "ChaosEvent.after_tasks",
                     f"only valid for kinds {list(_TASK_KINDS)}")

        if self.kind in _FRAME_KINDS or self.kind == "cache_corrupt":
            _require(isinstance(self.nth, int) and self.nth >= 1,
                     "ChaosEvent.nth",
                     f"must be an int >= 1 for kind={self.kind!r}, "
                     f"got {self.nth!r}")
        else:
            _require(self.nth is None, "ChaosEvent.nth",
                     f"only valid for kinds "
                     f"{list(_FRAME_KINDS) + ['cache_corrupt']}")

        if self.kind in _NEEDS_DURATION:
            _require(isinstance(self.duration_s, (int, float))
                     and self.duration_s > 0,
                     "ChaosEvent.duration_s",
                     f"must be positive for kind={self.kind!r}, "
                     f"got {self.duration_s!r}")
        else:
            _require(self.duration_s is None, "ChaosEvent.duration_s",
                     f"only valid for kinds {list(_NEEDS_DURATION)}")

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.target:
            data["target"] = self.target
        for name in ("after_tasks", "nth", "duration_s"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosEvent":
        return cls(**_checked_kwargs(cls, data, "ChaosEvent"))


@dataclass(frozen=True)
class ChaosSpec:
    """An ordered infrastructure chaos schedule — one soak as data."""

    events: Tuple[ChaosEvent, ...]
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        events = tuple(
            ChaosEvent.from_dict(e) if isinstance(e, Mapping) else e
            for e in self.events
        )
        object.__setattr__(self, "events", events)
        _require(len(events) >= 1, "ChaosSpec.events",
                 "must declare at least one chaos event")
        for event in events:
            _require(isinstance(event, ChaosEvent), "ChaosSpec.events",
                     f"entries must be ChaosEvent, got {type(event).__name__}")
        _require(isinstance(self.seed, int), "ChaosSpec.seed",
                 f"must be an int, got {self.seed!r}")
        _require(isinstance(self.label, str), "ChaosSpec.label",
                 f"must be a string, got {self.label!r}")

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "events": [event.to_dict() for event in self.events],
        }
        if self.seed:
            data["seed"] = self.seed
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSpec":
        kwargs = _checked_kwargs(cls, data, "ChaosSpec")
        kwargs["events"] = tuple(
            ChaosEvent.from_dict(e) for e in kwargs.get("events", ())
        )
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        return cls.from_dict(_json_object(text, "chaos file"))

    @classmethod
    def from_file(cls, path: str) -> "ChaosSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class _RealActions:
    """Process-level side effects, injectable for tests."""

    def kill(self) -> None:
        # _exit skips atexit/finally blocks — a crash, not a shutdown.
        os._exit(KILL_EXIT_STATUS)

    def stall(self, duration_s: float) -> None:
        # A detached helper delivers the SIGCONT — the stalled process
        # cannot wake itself, and the parent must not have to.
        subprocess.Popen(
            [sys.executable, "-c",
             "import os, signal, sys, time\n"
             "time.sleep(float(sys.argv[1]))\n"
             "try:\n"
             "    os.kill(int(sys.argv[2]), signal.SIGCONT)\n"
             "except ProcessLookupError:\n"
             "    pass\n",
             f"{duration_s:g}", str(os.getpid())],
            start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        os.kill(os.getpid(), signal.SIGSTOP)


class ChaosController:
    """Arms a :class:`ChaosSpec` inside one fleet process.

    The controller keeps deterministic counters (tasks completed,
    RESULT frames sent, cache puts) and fires each matching event at
    most once.  All byte-level corruption draws from a RNG seeded by
    ``(spec.seed, role index)``, so a chaos run is a pure function of
    the spec and the fleet topology.

    Thread-safe: seams are called from worker task loops, heartbeat
    threads, and executor dispatch threads.
    """

    def __init__(self, spec: ChaosSpec, index: Optional[int] = None,
                 actions=None) -> None:
        self.spec = spec
        if index is None:
            index = env.integer(env.CHAOS_INDEX)
        if index is None:
            index = -1  # no role: an observer, typically the coordinator
        self.index = index
        self._actions = actions if actions is not None else _RealActions()
        self._lock = threading.Lock()
        self._tasks_done = 0
        self._result_frames = 0
        self._cache_puts = 0
        self._suppress_until = 0.0
        self._fired: set = set()
        self._rng = random.Random((spec.seed << 16) ^ (index & 0xFFFF))
        #: kind -> times fired in this process (for tests/telemetry).
        self.injected: Dict[str, int] = {}

    # -- internal -------------------------------------------------------
    def _mark(self, position: int, event: ChaosEvent) -> None:
        self._fired.add(position)
        self.injected[event.kind] = self.injected.get(event.kind, 0) + 1
        self._publish(event)
        print(f"repro-chaos: injecting {event.kind} "
              f"(role {self.index})", file=sys.stderr, flush=True)

    def _publish(self, event: ChaosEvent) -> None:
        try:
            from repro.obs.telemetry import active_bus
            bus = active_bus()
        except Exception:
            bus = None
        if bus is not None:
            bus.count("chaos.injected", kind=event.kind)

    def _pending(self, kinds: Tuple[str, ...]) -> List[Tuple[int, ChaosEvent]]:
        return [
            (i, e) for i, e in enumerate(self.spec.events)
            if e.kind in kinds and i not in self._fired
            and (e.kind == "cache_corrupt" or e.target == self.index)
        ]

    # -- worker task-loop seam -----------------------------------------
    def on_task_done(self) -> None:
        """Called by the worker after each completed task."""
        fire: List[ChaosEvent] = []
        with self._lock:
            self._tasks_done += 1
            for position, event in self._pending(_TASK_KINDS):
                if self._tasks_done >= event.after_tasks:
                    self._mark(position, event)
                    fire.append(event)
        for event in fire:
            if event.kind == "heartbeat_drop":
                self._suppress_until = time.monotonic() + event.duration_s
            elif event.kind == "worker_kill":
                self._actions.kill()
            elif event.kind == "worker_stall":
                self._actions.stall(event.duration_s)

    # -- worker heartbeat seam -----------------------------------------
    def heartbeats_suppressed(self) -> bool:
        return time.monotonic() < self._suppress_until

    # -- worker connect seam -------------------------------------------
    def connect_delay_s(self) -> float:
        """Pre-HELLO delay for this connection attempt (0 when unarmed)."""
        with self._lock:
            for position, event in self._pending(("slow_connect",)):
                self._mark(position, event)
                return float(event.duration_s)
        return 0.0

    # -- wire seam ------------------------------------------------------
    def frame_action(self, is_result: bool) -> Optional[str]:
        """Mangling verdict for an outbound frame (None = send clean).

        Only RESULT frames advance the counter: heartbeat cadence is
        wall-clock-driven and would make the trigger nondeterministic.
        """
        if not is_result:
            return None
        with self._lock:
            self._result_frames += 1
            for position, event in self._pending(_FRAME_KINDS):
                if self._result_frames == event.nth:
                    self._mark(position, event)
                    return event.kind
        return None

    def garble(self, payload: bytes) -> bytes:
        """Flip a deterministic handful of payload bytes."""
        if not payload:
            return payload
        mangled = bytearray(payload)
        with self._lock:
            for _ in range(max(1, len(mangled) // 64)):
                position = self._rng.randrange(len(mangled))
                mangled[position] ^= 0xFF
        return bytes(mangled)

    # -- cache seam -----------------------------------------------------
    def on_cache_put(self, path: str, header_bytes: int) -> None:
        """Called after an atomic cache write lands at ``path``.

        ``header_bytes`` marks the start of the checksummed payload
        region — corruption flips a payload byte so the entry reads
        back as a checksum miss, never as a short file.
        """
        with self._lock:
            self._cache_puts += 1
            matched = [
                (i, e) for i, e in self._pending(("cache_corrupt",))
                if self._cache_puts == e.nth
            ]
            for position, event in matched:
                self._mark(position, event)
        if not matched:
            return
        try:
            with open(path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size <= header_bytes:
                    return
                offset = header_bytes + self._rng.randrange(size - header_bytes)
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes((byte[0] ^ 0xFF,)))
        except OSError:
            pass


#: Sentinel: "not resolved yet" vs "resolved to None (chaos off)".
_UNRESOLVED = object()
_controller: Any = _UNRESOLVED
_resolve_lock = threading.Lock()


def active_controller() -> Optional[ChaosController]:
    """The process-wide controller, or ``None`` when chaos is off.

    First call resolves ``REPRO_CHAOS``/``REPRO_CHAOS_INDEX`` once;
    later calls are a single global load — the cost chaos-off hot
    paths pay.
    """
    global _controller
    if _controller is not _UNRESOLVED:
        return _controller
    with _resolve_lock:
        if _controller is _UNRESOLVED:
            path = env.text(env.CHAOS)
            if path is None:
                _controller = None
            else:
                try:
                    spec = ChaosSpec.from_file(path)
                except (OSError, ConfigurationError) as exc:
                    raise ConfigurationError(
                        f"{env.CHAOS}: {exc}") from None
                _controller = ChaosController(spec)
    return _controller


def set_controller(controller: Optional[ChaosController]) -> None:
    """Install (or clear, with ``None``) the process-wide controller."""
    global _controller
    _controller = controller


def disable() -> None:
    """Forget any resolved controller; next access re-reads the env."""
    global _controller
    _controller = _UNRESOLVED
