"""Deterministic infrastructure chaos: kill, stall, and corrupt on cue.

:mod:`repro.faults` injects faults into the *simulated* network; this
test harness injects faults into the sweep *infrastructure* itself —
worker processes, the wire protocol, the shared result cache — so tests
and the CI soak can assert the self-healing layer (supervisor restarts,
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
    (header intact): the checksum fails, the shard is redispatched.
``slow_connect``
    The worker sleeps ``duration_s`` before answering the HELLO
    handshake — exercising connect timeouts and breaker behaviour.
``cache_corrupt``
    The ``nth`` cache ``put()`` through a :class:`CorruptingCache` has
    one payload byte flipped after the atomic rename — the reader's
    checksum must treat it as a miss, never return garbage.

The product has no chaos switch.  A controller is armed through seams
the product already has: :func:`arm` wraps two module attributes
(``worker.run_task_timed`` and ``wire.send_frame``) — in a fleet
worker via :mod:`tests.parallel.chaos_worker`, which a ``FleetSpec``
command launches with the worker's ``{index}``, or in-process with
``monkeypatch.setattr`` — and :class:`CorruptingCache` is passed to a
sweep as its ``cache=``.
"""

import contextlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import checked_kwargs, json_object, require
from repro.parallel import cache as result_cache
from repro.parallel import wire, worker

#: The closed chaos taxonomy (see the module docstring).
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
    after_tasks: Optional[int] = None
    nth: Optional[int] = None
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.kind in CHAOS_KINDS, "ChaosEvent.kind",
                f"must be one of {list(CHAOS_KINDS)}, got {self.kind!r}")
        require(isinstance(self.target, int) and self.target >= 0,
                "ChaosEvent.target",
                f"must be a fleet index >= 0, got {self.target!r}")
        for name, kinds, valid in (
            ("after_tasks", _TASK_KINDS,
             lambda v: isinstance(v, int) and v >= 1),
            ("nth", _FRAME_KINDS + ("cache_corrupt",),
             lambda v: isinstance(v, int) and v >= 1),
            ("duration_s", _NEEDS_DURATION,
             lambda v: isinstance(v, (int, float)) and v > 0),
        ):
            value = getattr(self, name)
            if self.kind in kinds:
                require(valid(value), f"ChaosEvent.{name}",
                        f"must be positive for kind={self.kind!r}, "
                        f"got {value!r}")
            else:
                require(value is None, f"ChaosEvent.{name}",
                        f"only valid for kinds {list(kinds)}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.target:
            data["target"] = self.target
        for name in ("after_tasks", "nth", "duration_s"):
            if getattr(self, name) is not None:
                data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosEvent":
        return cls(**checked_kwargs(cls, data, "ChaosEvent"))


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
        require(len(events) >= 1, "ChaosSpec.events",
                "must declare at least one chaos event")
        require(all(isinstance(e, ChaosEvent) for e in events),
                "ChaosSpec.events", "entries must be ChaosEvent")
        require(isinstance(self.seed, int), "ChaosSpec.seed",
                f"must be an int, got {self.seed!r}")
        require(isinstance(self.label, str), "ChaosSpec.label",
                f"must be a string, got {self.label!r}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "events": [event.to_dict() for event in self.events]}
        if self.seed:
            data["seed"] = self.seed
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSpec":
        kwargs = checked_kwargs(cls, data, "ChaosSpec")
        kwargs["events"] = tuple(kwargs.get("events", ()))
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        return cls.from_dict(json_object(text, "chaos file"))

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
    """Arms a :class:`ChaosSpec` as fleet role ``index`` in one process.

    The controller keeps deterministic counters (tasks completed,
    RESULT frames sent, cache puts) and fires each matching event at
    most once.  All byte-level corruption draws from a RNG seeded by
    ``(spec.seed, index)``, so a chaos run is a pure function of the
    spec and the fleet topology.  Index ``-1`` is an observer (the
    coordinator): it matches no worker-targeted event but still fires
    ``cache_corrupt``.

    Thread-safe: seams are called from worker task loops, heartbeat
    threads, and executor dispatch threads.
    """

    def __init__(self, spec: ChaosSpec, index: int, actions=None) -> None:
        self.spec = spec
        self.index = index
        self._actions = actions if actions is not None else _RealActions()
        self._lock = threading.Lock()
        self._tasks_done = 0
        self._result_frames = 0
        self._cache_puts = 0
        self._suppress_until = 0.0
        self._fired: set = set()
        self._rng = random.Random((spec.seed << 16) ^ (index & 0xFFFF))
        #: kind -> times fired in this process.
        self.injected: Dict[str, int] = {}

    def _fire(self, kinds: Tuple[str, ...], due,
              limit: Optional[int] = None) -> List[ChaosEvent]:
        """Mark and return (up to ``limit``) pending ``kinds`` now ``due``."""
        fired: List[ChaosEvent] = []
        for position, event in enumerate(self.spec.events):
            if len(fired) == limit:
                break
            if (event.kind in kinds and position not in self._fired
                    and (event.kind == "cache_corrupt"
                         or event.target == self.index) and due(event)):
                self._fired.add(position)
                self.injected[event.kind] = self.injected.get(event.kind, 0) + 1
                print(f"repro-chaos: injecting {event.kind} "
                      f"(role {self.index})", file=sys.stderr, flush=True)
                fired.append(event)
        return fired

    def on_task_done(self) -> None:
        """Called by the worker after each completed task."""
        with self._lock:
            self._tasks_done += 1
            fire = self._fire(_TASK_KINDS,
                              lambda e: self._tasks_done >= e.after_tasks)
        for event in fire:
            if event.kind == "heartbeat_drop":
                self._suppress_until = time.monotonic() + event.duration_s
            elif event.kind == "worker_kill":
                self._actions.kill()
            else:
                self._actions.stall(event.duration_s)

    def heartbeats_suppressed(self) -> bool:
        return time.monotonic() < self._suppress_until

    def connect_delay_s(self) -> float:
        """Pre-HELLO delay for this handshake (0 once spent or unarmed)."""
        with self._lock:
            fire = self._fire(("slow_connect",), lambda e: True, limit=1)
        return float(fire[0].duration_s) if fire else 0.0

    def frame_action(self, is_result: bool) -> Optional[str]:
        """Mangling verdict for an outbound frame (None = send clean).

        Only RESULT frames advance the counter: heartbeat cadence is
        wall-clock-driven and would make the trigger nondeterministic.
        """
        if not is_result:
            return None
        with self._lock:
            self._result_frames += 1
            fire = self._fire(_FRAME_KINDS,
                              lambda e: e.nth == self._result_frames, limit=1)
        return fire[0].kind if fire else None

    def garble(self, payload: bytes) -> bytes:
        """Flip a deterministic handful of payload bytes."""
        mangled = bytearray(payload)
        with self._lock:
            for _ in range(max(1, len(mangled) // 64) if mangled else 0):
                mangled[self._rng.randrange(len(mangled))] ^= 0xFF
        return bytes(mangled)

    def on_cache_put(self, path: str, header_bytes: int) -> None:
        """Called after an atomic cache write lands at ``path``.

        ``header_bytes`` marks the start of the checksummed payload
        region — corruption flips a payload byte so the entry reads
        back as a checksum miss, never as a short file.
        """
        with self._lock:
            self._cache_puts += 1
            if not self._fire(("cache_corrupt",),
                              lambda e: e.nth == self._cache_puts):
                return
            with open(path, "r+b") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size <= header_bytes:
                    return
                offset = header_bytes + self._rng.randrange(size - header_bytes)
                handle.seek(offset)
                byte = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes((byte ^ 0xFF,)))


class _Capture:
    """A socket stand-in that keeps what one ``sendall`` was given."""

    def sendall(self, data: bytes) -> None:
        self.data = data


def arm(controller: ChaosController, patch=setattr) -> None:
    """Route this process's worker and wire seams through ``controller``.

    ``patch`` is ``setattr`` in a worker process of its own, or
    ``monkeypatch.setattr`` in a test, which puts both back.
    """
    run_task_timed = worker.run_task_timed
    send_frame = wire.send_frame

    def chaos_run_task_timed(task):
        result = run_task_timed(task)
        controller.on_task_done()
        return result

    def chaos_send_frame(sock, msg_type, payload=b"", lock=None):
        if msg_type == wire.MSG_HEARTBEAT and controller.heartbeats_suppressed():
            return  # the keepalive vanishes; the worker keeps computing
        if msg_type == wire.MSG_HELLO:
            time.sleep(controller.connect_delay_s())
        action = controller.frame_action(msg_type == wire.MSG_RESULT)
        if action is None:
            return send_frame(sock, msg_type, payload, lock)
        # The header CRC is taken over the *clean* payload: corruption
        # in transit, after a healthy frame was checksummed.
        clean = _Capture()
        send_frame(clean, msg_type, payload)
        header = clean.data[:len(clean.data) - len(payload)]
        if action == "frame_garbage":
            payload = controller.garble(payload)
        else:
            payload = payload[:max(1, len(payload) // 2)]
        with lock if lock is not None else contextlib.nullcontext():
            sock.sendall(header + payload)
        if action == "frame_truncate":
            try:
                sock.shutdown(socket.SHUT_RDWR)  # the peer sees EOF mid-frame
            except OSError:
                pass

    patch(worker, "run_task_timed", chaos_run_task_timed)
    patch(wire, "send_frame", chaos_send_frame)


class CorruptingCache(result_cache.ResultCache):
    """A :class:`ResultCache` whose writes feed ``cache_corrupt`` events."""

    def __init__(self, controller: ChaosController, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.controller = controller

    def put(self, key: str, value: Any) -> bool:
        written = super().put(key, value)
        if written:
            # Post-write bit rot the checksum-on-read must catch.
            self.controller.on_cache_put(self._path(key),
                                         result_cache._HEADER_BYTES)
        return written
