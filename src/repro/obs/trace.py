"""Typed transport event traces: the simulator's "why did it do that".

The paper's methodology rests on tcpdump traces collected at the
client; those explain *what* crossed the wire but not *why* the stack
behaved the way it did.  A :class:`TraceRecorder` is the explanatory
counterpart: transports, links, and schedulers emit typed, timestamped
events into it — handshakes, cwnd moves with their reason, RTO fires,
fast retransmits, scheduler decisions with per-subflow RTT snapshots,
queue drops — and the whole trace exports as JSONL for offline
analysis (``python -m repro.obs summarize``).

Overhead model
--------------
Instrumented components hold a plain attribute that is ``None`` by
default; every emission site is guarded by ``if obs is not None``.
With no recorder attached the only cost is that pointer test; with
one, the ledger leg ``obs.trace.overhead_ratio``
(``benchmarks/ledger/run.py``).  The recorder itself is strictly
passive: it never schedules events, never consumes RNG, and never
mutates the objects it observes, so a traced run is bit-identical to
an untraced one.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.core import env
from repro.core.errors import (
    ConfigurationError,
    json_field,
    json_object,
    require,
)

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceRecorder",
    "active_trace_dir",
    "trace_filename",
]

#: The closed event taxonomy (see DESIGN.md §8).  A closed set keeps
#: downstream tooling (summaries, diffs) total: an unknown kind is a
#: programming error, not a silently ignored record.
EVENT_KINDS = frozenset({
    "syn",              # client sent a SYN (initial or retry)
    "handshake",        # subflow established; carries the handshake RTT
    "send",             # sender emitted a data segment (incl. rxt flag)
    "cwnd",             # cwnd/ssthresh changed, with the reason
    "dupack",           # duplicate ACK observed by the sender
    "fast_retransmit",  # dupack threshold crossed; recovery entered
    "rto",              # retransmission timer fired
    "subflow_add",      # MPTCP attached a subflow to the connection
    "subflow_fail",     # MPTCP lost a subflow (admin/blackhole/retries)
    "sched",            # scheduler assigned a chunk; RTT snapshot
    "queue_drop",       # a link queue tail-dropped a packet
    "queue_sample",     # periodic queue-occupancy sample
    "packet",           # packet-capture sink record (tcpdump analog)
    "fault_inject",     # a scheduled fault episode began (repro.faults)
    "fault_clear",      # a scheduled fault episode ended
    "fault_state",      # a link failure-knob transition, as observed
                        # by a telemetry/capture sink
})


def active_trace_dir() -> Optional[str]:
    """The trace export directory (``REPRO_TRACE_DIR``), if tracing is on."""
    return env.text(env.TRACE_DIR)


def trace_filename(key: str, seed: Optional[int]) -> str:
    """Deterministic JSONL file name for one run (key is sanitized)."""
    safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in key)
    suffix = f"-s{seed}" if seed is not None else ""
    return f"{safe}{suffix}.jsonl"


@dataclass(frozen=True)
class TraceEvent:
    """One typed, timestamped observation.

    ``fields`` carries the kind-specific payload (already
    JSON-representable); the envelope — time, kind, path, flow and
    subflow identity — is uniform across kinds so traces can be
    filtered without knowing every schema.
    """

    time: float
    kind: str
    path: str = ""
    flow_id: int = -1
    subflow_id: int = -1
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "t": self.time, "kind": self.kind, "path": self.path,
            "flow": self.flow_id, "subflow": self.subflow_id,
        }
        data.update(self.fields)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  where: str = "trace event") -> "TraceEvent":
        """Decode :meth:`to_dict`; a malformed envelope raises
        :class:`ConfigurationError` naming ``where`` and the field."""
        require(isinstance(data, dict), where,
                f"expected a JSON object, got {type(data).__name__}")
        return cls(
            time=json_field(data, "t", _finite, where),
            kind=json_field(data, "kind", str, where),
            path=json_field(data, "path", str, where, ""),
            flow_id=json_field(data, "flow", int, where, -1),
            subflow_id=json_field(data, "subflow", int, where, -1),
            fields={key: value for key, value in data.items()
                    if key not in _ENVELOPE},
        )


_ENVELOPE = ("t", "kind", "path", "flow", "subflow")


def _finite(value: Any) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(number)
    return number


class TraceRecorder:
    """Collects :class:`TraceEvent` records from an instrumented run.

    One recorder observes one scenario (its paths, connections, and
    any capture/telemetry sinks).  Attach it at construction time —
    ``Scenario(seed, recorder=...)`` — or through
    :meth:`~repro.scenario.Scenario.attach_recorder`.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        kind: str,
        time: float,
        path: str = "",
        flow_id: int = -1,
        subflow_id: int = -1,
        **fields: Any,
    ) -> None:
        """Record one event (``fields`` must stay JSON-representable)."""
        if kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown trace event kind: {kind!r}; "
                f"known: {sorted(EVENT_KINDS)}"
            )
        self.events.append(
            TraceEvent(time, kind, path, flow_id, subflow_id, fields)
        )

    # -- queries ---------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def kinds(self) -> Dict[str, int]:
        """Event count per kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- sink wiring -----------------------------------------------------
    def watch_path(self, path) -> None:
        """Subscribe to a :class:`~repro.net.path.Path`'s queue drops."""
        for link in (path.uplink, path.downlink):
            link.on_drop.append(self._drop_hook(link.name))

    def _drop_hook(self, link_name: str):
        def hook(packet, when: float) -> None:
            self.emit(
                "queue_drop", when, path=link_name,
                flow_id=packet.flow_id, subflow_id=packet.subflow_id,
                seq=packet.seq, payload_bytes=packet.payload_bytes,
            )
        return hook

    # -- serialization ---------------------------------------------------
    def to_jsonl(self) -> str:
        """The whole trace as JSON Lines text."""
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True,
                       separators=(",", ":"))
            for event in self.events
        )

    def save(self, path: str) -> None:
        """Write the JSONL rendering to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            if self.events:
                handle.write("\n")


def load_events(path: str) -> List[TraceEvent]:
    """Parse a JSONL trace file back into typed events."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return list(iter_events(handle))


def iter_events(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Parse an iterable of JSONL lines into typed events."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"trace line {lineno}"
        yield TraceEvent.from_dict(json_object(line, where), where)
