"""Fault schedules as data: frozen, validated, JSON-round-trippable.

A :class:`FaultSpec` is an ordered tuple of :class:`FaultEvent`
entries, each naming a fault kind, the path it hits, when it starts,
and (optionally) how long it lasts.  The vocabulary mirrors the
failure modes the paper measured plus the episode dynamics related
work says matter (bursty LTE behaviour, capacity collapses):

``outage``
    Administrative link-down in both directions.  Packets sent while
    down vanish; the endpoint receives no signal (contrast
    ``iface_down``).
``blackhole``
    Silent disconnection — the Fig. 15g "unplug the phone" case.
    Queued and in-flight packets vanish, the link still reports "up",
    and nothing is notified; with ``detected=True`` the unplug also
    raises the explicit admin signal (the Fig. 15h variant where the
    kernel noticed the netdev removal immediately).
``iface_down``
    Explicit interface removal ("multipath off"): MPTCP is notified
    via the path's admin-change callbacks and fails over immediately,
    reinjecting unacked data.
``rate_collapse``
    The path's links drop to ``factor`` of their configured rate for
    the duration (fixed-rate links only).
``delay_spike``
    ``extra_delay_s`` of additional propagation delay per direction
    (a handover pause, a microwave turning on).
``burst_loss``
    A Gilbert–Elliott burst-loss episode replaces the path's loss
    models for the duration; the four chain parameters are carried on
    the event.

Validation follows :mod:`repro.workload.spec` exactly: every failure
raises :class:`~repro.core.errors.ConfigurationError` naming the
offending field, unknown JSON fields are rejected by name, and
``canonical_dict()`` feeds the sweep result cache.
"""

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import (
    checked_kwargs as _checked_kwargs,
    json_object as _json_object,
    require as _require,
)

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultSpec"]

#: The closed fault taxonomy (see module docstring and DESIGN.md §9).
FAULT_KINDS = (
    "outage",
    "blackhole",
    "iface_down",
    "rate_collapse",
    "delay_spike",
    "burst_loss",
)

#: Kinds whose inject edge is meaningless without a clear edge.
_NEEDS_DURATION = ("rate_collapse", "delay_spike", "burst_loss")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault episode on one path.

    ``at_s`` is the inject instant (simulated seconds); ``duration_s``
    schedules the matching clear.  ``outage``/``blackhole``/
    ``iface_down`` may omit the duration (the fault then persists);
    ``rate_collapse``/``delay_spike``/``burst_loss`` require one.
    """

    kind: str
    path: str
    at_s: float
    duration_s: Optional[float] = None
    #: ``rate_collapse``: surviving fraction of the configured rate.
    factor: Optional[float] = None
    #: ``delay_spike``: added one-way propagation delay, seconds.
    extra_delay_s: Optional[float] = None
    #: ``blackhole`` only: the unplug also raises the explicit admin
    #: signal (the kernel noticed the netdev removal — Fig. 15h).
    detected: bool = False
    # Gilbert–Elliott chain parameters (``burst_loss`` only).
    p_good_to_bad: float = 0.005
    p_bad_to_good: float = 0.2
    p_good: float = 0.0
    p_bad: float = 0.3

    def __post_init__(self) -> None:
        _require(self.kind in FAULT_KINDS, "FaultEvent.kind",
                 f"must be one of {list(FAULT_KINDS)}, got {self.kind!r}")
        _require(bool(self.path) and isinstance(self.path, str),
                 "FaultEvent.path",
                 f"must be a non-empty path name, got {self.path!r}")
        _require(isinstance(self.at_s, (int, float)) and self.at_s >= 0,
                 "FaultEvent.at_s", f"must be >= 0, got {self.at_s!r}")
        if self.duration_s is not None:
            _require(isinstance(self.duration_s, (int, float))
                     and self.duration_s > 0,
                     "FaultEvent.duration_s",
                     f"must be positive or null, got {self.duration_s!r}")
        _require(self.kind not in _NEEDS_DURATION or self.duration_s is not None,
                 "FaultEvent.duration_s",
                 f"required for kind={self.kind!r}")

        if self.kind == "rate_collapse":
            _require(self.factor is not None and 0 < self.factor < 1,
                     "FaultEvent.factor",
                     f"must be in (0, 1) for rate_collapse, got {self.factor!r}")
        else:
            _require(self.factor is None, "FaultEvent.factor",
                     "only valid for kind='rate_collapse'")

        if self.kind == "delay_spike":
            _require(self.extra_delay_s is not None and self.extra_delay_s > 0,
                     "FaultEvent.extra_delay_s",
                     f"must be positive for delay_spike, "
                     f"got {self.extra_delay_s!r}")
        else:
            _require(self.extra_delay_s is None, "FaultEvent.extra_delay_s",
                     "only valid for kind='delay_spike'")

        _require(not self.detected or self.kind == "blackhole",
                 "FaultEvent.detected", "only valid for kind='blackhole'")

        for name in ("p_good_to_bad", "p_bad_to_good", "p_good", "p_bad"):
            value = getattr(self, name)
            _require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
                     f"FaultEvent.{name}",
                     f"must be a probability in [0, 1], got {value!r}")

    @property
    def clears_at(self) -> Optional[float]:
        """Absolute simulated time of the clear edge, if scheduled."""
        if self.duration_s is None:
            return None
        return self.at_s + self.duration_s

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind, "path": self.path, "at_s": self.at_s,
        }
        for name in ("duration_s", "factor", "extra_delay_s"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        if self.detected:
            data["detected"] = True
        if self.kind == "burst_loss":
            for name in ("p_good_to_bad", "p_bad_to_good", "p_good", "p_bad"):
                data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        return cls(**_checked_kwargs(cls, data, "FaultEvent"))


@dataclass(frozen=True)
class FaultSpec:
    """An ordered fault schedule — one measurement episode as data.

    Events may overlap in time and share paths; injection order at
    equal timestamps follows list order (the event loop runs same-time
    callbacks FIFO), so a schedule is deterministic by construction.
    """

    events: Tuple[FaultEvent, ...]
    label: str = ""

    def __post_init__(self) -> None:
        events = tuple(
            FaultEvent.from_dict(e) if isinstance(e, Mapping) else e
            for e in self.events
        )
        object.__setattr__(self, "events", events)
        _require(len(events) >= 1, "FaultSpec.events",
                 "must declare at least one fault event")
        for event in events:
            _require(isinstance(event, FaultEvent), "FaultSpec.events",
                     f"entries must be FaultEvent, got {type(event).__name__}")
        _require(isinstance(self.label, str), "FaultSpec.label",
                 f"must be a string, got {self.label!r}")

    @property
    def path_names(self) -> Tuple[str, ...]:
        """Every path the schedule touches, first-reference order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.path, None)
        return tuple(seen)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "events": [event.to_dict() for event in self.events],
        }
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        kwargs = _checked_kwargs(cls, data, "FaultSpec")
        kwargs["events"] = tuple(
            FaultEvent.from_dict(e) for e in kwargs.get("events", ())
        )
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        return cls.from_dict(_json_object(text, "fault file"))

    @classmethod
    def from_file(cls, path: str) -> "FaultSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def canonical_dict(self) -> Dict[str, Any]:
        """The content-address form used by the result cache."""
        return self.to_dict()

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
