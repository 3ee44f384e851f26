"""Mahimahi-style shells assembled on top of the simulator.

Mahimahi composes a network out of nested shells (``mm-delay`` inside
``mm-link`` …).  Here a :class:`PathSpec` declares one emulated
interface (rate or trace, delay, buffer, loss) and :func:`mpshell`
— the paper's multi-link MpShell — assembles a
:class:`~repro.scenario.Scenario` exposing one path per interface of
a location (``wifi`` and ``lte`` for every Table-2 row), ready to
carry TCP or MPTCP connections.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.errors import (
    checked_kwargs as _checked_kwargs,
    require as _require,
)
from repro.core.rng import DEFAULT_SEED, RngStreams
from repro.linkem.traces import synth_lte_trace, synth_wifi_trace
from repro.net.path import PathConfig
from repro.scenario import Scenario

__all__ = ["PathSpec", "mpshell"]


@dataclass(frozen=True)
class PathSpec:
    """One emulated interface: a named, serializable link description.

    ``technology`` selects the trace synthesizer ("wifi" or "lte")
    when ``trace_driven`` is set; otherwise the link is fixed-rate.
    """

    name: str
    technology: str
    down_mbps: float
    up_mbps: float
    rtt_ms: float
    loss_rate: float = 0.0
    queue_packets: int = 250
    trace_driven: bool = False
    #: Log-sigma of run-to-run rate variation.  The paper measured its
    #: configurations *sequentially* (one multi-homed client), so every
    #: pairwise comparison includes the network's temporal variability;
    #: a fresh scenario seed redraws the link's effective rate.
    temporal_sigma: float = 0.0

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str),
                 "PathSpec.name", f"must be a non-empty string, got {self.name!r}")
        _require(self.technology in ("wifi", "lte"), "PathSpec.technology",
                 f"must be 'wifi' or 'lte', got {self.technology!r}")
        _require(self.down_mbps > 0, "PathSpec.down_mbps",
                 f"must be positive, got {self.down_mbps!r}")
        _require(self.up_mbps > 0, "PathSpec.up_mbps",
                 f"must be positive, got {self.up_mbps!r}")
        _require(self.rtt_ms > 0, "PathSpec.rtt_ms",
                 f"must be positive, got {self.rtt_ms!r}")
        _require(0.0 <= self.loss_rate < 1.0, "PathSpec.loss_rate",
                 f"must be in [0, 1), got {self.loss_rate!r}")
        _require(self.queue_packets >= 1, "PathSpec.queue_packets",
                 f"must be >= 1, got {self.queue_packets!r}")
        _require(self.temporal_sigma >= 0, "PathSpec.temporal_sigma",
                 f"must be >= 0, got {self.temporal_sigma!r}")

    def to_path_config(self, rng_streams: RngStreams) -> PathConfig:
        """Materialize this spec as a path configuration."""
        factor = 1.0
        rtt_factor = 1.0
        if self.temporal_sigma > 0:
            jitter_rng = rng_streams.get(f"jitter.{self.name}")
            factor = math.exp(self.temporal_sigma * jitter_rng.gauss(0.0, 1.0))
            # Delays vary between runs too (load-dependent queueing in
            # the access network), though less than rates do.
            rtt_factor = math.exp(
                0.6 * self.temporal_sigma * jitter_rng.gauss(0.0, 1.0)
            )
        down_mbps = self.down_mbps * factor
        up_mbps = self.up_mbps * factor
        rtt_ms = self.rtt_ms * rtt_factor
        down_trace = up_trace = None
        if self.trace_driven:
            rng = rng_streams.get(f"trace.{self.name}")
            if self.technology == "lte":
                down_trace = synth_lte_trace(rng, down_mbps)
                up_trace = synth_lte_trace(rng, up_mbps)
            else:
                down_trace = synth_wifi_trace(rng, down_mbps)
                up_trace = synth_wifi_trace(rng, up_mbps)
        return PathConfig(
            name=self.name,
            up_mbps=up_mbps,
            down_mbps=down_mbps,
            rtt_ms=rtt_ms,
            up_trace=up_trace,
            down_trace=down_trace,
            queue_packets=self.queue_packets,
            loss_rate=self.loss_rate,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        # All scalars: no need for ``dataclasses.asdict``'s deep copy.
        return {name: getattr(self, name) for name in _PATH_SPEC_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PathSpec":
        return cls(**_checked_kwargs(cls, data, "PathSpec"))


_PATH_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(PathSpec))


def mpshell(condition, seed: Optional[int] = None, recorder=None) -> Scenario:
    """The paper's MpShell: a fresh scenario emulating ``condition``.

    New event loop, new links, one path per interface of the
    :class:`~repro.linkem.conditions.ConditionSpec` — the one place a
    location becomes a network, called by :class:`~repro.workload.Session`
    alone, which also closes it.  Path order follows the spec; every RNG
    stream (loss, jitter, trace synthesis) is keyed by path *name*, so
    the realization depends on ``seed`` alone.
    """
    scenario = Scenario(seed=DEFAULT_SEED if seed is None else seed,
                        recorder=recorder)
    for path_spec in condition.paths:
        scenario.add_path(path_spec.to_path_config(scenario.rng))
    return scenario
