"""Operator heterogeneity, diurnal load, and per-app traffic mixes.

The paper's dataset treats "LTE" as one network, but crowd-sourced
measurement studies that followed it found the cellular side is
anything but uniform: Malandrino et al.'s multi-operator crowd data
shows per-operator throughput spreads and strong diurnal load cycles,
and MopEye's opportunistic per-app measurements show the traffic mix
(web vs video vs upload) decides what network quality a user actually
experiences.  This module carries those three axes as small frozen
profiles the crowd-scale world model composes on top of the Table-1
site calibration:

* :class:`OperatorProfile` — a cellular carrier with a market share
  and log-space throughput/RTT offsets.  The default trio is
  share-weighted to be neutral in log space, so enabling operator
  heterogeneity widens the LTE distribution without moving its
  center — Table-1 win fractions stay recoverable.
* :class:`DiurnalCurve` — a 24 h log-sinusoid load curve; capacity is
  scaled by ``exp(-amplitude * cos(...))`` so the day-long log-mean is
  zero (again: spread, not shift).  Cellular amplitude is larger than
  WiFi, per the multi-operator measurements.
* :class:`AppProfile` — a traffic class (flow sizes per direction plus
  a mix weight); per-app experienced throughput uses the same TCP
  flow model as the paper's 1-MB probe, just at the app's flow size.
"""

import math
from dataclasses import astuple, dataclass
from typing import Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "OperatorProfile",
    "DiurnalCurve",
    "AppProfile",
    "DEFAULT_OPERATORS",
    "DEFAULT_WIFI_DIURNAL",
    "DEFAULT_CELL_DIURNAL",
    "DEFAULT_APP_MIX",
]


def _require_finite(profile) -> None:
    """Refuse a profile with a NaN or infinite float field."""
    if not all(math.isfinite(value) for value in astuple(profile)
               if isinstance(value, float)):
        raise ConfigurationError(f"non-finite field in {profile}")


@dataclass(frozen=True)
class OperatorProfile:
    """One cellular operator: market share and log-space offsets."""

    name: str
    share: float
    #: Added to the site's LTE log-median throughput.
    tput_log_offset: float = 0.0
    #: Added to the site's LTE log-median RTT.
    rtt_log_offset: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.share <= 1.0:
            raise ConfigurationError(
                f"operator share out of (0, 1]: {self.name}={self.share}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "share": self.share,
            "tput_log_offset": self.tput_log_offset,
            "rtt_log_offset": self.rtt_log_offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OperatorProfile":
        return cls(
            name=str(data["name"]),
            share=float(data["share"]),
            tput_log_offset=float(data.get("tput_log_offset", 0.0)),
            rtt_log_offset=float(data.get("rtt_log_offset", 0.0)),
        )


#: Three national operators; share-weighted log offsets sum to ~0 so
#: the population LTE median matches the single-operator calibration.
DEFAULT_OPERATORS: Tuple[OperatorProfile, ...] = (
    OperatorProfile("op-A", share=0.45, tput_log_offset=0.12,
                    rtt_log_offset=-0.06),
    OperatorProfile("op-B", share=0.35, tput_log_offset=-0.04,
                    rtt_log_offset=0.03),
    OperatorProfile("op-C", share=0.20, tput_log_offset=-0.20,
                    rtt_log_offset=0.10),
)


@dataclass(frozen=True)
class DiurnalCurve:
    """A 24-hour load cycle applied to link capacity in log space.

    ``log_load(h) = amplitude * cos(2*pi*(h - peak_hour)/24)`` peaks at
    ``peak_hour`` (the busy hour: more load, *less* residual capacity)
    and integrates to zero over a day, so a population whose
    measurement times are uniform in the day sees an unshifted
    log-median.  Capacity multiplier is ``exp(-log_load)``; RTT is
    inflated by ``exp(rtt_coupling * log_load)`` (queues build at the
    busy hour).
    """

    amplitude: float = 0.0
    peak_hour: float = 20.0
    rtt_coupling: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.amplitude < 0:
            raise ConfigurationError(
                f"diurnal amplitude negative: {self.amplitude}"
            )
        if not 0.0 <= self.peak_hour < 24.0:
            raise ConfigurationError(
                f"peak_hour out of [0, 24): {self.peak_hour}"
            )

    def log_load(self, hour: float) -> float:
        if not self.amplitude:
            return 0.0
        return self.amplitude * math.cos(
            2.0 * math.pi * (hour - self.peak_hour) / 24.0
        )

    def capacity_mult(self, hour: float) -> float:
        return math.exp(-self.log_load(hour))

    def rtt_mult(self, hour: float) -> float:
        return math.exp(self.rtt_coupling * self.log_load(hour))

    def to_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "peak_hour": self.peak_hour,
            "rtt_coupling": self.rtt_coupling,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiurnalCurve":
        return cls(
            amplitude=float(data.get("amplitude", 0.0)),
            peak_hour=float(data.get("peak_hour", 20.0)),
            rtt_coupling=float(data.get("rtt_coupling", 0.5)),
        )


#: Residential WiFi: mild evening peak (home congestion at ~21:00).
DEFAULT_WIFI_DIURNAL = DiurnalCurve(amplitude=0.10, peak_hour=21.0)

#: Cellular: stronger daytime/evening cycle (commute + evening load).
DEFAULT_CELL_DIURNAL = DiurnalCurve(amplitude=0.18, peak_hour=19.0)


@dataclass(frozen=True)
class AppProfile:
    """One traffic class of the per-app mix (MopEye framing)."""

    name: str
    weight: float
    down_bytes: int
    up_bytes: int

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.weight <= 0:
            raise ConfigurationError(
                f"app weight must be positive: {self.name}={self.weight}"
            )
        if self.down_bytes <= 0 or self.up_bytes <= 0:
            raise ConfigurationError(
                f"app flow sizes must be positive: {self.name}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "down_bytes": self.down_bytes,
            "up_bytes": self.up_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AppProfile":
        return cls(
            name=str(data["name"]),
            weight=float(data["weight"]),
            down_bytes=int(data["down_bytes"]),
            up_bytes=int(data["up_bytes"]),
        )


#: A smartphone traffic mix: short web/social flows dominate counts,
#: video dominates bytes, uploads stress the uplink.
DEFAULT_APP_MIX: Tuple[AppProfile, ...] = (
    AppProfile("web", weight=0.35, down_bytes=256 * 1024, up_bytes=16 * 1024),
    AppProfile("video", weight=0.25, down_bytes=4 * 1024 * 1024,
               up_bytes=32 * 1024),
    AppProfile("social", weight=0.20, down_bytes=128 * 1024,
               up_bytes=64 * 1024),
    AppProfile("upload", weight=0.10, down_bytes=64 * 1024,
               up_bytes=1024 * 1024),
    AppProfile("voip", weight=0.10, down_bytes=64 * 1024,
               up_bytes=64 * 1024),
)
