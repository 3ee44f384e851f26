"""The registry of 20 emulated network conditions (paper Table 2).

The paper measured at 20 locations across 7 US cities, then reused the
recorded traces as the 20 "network conditions" of the replay study
(§5).  We synthesize 20 conditions whose joint WiFi/LTE statistics are
calibrated against the paper's published aggregates:

* the CDF of ``Tput(WiFi) − Tput(LTE)`` spans roughly −15…+25 Mbit/s
  with LTE winning ~40 % of the time (Figs. 3 and 6);
* LTE RTTs are usually, but not always, higher than WiFi (Fig. 4);
* LTE links carry deep buffers (bufferbloat) and negligible channel
  loss; WiFi links have shallower buffers and bursty contention loss.

Condition IDs follow the paper's presentation convention: IDs 1 and 2
are the strongest WiFi-advantage locations, IDs 3 and 4 the strongest
LTE-advantage ones (cf. Figs. 18 and 20), and 5–20 cover the middle.
"""

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.errors import (
    ConfigurationError,
    checked_kwargs as _checked_kwargs,
    require as _require,
)
from repro.core.rng import DEFAULT_SEED, RngStreams
from repro.linkem.shells import PathSpec

__all__ = [
    "TABLE2_LOCATIONS",
    "ConditionSpec",
    "make_conditions",
]

#: (city, description) rows exactly as printed in the paper's Table 2.
TABLE2_LOCATIONS: List[Tuple[str, str]] = [
    ("Amherst, MA", "University Campus, Indoor"),
    ("Amherst, MA", "University Campus, Outdoor"),
    ("Amherst, MA", "Cafe, Indoor"),
    ("Amherst, MA", "Downtown, Outdoor"),
    ("Amherst, MA", "Apartment, Indoor"),
    ("Boston, MA", "Cafe, Indoor"),
    ("Boston, MA", "Shopping Mall, Indoor"),
    ("Boston, MA", "Subway, Outdoor"),
    ("Boston, MA", "Airport, Indoor"),
    ("Boston, MA", "Apartment, Indoor"),
    ("Boston, MA", "Cafe, Indoor"),
    ("Boston, MA", "Downtown, Outdoor"),
    ("Boston, MA", "Store, Indoor"),
    ("Santa Barbara, CA", "Hotel Lobby, Indoor"),
    ("Santa Barbara, CA", "Hotel Room, Indoor"),
    ("Santa Barbara, CA", "Conference Room, Indoor"),
    ("Los Angeles, CA", "Airport, Indoor"),
    ("Washington, D.C.", "Hotel Room, Indoor"),
    ("Princeton, NJ", "Hotel Room, Indoor"),
    ("Philadelphia, PA", "Hotel Room, Indoor"),
]

#: Locations (by final condition id) where both carriers and both
#: congestion-control algorithms were measured (§3.5: "at 7 of the 20
#: locations").
DUAL_CC_CONDITION_IDS = (1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class ConditionSpec:
    """One emulated measurement location (paper Table 2 row)."""

    condition_id: int
    paths: Tuple[PathSpec, ...]
    city: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        paths = tuple(
            PathSpec.from_dict(p) if isinstance(p, Mapping) else p
            for p in self.paths
        )
        object.__setattr__(self, "paths", paths)
        _require(len(paths) >= 1, "ConditionSpec.paths",
                 "must declare at least one path")
        names = [p.name for p in paths]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        _require(not duplicates, "ConditionSpec.paths",
                 f"duplicate path names: {duplicates}")

    @property
    def path_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.paths)

    def path(self, name: str) -> PathSpec:
        """The interface called ``name``."""
        for path in self.paths:
            if path.name == name:
                return path
        raise ConfigurationError(
            f"condition #{self.condition_id} has no {name!r} path; "
            f"have {list(self.path_names)}"
        )

    @property
    def wifi(self) -> PathSpec:
        return self.path("wifi")

    @property
    def lte(self) -> PathSpec:
        return self.path("lte")

    @property
    def wifi_advantage_mbps(self) -> float:
        """Nominal Tput(WiFi) − Tput(LTE) on the downlink."""
        return self.wifi.down_mbps - self.lte.down_mbps

    def with_path(self, path: PathSpec) -> "ConditionSpec":
        """A copy with the same-named interface replaced by ``path``."""
        self.path(path.name)  # typed error when there is none to replace
        return dataclasses.replace(self, paths=tuple(
            path if p.name == path.name else p for p in self.paths
        ))

    # The identity: benchmarks/ledger/workloads.py (frozen) calls this on
    # registry rows; it goes with the next ``benchmark`` PR.
    @classmethod
    def from_condition(cls, condition: "ConditionSpec") -> "ConditionSpec":
        return condition

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "condition_id": self.condition_id,
            "city": self.city,
            "description": self.description,
            "paths": [p.to_dict() for p in self.paths],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConditionSpec":
        kwargs = _checked_kwargs(cls, data, "ConditionSpec")
        kwargs["paths"] = tuple(
            PathSpec.from_dict(p) for p in kwargs.get("paths", ())
        )
        return cls(**kwargs)


def _lognormal(rng, median: float, sigma: float, lo: float, hi: float) -> float:
    value = median * (2.718281828459045 ** (sigma * rng.gauss(0.0, 1.0)))
    return min(max(value, lo), hi)


def make_conditions(
    seed: int = DEFAULT_SEED,
    count: int = 20,
    trace_driven: bool = False,
    temporal_sigma: float = 0.0,
) -> List[ConditionSpec]:
    """Generate the emulated-location registry.

    Deterministic for a given ``seed``.  With ``trace_driven=True``
    the resulting scenarios use synthesized delivery-opportunity traces
    instead of fixed-rate links (slower but more faithful).
    ``temporal_sigma`` adds run-to-run rate variation (redrawn per
    scenario seed), modelling that the paper's configurations were
    measured at different moments.
    """
    streams = RngStreams(seed).fork("linkem.conditions")
    raw: List[Tuple[float, PathSpec, PathSpec]] = []
    for index in range(count):
        rng = streams.get(f"location.{index}")
        wifi_down = _lognormal(rng, 9.0, 0.85, 0.8, 45.0)
        lte_down = _lognormal(rng, 7.0, 0.70, 0.7, 35.0)
        wifi = PathSpec(
            name="wifi",
            technology="wifi",
            down_mbps=wifi_down,
            up_mbps=max(0.5, wifi_down * rng.uniform(0.35, 0.7)),
            rtt_ms=_lognormal(rng, 30.0, 0.55, 8.0, 350.0),
            loss_rate=rng.choice([0.0, 0.001, 0.002, 0.004, 0.006]),
            queue_packets=rng.choice([100, 150, 250]),
            trace_driven=trace_driven,
            temporal_sigma=temporal_sigma,
        )
        lte = PathSpec(
            name="lte",
            technology="lte",
            down_mbps=lte_down,
            up_mbps=max(0.4, lte_down * rng.uniform(0.3, 0.6)),
            rtt_ms=_lognormal(rng, 90.0, 0.45, 30.0, 450.0),
            loss_rate=rng.choice([0.0, 0.0, 0.0005, 0.001]),
            queue_packets=rng.choice([500, 800, 1200]),
            trace_driven=trace_driven,
            temporal_sigma=temporal_sigma,
        )
        raw.append((wifi.down_mbps - lte.down_mbps, wifi, lte))

    # Paper-style IDs: 1–2 strongest WiFi advantage, 3–4 strongest LTE
    # advantage, 5–20 in descending WiFi-advantage order.
    by_advantage = sorted(raw, key=lambda item: -item[0])
    ordered = (
        by_advantage[:2] + by_advantage[-2:][::-1] + by_advantage[2:-2]
    )
    conditions = []
    for condition_id, (_, wifi, lte) in enumerate(ordered, start=1):
        city, description = TABLE2_LOCATIONS[(condition_id - 1) % len(TABLE2_LOCATIONS)]
        conditions.append(
            ConditionSpec(
                condition_id=condition_id,
                city=city,
                description=description,
                paths=(wifi, lte),
            )
        )
    return conditions
