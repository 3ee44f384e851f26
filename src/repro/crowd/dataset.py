"""Measurement-run records and the dataset container.

A :class:`MeasurementRun` mirrors what the Cell vs WiFi app uploads
after one collection run (Fig. 2 step 4): user id, location, per-
technology throughputs in both directions, average ping RTTs, and the
cellular network type reported by the Android telephony API.  Partial
runs (user disabled cellular data, WiFi association failed, …) carry
``None`` in the missing fields and are removed by the same filters the
paper applies in §2.2.
"""

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.crowd.geo import GeoPoint

__all__ = ["MeasurementRun", "Dataset"]

#: Network types the paper's filter treats as "LTE or an equivalent
#: high-speed cellular network".
HIGH_SPEED_CELL_TYPES = ("LTE", "HSPA+")


@dataclass
class MeasurementRun:
    """One upload from one user of the measurement app."""

    user_id: int
    point: GeoPoint
    timestamp: float
    cellular_technology: Optional[str] = None
    wifi_down_mbps: Optional[float] = None
    wifi_up_mbps: Optional[float] = None
    cell_down_mbps: Optional[float] = None
    cell_up_mbps: Optional[float] = None
    wifi_rtt_ms: Optional[float] = None
    cell_rtt_ms: Optional[float] = None

    @property
    def measured_wifi(self) -> bool:
        return self.wifi_down_mbps is not None and self.wifi_up_mbps is not None

    @property
    def measured_cell(self) -> bool:
        return self.cell_down_mbps is not None and self.cell_up_mbps is not None

    @property
    def complete(self) -> bool:
        """Both technologies measured in both directions."""
        return self.measured_wifi and self.measured_cell

    @property
    def is_high_speed_cell(self) -> bool:
        return self.cellular_technology in HIGH_SPEED_CELL_TYPES

    def downlink_diff_mbps(self) -> float:
        """Tput(WiFi) − Tput(LTE) on the downlink (Fig. 3b)."""
        assert self.wifi_down_mbps is not None and self.cell_down_mbps is not None
        return self.wifi_down_mbps - self.cell_down_mbps

    def uplink_diff_mbps(self) -> float:
        """Tput(WiFi) − Tput(LTE) on the uplink (Fig. 3a)."""
        assert self.wifi_up_mbps is not None and self.cell_up_mbps is not None
        return self.wifi_up_mbps - self.cell_up_mbps

    def rtt_diff_ms(self) -> float:
        """RTT(WiFi) − RTT(LTE) (Fig. 4)."""
        assert self.wifi_rtt_ms is not None and self.cell_rtt_ms is not None
        return self.wifi_rtt_ms - self.cell_rtt_ms

    @property
    def lte_wins_downlink(self) -> bool:
        return self.downlink_diff_mbps() < 0

    @property
    def lte_wins_uplink(self) -> bool:
        return self.uplink_diff_mbps() < 0


class Dataset:
    """A collection of measurement runs with the paper's filters."""

    def __init__(self, runs: Iterable[MeasurementRun]):
        self.runs: List[MeasurementRun] = list(runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[MeasurementRun]:
        return iter(self.runs)

    def filter_complete(self) -> "Dataset":
        """Keep runs that measured both WiFi and cellular (§2.2)."""
        return Dataset(run for run in self.runs if run.complete)

    def filter_high_speed_cell(self) -> "Dataset":
        """Keep LTE/HSPA+ runs, per the Android network-type API check."""
        return Dataset(run for run in self.runs if run.is_high_speed_cell)

    def analysis_set(self) -> "Dataset":
        """Both filters, in the paper's order."""
        return self.filter_complete().filter_high_speed_cell()

    # -- column extractors ------------------------------------------------
    def downlink_diffs(self) -> List[float]:
        return [run.downlink_diff_mbps() for run in self.runs]

    def uplink_diffs(self) -> List[float]:
        return [run.uplink_diff_mbps() for run in self.runs]

    def rtt_diffs(self) -> List[float]:
        return [run.rtt_diff_ms() for run in self.runs]

    def lte_win_fraction_downlink(self) -> float:
        if not self.runs:
            return 0.0
        return sum(run.lte_wins_downlink for run in self.runs) / len(self.runs)

    def lte_win_fraction_uplink(self) -> float:
        if not self.runs:
            return 0.0
        return sum(run.lte_wins_uplink for run in self.runs) / len(self.runs)

    def lte_win_fraction_combined(self) -> float:
        """Uplink and downlink samples pooled (the paper's 40 % headline)."""
        if not self.runs:
            return 0.0
        wins = sum(run.lte_wins_downlink for run in self.runs)
        wins += sum(run.lte_wins_uplink for run in self.runs)
        return wins / (2 * len(self.runs))

    # -- serialization -----------------------------------------------------
    CSV_FIELDS = [
        "user_id", "lat", "lon", "timestamp", "cellular_technology",
        "wifi_down_mbps", "wifi_up_mbps", "cell_down_mbps", "cell_up_mbps",
        "wifi_rtt_ms", "cell_rtt_ms",
    ]

    def to_csv(self) -> str:
        """Serialize as CSV (the release format of the paper's dataset)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.CSV_FIELDS)
        writer.writeheader()
        for run in self.runs:
            writer.writerow({
                "user_id": run.user_id,
                "lat": run.point.lat,
                "lon": run.point.lon,
                "timestamp": run.timestamp,
                "cellular_technology": run.cellular_technology or "",
                "wifi_down_mbps": _fmt(run.wifi_down_mbps),
                "wifi_up_mbps": _fmt(run.wifi_up_mbps),
                "cell_down_mbps": _fmt(run.cell_down_mbps),
                "cell_up_mbps": _fmt(run.cell_up_mbps),
                "wifi_rtt_ms": _fmt(run.wifi_rtt_ms),
                "cell_rtt_ms": _fmt(run.cell_rtt_ms),
            })
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        """Parse a dataset previously produced by :meth:`to_csv`."""
        reader = csv.DictReader(io.StringIO(text))
        runs = []
        for row in reader:
            runs.append(MeasurementRun(
                user_id=int(row["user_id"]),
                point=GeoPoint(float(row["lat"]), float(row["lon"])),
                timestamp=float(row["timestamp"]),
                cellular_technology=row["cellular_technology"] or None,
                wifi_down_mbps=_parse(row["wifi_down_mbps"]),
                wifi_up_mbps=_parse(row["wifi_up_mbps"]),
                cell_down_mbps=_parse(row["cell_down_mbps"]),
                cell_up_mbps=_parse(row["cell_up_mbps"]),
                wifi_rtt_ms=_parse(row["wifi_rtt_ms"]),
                cell_rtt_ms=_parse(row["cell_rtt_ms"]),
            ))
        return cls(runs)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def _parse(text: str) -> Optional[float]:
    return float(text) if text else None
