"""Streaming aggregation of crowd-scale runs (layer 3).

A :class:`CrowdSketch` is everything the paper's §2 analysis needs,
in O(sketch) memory: quantile sketches for the Fig. 3 throughput-
difference and Fig. 4 RTT-difference CDFs (plus raw per-technology
throughput), and exact labeled counters for run totals, filter drops,
and LTE-win tallies — overall and broken out per site, operator, app,
and technology.  Sketches and counters merge exactly (see
:mod:`repro.analysis.sketch`), so shard partials folded in any order
reproduce the single-stream result bit for bit.

Sinks adapt the pipeline to what the caller wants to keep:

* :class:`SketchSink` (the default) — streaming aggregates only.
* :class:`CsvSink` — streams CSV rows to a file as batches arrive.

Sharded execution serializes a sink's state with
``partial()``/``absorb()``: the worker consumes its cohort into a
fresh sink and ships the partial back; the parent folds partials
together.  ``ORDERED`` sinks (csv) need partials absorbed in shard
order to stay deterministic; the sketch sink does not care.
"""

import csv
from collections import Counter
from typing import Dict, List, Optional, TextIO

from repro.analysis.sketch import LabeledCounters, QuantileSketch
from repro.core.errors import ConfigurationError, json_field, require
from repro.crowd.sampling import PopulationSpec, RunColumns, TECHNOLOGIES
from repro.crowd.world import CrowdWorld

__all__ = [
    "CrowdSketch",
    "SketchSink",
    "CsvSink",
    "make_sink",
    "SINK_KINDS",
]

#: Default relative accuracy of the quantile sketches (0.5 %).
DEFAULT_ALPHA = 0.005

#: Quantile-sketched series, in column terms.  ``*_diff`` follow the
#: paper's convention: WiFi minus LTE, so negative means LTE wins.
SKETCH_NAMES = (
    "up_diff", "down_diff", "rtt_diff",
    "wifi_down", "cell_down", "app_down_diff",
)


class CrowdSketch:
    """Mergeable aggregate of a (partial) crowd-scale simulation."""

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = alpha
        self.sketches: Dict[str, QuantileSketch] = {
            name: QuantileSketch(alpha) for name in SKETCH_NAMES
        }
        self.counters = LabeledCounters()

    # ------------------------------------------------------------------
    def observe_columns(
        self,
        cols: RunColumns,
        site_names: List[str],
        operator_names: List[str],
        app_names: List[str],
    ) -> None:
        """Fold one batch of columns into sketches and counters.

        Only complete, high-speed (LTE/HSPA+) runs enter the paper's
        analysis series — the same §2.2 filters as the Table-1
        dataset; partial and 3G runs are tallied so the filter
        behavior itself stays observable.
        """
        wifi_ok, cell_ok, tech = cols.wifi_ok, cols.cell_ok, cols.tech
        complete = [i for i in range(len(cols)) if wifi_ok[i] and cell_ok[i]]
        keep = [i for i in complete if tech[i] != 2]
        wifi_down = [cols.wifi_down[i] for i in keep]
        cell_down = [cols.cell_down[i] for i in keep]
        series = {
            "down_diff": [w - c for w, c in zip(wifi_down, cell_down)],
            "up_diff": [cols.wifi_up[i] - cols.cell_up[i] for i in keep],
            "rtt_diff": [cols.wifi_rtt[i] - cols.cell_rtt[i] for i in keep],
            "wifi_down": wifi_down,
            "cell_down": cell_down,
            "app_down_diff": [cols.app_wifi_down[i] - cols.app_cell_down[i]
                              for i in keep],
        }
        for name, values in series.items():
            self.sketches[name].add_many(values)

        wins_down = [i for i, d in zip(keep, series["down_diff"]) if d < 0]
        app_wins = [i for i, d in zip(keep, series["app_down_diff"]) if d < 0]
        inc = self.counters.inc
        inc("runs", len(cols))
        for key, count in (
            ("runs_partial", len(cols) - len(complete)),
            ("runs_complete", len(complete)),
            ("runs_filtered_3g", len(complete) - len(keep)),
            ("runs_analysis", len(keep)),
            ("wins_down", len(wins_down)),
            ("wins_up", sum(d < 0 for d in series["up_diff"])),
            ("wins_rtt", sum(d > 0 for d in series["rtt_diff"])),  # lower LTE ping
        ):
            if count:
                inc(key, count)
        # Labelled tallies: count per index, format a key once per label.
        for label, column, rows, names in (
            ("site_runs", cols.site, keep, site_names),
            ("op_runs", cols.operator, keep, operator_names),
            ("app_runs", cols.app, keep, app_names),
            ("tech_runs", tech, keep, TECHNOLOGIES),
            ("site_wins_down", cols.site, wins_down, site_names),
            ("op_wins_down", cols.operator, wins_down, operator_names),
            ("app_wins", cols.app, app_wins, app_names),
        ):
            for index, count in Counter(map(column.__getitem__, rows)).items():
                inc(f"{label}[{names[index]}]", count)

    # -- accessors (the paper's headline statistics) -------------------
    def _fraction(self, numerator: str) -> float:
        return self.counters.fraction(numerator, "runs_analysis")

    def lte_win_fraction_downlink(self) -> float:
        return self._fraction("wins_down")

    def lte_win_fraction_uplink(self) -> float:
        return self._fraction("wins_up")

    def lte_win_fraction_combined(self) -> float:
        total = 2 * self.counters["runs_analysis"]
        if not total:
            return 0.0
        return (self.counters["wins_down"] + self.counters["wins_up"]) / total

    def lte_rtt_win_fraction(self) -> float:
        return self._fraction("wins_rtt")

    def site_win_fraction_downlink(self, site_name: str) -> float:
        return self.counters.fraction(
            f"site_wins_down[{site_name}]", f"site_runs[{site_name}]"
        )

    def quantile(self, name: str, q: float) -> float:
        try:
            return self.sketches[name].quantile(q)
        except KeyError:
            raise ConfigurationError(f"unknown sketch series: {name!r}")

    # -- merge / serialization ----------------------------------------
    def merge(self, other: "CrowdSketch") -> "CrowdSketch":
        for name, sketch in self.sketches.items():
            sketch.merge(other.sketches[name])
        self.counters.merge(other.counters)
        return self

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "sketches": {
                name: sketch.to_dict()
                for name, sketch in sorted(self.sketches.items())
            },
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrowdSketch":
        """Inverse of :meth:`to_dict`; a malformed partial raises
        :class:`ConfigurationError` naming the field."""
        require(isinstance(data, dict), "CrowdSketch",
                f"expected a JSON object, got {type(data).__name__}")
        out = cls(alpha=json_field(data, "alpha", float, "CrowdSketch"))
        sketches = json_field(data, "sketches", dict, "CrowdSketch")
        require(sorted(sketches) == sorted(SKETCH_NAMES), "CrowdSketch",
                f"field 'sketches' holds {sorted(sketches)}")
        out.sketches = {name: QuantileSketch.from_dict(payload)
                        for name, payload in sketches.items()}
        out.counters = LabeledCounters.from_dict(
            json_field(data, "counters", dict, "CrowdSketch"))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrowdSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()


class _SinkBase:
    """Shared naming context every sink needs to interpret columns."""

    #: Ordered sinks need shard partials absorbed in shard order.
    ORDERED = False
    kind = "base"

    def __init__(self, world: CrowdWorld, population: PopulationSpec):
        self.world = world
        self.population = population
        self.site_names = list(population.site_names)
        self.operator_names = [op.name for op in world.operators]
        self.app_names = [app.name for app in world.apps]

    def consume(self, cols: RunColumns) -> None:
        raise NotImplementedError

    def partial(self):
        raise NotImplementedError

    def absorb(self, partial) -> None:
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


class SketchSink(_SinkBase):
    """The default: O(sketch) streaming aggregation."""

    kind = "sketch"

    def __init__(self, world: CrowdWorld, population: PopulationSpec,
                 alpha: float = DEFAULT_ALPHA):
        super().__init__(world, population)
        self.sketch = CrowdSketch(alpha)

    def consume(self, cols: RunColumns) -> None:
        self.sketch.observe_columns(
            cols, self.site_names, self.operator_names, self.app_names
        )

    def partial(self) -> dict:
        return self.sketch.to_dict()

    def absorb(self, partial: dict) -> None:
        self.sketch.merge(CrowdSketch.from_dict(partial))

    def result(self) -> CrowdSketch:
        return self.sketch


class CsvSink(_SinkBase):
    """Stream rows to a CSV file as batches arrive (O(batch) memory)."""

    ORDERED = True
    kind = "csv"

    FIELDS = [
        "user_id", "site", "operator", "app", "hour", "lat", "lon",
        "technology", "wifi_down_mbps", "wifi_up_mbps", "cell_down_mbps",
        "cell_up_mbps", "wifi_rtt_ms", "cell_rtt_ms",
    ]

    def __init__(self, world: CrowdWorld, population: PopulationSpec,
                 stream: TextIO):
        super().__init__(world, population)
        self._writer = csv.writer(stream)
        self._writer.writerow(self.FIELDS)
        self.rows_written = 0

    def consume(self, cols: RunColumns) -> None:
        writerow = self._writer.writerow
        for i in range(len(cols)):
            wifi_ok, cell_ok = cols.wifi_ok[i], cols.cell_ok[i]
            writerow([
                cols.user_id[i],
                self.site_names[cols.site[i]],
                self.operator_names[cols.operator[i]],
                self.app_names[cols.app[i]],
                f"{cols.hour[i]:.2f}",
                f"{cols.lat[i]:.4f}",
                f"{cols.lon[i]:.4f}",
                TECHNOLOGIES[cols.tech[i]] if cell_ok else "",
                f"{cols.wifi_down[i]:.4f}" if wifi_ok else "",
                f"{cols.wifi_up[i]:.4f}" if wifi_ok else "",
                f"{cols.cell_down[i]:.4f}" if cell_ok else "",
                f"{cols.cell_up[i]:.4f}" if cell_ok else "",
                f"{cols.wifi_rtt[i]:.4f}" if wifi_ok else "",
                f"{cols.cell_rtt[i]:.4f}" if cell_ok else "",
            ])
            self.rows_written += 1

    def absorb(self, partial: Dict[str, list]) -> None:
        self.consume(RunColumns.from_lists(partial))

    def result(self) -> int:
        return self.rows_written


SINK_KINDS = ("sketch", "csv")


def make_sink(
    kind: str,
    world: CrowdWorld,
    population: PopulationSpec,
    csv_stream: Optional[TextIO] = None,
    alpha: float = DEFAULT_ALPHA,
) -> _SinkBase:
    """Build a sink by CLI name."""
    if kind == "sketch":
        return SketchSink(world, population, alpha=alpha)
    if kind == "csv":
        if csv_stream is None:
            raise ConfigurationError("csv sink needs an output stream")
        return CsvSink(world, population, csv_stream)
    raise ConfigurationError(
        f"unknown sink {kind!r} (expected one of {', '.join(SINK_KINDS)})"
    )
