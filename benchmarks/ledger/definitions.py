"""What the ledger measures: names, units, directions, bounds.

One place for every definition, so the contract file at the repository
root (``BENCHMARK.json``), the printed tables, ``--compare`` and the
README cannot drift apart; ``test_ledger.py`` holds them to each
other.
"""

from typing import Dict, List, NamedTuple, Optional

from tracing import LAYERS, SEAMS
from workloads import WORKLOADS

__all__ = [
    "END_TO_END",
    "EXTRAS",
    "Metric",
    "PER_LAYER",
    "RUN_SECONDS",
    "benchmark_json",
]

#: Seconds of timed passes per run (and the budget the tight-loop
#: legs are scaled from).  114 runs of the acceptance procedure must
#: fit in 3420 s with five set-ups, a warm-up pass and a slow box, so
#: this is 15 (a run takes 18-25 s), not the 20 a quieter box would
#: allow.
RUN_SECONDS = 15


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median it may worsen by (``absolute``
    #: bounds are in the metric's own unit); ``None`` for per-layer.
    bound: Optional[float]
    what: str
    absolute: bool = False
    #: For per-layer metrics: the end-to-end metric it should move.
    moves: str = ""


#: Reported by every workload, tracing off.  Times are priced slice
#: by slice (see stats.py).  The issue asked for 10 % on the timings;
#: on the reference box the quartile spread of ten runs is 2-7 %, and
#: up to 11 % when a slow phase of the box catches three of the ten,
#: and the acceptance procedure wants a bound three times the spread,
#: so they are 25 % (15 % for memory, which moves by 0-4 %).
END_TO_END: List[Metric] = [
    Metric("wall_s", "s", "lower", 0.25,
           "wall of a timed pass, priced slice by slice (plane_sweep: "
           "cold + warm + fleet)"),
    Metric("units_per_s", "1/s", "higher", 0.25,
           "work completed per second of wall_s: transfers, or users "
           "for crowd_stream"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           "max ru_maxrss of the child and of its reaped children"),
    Metric("setup_s", "s", "lower", 0.25,
           "spawn to ready-for-first-pass: interpreter, imports, spec "
           "generation, world calibration, fleet up; median of 5 set-ups"),
]

#: Reported by one workload only (printed and compared by run.py; the
#: contract's flat metric list has no room for per-workload names).
EXTRAS: Dict[str, List[Metric]] = {
    "plane_sweep": [
        Metric("cold_wall_s", "s", "lower", 0.25,
               "process pool x2 into an empty cache"),
        Metric("warm_wall_s", "s", "lower", 0.25,
               "20 re-reads of the full cache"),
        Metric("fleet_wall_s", "s", "lower", 0.25,
               "2-worker socket fleet, cache off"),
        Metric("parallel_efficiency", "ratio", "higher", 0.25,
               "packet_bulk.wall_s / (2 * cold_wall_s): speedup / workers; "
               "null with a reason below 2 usable cores"),
    ],
    "flow_sweep": [
        Metric("model_error_class", "ratio", "lower", 0.02,
               "worst class-mean |flow - packet| / packet, reduced grid",
               absolute=True),
        Metric("model_error_worst", "ratio", "lower", 0.02,
               "worst single-condition |flow - packet| / packet",
               absolute=True),
    ],
    "crowd_stream": [
        Metric("table1_site_error", "ratio", "lower", 0.01,
               "worst per-site |LTE-win fraction - Table 1|",
               absolute=True),
    ],
}

#: Every workload also reports this; 0 is the only acceptable value.
FAILED_FRACTION = Metric(
    "failed_fraction", "ratio", "lower", 0.0,
    "operations failed / attempted (incomplete transfers, task errors, "
    "executor degrade-to-local)", absolute=True)


def _layer(name: str, unit: str, better: str, moves: str = "") -> Metric:
    return Metric(name, unit, better, None, "", moves=moves)


_BULK = "units_per_s @ packet_bulk"
_SHORT = "units_per_s @ packet_short"
_FLOW = "units_per_s @ flow_sweep"
_CROWD = "units_per_s @ crowd_stream"
_COLD = "cold_wall_s @ plane_sweep"
_WARM = "warm_wall_s @ plane_sweep"
_FLEET = "fleet_wall_s @ plane_sweep"

#: Tight-loop legs (legs.py) and the end-to-end metric each should move.
LEG_METRICS: List[Metric] = [
    _layer("core.events.events_per_s", "1/s", "higher",
           f"{_BULK}; {_COLD}; {_FLEET}"),
    _layer("core.events.timer_restarts_per_s", "1/s", "higher", _SHORT),
    _layer("net.link.packets_per_s", "1/s", "higher", _BULK),
    _layer("tcp.segments_per_s", "1/s", "higher", _BULK),
    _layer("tcp.events_per_segment", "count", "lower", _BULK),
    _layer("mptcp.segments_per_s", "1/s", "higher", _BULK),
    _layer("mptcp.events_per_segment", "count", "lower", _BULK),
    _layer("workload.session.open_us", "us", "lower", _SHORT),
    _layer("workload.report.build_us", "us", "lower", _SHORT),
    _layer("obs.metrics.collect_us", "us", "lower", _SHORT),
    _layer("workload.spec.key_us", "us", "lower", f"{_FLOW}; {_WARM}"),
    _layer("workload.spec.roundtrip_us", "us", "lower", f"{_FLOW}; {_WARM}"),
    _layer("workload.report.roundtrip_us", "us", "lower", _WARM),
    _layer("parallel.cache.key_us", "us", "lower", _WARM),
    _layer("flow.engine.transfers_per_s", "1/s", "higher", _FLOW),
    _layer("core.rng.seeds_per_s", "1/s", "higher", _CROWD),
    _layer("crowd.world.build_s", "s", "lower", "setup_s @ crowd_stream"),
    _layer("crowd.sampling.users_per_s", "1/s", "higher", _CROWD),
    _layer("crowd.aggregate.runs_per_s", "1/s", "higher", _CROWD),
    _layer("crowd.aggregate.absorbs_per_s", "1/s", "higher", _CROWD),
    _layer("analysis.sketch.inserts_per_s", "1/s", "higher", _CROWD),
    _layer("analysis.sketch.merges_per_s", "1/s", "higher", _CROWD),
    _layer("analysis.sketch.quantiles_per_s", "1/s", "higher", _CROWD),
    _layer("analysis.sketch.roundtrip_us", "us", "lower", _CROWD),
    _layer("parallel.cache.puts_per_s", "1/s", "higher", _COLD),
    _layer("parallel.cache.hits_per_s", "1/s", "higher", _WARM),
    _layer("parallel.cache.misses_per_s", "1/s", "higher", _COLD),
    _layer("parallel.wire.frames_per_s", "1/s", "higher", _FLEET),
    _layer("parallel.wire.mb_per_s", "MB/s", "higher", _FLEET),
    _layer("parallel.coordinator.task_us.inprocess", "us", "lower", _FLOW),
    _layer("parallel.coordinator.task_us.process", "us", "lower",
           f"{_COLD}; parallel_efficiency"),
    _layer("parallel.executors.pool_spawn_s", "s", "lower", _COLD),
    _layer("parallel.socketexec.task_us", "us", "lower", _FLEET),
    _layer("parallel.supervisor.fleet_up_s", "s", "lower",
           "setup_s @ plane_sweep"),
    _layer("obs.trace.overhead_ratio", "ratio", "lower",
           "nothing when off: the disabled-cost guard"),
    _layer("obs.telemetry.overhead_ratio", "ratio", "lower",
           "nothing when off: the disabled-cost guard"),
]

#: Counters the program already keeps, read off the traced pass.
COUNTER_METRICS: List[Metric] = [
    _layer("tcp.segments_sent", "count", "lower"),
    _layer("tcp.retransmits", "count", "lower"),
    _layer("tcp.timeouts", "count", "lower"),
    _layer("net.queue.drops", "count", "lower"),
    _layer("net.link.delivered_bytes", "count", "lower"),
    _layer("parallel.cache.hits", "count", "higher"),
    _layer("parallel.retries", "count", "lower"),
    _layer("core.events.scheduled", "count", "lower"),
]

#: Everything a ``--trace 1`` run reports, for every workload.
PER_LAYER: List[Metric] = (
    [m for layer in LAYERS for m in (
        _layer(f"{layer}.self_s", "s", "lower"),
        _layer(f"{layer}.calls", "count", "lower"),
    )]
    + [_layer(f"span.{name}_s", "s", "lower") for name, *_ in SEAMS]
    + [_layer(f"span.plane.{leg}_s", "s", "lower")
       for leg in ("cold", "warm", "fleet")]
    + [_layer("trace_overhead_ratio", "ratio", "lower")]
    + COUNTER_METRICS
    + LEG_METRICS
)


def benchmark_json() -> dict:
    """The contract file: exactly the keys the driver reads."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
