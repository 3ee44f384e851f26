"""Sharded crowd-scale execution (layer 4) behind ``simulate()``.

``simulate(world, population, sink=...)`` chunks the population into
deterministic user-cohort shards, runs each shard through the
existing :class:`~repro.parallel.SweepRunner` machinery (any executor
backend, any worker count, cached, retried, manifested), and folds
the per-shard partials back into the caller's sink as they stream in
via ``on_result``.

Memory is O(sketch + one batch) end to end for the default sketch
sink: a worker samples its cohort in column batches, folds each batch
into a fresh :class:`~repro.crowd.aggregate.CrowdSketch`, and ships
only the sketch home.  Because sketch and counter merges are exact
and partition-independent (see :mod:`repro.analysis.sketch`), the
final aggregate is bit-identical for any batch size, shard size,
executor backend, or worker count — asserted by
``tests/crowd/test_pipeline.py``.

Ordered sinks (csv) receive shard partials in shard order — the
pipeline buffers the occasional out-of-order arrival — so their
output equals the serial run too, at O(shard) memory cost.
"""

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.errors import ConfigurationError
from repro.core.rng import DEFAULT_SEED
from repro.crowd.aggregate import (
    CrowdSketch,
    DEFAULT_ALPHA,
    SketchSink,
    _SinkBase,
    make_sink,
)
from repro.crowd.dataset import MeasurementRun
from repro.crowd.sampling import CrowdSampler, PopulationSpec
from repro.crowd.world import TABLE1_SITES, CrowdWorld
from repro.obs.manifest import RunManifest, outstanding
from repro.obs.telemetry import active_bus
from repro.parallel import SimTask, SweepRunner, SweepStats, resolve_workers

__all__ = ["simulate", "run_crowd_shard", "table1_runs", "CrowdResult",
           "DEFAULT_BATCH"]

#: Default sampling batch: large enough to amortize the Python loop,
#: small enough that a batch of ~18 columns stays in cache.
DEFAULT_BATCH = 8192

#: Worker-side world cache: CrowdWorld construction includes the
#: Table-1 Monte-Carlo calibration (0.2–0.4 s on one slow vCPU), so pool
#: workers build each distinct (seed, profile) world once and reuse it
#: across shards.
_WORLD_CACHE: Dict[str, CrowdWorld] = {}


def _world_for(population: PopulationSpec) -> CrowdWorld:
    import json

    key = json.dumps(
        {"seed": population.seed, "profile": population.world_profile},
        sort_keys=True,
    )
    world = _WORLD_CACHE.get(key)
    if world is None:
        world = CrowdWorld.from_profile_dict(
            population.world_profile, seed=population.seed
        )
        _WORLD_CACHE[key] = world
    return world


def run_crowd_shard(
    population: dict,
    start: int,
    count: int,
    batch: int = DEFAULT_BATCH,
    sink: str = "sketch",
    alpha: float = DEFAULT_ALPHA,
    seed: Optional[int] = None,
) -> dict:
    """Worker entry point: sample one cohort, return its partial.

    ``seed`` mirrors ``population["seed"]`` so the sweep engine's
    seed-derivation contract is explicit in the task spec; the
    population's seed is authoritative.  The sketch sink returns the
    mergeable sketch dict; ordered sinks return raw columns.
    """
    spec = PopulationSpec.from_dict(population)
    world = _world_for(spec)
    sampler = CrowdSampler(world, spec)
    if sink == "sketch":
        shard_sink = SketchSink(world, spec, alpha=alpha)
        for cols in sampler.batches(start, count, batch):
            shard_sink.consume(cols)
        return {"kind": "sketch", "units": count,
                "sketch": shard_sink.partial()}
    # Ordered sinks: ship compact columns; the parent materializes.
    columns = sampler.sample_batch(start, count)
    return {"kind": "columns", "units": count,
            "columns": columns.to_lists()}


#: The population the Table-1 prefix is read from.  Its size only
#: bounds the scan: the default seeds fill every site within ~5k runs.
TABLE1_POPULATION_USERS = 1 << 20
#: Batch the prefix is sampled in; it never changes which runs are kept.
TABLE1_BATCH = 1024


def table1_runs(seed: int = DEFAULT_SEED,
                site_names: Optional[Sequence[str]] = None
                ) -> List[MeasurementRun]:
    """The paper's §2 dataset: a quota-thinned prefix of the crowd.

    Walks the runs of the default ``PopulationSpec(seed=seed)`` in
    index order and keeps each one unless its site is not requested
    (``site_names``, default all of Table 1) or already holds its
    Table-1 count of usable runs — complete and LTE/HSPA+, the runs the
    §2.2 filters keep.  It stops when every requested site is full, so
    the analysis set has exactly the paper's per-site counts, and the
    partial and 3G runs drawn on the way stay in for the filters to
    remove.  A site's quota sees only that site's runs, so any site
    subset keeps the same runs of its sites as the full list does.
    """
    runs_of = {site.name: site.runs for site in TABLE1_SITES}
    unknown = [name for name in site_names or () if name not in runs_of]
    if unknown:
        raise ConfigurationError(f"unknown Table-1 sites: {unknown}")
    quota = {name: runs_of[name]
             for name in (runs_of if site_names is None else site_names)}
    population = PopulationSpec(users=TABLE1_POPULATION_USERS, seed=seed)
    sampler = CrowdSampler(_world_for(population), population)
    names = population.site_names
    kept: List[MeasurementRun] = []
    for cols in sampler.batches(0, population.total_runs, TABLE1_BATCH):
        for site, run in zip(cols.site, cols.to_measurement_runs()):
            name = names[site]
            if quota.get(name):
                kept.append(run)
                quota[name] -= run.complete and run.is_high_speed_cell
        if not any(quota.values()):
            return kept
    raise ConfigurationError(
        f"Table-1 quotas not filled within {population.total_runs} runs"
    )


@dataclass
class ShardRecord:
    """One shard's execution, read off its manifest."""

    shard: int
    units: int
    wall_s: float
    cached: bool
    #: Shards still outstanding when this one resolved (queue depth).
    queue_depth: int

    @property
    def units_per_sec(self) -> float:
        return self.units / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class FleetMetrics:
    """The per-shard picture of one crowd sweep, in shard order."""

    shards: List[ShardRecord]
    elapsed_s: float

    @classmethod
    def from_manifests(cls, manifests: List[RunManifest],
                       elapsed_s: float) -> "FleetMetrics":
        return cls(
            shards=[
                ShardRecord(shard, manifest.extra["units"],
                            manifest.wall_time_s, manifest.cache_hit, depth)
                for shard, (manifest, depth)
                in enumerate(zip(manifests, outstanding(manifests)))
            ],
            elapsed_s=elapsed_s,
        )

    @property
    def total_units(self) -> int:
        return sum(record.units for record in self.shards)

    @property
    def max_queue_depth(self) -> int:
        return max((r.queue_depth for r in self.shards), default=0)


@dataclass
class CrowdResult:
    """What ``simulate`` hands back."""

    population: PopulationSpec
    sink_kind: str
    value: Any
    sketch: Optional[CrowdSketch]
    #: The sweep's run record, one per shard (``extra["units"]`` is the
    #: shard's cohort size); ``--metrics-out`` writes exactly this.
    manifests: List[RunManifest]
    stats: SweepStats
    shard_users: int
    batch: int

    @property
    def fleet(self) -> FleetMetrics:
        return FleetMetrics.from_manifests(self.manifests,
                                           self.stats.elapsed_s)

    @property
    def users(self) -> int:
        return self.population.users

    @property
    def total_runs(self) -> int:
        return self.population.total_runs

    @property
    def wall_s(self) -> float:
        return self.stats.elapsed_s

    @property
    def users_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.population.users / self.wall_s

    def summary(self) -> str:
        text = (
            f"{self.users:,} users ({self.total_runs:,} runs) in "
            f"{self.wall_s:.1f}s — {self.users_per_sec:,.0f} users/sec "
            f"across {len(self.manifests)} shards "
            f"[{self.stats.executor}, {self.stats.workers} worker"
            f"{'s' if self.stats.workers != 1 else ''}]"
        )
        if self.sketch is not None:
            text += (
                f"\nLTE wins: downlink "
                f"{100 * self.sketch.lte_win_fraction_downlink():.1f}%  "
                f"uplink {100 * self.sketch.lte_win_fraction_uplink():.1f}%  "
                f"combined "
                f"{100 * self.sketch.lte_win_fraction_combined():.1f}%  "
                f"(lower RTT: "
                f"{100 * self.sketch.lte_rtt_win_fraction():.1f}%)"
            )
        return text


def simulate(
    world: Optional[CrowdWorld] = None,
    population: Union[PopulationSpec, int, None] = None,
    *,
    sink: Union[_SinkBase, str, None] = None,
    batch: int = DEFAULT_BATCH,
    shard_users: Optional[int] = None,
    workers: Optional[int] = None,
    executor=None,
    progress=None,
    cache=None,
    alpha: float = DEFAULT_ALPHA,
    label: str = "crowd",
    csv_stream=None,
) -> CrowdResult:
    """Run a crowd-scale simulation through the sharded pipeline.

    Parameters mirror the sweep engine where they overlap:
    ``workers``/``executor``/``progress``/``cache`` go straight to
    :class:`~repro.parallel.SweepRunner`.  ``batch`` is the sampling
    batch inside a worker; ``shard_users`` the cohort size per shard
    (default: sized so ~4 shards per worker, never below ``batch``).
    ``sink`` is a sink instance, a kind name (``"sketch"``, ``"csv"``
    — csv needs ``csv_stream``), or ``None`` for the streaming sketch
    sink.  A ``world`` must share the population's seed; the run is
    then the one whose population carries ``world.profile_dict()``
    (and so is ``result.population``).

    None of ``batch``, ``shard_users``, ``workers``, or ``executor``
    can change the result — only the wall-clock.
    """
    if population is None:
        raise ConfigurationError("simulate needs a population")
    if isinstance(population, int):
        population = PopulationSpec(users=population)
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1: {batch}")
    if world is None:
        world = _world_for(population)
    elif population.world_profile is not None:
        raise ConfigurationError(
            "pass heterogeneity either as a CrowdWorld instance or as "
            "population.world_profile, not both"
        )
    elif world.seed != population.seed:
        raise ConfigurationError(
            f"world seed {world.seed} differs from population seed "
            f"{population.seed}; shards build their world from the latter"
        )
    else:
        # A shard rebuilds its world from (seed, profile) in whatever
        # process runs it, so the instance travels as its profile.
        population = replace(population, world_profile=world.profile_dict())

    if sink is None:
        sink = SketchSink(world, population, alpha=alpha)
    elif isinstance(sink, str):
        sink = make_sink(sink, world, population, csv_stream=csv_stream,
                         alpha=alpha)
    sink_kind = sink.kind

    total = population.total_runs
    workers = resolve_workers(workers)
    if shard_users is None:
        target_shards = max(1, min(256, workers * 4))
        shard_users = max(batch, math.ceil(total / target_shards))
    if shard_users < 1:
        raise ConfigurationError(f"shard_users must be >= 1: {shard_users}")
    nshards = max(1, math.ceil(total / shard_users))

    payload = population.to_dict()
    tasks = [
        SimTask(
            fn="repro.crowd.pipeline:run_crowd_shard",
            kwargs={
                "population": payload,
                "start": index * shard_users,
                "count": min(shard_users, total - index * shard_users),
                "batch": batch,
                "sink": "sketch" if sink_kind == "sketch" else "columns",
                "alpha": alpha,
                "seed": population.seed,
            },
            key=f"crowd.{label}.shard.{index}",
        )
        for index in range(nshards)
    ]

    pending: Dict[int, dict] = {}
    next_ordered = [0]
    bus = active_bus()

    def on_result(index: int, task: SimTask, value: dict,
                  cached: bool) -> None:
        if bus is not None:
            bus.count("crowd.users_done", value["units"])
        if not sink.ORDERED:
            _absorb(sink, value)
            return
        # Ordered sinks: flush contiguously from the next expected
        # shard; out-of-order arrivals wait in `pending`.
        pending[index] = value
        while next_ordered[0] in pending:
            _absorb(sink, pending.pop(next_ordered[0]))
            next_ordered[0] += 1

    runner = SweepRunner(
        workers=workers,
        cache=cache,
        seed=population.seed,
        progress=progress,
        executor=executor,
        on_result=on_result,
    )
    runner.run(tasks)
    for task, manifest in zip(tasks, runner.last_manifests):
        manifest.extra["units"] = task.kwargs["count"]

    return CrowdResult(
        population=population,
        sink_kind=sink_kind,
        value=sink.result(),
        sketch=sink.sketch if isinstance(sink, SketchSink) else None,
        manifests=runner.last_manifests,
        stats=runner.last_stats,
        shard_users=shard_users,
        batch=batch,
    )


def _absorb(sink: _SinkBase, value: dict) -> None:
    if value["kind"] == "sketch":
        sink.absorb(value["sketch"])
    else:
        sink.absorb(value["columns"])
