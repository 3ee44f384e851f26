"""Tests for the sharded execution layer (layer 4).

The headline contract: none of ``batch``, ``shard_users``,
``workers``, or ``executor`` can change a crowd-scale result — only
the wall-clock.  Sketch merges are exact, so equality below is
bit-identical dict equality, not approximate.
"""

import io
from dataclasses import replace

import pytest

from repro.core.errors import ConfigurationError
from repro.crowd import pipeline
from repro.crowd.aggregate import CrowdSketch, SketchSink, _SinkBase
from repro.crowd.operators import DEFAULT_OPERATORS
from repro.crowd.pipeline import (
    DEFAULT_BATCH,
    FleetMetrics,
    ShardRecord,
    run_crowd_shard,
    simulate,
)
from repro.crowd.sampling import CrowdSampler, PopulationSpec, RunColumns
from repro.crowd.world import CrowdWorld
from repro.obs.manifest import RunManifest

USERS = 1500


def _simulate(users=USERS, **kwargs):
    kwargs.setdefault("cache", False)
    kwargs.setdefault("executor", "inprocess")
    kwargs.setdefault("workers", 1)
    return simulate(population=PopulationSpec(users=users), **kwargs)


@pytest.fixture(scope="module")
def baseline(crowd_world):
    return _simulate()


class TestDeterminism:
    def test_bit_identical_across_batch_sizes(self, baseline):
        for batch in (64, 333, USERS):
            result = _simulate(batch=batch)
            assert result.sketch == baseline.sketch

    def test_bit_identical_across_shard_counts(self, baseline):
        for shard_users in (200, 700, USERS):
            result = _simulate(shard_users=shard_users)
            assert result.sketch == baseline.sketch
            assert len(result.fleet.shards) == -(-USERS // shard_users)

    def test_bit_identical_across_workers(self, baseline):
        assert _simulate(workers=2).sketch == baseline.sketch

    def test_bit_identical_across_executors(self, baseline):
        result = _simulate(executor="process", workers=2, shard_users=500)
        assert result.sketch == baseline.sketch

    @pytest.mark.parametrize("workers,executor",
                             [(1, "inprocess"), (2, "process")])
    def test_shards_sample_a_passed_world(self, baseline, workers, executor):
        # Every operator a lot faster: a different world, same seed.
        world = CrowdWorld(operators=tuple(
            replace(op, tput_log_offset=op.tput_log_offset + 1.5)
            for op in DEFAULT_OPERATORS
        ))
        by_instance = _simulate(world=world, workers=workers,
                                executor=executor, shard_users=500)
        by_profile = simulate(
            population=PopulationSpec(users=USERS,
                                      world_profile=world.profile_dict()),
            cache=False, executor=executor, workers=workers,
            shard_users=500,
        )
        assert by_instance.sketch == by_profile.sketch
        assert by_instance.population == by_profile.population
        assert by_instance.sketch != baseline.sketch

    def test_a_shard_rebuilds_a_passed_world_from_its_profile(
            self, monkeypatch):
        # What a socket worker does: an empty cache, the world known only
        # by (seed, profile).  Its shard must sample as the instance does.
        world = CrowdWorld(seed=11, operators=tuple(
            replace(op, tput_log_offset=op.tput_log_offset + 1.5)
            for op in DEFAULT_OPERATORS
        ))
        population = PopulationSpec(users=600, seed=11,
                                    world_profile=world.profile_dict())
        on_instance = SketchSink(world, population)
        for cols in CrowdSampler(world, population).batches(0, 600, 256):
            on_instance.consume(cols)
        monkeypatch.setattr(pipeline, "_WORLD_CACHE", {})
        partial = run_crowd_shard(population.to_dict(), 0, 600, batch=256)
        assert pipeline._WORLD_CACHE
        assert next(iter(pipeline._WORLD_CACHE.values())) is not world
        assert partial["sketch"] == on_instance.partial()

    def test_matches_serial_reference(self, baseline):
        # One worker-call over the whole population, no sweep engine.
        partial = run_crowd_shard(
            PopulationSpec(users=USERS).to_dict(), 0, USERS
        )
        assert partial["kind"] == "sketch"
        assert CrowdSketch.from_dict(partial["sketch"]) == baseline.sketch


class TestSinks:
    def test_dataset_sink_equals_unsharded_columns(self, crowd_world):
        # An ordered sink that materializes every run: ordered shards
        # ≡ the serial sampler.
        class RunsSink(_SinkBase):
            ORDERED = True
            kind = "runs"

            def __init__(self, world, population):
                super().__init__(world, population)
                self.runs = []

            def absorb(self, partial):
                self.runs.extend(
                    RunColumns.from_lists(partial).to_measurement_runs())

            def result(self):
                return self.runs

        spec = PopulationSpec(users=400)
        result = simulate(population=spec, sink=RunsSink(crowd_world, spec),
                          shard_users=90, cache=False, executor="inprocess",
                          workers=1)
        expected = CrowdSampler(crowd_world, spec).sample_batch(
            0, 400).to_measurement_runs()
        assert result.value == expected
        assert result.sketch is None

    def test_csv_sink_identical_across_shard_counts(self):
        outputs = []
        for shard_users in (100, 400):
            stream = io.StringIO()
            result = simulate(
                population=PopulationSpec(users=400), sink="csv",
                csv_stream=stream, shard_users=shard_users,
                cache=False, executor="inprocess", workers=1,
            )
            assert result.value == 400
            outputs.append(stream.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 401  # header + one row per run

    def test_csv_sink_requires_stream(self):
        with pytest.raises(ConfigurationError):
            _simulate(users=10, sink="csv")

    def test_unknown_sink_rejected(self):
        for kind in ("parquet", "dataset"):
            with pytest.raises(ConfigurationError):
                _simulate(users=10, sink=kind)


class TestSimulateSurface:
    def test_population_int_coercion(self):
        result = simulate(
            population=300, cache=False, executor="inprocess", workers=1
        )
        assert result.users == 300
        assert result.population == PopulationSpec(users=300)

    def test_requires_population(self):
        with pytest.raises(ConfigurationError):
            simulate()

    def test_rejects_world_and_profile_together(self, crowd_world):
        spec = PopulationSpec(
            users=10, world_profile=crowd_world.profile_dict()
        )
        with pytest.raises(ConfigurationError):
            simulate(world=crowd_world, population=spec)

    def test_rejects_world_of_another_seed(self, crowd_world):
        with pytest.raises(ConfigurationError, match="seed"):
            simulate(world=crowd_world,
                     population=PopulationSpec(users=10, seed=5))

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            _simulate(batch=0)

    def test_result_shape(self, baseline):
        assert baseline.users == USERS
        assert baseline.total_runs == USERS
        assert baseline.batch == DEFAULT_BATCH
        assert baseline.sketch.counters["runs"] == USERS
        assert baseline.users_per_sec > 0
        summary = baseline.summary()
        assert f"{USERS:,} users" in summary
        assert "users/sec" in summary
        assert "LTE wins" in summary

    def test_fleet_metrics_populated(self, baseline):
        fleet = baseline.fleet
        assert fleet.total_units == USERS
        assert fleet.elapsed_s > 0
        assert [record.shard for record in fleet.shards] == list(
            range(len(fleet.shards))
        )
        assert all(r.wall_s > 0 for r in fleet.shards)
        assert fleet.max_queue_depth <= len(fleet.shards) - 1
        # The table is a reduction of the run record, nothing besides.
        assert [r.wall_s for r in fleet.shards] == [
            m.wall_time_s for m in baseline.manifests
        ]
        assert fleet.elapsed_s == baseline.stats.elapsed_s == baseline.wall_s


def _shard_manifest(shard, units, wall_s, resolved_s, cached=False):
    return RunManifest(
        key=f"crowd.crowd.shard.{shard}", spec_hash="ab" * 32, seed=1,
        cache_hit=cached, wall_time_s=wall_s, worker_pid=1, workers=2,
        package_version="1.0.0", resolved_s=resolved_s,
        extra={"units": units},
    )


class TestFleetReduction:
    """``CrowdResult.fleet`` from hand-made manifests (was obs.fleet)."""

    @pytest.fixture()
    def fleet(self):
        # Shard 1 resolved first, then the cached shard 0, then shard 2.
        return FleetMetrics.from_manifests([
            _shard_manifest(0, 500, 0.0, resolved_s=0.5, cached=True),
            _shard_manifest(1, 500, 0.4, resolved_s=0.4),
            _shard_manifest(2, 250, 0.1, resolved_s=0.6),
        ], elapsed_s=0.7)

    def test_queue_depth_follows_completion_order(self, fleet):
        assert [r.queue_depth for r in fleet.shards] == [1, 2, 0]
        assert fleet.max_queue_depth == 2

    def test_records_are_shard_ordered_with_manifest_walls(self, fleet):
        assert [r.shard for r in fleet.shards] == [0, 1, 2]
        assert [r.wall_s for r in fleet.shards] == [0.0, 0.4, 0.1]
        assert [r.cached for r in fleet.shards] == [True, False, False]
        assert fleet.elapsed_s == 0.7

    def test_totals(self, fleet):
        assert fleet.total_units == 1250
        assert [r.units for r in fleet.shards] == [500, 500, 250]

    def test_units_per_sec(self, fleet):
        assert fleet.shards[1].units_per_sec == pytest.approx(1250.0)
        assert fleet.shards[0].units_per_sec == 0.0  # cached: no wall
        record = ShardRecord(shard=0, units=100, wall_s=0.5,
                             cached=False, queue_depth=0)
        assert record.units_per_sec == pytest.approx(200.0)

    def test_files_without_resolved_s_have_no_queue(self):
        fleet = FleetMetrics.from_manifests(
            [_shard_manifest(i, 10, 0.1, resolved_s=0.0) for i in range(3)],
            elapsed_s=0.3,
        )
        assert fleet.max_queue_depth == 0
