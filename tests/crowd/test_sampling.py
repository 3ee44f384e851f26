"""Tests for the vectorized sampling layer (layer 2)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.crowd.sampling import (
    COLUMN_NAMES,
    CrowdSampler,
    PopulationSpec,
    RunColumns,
)
from repro.crowd.world import TABLE1_SITES


def _window(whole: RunColumns, start: int, count: int) -> dict:
    return {name: column[start:start + count]
            for name, column in whole.to_lists().items()}


@pytest.fixture(scope="module")
def sampler(crowd_world):
    return CrowdSampler(crowd_world, PopulationSpec(users=200))


class TestPopulationSpec:
    def test_defaults_cover_table1(self):
        spec = PopulationSpec(users=100)
        assert len(spec.site_names) == 22
        assert spec.total_runs == 100

    def test_total_runs_with_repeats(self):
        assert PopulationSpec(users=10, runs_per_user=3).total_runs == 30

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(users=0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(users=1, runs_per_user=0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(users=1, wifi_failure_p=1.5)
        with pytest.raises(ConfigurationError):
            PopulationSpec(users=1, site_names=("Israel",),
                           site_weights=(1.0, 2.0))

    def test_round_trip(self):
        spec = PopulationSpec(users=50, seed=9, runs_per_user=2,
                              noise_sigma=0.2)
        assert PopulationSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("build", [
        lambda **kw: PopulationSpec(users=1, **kw),
        lambda **kw: PopulationSpec.from_dict(
            {"users": 1, **{k: list(v) for k, v in kw.items()}}),
    ], ids=["constructor", "from_dict"])
    def test_unknown_site_and_negative_weight_rejected(self, build):
        # Regression: an unknown site used to validate and then kill
        # CrowdSampler.__init__ (so a worker shard) with StopIteration.
        with pytest.raises(ConfigurationError, match="site_names.*Atlantis"):
            build(site_names=("Atlantis",), site_weights=(1.0,))
        with pytest.raises(ConfigurationError, match=r"site_weights.*-2\.5"):
            build(site_names=("Israel", "Estonia"), site_weights=(3.0, -2.5))
        with pytest.raises(ConfigurationError, match="site_weights.*nan"):
            build(site_names=("Israel",), site_weights=(float("nan"),))
        build(site_names=("Israel", "Estonia"), site_weights=(1.0, 0.0))


class TestBatchScalarIdentity:
    def test_batch_equals_scalar_reference(self, sampler):
        # The determinism contract's first axis: the batched column
        # path and the one-run scalar path are bit-identical.
        batch = sampler.sample_batch(0, 200)
        for i in range(200):
            assert batch.row(i) == sampler.sample_run(i)

    def test_partition_invariance(self, sampler):
        whole = sampler.sample_batch(0, 200)
        for size in (1, 37, 64, 200):
            rebuilt = RunColumns()
            for part in sampler.batches(0, 200, size):
                rebuilt.extend(part)
            assert rebuilt.to_lists() == whole.to_lists()

    def test_offset_slice_identity(self, sampler):
        whole = sampler.sample_batch(0, 150)
        window = sampler.sample_batch(50, 30)
        for i in range(30):
            assert window.row(i) == whole.row(50 + i)

    def test_batch_clamps_to_population(self, sampler):
        assert len(sampler.sample_batch(190, 50)) == 10
        assert len(sampler.sample_batch(500, 10)) == 0

    def test_invalid_bounds(self, sampler):
        with pytest.raises(ConfigurationError):
            sampler.sample_batch(-1, 10)
        with pytest.raises(ConfigurationError):
            list(sampler.batches(0, 10, 0))


class TestBlockStreams:
    """Runs draw from one seeded stream per 64-run block (users: per
    64-user block), each owning a fixed slice of it — so where a batch
    starts or ends relative to a block can never show in the output."""

    BLOCK = CrowdSampler.BLOCK

    @pytest.fixture(scope="class")
    def whole(self, crowd_world):
        sampler = CrowdSampler(crowd_world, PopulationSpec(users=330))
        return sampler, sampler.sample_batch(0, 330)  # 5 full blocks + 10

    @pytest.mark.parametrize("start", [0, 63, 64, 65, 127, 128, 300])
    @pytest.mark.parametrize("size", [1, 37, 64, 200])
    def test_any_window_is_a_slice_of_the_whole(self, whole, start, size):
        sampler, columns = whole
        assert self.BLOCK == 64  # the starts above sit on its edges
        window = sampler.sample_batch(start, size)
        assert len(window) == min(size, 330 - start)
        assert window.to_lists() == _window(columns, start, size)

    def test_scalar_path_across_block_edges(self, whole):
        sampler, columns = whole
        for edge in (64, 128, 192, 256, 320):
            for index in range(edge - 2, edge + 3):
                assert sampler.sample_run(index) == columns.row(index)

    def test_user_blocks_with_repeated_runs(self, crowd_world):
        # runs_per_user=3: users 63|64 and 127|128 sit on user-block
        # edges that fall inside run blocks (runs 189..194, 381..386),
        # and windows may start in the middle of a user.
        spec = PopulationSpec(users=140, runs_per_user=3)
        sampler = CrowdSampler(crowd_world, spec)
        columns = sampler.sample_batch(0, spec.total_runs)
        for start in (189, 190, 191, 192, 193, 194, 382, 383, 385):
            for size in (1, 2, 5, 70):
                assert sampler.sample_batch(start, size).to_lists() == (
                    _window(columns, start, size)
                )
                assert sampler.sample_run(start) == columns.row(start)

    def test_box_muller_slots_are_standard_normal(self, crowd_world):
        # lat/lon are the site anchor plus 0.15 x the two variates of
        # one Box-Muller pair, so the pair is observable from outside.
        spec = PopulationSpec(users=50_000, seed=5)
        columns = CrowdSampler(crowd_world, spec).sample_batch(0, 50_000)
        sites = {s.name: s for s in TABLE1_SITES}
        anchors = [sites[name] for name in spec.site_names]
        z0 = [(lat - anchors[s].lat) / 0.15
              for lat, s in zip(columns.lat, columns.site)]
        z1 = [(lon - anchors[s].lon) / 0.15
              for lon, s in zip(columns.lon, columns.site)]

        def mean(xs):
            return sum(xs) / len(xs)

        def corr(xs, ys):
            mx, my = mean(xs), mean(ys)
            cov = mean([(x - mx) * (y - my) for x, y in zip(xs, ys)])
            vx = mean([(x - mx) ** 2 for x in xs])
            vy = mean([(y - my) ** 2 for y in ys])
            return cov / (vx * vy) ** 0.5

        for z in (z0, z1):
            assert abs(mean(z)) < 0.02
            assert abs(mean([x * x for x in z]) - mean(z) ** 2 - 1.0) < 0.03
            # Neighbouring runs share a block stream, not a variate.
            assert abs(corr(z[:-1], z[1:])) < 0.02
        assert abs(corr(z0, z1)) < 0.02
        assert abs(corr(z0[:-1], z1[1:])) < 0.02


class TestRunsPerUser:
    def test_user_attributes_stable_across_runs(self, crowd_world):
        # 140 users: two user-block edges (63|64, 127|128) included.
        spec = PopulationSpec(users=140, runs_per_user=3)
        cols = CrowdSampler(crowd_world, spec).sample_batch(0, spec.total_runs)
        for user in range(140):
            rows = [cols.row(user * 3 + k) for k in range(3)]
            assert {r.user_id for r in rows} == {user}
            # Site, operator, and app are user attributes: constant
            # across a user's runs even though conditions vary.
            assert len({r.site for r in rows}) == 1
            assert len({r.operator for r in rows}) == 1
            assert len({r.app for r in rows}) == 1

    def test_distinct_seeds_differ(self, crowd_world):
        a = CrowdSampler(crowd_world, PopulationSpec(users=50, seed=1))
        b = CrowdSampler(crowd_world, PopulationSpec(users=50, seed=2))
        assert a.sample_batch(0, 50).to_lists() != b.sample_batch(0, 50).to_lists()


class TestRunColumns:
    def test_lists_round_trip(self, sampler):
        cols = sampler.sample_batch(0, 30)
        restored = RunColumns.from_lists(cols.to_lists())
        assert restored.to_lists() == cols.to_lists()
        assert set(cols.to_lists()) == set(COLUMN_NAMES)

    def test_value_sanity(self, sampler):
        cols = sampler.sample_batch(0, 200)
        for i in range(len(cols)):
            assert cols.tech[i] in (0, 1, 2)
            assert 0.0 <= cols.hour[i] < 24.0
            if cols.wifi_ok[i]:
                assert cols.wifi_down[i] > 0
                assert cols.wifi_rtt[i] > 0
            else:
                assert cols.wifi_down[i] == 0.0

    def test_to_measurement_runs_respects_availability(self, sampler):
        cols = sampler.sample_batch(0, 200)
        runs = cols.to_measurement_runs()
        assert len(runs) == 200
        for i, run in enumerate(runs):
            if cols.wifi_ok[i]:
                assert run.wifi_down_mbps == cols.wifi_down[i]
            else:
                assert run.wifi_down_mbps is None
            if cols.cell_ok[i]:
                assert run.cell_down_mbps == cols.cell_down[i]
            else:
                assert run.cellular_technology is None
        # Both failure branches must actually occur at this size.
        assert any(not ok for ok in cols.wifi_ok)
        assert any(not ok for ok in cols.cell_ok)
