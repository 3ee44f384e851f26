"""Tests for the vectorized sampling layer (layer 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.crowd.operators import DiurnalCurve, OperatorProfile
from repro.crowd.sampling import (
    COLUMN_NAMES,
    CrowdRun,
    CrowdSampler,
    PopulationSpec,
    RunColumns,
)
from repro.crowd.tcpmodel import estimate_tcp_throughput_mbps
from repro.crowd.world import TABLE1_SITES, CrowdWorld, _pick
from tests.crowd.test_tcpmodel import _around, _rate_for_bdp


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


def reference_run(sampler: CrowdSampler, user_u, run_u) -> CrowdRun:
    """Run 0 of ``sampler`` from the given uniforms, composed of the
    calls the kernel inlines: the weighted picks, ``world.modifiers``
    and one ``estimate_tcp_throughput_mbps`` per probe."""
    world, pop = sampler.world, sampler.population
    (u_hour, u_geo, v_geo, u_rate, v_rate, u_wifi_up, u_cell_up, u_rtt,
     v_rtt, u_tech, u_single, u_which, u_wifi_fail, u_cell_off, u_wifi,
     v_wifi, u_cell, v_cell, u_ping, v_ping) = run_u
    exp, log, sqrt, cos, sin = math.exp, math.log, math.sqrt, math.cos, math.sin
    two_pi = 2.0 * math.pi

    def normal_pair(scale, u, v):
        radius = scale * sqrt(-2.0 * log(1.0 - u))
        return radius * cos(two_pi * v), radius * sin(two_pi * v)

    site_idx = _pick(sampler._site_cum, user_u[0])
    op_idx = world.pick_operator(user_u[1])
    app_idx = _pick(world._app_cum, user_u[2])
    hour = (user_u[3] * 24.0 + 5.0 * 0 + 3.0 * u_hour - 1.5) % 24.0
    wifi_med, lte_med, wifi_rtt_med, lte_rtt_med = sampler._medians[site_idx]
    wifi_cap, cell_cap, wifi_rtt_m, cell_rtt_m = world.modifiers(op_idx, hour)
    site = sampler._sites[site_idx]
    geo = normal_pair(0.15, u_geo, v_geo)
    rate = normal_pair(world.SIGMA, u_rate, v_rate)
    wifi_down = wifi_med * wifi_cap * exp(rate[0])
    cell_down = lte_med * cell_cap * exp(rate[1])
    wifi_up = wifi_down * (0.35 + 0.45 * u_wifi_up)
    cell_up = (cell_down * (0.3 + 0.4 * u_cell_up)
               * math.exp(world.UPLINK_LTE_TILT))
    rtt = normal_pair(world.RTT_SIGMA, u_rtt, v_rtt)
    wifi_rtt = wifi_rtt_med * wifi_rtt_m * exp(rtt[0])
    cell_rtt = lte_rtt_med * cell_rtt_m * exp(rtt[1])
    tech = 0 if u_tech >= world.NON_LTE_FRACTION else (
        1 if u_tech >= world.NON_LTE_FRACTION / 2.0 else 2)
    if tech == 2:
        cell_down, cell_up, cell_rtt = cell_down * 0.15, cell_up * 0.15, cell_rtt * 2.0
    wifi_down, wifi_up = max(wifi_down, 0.1), max(wifi_up, 0.05)
    cell_down, cell_up = max(cell_down, 0.1), max(cell_up, 0.05)
    wifi_rtt = min(max(5.0, wifi_rtt), 1200.0)
    cell_rtt = min(max(15.0, cell_rtt), 1200.0)
    single = u_single < pop.single_tech_p
    single_cell = single and u_which < 0.5
    wifi_ok = not single_cell and u_wifi_fail >= pop.wifi_failure_p
    cell_ok = (single_cell or not single) and u_cell_off >= pop.cell_disabled_p
    ping = normal_pair(CrowdSampler.PING_AVG_SIGMA, u_ping, v_ping)
    app_bytes = world.apps[app_idx].down_bytes

    def measured(ok, down, up, rtt_ms, u, v, ping_z):
        if not ok:
            return 0.0, 0.0, 0.0, 0.0
        noise = normal_pair(pop.noise_sigma, u, v)
        return (estimate_tcp_throughput_mbps(down, rtt_ms) * exp(noise[0]),
                estimate_tcp_throughput_mbps(up, rtt_ms) * exp(noise[1]),
                rtt_ms * exp(ping_z),
                estimate_tcp_throughput_mbps(down, rtt_ms, app_bytes))

    wifi = measured(wifi_ok, wifi_down, wifi_up, wifi_rtt, u_wifi, v_wifi, ping[0])
    cell = measured(cell_ok, cell_down, cell_up, cell_rtt, u_cell, v_cell, ping[1])
    return CrowdRun(0, site_idx, op_idx, app_idx, hour,
                    site.lat + geo[0], site.lon + geo[1], tech, wifi_ok, cell_ok,
                    wifi[0], wifi[1], cell[0], cell[1], wifi[2], cell[2],
                    wifi[3], cell[3])


def kernel_run(sampler: CrowdSampler, user_u, run_u) -> CrowdRun:
    """Run 0 of ``sampler`` with its block streams replaced by the given
    uniforms."""
    def stream(kind, index, slots):
        return iter(user_u if kind == "users" else run_u).__next__
    sampler._stream = stream
    return sampler.sample_run(0)


@pytest.fixture(scope="module")
def flat_world():
    """One operator with no offsets, no diurnal load: the probe sees the
    site medians themselves when the rate and RTT draws are zero."""
    return CrowdWorld(operators=(OperatorProfile("flat", 1.0),),
                      wifi_diurnal=DiurnalCurve(), cell_diurnal=DiurnalCurve())


UNIFORM = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)


class TestInlinedKernel:
    """The sampler's kernel inlines the weighted picks, the world's
    modifiers and the TCP probes; the calls stay its oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(flat=st.booleans(),
           user_u=st.lists(UNIFORM, min_size=4, max_size=4),
           run_u=st.lists(UNIFORM, min_size=20, max_size=20),
           medians=st.none() | st.tuples(
               st.floats(0.05, 500.0), st.floats(0.05, 500.0),
               st.floats(1.0, 1500.0), st.floats(1.0, 1500.0)))
    def test_run_equals_the_public_calls(self, crowd_world, flat_world, flat,
                                         user_u, run_u, medians):
        sampler = CrowdSampler(flat_world if flat else crowd_world,
                               PopulationSpec(users=1))
        if medians is not None:
            sampler._medians = [medians] * len(sampler._medians)
        assert kernel_run(sampler, user_u, run_u) == (
            reference_run(sampler, user_u, run_u))

    @pytest.mark.parametrize("segments", [10, 20, 40, 80, 160, 320, 640])
    def test_bdp_exactly_on_a_window(self, flat_world, segments):
        # Zero rate and RTT draws, no noise: every link probes its
        # site medians, here a rate one ulp under, on and over the
        # bandwidth-delay product of a window, for every app's size.
        sampler = CrowdSampler(flat_world, PopulationSpec(users=1))
        app_starts = [0.0] + flat_world._app_cum[:-1]
        run_u = [0.5] * 20
        run_u[3] = run_u[7] = run_u[14] = run_u[16] = run_u[18] = 0.0
        for rate in _around(_rate_for_bdp(segments, 80.0)):
            sampler._medians = [(rate, rate, 80.0, 80.0)] * len(sampler._medians)
            for app_idx, u_app in enumerate(app_starts):
                user_u = [0.0, 0.0, u_app, 0.0]
                run = kernel_run(sampler, user_u, run_u)
                assert run == reference_run(sampler, user_u, run_u)
                assert run.app == app_idx and run.wifi_ok and run.cell_ok
                assert run.wifi_down == run.cell_down == (
                    estimate_tcp_throughput_mbps(rate, 80.0))
                assert run.app_wifi_down == run.app_cell_down == (
                    estimate_tcp_throughput_mbps(
                        rate, 80.0, flat_world.apps[app_idx].down_bytes))
