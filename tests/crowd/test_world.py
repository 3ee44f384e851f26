"""Tests for the synthetic world model behind the crowd dataset."""

import functools
import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import DEFAULT_SEED
from repro.crowd import world as world_module
from repro.crowd.dataset import Dataset
from repro.crowd.operators import AppProfile, DiurnalCurve, OperatorProfile
from repro.crowd.sampling import COLUMN_NAMES, CrowdSampler, PopulationSpec, RunColumns
from repro.crowd.tcpmodel import estimate_tcp_throughput_mbps
from repro.crowd.world import NOISE_SIGMA, TABLE1_SITES, CrowdWorld

#: sha256 of both calibration passes' medians, every site, to the bit.
#: A change to how the calibration arithmetic is evaluated must leave
#: these alone; they read the same on CPython 3.10 to 3.13.
CALIBRATION_DIGESTS = {
    DEFAULT_SEED:
        "246d1c16cbdb1e76f2dd3914ecfa54b355bfca39edcc57421b78dd47fc4df24b",
    7: "42998687d9858cc8a9fb8e6256b57cb534c2f564dde23bc1a5ca6a26399a0b9d",
    11: "9f64b1bc2d8e16b71bf07e32a3e12d9d4ddb6d8999c278553506129ff49dedc9",
}


#: sha256 of the medians of a non-default profile: two operators, a
#: two-app mix and a zero-amplitude WiFi curve (``DiurnalCurve.log_load``
#: returns ``0.0`` for it; no default-profile digest has one), taken
#: while the calibration still called ``log_load``.
PROFILE_WORLD = dict(
    seed=5,
    operators=(OperatorProfile("op-X", 0.6, 0.1, -0.05),
               OperatorProfile("op-Y", 0.4, -0.15, 0.08)),
    wifi_diurnal=DiurnalCurve(amplitude=0.0),
    cell_diurnal=DiurnalCurve(amplitude=0.25, peak_hour=18.0, rtt_coupling=0.7),
    apps=(AppProfile("web", 0.7, 256 * 1024, 16 * 1024),
          AppProfile("video", 0.3, 8 * 1024 * 1024, 64 * 1024)),
)
PROFILE_DIGEST = (
    "4d9115aebca69e739b58e1baba831b73fd276524e53fdc1f53a08fc6a4e496ea")


#: sha256 of all 18 sampler columns of the first 20000 runs of a
#: 20000-user population at the world's seed.  The crowd digests CI
#: takes are over sketches with 0.5 % buckets, blind to a one-ulp drift
#: in a column; these are not.
COLUMN_DIGESTS = {
    DEFAULT_SEED:
        "0ec9ff4299d2c0f68fa253677c3d3e2f198332e240806a00f424d88b8edbb475",
    7: "7eb25a3f5c6be6ea4b65585c813a59e911c4dd181c011d485229fb85d69b3bed",
    11: "b0b4a9f384e4ab3a9c2b80c1d4d8bf02e75244ef55ecbed64df0fb9ea4241713",
}


def calibration_digest(world: CrowdWorld) -> str:
    medians = (sorted(world._site_params.items()),
               sorted(world._crowd_params.items()))
    return hashlib.sha256(repr(medians).encode()).hexdigest()


def column_digest(world: CrowdWorld) -> str:
    population = PopulationSpec(users=20000, seed=world.seed)
    columns = CrowdSampler(world, population).sample_batch(0, 20000)
    return hashlib.sha256(repr(
        [getattr(columns, name) for name in COLUMN_NAMES]).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _seeded_world(seed: int) -> CrowdWorld:
    return CrowdWorld(seed)


class TestTable1Data:
    def test_has_22_sites(self):
        assert len(TABLE1_SITES) == 22

    def test_boston_is_largest(self):
        largest = max(TABLE1_SITES, key=lambda s: s.runs)
        assert "Boston" in largest.name
        assert largest.runs == 884

    def test_win_fractions_in_range(self):
        assert all(0.0 <= s.lte_win_fraction <= 1.0 for s in TABLE1_SITES)

    def test_spain_and_phichit_are_80_percent(self):
        by_name = {s.name: s for s in TABLE1_SITES}
        assert by_name["Spain"].lte_win_fraction == 0.80
        assert by_name["Thailand (Phichit)"].lte_win_fraction == 0.80


def site_runs(world: CrowdWorld, site, count: int) -> RunColumns:
    """``count`` runs of a population living at ``site`` alone."""
    population = PopulationSpec(users=count, seed=world.seed,
                                site_names=(site.name,), site_weights=(1.0,))
    return CrowdSampler(world, population).sample_batch(0, count)


class TestWorldModel:
    def test_draws_deterministic(self, crowd_world):
        site = TABLE1_SITES[0]
        world_a = CrowdWorld(seed=11)
        world_b = CrowdWorld(seed=11)
        assert world_a.site_medians(site.name) == (
            world_b.site_medians(site.name)
        )
        a = site_runs(world_a, site, 5)
        assert a.to_lists() == site_runs(world_b, site, 5).to_lists()
        assert a.to_lists() != site_runs(crowd_world, site, 5).to_lists()

    def test_runs_jitter_around_site(self, crowd_world):
        site = TABLE1_SITES[0]
        runs = site_runs(crowd_world, site, 500).to_measurement_runs()
        assert all(site.point.distance_km(r.point) < 100 for r in runs)
        assert len({(r.point.lat, r.point.lon) for r in runs}) == len(runs)

    def test_calibration_matches_table1_win_rates(self, crowd_world):
        """The *measured* (1 MB TCP) LTE-win fraction per site tracks
        Table 1 — the core calibration contract."""
        for site in [s for s in TABLE1_SITES if s.runs >= 100]:
            runs = Dataset(
                site_runs(crowd_world, site, 600).to_measurement_runs()
            ).analysis_set()
            assert runs.lte_win_fraction_downlink() == pytest.approx(
                site.lte_win_fraction, abs=0.12
            ), site.name

    def test_non_lte_fraction_roughly_matches(self, crowd_world):
        tech = site_runs(crowd_world, TABLE1_SITES[0], 2000).tech
        non_lte = sum(1 for t in tech if t != 0) / len(tech)
        assert non_lte == pytest.approx(CrowdWorld.NON_LTE_FRACTION,
                                        abs=0.03)

    def test_3g_is_much_slower(self, crowd_world):
        cols = site_runs(crowd_world, TABLE1_SITES[0], 2000)
        lte = [down for down, tech, ok
               in zip(cols.cell_down, cols.tech, cols.cell_ok)
               if ok and tech == 0]
        g3 = [down for down, tech, ok
              in zip(cols.cell_down, cols.tech, cols.cell_ok)
              if ok and tech == 2]
        assert sum(g3) / len(g3) < sum(lte) / len(lte) / 2


class TestCalibrationDigest:
    @pytest.mark.parametrize("seed", sorted(CALIBRATION_DIGESTS))
    def test_medians_are_pinned(self, seed, crowd_world):
        world = crowd_world if seed == DEFAULT_SEED else _seeded_world(seed)
        assert calibration_digest(world) == CALIBRATION_DIGESTS[seed]

    def test_non_default_profile_medians_are_pinned(self):
        assert calibration_digest(CrowdWorld(**PROFILE_WORLD)) == PROFILE_DIGEST

    @pytest.mark.parametrize("seed", sorted(COLUMN_DIGESTS))
    def test_sampler_columns_are_pinned(self, seed, crowd_world):
        world = crowd_world if seed == DEFAULT_SEED else _seeded_world(seed)
        assert column_digest(world) == COLUMN_DIGESTS[seed]


def bare_world(**profile) -> CrowdWorld:
    """A world's tables for ``profile``, with no site to calibrate."""
    with mock.patch.object(world_module, "TABLE1_SITES", []):
        return CrowdWorld(**profile)


# The row builders the inlined ones replaced, kept as their oracle:
# rng.gauss, pick_operator, modifiers and the public TCP estimator.
def reference_base_rows(world, rng, draws, wifi_median, wifi_rtt_median):
    rows = []
    for _ in range(draws):
        w_mult, l_mult, w_rtt_m, l_rtt_m, w_noise, l_noise = (
            math.exp(world.SIGMA * rng.gauss(0, 1)),
            math.exp(world.SIGMA * rng.gauss(0, 1)),
            math.exp(world.RTT_SIGMA * rng.gauss(0, 1)),
            math.exp(world.RTT_SIGMA * rng.gauss(0, 1)),
            math.exp(NOISE_SIGMA * rng.gauss(0, 1)),
            math.exp(NOISE_SIGMA * rng.gauss(0, 1)),
        )
        wifi_meas = estimate_tcp_throughput_mbps(
            wifi_median * w_mult, wifi_rtt_median * w_rtt_m
        ) * w_noise
        rows.append((l_mult, l_rtt_m, l_noise, wifi_meas))
    return rows


def reference_crowd_rows(world, rng, draws, wifi_med, wifi_rtt_med):
    exp = math.exp
    sigma, rtt_sigma = world.SIGMA, world.RTT_SIGMA
    noise = NOISE_SIGMA
    rows = []
    for _ in range(draws):
        op_idx = world.pick_operator(rng.random())
        hour = rng.random() * 24.0
        w_cap, c_cap, w_rtt_m, c_rtt_m = world.modifiers(op_idx, hour)
        wifi_rate = max(0.1, wifi_med * w_cap * exp(sigma * rng.gauss(0, 1)))
        cell_mult = c_cap * exp(sigma * rng.gauss(0, 1))
        wifi_rtt = min(max(
            5.0, wifi_rtt_med * w_rtt_m * exp(rtt_sigma * rng.gauss(0, 1))
        ), 1200.0)
        cell_rtt_mult = c_rtt_m * exp(rtt_sigma * rng.gauss(0, 1))
        wifi_meas = (
            estimate_tcp_throughput_mbps(wifi_rate, wifi_rtt)
            * exp(noise * rng.gauss(0, 1))
        )
        rows.append((cell_mult, cell_rtt_mult,
                     exp(noise * rng.gauss(0, 1)), wifi_meas))
    return rows


OPERATORS = st.lists(
    st.builds(OperatorProfile, name=st.just("op"),
              share=st.floats(0.01, 1.0),
              tput_log_offset=st.floats(-1.0, 1.0),
              rtt_log_offset=st.floats(-1.0, 1.0)),
    min_size=1, max_size=4).map(tuple)
CURVES = st.builds(
    DiurnalCurve, amplitude=st.just(0.0) | st.floats(0.0, 1.0),
    peak_hour=st.floats(0.0, 24.0, exclude_max=True),
    rtt_coupling=st.floats(-2.0, 2.0))


class TestInlinedRows:
    """Both calibration passes build their rows inline; the calls they
    stand for stay the oracle, value for value and to the bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64), crowd=st.booleans(),
           operators=OPERATORS, wifi_diurnal=CURVES, cell_diurnal=CURVES,
           wifi_med=st.floats(0.05, 500.0), wifi_rtt_med=st.floats(1.0, 2000.0))
    def test_rows_equal_the_calls(self, seed, crowd, operators, wifi_diurnal,
                                  cell_diurnal, wifi_med, wifi_rtt_med):
        world = bare_world(operators=operators, wifi_diurnal=wifi_diurnal,
                           cell_diurnal=cell_diurnal)
        reference = reference_crowd_rows if crowd else reference_base_rows
        inline = world._calibration_rows(random.Random(seed), 40, wifi_med,
                                         wifi_rtt_med, crowd)
        assert repr(inline) == repr(reference(
            world, random.Random(seed), 40, wifi_med, wifi_rtt_med))
