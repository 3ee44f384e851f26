"""Tests for the synthetic world model behind the crowd dataset."""

import hashlib

import pytest

from repro.core.rng import DEFAULT_SEED
from repro.crowd.tcpmodel import estimate_tcp_throughput_mbps
from repro.crowd.world import TABLE1_SITES, CrowdWorld, WorldModel

#: sha256 of both calibration passes' medians, every site, to the bit.
#: A change to how the calibration arithmetic is evaluated must leave
#: these alone; they read the same on CPython 3.10 to 3.13.
CALIBRATION_DIGESTS = {
    DEFAULT_SEED:
        "246d1c16cbdb1e76f2dd3914ecfa54b355bfca39edcc57421b78dd47fc4df24b",
    7: "42998687d9858cc8a9fb8e6256b57cb534c2f564dde23bc1a5ca6a26399a0b9d",
    11: "9f64b1bc2d8e16b71bf07e32a3e12d9d4ddb6d8999c278553506129ff49dedc9",
}


def calibration_digest(world: CrowdWorld) -> str:
    medians = (sorted(world._site_params.items()),
               sorted(world._crowd_params.items()))
    return hashlib.sha256(repr(medians).encode()).hexdigest()


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


class TestWorldModel:
    def test_draws_deterministic(self):
        world_a = WorldModel(seed=11)
        world_b = WorldModel(seed=11)
        site = TABLE1_SITES[0]
        a = world_a.draw_run(site, 3)
        b = world_b.draw_run(site, 3)
        assert a.wifi_down_mbps == b.wifi_down_mbps
        assert a.lte_rtt_ms == b.lte_rtt_ms

    def test_runs_jitter_around_site(self):
        world = WorldModel(seed=11)
        site = TABLE1_SITES[0]
        points = [world.draw_run(site, k).point for k in range(20)]
        assert all(site.point.distance_km(p) < 100 for p in points)
        assert len({(p.lat, p.lon) for p in points}) > 1

    def test_calibration_matches_table1_win_rates(self):
        """The *measured* (1 MB TCP) LTE-win fraction per site tracks
        Table 1 — the core calibration contract."""
        world = WorldModel(seed=20141105)
        for site in [s for s in TABLE1_SITES if s.runs >= 100]:
            wins = 0
            total = 0
            for index in range(300):
                run = world.draw_run(site, index)
                if run.cellular_technology == "3G":
                    continue
                wifi = estimate_tcp_throughput_mbps(
                    run.wifi_down_mbps, run.wifi_rtt_ms)
                lte = estimate_tcp_throughput_mbps(
                    run.lte_down_mbps, run.lte_rtt_ms)
                total += 1
                wins += lte > wifi
            assert wins / total == pytest.approx(
                site.lte_win_fraction, abs=0.12
            ), site.name

    def test_non_lte_fraction_roughly_matches(self):
        world = WorldModel(seed=3)
        site = TABLE1_SITES[0]
        technologies = [
            world.draw_run(site, index).cellular_technology
            for index in range(500)
        ]
        non_lte = sum(1 for t in technologies if t != "LTE") / len(technologies)
        assert non_lte == pytest.approx(WorldModel.NON_LTE_FRACTION, abs=0.06)

    def test_3g_is_much_slower(self):
        world = WorldModel(seed=3)
        site = TABLE1_SITES[0]
        runs = [world.draw_run(site, index) for index in range(500)]
        lte_rates = [r.lte_down_mbps for r in runs
                     if r.cellular_technology == "LTE"]
        g3_rates = [r.lte_down_mbps for r in runs
                    if r.cellular_technology == "3G"]
        assert sum(g3_rates) / len(g3_rates) < sum(lte_rates) / len(lte_rates) / 2

    def test_runs_for_returns_site_count(self):
        world = WorldModel(seed=3)
        site = TABLE1_SITES[-1]  # Santa Fe: 4 runs
        assert len(world.runs_for(site)) == 4


class TestCalibrationDigest:
    @pytest.mark.parametrize("seed", sorted(CALIBRATION_DIGESTS))
    def test_medians_are_pinned(self, seed, crowd_world):
        world = crowd_world if seed == DEFAULT_SEED else CrowdWorld(seed)
        assert calibration_digest(world) == CALIBRATION_DIGESTS[seed]
