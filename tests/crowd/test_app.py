"""The Cell vs WiFi app's dataset: the Fig. 2 flowchart, thinned to Table 1.

Every run walks the app's flowchart inside the one crowd generator
(:class:`~repro.crowd.sampling.CrowdSampler`); the paper's §2 dataset
is the front of the default population, each site kept until it holds
its Table-1 count of usable runs (:func:`repro.crowd.table1_runs`).
"""

from collections import Counter

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import DEFAULT_SEED
from repro.crowd import pipeline
from repro.crowd.dataset import Dataset
from repro.crowd.pipeline import TABLE1_POPULATION_USERS, table1_runs
from repro.crowd.sampling import CrowdSampler, PopulationSpec
from repro.crowd.world import TABLE1_SITES
from repro.experiments.common import table1_dataset

#: The ``--fast`` site list of ``table1``/``fig03``/``fig04``/``fig06``.
FAST_SITES = TABLE1_SITES[:8]
#: Runs of the default population that fill every Table-1 quota at
#: the default seed (the last site fills before run 5120).
PREFIX = 6000


@pytest.fixture(scope="module")
def prefix(crowd_world):
    population = PopulationSpec(users=TABLE1_POPULATION_USERS,
                                seed=DEFAULT_SEED)
    columns = CrowdSampler(crowd_world, population).sample_batch(0, PREFIX)
    names = population.site_names
    return [(names[site], run)
            for site, run in zip(columns.site, columns.to_measurement_runs())]


def thinned(prefix, sites):
    """``(site, run)`` pairs the quota rule keeps, written from its text:
    a run is kept while its site is requested and short of its Table-1
    count of complete LTE/HSPA+ runs."""
    left = {site.name: site.runs for site in sites}
    kept = []
    for name, run in prefix:
        if left.get(name, 0) > 0:
            kept.append((name, run))
            left[name] -= run.complete and run.is_high_speed_cell
    assert not any(left.values()), "PREFIX too short to fill the quotas"
    return kept


def usable_per_site(kept) -> Counter:
    return Counter(name for name, run in kept
                   if run.complete and run.is_high_speed_cell)


@pytest.fixture(scope="module", params=["full", "fast"])
def sites(request):
    return TABLE1_SITES if request.param == "full" else FAST_SITES


class TestCollection:
    def test_site_collection_hits_table1_count(self, prefix):
        kept = thinned(prefix, TABLE1_SITES)
        assert table1_runs(DEFAULT_SEED) == [run for _, run in kept]
        assert usable_per_site(kept) == {
            site.name: site.runs for site in TABLE1_SITES
        }

    def test_collection_includes_partial_runs(self, prefix):
        runs = [run for _, run in thinned(prefix, TABLE1_SITES)]
        assert len(runs) > len(Dataset(runs).analysis_set())
        assert any(not run.complete for run in runs)
        assert any(run.complete and run.cellular_technology == "3G"
                   for run in runs)

    def test_deterministic(self, monkeypatch):
        names = [site.name for site in FAST_SITES]
        first = table1_runs(DEFAULT_SEED, names)
        # A second world, calibrated from scratch, draws the same runs.
        monkeypatch.setattr(pipeline, "_WORLD_CACHE", {})
        assert table1_runs(DEFAULT_SEED, names) == first

    def test_multiple_users_per_site(self, prefix):
        kept = thinned(prefix, TABLE1_SITES[:1])
        assert len({run.user_id for _, run in kept}) > 5

    def test_full_collection_aggregates(self):
        sites = TABLE1_SITES[:4]
        runs = table1_runs(DEFAULT_SEED, [site.name for site in sites])
        assert len(Dataset(runs).analysis_set()) == sum(
            site.runs for site in sites
        )


class TestQuotaThinnedPrefix:
    def test_rows_are_the_thinned_sampler_rows(self, prefix, sites):
        runs = table1_runs(DEFAULT_SEED, [site.name for site in sites])
        assert runs == [run for _, run in thinned(prefix, sites)]

    def test_per_site_analysis_counts_are_table1s(self, prefix, sites):
        kept = thinned(prefix, sites)
        assert usable_per_site(kept) == {site.name: site.runs
                                         for site in sites}
        analysis = Dataset(run for _, run in kept).analysis_set()
        assert len(analysis) == sum(site.runs for site in sites)
        assert len(analysis) == (2104 if sites is TABLE1_SITES else 1808)

    def test_a_site_subset_keeps_the_same_runs(self, prefix):
        # One user per run, so a user id names its run's site.
        site_of = {run.user_id: name for name, run in prefix}
        names = {site.name for site in FAST_SITES}
        fast = table1_runs(DEFAULT_SEED, sorted(names))
        assert fast == [run for run in table1_runs(DEFAULT_SEED)
                        if site_of[run.user_id] in names]

    def test_unfillable_quota_is_an_error(self, monkeypatch):
        monkeypatch.setattr(pipeline, "TABLE1_POPULATION_USERS", 500)
        with pytest.raises(ConfigurationError, match="quotas"):
            table1_runs(DEFAULT_SEED)

    def test_unknown_site_is_an_error(self):
        with pytest.raises(ConfigurationError, match="Atlantis"):
            table1_runs(DEFAULT_SEED, ["Israel", "Atlantis"])

    def test_no_sites_is_no_runs(self):
        assert table1_runs(DEFAULT_SEED, []) == []


class TestWarmRead:
    def test_cache_hit_builds_no_world(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_EXECUTOR", "inprocess")
        cold = table1_dataset(FAST_SITES)

        def no_world(population):
            raise AssertionError("a warm read built a world")

        monkeypatch.setattr(pipeline, "_world_for", no_world)
        assert table1_dataset(FAST_SITES).runs == cold.runs


class TestCalibration:
    """End-to-end calibration against the paper's §2 aggregates."""

    @pytest.fixture(scope="class")
    def analysis(self):
        return Dataset(table1_runs(DEFAULT_SEED)).analysis_set()

    def test_combined_lte_win_near_40_percent(self, analysis):
        assert analysis.lte_win_fraction_combined() == pytest.approx(
            0.40, abs=0.07
        )

    def test_uplink_wins_exceed_downlink(self, analysis):
        assert (analysis.lte_win_fraction_uplink()
                > analysis.lte_win_fraction_downlink())

    def test_lte_rtt_lower_near_20_percent(self, analysis):
        diffs = analysis.rtt_diffs()
        fraction = sum(1 for d in diffs if d > 0) / len(diffs)
        assert fraction == pytest.approx(0.20, abs=0.07)

    def test_throughput_diff_tails_reach_10_mbps(self, analysis):
        diffs = analysis.downlink_diffs()
        assert min(diffs) < -10.0
        assert max(diffs) > 10.0
