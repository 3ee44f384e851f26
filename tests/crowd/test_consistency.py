"""Scale invariance: the crowd-scale pipeline recovers the paper.

A heterogeneous million-user population is only a faithful scale-up
if its aggregates still land on the paper's published numbers.  These
tests run a 64k-user population — every per-site fraction that is
checked rests on at least 480 analysis runs, so its binomial sigma is
at most 0.023 and the 0.08 tolerance is at least 3.5 sigma (at 16k
users / 120 runs it was 1.9 sigma for the thinnest site, which passed
or failed by seed) — and check:

* Table 1 — per-site LTE-win-downlink fractions within 0.08 of the
  published column (sites with enough runs to measure), aggregate
  win fractions within 0.06 of the paper's 35 % / 42 % / 40 %;
* Fig. 3 / Fig. 4 — throughput- and RTT-difference quantiles within
  tolerance of the exact CDFs of the same generator at Table-1 size
  (:func:`repro.crowd.table1_runs`).  The tolerance (1.5 Mbit/s,
  20 ms) is dominated by the finite-sample spread of the 2104-run
  reference, not by sketch error (alpha = 0.5 %).
"""

import pytest

from repro.analysis.cdf import Cdf
from repro.core.rng import DEFAULT_SEED
from repro.crowd.dataset import Dataset
from repro.crowd.pipeline import simulate, table1_runs
from repro.crowd.sampling import PopulationSpec
from repro.crowd.world import TABLE1_SITES

USERS = 64_000

#: Minimum analysis runs before a per-site fraction is worth checking
#: (sigma <= sqrt(0.25 / 480) = 0.023 against the 0.08 tolerance).
MIN_SITE_RUNS = 480


@pytest.fixture(scope="module")
def sketch(crowd_world):
    result = simulate(
        population=PopulationSpec(users=USERS, seed=DEFAULT_SEED),
        cache=False, executor="inprocess", workers=1,
    )
    return result.sketch


@pytest.fixture(scope="module")
def reference():
    return Dataset(table1_runs(DEFAULT_SEED)).analysis_set()


class TestTable1Recovery:
    def test_aggregate_win_fractions(self, sketch):
        # Paper §2.3: LTE beats WiFi in 35% of downlink, 42% of
        # uplink, 40% of all throughput measurements.
        assert sketch.lte_win_fraction_downlink() == pytest.approx(
            0.35, abs=0.06
        )
        assert sketch.lte_win_fraction_uplink() == pytest.approx(
            0.42, abs=0.06
        )
        assert sketch.lte_win_fraction_combined() == pytest.approx(
            0.40, abs=0.06
        )

    def test_rtt_win_fraction(self, sketch):
        # Fig. 4: LTE ping beats WiFi in roughly 20% of runs.
        assert sketch.lte_rtt_win_fraction() == pytest.approx(0.20, abs=0.06)

    def test_per_site_win_fractions(self, sketch):
        checked = 0
        for site in TABLE1_SITES:
            runs = sketch.counters[f"site_runs[{site.name}]"]
            if runs < MIN_SITE_RUNS:
                continue
            checked += 1
            got = sketch.site_win_fraction_downlink(site.name)
            assert got == pytest.approx(site.lte_win_fraction, abs=0.08), (
                f"{site.name}: {got:.3f} vs Table-1 "
                f"{site.lte_win_fraction:.2f} over {runs} runs"
            )
        # The weight floor must still leave most of Table 1 checked.
        assert checked >= 10

    def test_filters_match_population_probabilities(self, sketch):
        counters = sketch.counters
        total = counters["runs"]
        assert total == USERS
        # P(complete) = (1 - single_tech) * (1 - wifi_fail) * (1 - cell_off)
        expected_complete = 0.94 * 0.92 * 0.94
        assert counters["runs_complete"] / total == pytest.approx(
            expected_complete, abs=0.02
        )
        # Half the 15% non-LTE runs are 3G and get filtered.
        assert counters["runs_filtered_3g"] / counters["runs_complete"] == (
            pytest.approx(0.075, abs=0.02)
        )


class TestFigureRecovery:
    def test_fig3_downlink_quantiles(self, sketch, reference):
        exact = Cdf(reference.downlink_diffs())
        for pct in (25, 50, 75):
            got = sketch.sketches["down_diff"].percentile(pct)
            assert got == pytest.approx(exact.percentile(pct), abs=1.5), (
                f"downlink diff p{pct}"
            )

    def test_fig3_uplink_quantiles(self, sketch, reference):
        exact = Cdf(reference.uplink_diffs())
        for pct in (25, 50, 75):
            got = sketch.sketches["up_diff"].percentile(pct)
            assert got == pytest.approx(exact.percentile(pct), abs=1.5), (
                f"uplink diff p{pct}"
            )

    def test_fig4_rtt_quantiles(self, sketch, reference):
        exact = Cdf(reference.rtt_diffs())
        for pct in (25, 50, 75):
            got = sketch.sketches["rtt_diff"].percentile(pct)
            assert got == pytest.approx(exact.percentile(pct), abs=20.0), (
                f"RTT diff p{pct}"
            )

    def test_win_fractions_match_reference_pipeline(self, sketch, reference):
        # The sketch's sign counters and the Table-1-size dataset's
        # per-object fractions must tell the same story.
        assert sketch.lte_win_fraction_downlink() == pytest.approx(
            reference.lte_win_fraction_downlink(), abs=0.05
        )
        assert sketch.lte_win_fraction_uplink() == pytest.approx(
            reference.lte_win_fraction_uplink(), abs=0.05
        )
