"""Every experiment's claims hold at ``fast=True``; none was loosened.

Each experiment declares its :class:`~repro.experiments.common.Claim`
list beside its reducer; ``benchmarks/test_claims.py`` asserts them at
full size, this module at ``fast=True``, and ``FROZEN`` keeps every
bound asserted before claims existed implied by one at least as tight.
"""

import pytest

import repro.experiments.ablations  # noqa: F401  (registers the ablations)
from repro.crowd.world import TABLE1_SITES
from repro.experiments import common, table1
from repro.experiments.common import Claim, ExperimentResult
from repro.experiments.runner import EXPERIMENT_MODULES, load_all_experiments

load_all_experiments()
RUN = common.EXPERIMENTS
_NAMED = set()


@pytest.fixture(scope="module")
def results():
    """Runs every fast experiment once, on first use."""
    class Runs(dict):
        def __missing__(self, name):
            self[name] = RUN[name](fast=True)
            return self[name]

    return Runs()


def _fast_claims_hold(results, name):
    assert results[name].claims and results[name].failures(fast=True) == []


def fast_claims_of(name):
    """The test of one experiment, under the name it had before claims."""
    _NAMED.add(name)
    return lambda self, results: _fast_claims_hold(results, name)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for name in EXPERIMENT_MODULES:
            assert name in RUN, name

    def test_ablations_registered(self):
        for name in ("ablation_slowstart", "ablation_join",
                     "ablation_scheduler", "ablation_coupling"):
            assert name in RUN


class TestCrowdExperiments:
    test_table1_win_rates_match = fast_claims_of("table1")
    test_fig03_combined_lte_wins_near_40 = fast_claims_of("fig03")
    test_fig04_lte_rtt_lower_near_20 = fast_claims_of("fig04")
    test_fig06_distributions_comparable = fast_claims_of("fig06")


class TestFlowLevelExperiments:
    test_table2_registry = fast_claims_of("table2")
    test_fig07_regimes = fast_claims_of("fig07")
    test_fig08_primary_matters_more_for_small_flows = fast_claims_of("fig08")
    test_fig09_10_better_primary_ramps_faster = fast_claims_of("fig09_10")
    test_fig11_12_ratio_shrinks_with_size = fast_claims_of("fig11_12")
    test_fig13_cc_matters_more_for_large_flows = fast_claims_of("fig13")
    test_fig14_crossover = fast_claims_of("fig14")


class TestBehaviourExperiments:
    test_fig15_backup_semantics = fast_claims_of("fig15")
    test_fig16_energy_claim = fast_claims_of("fig16")
    test_fig17_categorization = fast_claims_of("fig17")


class TestReplayExperiments:
    test_fig18_19_short_flow_claims = fast_claims_of("fig18_19")
    test_fig20_21_long_flow_claims = fast_claims_of("fig20_21")


@pytest.mark.parametrize("name", [name for name in RUN if name not in _NAMED])
def test_fast_claims_hold(results, name):
    _fast_claims_hold(results, name)


class TestRenderOutput:
    def test_every_experiment_renders_text(self, results):
        for name in ("table2", "fig17"):
            text = results[name].render()
            assert name in text and "headline metrics" in text


class TestClaim:
    @pytest.mark.parametrize("measured, held", [
        (0.5, True), (1.0, True), (1.5, True), (0.25, False), (1.75, False)])
    def test_within_is_closed(self, measured, held):
        assert Claim.within("m", 1.0, 0.5).holds({"m": measured}) is held

    @pytest.mark.parametrize("kind", ["at least", "at most", "ordering"])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("offset", [-0.5, 0.0, 0.5])
    def test_one_sided_kinds_at_and_beside_the_bound(self, kind, strict,
                                                    offset):
        claim = Claim("m", kind, "o" if kind == "ordering" else 1.0,
                      strict=strict)
        held = not strict if offset == 0 else (offset > 0) != (kind == "at most")
        assert claim.holds({"m": 1.0 + offset, "o": 1.0}) is held

    def test_a_missing_metric_fails_by_name(self):
        failures = ExperimentResult("x", "t", "", {"m": 1.0}, [
            Claim.within("m_typo", 1.0), Claim("m", "ordering", "o"),
            Claim("m_stated", paper=2.0), Claim.within("m", 1.0)]).failures()
        assert [failure.split("no metric ")[1] for failure in failures] == [
            "'m_typo'", "'o'", "'m_stated'"]

    def test_a_fast_bound_applies_only_at_fast(self):
        claim = Claim("m", "at most", 0.25, fast=0.40)
        assert [claim.holds({"m": 0.3}, fast) for fast in (False, True)] == [
            False, True]
        skipped = Claim.within("panel", 1.0, full_only=True)
        assert skipped.failure({}, fast=True) is None
        assert "'panel'" in skipped.failure({})
        assert Claim("m", paper=0.2).holds({"m": 9.0}) is None


#: Every assert of the 17 bench modules (full) and of this file's fast
#: pass (fast) before claims were declared, as "experiment.assert".
#: ``m ~ c t`` is ``|m - c| <= t``; "paper" is the claim's paper value;
#: fig20_21's "best MPTCP oracle < single-path oracle" is the metric
#: ``mptcp_benefit_over_single_path > 0``.
FROZEN = """
full: table1.lte_win_pct[*] ~ paper 10; table1.total_filtered_runs == paper
full: table1.cluster_count == 22; fig03.lte_win_fraction_uplink ~ 0.42 0.06
full: fig03.lte_win_fraction_downlink ~ 0.35 0.06; fig03.lte_win_fraction_combined ~ 0.40 0.06
full: fig03.uplink_diff_p5_mbps < -3; fig03.downlink_diff_p95_mbps > 8
full: fig04.lte_rtt_lower_fraction ~ 0.20 0.06; fig04.rtt_diff_median_ms < 0
full: fig06.ks_distance_uplink <= 0.25; fig06.ks_distance_downlink <= 0.25
full: table2.lte_nominally_better_count >= 5; table2.lte_nominally_better_count <= 12
full: fig07.b_best_mptcp_over_best_tcp_at_1MB >= 1
full: fig08.median_rel_diff[10KB] > median_rel_diff[100KB]; fig08.median_rel_diff[10KB] ~ 60 30
full: fig09_10.fig09_tput_ratio_better_primary_at_1s > 1.2
full: fig09_10.fig10_tput_ratio_better_primary_at_1s > 1.2; fig11_12.fig11_abs_gap_grows == 1
full: fig11_12.fig12_abs_gap_grows == 1; fig13.median_rel_diff[1MB] ~ 34 26
full: fig15.a_both_paths_carry_data == 1; fig15.b_both_paths_carry_data == 1
full: fig15.d_backup_data_packets == 0; fig15.f_failover_completes == 1
full: fig16.short_flows_save_little == 1; fig16.long_flows_save_more == 1
full: fig18_19.normalized[Single-Path-TCP Oracle] < 0.95
full: ablation_slowstart.gradient_shrinks_without_ramp == 1
full: ablation_join.effect_shrinks_with_simultaneous_join == 1
full: ablation_scheduler.minrtt_at_least_as_good == 1; ablation_coupling.all_complete == 1
full: ablation_delack.delack_halves_ack_traffic == 1; ablation_delack.delack_not_faster == 1
both: table2.location_count == 20; table2.dual_cc_locations == 7
both: fig07.a_best_mptcp_over_best_tcp_at_1MB < 1
both: fig07.a_best_tcp_over_best_mptcp_at_10KB >= 0.999
both: fig07.b_best_tcp_over_best_mptcp_at_10KB >= 0.999; fig08.ordering_small_gt_large == 1
both: fig11_12.fig11_rel_ratio_shrinks == 1; fig11_12.fig12_rel_ratio_shrinks == 1
both: fig13.ordering_large_gt_small == 1; fig14.network_dominates_10KB == 1
both: fig14.cc_dominates_1MB == 1; fig15.c_backup_data_packets == 0
both: fig15.e_failover_completes == 1; fig15.h_failover_within_2s == 1
both: fig15.g_stalled_while_unplugged == 1; fig15.g_resumes_after_replug == 1
both: fig15.g_backup_window_updates == 1; fig17.correctly_categorized == 6
both: fig18_19.short_flow_single_path_oracle_wins == 1; fig20_21.long_flow_mptcp_oracle_wins == 1
both: fig20_21.mptcp_benefit_over_single_path > 0
fast: table1.lte_win_pct[*] ~ paper 12; fig03.lte_win_fraction_combined ~ 0.40 0.08
fast: fig03.lte_win_fraction_uplink > lte_win_fraction_downlink
fast: fig04.lte_rtt_lower_fraction ~ 0.20 0.08; fig06.ks_distance_downlink < 0.45
fast: fig08.median_rel_diff[10KB] > 15; fig09_10.fig09_tput_ratio_better_primary_at_1s > 1.1
fast: fig09_10.fig10_tput_ratio_better_primary_at_1s > 1.1; fig16.saving_at_3s < 0.40
fast: fig18_19.normalized[Single-Path-TCP Oracle] < 1
"""
ASSERTS = [(line.split(":")[0], text) for line in FROZEN.strip().splitlines()
           for text in line.split(": ", 1)[1].split("; ")]
KINDS = {"~": ("within", False), "==": ("within", False),
         "<": ("at most", True), "<=": ("at most", False),
         ">": ("at least", True), ">=": ("at least", False)}


def _frozen(text, claim, metrics):
    """``text`` as a Claim on ``claim``'s metric ("paper" resolved)."""
    _, op, *bound = text.rsplit(" ", 3 if " ~ " in text else 2)
    kind, strict = ("ordering", True) if bound[0] in metrics else KINDS[op]
    value = (claim.paper if bound[0] == "paper" else bound[0]
             if kind == "ordering" else float(bound[0]))
    return Claim(claim.metric, kind, value, strict=strict,
                 tol=float(bound[1]) if bound[1:] else 0.0)


def _implies(claim, frozen, fast):
    """Whether ``frozen`` holds wherever ``claim`` does at ``fast``,
    probed at, just inside and just outside every edge of both."""
    if claim.bound(fast) is None or claim.value != frozen.value and (
            "ordering" in (claim.kind, frozen.kind)):
        return False
    edges = [0.0] if frozen.kind == "ordering" else [
        bound + sign * tol for bound, tol in
        ((claim.bound(fast), claim.tol), (frozen.value, frozen.tol))
        for sign in (-1, 1)]
    probes = ({claim.metric: edge + step, frozen.value: 0.0}
              for edge in edges + [1e9, -1e9] for step in (-1e-9, 0.0, 1e-9))
    return all(frozen.holds(metrics) for metrics in probes
               if claim.holds(metrics, fast))


@pytest.mark.parametrize("mode, text", ASSERTS,
                         ids=[f"{mode}-{text}" for mode, text in ASSERTS])
def test_no_claim_is_loosened(results, mode, text):
    experiment, text = text.split(".", 1)
    result = results[experiment]
    # Claims are declared alike in both modes, except that table1's
    # follow the sites a run covers: take its full-size ones.
    claims = (table1.claims(TABLE1_SITES) if experiment == "table1"
              else result.claims)
    metric = text.split(" ~ ")[0].rsplit(" ", 2)[0]
    names = [name for name in result.metrics if name.startswith(
        metric[:-3])] if metric.endswith("[*]") else [metric]
    assert names
    for fast in {"full": [False], "fast": [True], "both": [False, True]}[mode]:
        for name in names:
            assert any(
                _implies(claim, _frozen(text, claim, result.metrics), fast)
                for claim in claims if claim.metric == name
            ), f"no declared claim implies {name}: {text} ({mode})"
