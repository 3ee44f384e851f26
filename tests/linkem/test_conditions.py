"""Tests for the 20-location condition registry."""

import dataclasses
import hashlib
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import flow_conditions
from repro.linkem.conditions import (
    DUAL_CC_CONDITION_IDS,
    TABLE2_LOCATIONS,
    ConditionSpec,
    make_conditions,
)
from repro.linkem.shells import PathSpec, mpshell


class TestRegistry:
    def test_twenty_conditions(self):
        assert len(make_conditions()) == 20

    def test_table2_has_twenty_rows(self):
        assert len(TABLE2_LOCATIONS) == 20

    def test_seven_dual_cc_locations(self):
        assert len(DUAL_CC_CONDITION_IDS) == 7

    def test_ids_sequential(self):
        conditions = make_conditions()
        assert [c.condition_id for c in conditions] == list(range(1, 21))

    def test_deterministic_for_seed(self):
        a = make_conditions(seed=7)
        b = make_conditions(seed=7)
        assert repr(a) == repr(b)

    def test_different_seeds_differ(self):
        a = make_conditions(seed=7)
        b = make_conditions(seed=8)
        assert repr(a) != repr(b)

    def test_paper_id_convention(self):
        conditions = make_conditions()
        advantages = [c.wifi_advantage_mbps for c in conditions]
        # IDs 1-2: strongest WiFi advantage; IDs 3-4: strongest LTE.
        assert advantages[0] > 0 and advantages[1] > 0
        assert advantages[2] < 0 and advantages[3] < 0
        assert advantages[0] >= max(advantages[4:])
        assert advantages[2] <= min(advantages[4:])

    def test_lte_wins_at_roughly_40_percent_of_locations(self):
        conditions = make_conditions()
        wins = sum(1 for c in conditions if c.lte.down_mbps > c.wifi.down_mbps)
        assert 5 <= wins <= 12

    def test_lte_buffers_deeper_than_wifi(self):
        conditions = make_conditions()
        lte_median = sorted(c.lte.queue_packets for c in conditions)[10]
        wifi_median = sorted(c.wifi.queue_packets for c in conditions)[10]
        assert lte_median > wifi_median

    def test_trace_driven_flag_propagates(self):
        conditions = make_conditions(trace_driven=True)
        assert all(c.wifi.trace_driven and c.lte.trace_driven
                   for c in conditions)


class TestBuildScenario:
    def test_scenario_has_both_paths(self):
        scenario = mpshell(make_conditions()[0])
        assert sorted(scenario.path_names) == ["lte", "wifi"]

    def test_tcp_runs_at_condition(self):
        scenario = mpshell(make_conditions()[0])
        result = scenario.run_transfer(scenario.tcp("lte", 50 * 1024))
        assert result.completed

    def test_seed_controls_realization(self):
        condition = make_conditions(trace_driven=True, temporal_sigma=0.3)[0]
        a = mpshell(condition, seed=1)
        b = mpshell(condition, seed=2)
        assert (a.path("wifi").config.down_mbps
                != b.path("wifi").config.down_mbps)


def _digest(conditions):
    dicts = [condition.to_dict() for condition in conditions]
    text = json.dumps(dicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestRegistryDigests:
    """The ledger's specs and every figure grid hang off these dicts.

    Recorded at the parent of the PR that made the registry return
    :class:`ConditionSpec` rows, from ``ConditionSpec.from_condition``
    of the rows it returned then — before any ``src/`` edit.
    """

    def test_make_conditions(self):
        assert _digest(make_conditions()) == (
            "9427e309a4d4b79ed9af31ce964c5658"
            "37b6d2cb35b65be0ac193769b1ec63d4")
        assert _digest(make_conditions(seed=7)) == (
            "af1d7f409a9d522c43a3bd8eb01130a6"
            "26b83ba8b514fcb31907171d595e614a")
        assert _digest(make_conditions(
            seed=1, trace_driven=True, temporal_sigma=0.25)) == (
            "e4b578a54d56870e2a136dec4cfb0c82"
            "dab62acb279538081897ce7c87522d35")

    def test_flow_conditions(self):
        assert _digest(flow_conditions(DEFAULT_SEED)) == (
            "9e4fd2fdddd4b617486ef1ad9c11f2a3"
            "313913dfbc88f92aa4bad9840a313084")
        assert _digest(flow_conditions(7)) == (
            "6c8c0afe8caaf4d2f63afd787dc6deb5"
            "85e5c6488481f013ea406c1a081d0b23")
        assert flow_conditions(7, fast=True) == flow_conditions(7)[:6]


class TestConditionSpec:
    def test_with_path_replaces_one_interface_in_place(self):
        condition = make_conditions()[0]
        lossy = dataclasses.replace(condition.wifi, loss_rate=0.02)
        rewritten = condition.with_path(lossy)
        assert rewritten.path_names == condition.path_names
        assert rewritten.wifi is lossy
        assert rewritten.lte is condition.lte
        assert condition.wifi.loss_rate != 0.02  # frozen: a copy

    def test_absent_path_is_a_typed_error_naming_what_it_has(self):
        dual_lte = ConditionSpec(condition_id=30, paths=(
            PathSpec("lte", "lte", down_mbps=9, up_mbps=4, rtt_ms=70),
            PathSpec("lte2", "lte", down_mbps=6, up_mbps=2, rtt_ms=95),
        ))
        for read in (
            lambda: dual_lte.wifi,
            lambda: dual_lte.path("wifi"),
            lambda: dual_lte.wifi_advantage_mbps,
            lambda: dual_lte.with_path(
                PathSpec("wifi", "wifi", down_mbps=5, up_mbps=2, rtt_ms=30)),
        ):
            with pytest.raises(ConfigurationError, match=r"lte.*lte2"):
                read()
