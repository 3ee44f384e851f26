"""Unit tests for experiment helper functions (beyond the fast runs)."""

import pytest

from repro.analysis.cdf import Cdf
from repro.core.rng import DEFAULT_SEED


class TestKsDistance:
    def test_identical_samples_distance_zero(self):
        from repro.experiments.fig06 import ks_distance

        cdf = Cdf([1.0, 2.0, 3.0])
        assert ks_distance(cdf, cdf) == 0.0

    def test_disjoint_samples_distance_one(self):
        from repro.experiments.fig06 import ks_distance

        assert ks_distance(Cdf([1.0, 2.0]), Cdf([10.0, 11.0])) == 1.0

    def test_symmetry(self):
        from repro.experiments.fig06 import ks_distance

        a = Cdf([1.0, 5.0, 9.0])
        b = Cdf([2.0, 5.0, 8.0, 12.0])
        assert ks_distance(a, b) == ks_distance(b, a)


class TestFlowSizeSweep:
    def test_sweep_covers_all_configs(self):
        from repro.experiments.fig07 import flow_size_sweep
        from repro.linkem.conditions import make_conditions

        condition = make_conditions()[0]
        sweep = flow_size_sweep(condition, DEFAULT_SEED, sizes_kb=[10, 100])
        assert set(sweep) == {
            "LTE", "WiFi",
            "MPTCP(LTE, Decoupled)", "MPTCP(WiFi, Decoupled)",
            "MPTCP(LTE, Coupled)", "MPTCP(WiFi, Coupled)",
        }
        for points in sweep.values():
            assert [x for x, _ in points] == [10.0, 100.0]
            assert all(y > 0 for _, y in points)


class TestFig15Panels:
    def test_run_panel_returns_activity_logs(self):
        from repro.experiments.fig15 import run_panel

        panel = run_panel("c", nbytes=512 * 1024, mode="backup",
                          primary="lte", horizon_s=10.0,
                          description="test")
        assert panel.completed
        assert panel.events_on("lte")
        # Backup WiFi: handshake/teardown only.
        assert panel.data_packet_count("wifi") == 0
        assert "test" in panel.render()
        # Plain data: what a sweep worker returns and the cache stores.
        import pickle

        restored = pickle.loads(pickle.dumps(panel))
        assert restored == panel
        assert restored.render() == panel.render()

    def test_panels_registry_has_all_eight(self):
        import inspect

        from repro.experiments.fig15 import PANELS, run_panel

        assert sorted(PANELS) == list("abcdefgh")
        # A table of ``run_panel`` keyword arguments, not closures.
        accepted = set(inspect.signature(run_panel).parameters)
        for kwargs in PANELS.values():
            assert set(kwargs) <= accepted - {"panel", "seed", "condition"}

    def test_injected_panels_are_fault_schedules_at_the_papers_instants(self):
        from repro.experiments.fig15 import PANEL_FAULTS, run_panel
        from repro.faults import FaultSpec

        expected = {
            "e": [(9.0, "inject", "iface_down", "lte")],
            "f": [(11.0, "inject", "iface_down", "wifi")],
            "g": [(3.0, "inject", "blackhole", "lte"),
                  (68.0, "clear", "blackhole", "lte")],
            "h": [(6.0, "inject", "blackhole", "wifi")],
        }
        assert sorted(PANEL_FAULTS) == sorted(expected)
        assert PANEL_FAULTS["h"].events[0].detected
        assert not PANEL_FAULTS["g"].events[0].detected
        for panel, faults in PANEL_FAULTS.items():
            assert FaultSpec.from_json(faults.to_json()) == faults
            # A transfer short enough to finish first: the edges fire
            # at their instants whatever the connection is doing.
            result = run_panel(panel, nbytes=64 * 1024, horizon_s=70.0,
                               faults=faults)
            assert [
                (edge["t"], edge["edge"], edge["kind"], edge["path"])
                for edge in result.applied_faults
            ] == expected[panel]


class TestFig16Helpers:
    @staticmethod
    def _simulate(tasks):
        from repro.parallel import SweepRunner

        return SweepRunner(workers=1, cache=False).run(tasks)

    def test_power_panels_have_expected_levels(self):
        from repro.experiments.fig16 import MB, flow_pair, power_panels

        panels = power_panels(
            *self._simulate(flow_pair(5 * MB, 50.0, DEFAULT_SEED)))
        assert set(panels) == {
            "a: LTE, non-backup", "b: WiFi, non-backup",
            "c: LTE, backup", "d: WiFi, backup",
        }
        lte_active = max(w for _, w in panels["a: LTE, non-backup"])
        wifi_active = max(w for _, w in panels["b: WiFi, non-backup"])
        assert lte_active == pytest.approx(3.5)   # 1 W base + 2.5 W radio
        assert wifi_active == pytest.approx(2.0)  # 1 W base + 1 W radio

    def test_backup_energy_monotone_saving(self):
        from repro.experiments.fig16 import backup_flow_energy, energy_flow_pair

        short = backup_flow_energy(
            *self._simulate(energy_flow_pair(3.0, DEFAULT_SEED)))
        long_ = backup_flow_energy(
            *self._simulate(energy_flow_pair(30.0, DEFAULT_SEED)))
        assert long_["saving_fraction"] > short["saving_fraction"]

    def test_fast_dormancy_always_helps(self):
        from repro.experiments.fig16 import backup_flow_energy, energy_flow_pair

        # Dormancy is a property of the power model: same two flows.
        flows = self._simulate(energy_flow_pair(5.0, DEFAULT_SEED))
        plain = backup_flow_energy(*flows)
        dormant = backup_flow_energy(*flows, fast_dormancy=True)
        assert dormant["saving_fraction"] > plain["saving_fraction"]

    @pytest.mark.parametrize("fast, expected", [(True, 6), (False, 12)])
    def test_every_distinct_flow_is_simulated_once(
            self, fast, expected, monkeypatch):
        from repro.experiments import fig16
        from repro.parallel import SweepRunner

        swept = []
        real = SweepRunner.run

        def recording(self, tasks):
            swept.append(tasks)
            return real(self, tasks)

        monkeypatch.setattr(SweepRunner, "run", recording)
        fig16.run(fast=fast)
        (tasks,) = swept  # one sweep per run()
        assert len(tasks) == expected
        assert len({task.key for task in tasks}) == expected


class TestFig17Rendering:
    def test_render_pattern_one_row_per_connection(self):
        from repro.experiments.fig17 import render_pattern
        from repro.httpreplay.patterns import dropbox_launch

        session = dropbox_launch()
        text = render_pattern(session)
        rows = [line for line in text.splitlines() if "|" in line]
        assert len(rows) == session.connection_count


class TestThroughputEvolution:
    def test_series_keys(self):
        from repro.experiments.common import mptcp_spec
        from repro.experiments.fig09_10 import (
            _illustrative_conditions,
            evolution_series,
        )
        from repro.workload import Session

        lte_better, _ = _illustrative_conditions()
        spec = mptcp_spec(lte_better, "lte", "decoupled", 4 * 1024 * 1024,
                          seed=DEFAULT_SEED, deadline_s=1.0)
        (report,) = Session().run_many([spec], workers=1, cache=False)
        series = evolution_series(report, horizon_s=1.0)
        assert list(series) == ["MPTCP", "LTE", "WiFi"]  # primary first
        assert series["MPTCP"][-1][0] == pytest.approx(1.0, abs=0.06)
        # The deadline stopped the transfer at the horizon.
        assert not report.completed
        assert all(t <= 1.0 for t, _ in report.delivery_log)


class TestAblationHelpers:
    def test_primary_effect_positive(self):
        from repro.experiments.ablations import primary_effect
        from repro.experiments.fig08 import primary_choice_grid
        from repro.workload import Session

        grid = primary_choice_grid(DEFAULT_SEED, condition_count=3, repeats=1)
        effect = primary_effect(Session().run_many(grid), nbytes=10 * 1024)
        assert effect > 0.0
