"""End-to-end tests for the policy-evaluation harness."""

import pytest

from repro.core import env
from repro.linkem.conditions import make_conditions
from repro.obs.trace import load_events, trace_filename
from repro.policy import STANDARD_POLICIES, evaluate_policies
from repro.policy.evaluation import (
    STRATEGIES,
    measure_strategies,
    probe_condition,
)


@pytest.fixture(scope="module")
def short_eval():
    conditions = make_conditions()[:5]
    return evaluate_policies(STANDARD_POLICIES(), 20 * 1024,
                             conditions=conditions)


@pytest.fixture(scope="module")
def long_eval():
    conditions = make_conditions()[:5]
    return evaluate_policies(STANDARD_POLICIES(), 1024 * 1024,
                             conditions=conditions)


class TestMeasureStrategies:
    def test_all_six_strategies_measured(self):
        condition = make_conditions()[0]
        measured = measure_strategies(condition, 50 * 1024, seed=1)
        assert set(measured) == set(STRATEGIES)
        assert all(duration > 0 for duration in measured.values())


class TestTracedProbe:
    def test_one_trace_and_the_same_estimates(self, monkeypatch, tmp_path):
        condition = make_conditions()[2]
        monkeypatch.delenv(env.TRACE_DIR, raising=False)
        untraced = probe_condition(condition, seed=3).paths
        monkeypatch.setenv(env.TRACE_DIR, str(tmp_path))
        assert probe_condition(condition, seed=3).paths == untraced
        name = trace_filename(f"probe.{condition.condition_id}", 3)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        kinds = {event.kind for event in load_events(str(tmp_path / name))}
        assert "handshake" in kinds


class TestEvaluation:
    def test_oracle_normalized_is_one(self, short_eval):
        assert short_eval.mean_normalized("oracle") == pytest.approx(1.0)

    def test_every_policy_at_least_oracle(self, short_eval, long_eval):
        for evaluation in (short_eval, long_eval):
            for policy in STANDARD_POLICIES():
                assert evaluation.mean_normalized(policy.name) >= 1.0 - 1e-9

    def test_adaptive_beats_always_wifi_on_long_flows(self, long_eval):
        assert (long_eval.mean_normalized("paper-adaptive")
                <= long_eval.mean_normalized("always-wifi") + 1e-9)

    def test_adaptive_matches_best_path_on_short_flows(self, short_eval):
        # For short flows the adaptive rule degenerates to best-path.
        assert short_eval.choices["paper-adaptive"] == (
            short_eval.choices["best-path-tcp"]
        )

    def test_choices_reference_measured_strategies(self, short_eval):
        for per_condition in short_eval.choices.values():
            for cid, strategy in per_condition.items():
                assert strategy in short_eval.measured[cid]

    def test_win_rate_bounds(self, long_eval):
        for policy in ("always-wifi", "paper-adaptive", "oracle"):
            assert 0.0 <= long_eval.win_rate(policy) <= 1.0
        assert long_eval.win_rate("oracle") == 1.0
