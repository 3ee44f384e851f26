"""Tests for PathSpec.to_path_config and the mpshell assembly."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import RngStreams
from repro.linkem.conditions import ConditionSpec
from repro.linkem.shells import PathSpec, mpshell


class TestLinkSpec:
    """One emulated link, as :class:`PathSpec` declares it."""

    def test_valid_spec(self):
        spec = PathSpec("wifi", "wifi", down_mbps=10, up_mbps=5, rtt_ms=30)
        config = spec.to_path_config(RngStreams(1))
        assert config.name == "wifi"
        assert config.down_mbps == 10
        assert config.up_trace is None

    def test_trace_driven_builds_traces(self):
        spec = PathSpec("lte", "lte", down_mbps=8, up_mbps=4, rtt_ms=60,
                        trace_driven=True)
        config = spec.to_path_config(RngStreams(1))
        assert config.down_trace is not None
        assert config.down_trace.mean_rate_mbps == pytest.approx(8, rel=0.3)

    def test_temporal_jitter_changes_across_seeds(self):
        spec = PathSpec("wifi", "wifi", down_mbps=10, up_mbps=5, rtt_ms=30,
                        temporal_sigma=0.3)
        a = spec.to_path_config(RngStreams(1))
        b = spec.to_path_config(RngStreams(2))
        assert a.down_mbps != b.down_mbps
        assert a.rtt_ms != b.rtt_ms

    def test_no_jitter_is_exact(self):
        spec = PathSpec("wifi", "wifi", down_mbps=10, up_mbps=5, rtt_ms=30)
        config = spec.to_path_config(RngStreams(1))
        assert config.down_mbps == 10.0
        assert config.rtt_ms == 30.0

    def test_invalid_technology_rejected(self):
        with pytest.raises(ConfigurationError):
            PathSpec("sat", "satellite", down_mbps=10, up_mbps=5, rtt_ms=600)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            PathSpec("wifi", "wifi", down_mbps=0, up_mbps=5, rtt_ms=30)

    def test_negative_rtt_and_impossible_loss_rejected(self):
        # Every field is validated: a figure cannot run on a negative RTT.
        with pytest.raises(ConfigurationError, match="PathSpec.rtt_ms"):
            PathSpec("wifi", "wifi", down_mbps=5, up_mbps=2, rtt_ms=-40)
        with pytest.raises(ConfigurationError, match="PathSpec.loss_rate"):
            PathSpec("wifi", "wifi", down_mbps=5, up_mbps=2, rtt_ms=40,
                     loss_rate=7)

    def test_draws_are_keyed_by_path_name(self):
        # ``jitter.{name}`` / ``trace.{name}``: two interfaces of one
        # technology must not share a realization.
        kwargs = dict(technology="lte", down_mbps=8, up_mbps=4, rtt_ms=60,
                      trace_driven=True, temporal_sigma=0.3)
        streams = RngStreams(1)
        first = PathSpec("lte", **kwargs).to_path_config(streams)
        second = PathSpec("lte2", **kwargs).to_path_config(streams)
        again = PathSpec("lte", **kwargs).to_path_config(RngStreams(1))
        assert first.down_mbps != second.down_mbps
        assert first.down_mbps == again.down_mbps
        assert first.rtt_ms == again.rtt_ms
        assert (first.down_trace.mean_rate_mbps
                == again.down_trace.mean_rate_mbps)

    def test_rate_and_rtt_factors(self):
        # Both directions scale by one rate draw; the RTT by a second,
        # damped (0.6 sigma) draw from the same ``jitter.{name}`` stream.
        import math

        spec = PathSpec("wifi", "wifi", down_mbps=10, up_mbps=5, rtt_ms=30,
                        temporal_sigma=0.3)
        config = spec.to_path_config(RngStreams(4))
        rng = RngStreams(4).get("jitter.wifi")
        factor = math.exp(0.3 * rng.gauss(0.0, 1.0))
        rtt_factor = math.exp(0.6 * 0.3 * rng.gauss(0.0, 1.0))
        assert config.down_mbps == 10 * factor
        assert config.up_mbps == 5 * factor
        assert config.rtt_ms == 30 * rtt_factor


class TestMpShell:
    def _condition(self):
        return ConditionSpec(condition_id=1, paths=(
            PathSpec("wifi", "wifi", down_mbps=12, up_mbps=6, rtt_ms=35),
            PathSpec("lte", "lte", down_mbps=9, up_mbps=4, rtt_ms=80),
        ))

    def test_build_creates_both_paths(self):
        scenario = mpshell(self._condition())
        assert sorted(scenario.path_names) == ["lte", "wifi"]

    def test_each_build_is_independent(self):
        condition = self._condition()
        a = mpshell(condition)
        b = mpshell(condition)
        assert a.loop is not b.loop

    def test_transfer_runs_inside_shell(self):
        scenario = mpshell(self._condition())
        result = scenario.run_transfer(scenario.tcp("wifi", 100 * 1024))
        assert result.completed

    def test_specs_accessor(self):
        condition = self._condition()
        assert condition.path("wifi").technology == "wifi"
        assert condition.path("lte").technology == "lte"
        assert condition.wifi is condition.path("wifi")
        assert condition.lte is condition.path("lte")
