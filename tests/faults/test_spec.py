"""FaultSpec/FaultEvent validation and JSON round-trips."""

import pytest

from repro.core.errors import ConfigurationError
from repro.faults import FAULT_KINDS, FaultEvent, FaultSpec


def _event(**overrides):
    kwargs = {"kind": "outage", "path": "wifi", "at_s": 1.0}
    kwargs.update(overrides)
    return FaultEvent(**kwargs)


class TestFaultEventValidation:
    def test_every_kind_constructs(self):
        extras = {
            "rate_collapse": {"duration_s": 5.0, "factor": 0.5},
            "delay_spike": {"duration_s": 5.0, "extra_delay_s": 0.2},
            "burst_loss": {"duration_s": 5.0},
        }
        for kind in FAULT_KINDS:
            event = _event(kind=kind, **extras.get(kind, {}))
            assert event.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultEvent.kind"):
            _event(kind="gremlins")

    def test_negative_at_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultEvent.at_s"):
            _event(at_s=-0.1)

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultEvent.path"):
            _event(path="")

    def test_episode_kinds_require_duration(self):
        for kind, extra in (
            ("rate_collapse", {"factor": 0.5}),
            ("delay_spike", {"extra_delay_s": 0.2}),
            ("burst_loss", {}),
        ):
            with pytest.raises(ConfigurationError,
                               match="FaultEvent.duration_s"):
                _event(kind=kind, **extra)

    def test_factor_bounds(self):
        with pytest.raises(ConfigurationError, match="FaultEvent.factor"):
            _event(kind="rate_collapse", duration_s=5.0, factor=1.0)
        with pytest.raises(ConfigurationError, match="FaultEvent.factor"):
            _event(kind="rate_collapse", duration_s=5.0, factor=0.0)

    def test_factor_only_for_rate_collapse(self):
        with pytest.raises(ConfigurationError, match="FaultEvent.factor"):
            _event(kind="outage", factor=0.5)

    def test_extra_delay_only_for_delay_spike(self):
        with pytest.raises(ConfigurationError,
                           match="FaultEvent.extra_delay_s"):
            _event(kind="outage", extra_delay_s=0.2)

    def test_detected_only_for_blackhole(self):
        assert _event(kind="blackhole", detected=True).detected
        with pytest.raises(ConfigurationError, match="FaultEvent.detected"):
            _event(kind="outage", detected=True)

    def test_ge_parameters_must_be_probabilities(self):
        with pytest.raises(ConfigurationError, match="p_bad"):
            _event(kind="burst_loss", duration_s=5.0, p_bad=1.5)

    def test_clears_at(self):
        assert _event(duration_s=3.5).clears_at == 4.5
        assert _event().clears_at is None


class TestFaultSpecRoundTrip:
    def _spec(self):
        return FaultSpec(
            label="episode",
            events=(
                FaultEvent(kind="blackhole", path="lte", at_s=2.0,
                           duration_s=30.0),
                FaultEvent(kind="burst_loss", path="wifi", at_s=1.0,
                           duration_s=10.0, p_good_to_bad=0.02),
                FaultEvent(kind="rate_collapse", path="wifi", at_s=40.0,
                           duration_s=5.0, factor=0.25),
            ),
        )

    def test_json_round_trip_is_identity(self):
        spec = self._spec()
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_canonical_json_is_stable(self):
        spec = self._spec()
        assert spec.canonical_json() == self._spec().canonical_json()

    def test_from_file(self, tmp_path):
        target = tmp_path / "faults.json"
        target.write_text(self._spec().to_json())
        assert FaultSpec.from_file(str(target)) == self._spec()

    def test_mapping_events_coerced(self):
        spec = FaultSpec(events=(
            {"kind": "outage", "path": "wifi", "at_s": 1.0},
        ))
        assert isinstance(spec.events[0], FaultEvent)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultSpec.events"):
            FaultSpec(events=())

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            FaultSpec.from_dict({"events": [
                {"kind": "outage", "path": "wifi", "at_s": 1.0,
                 "severity": 11},
            ]})

    def test_path_names_first_reference_order(self):
        assert self._spec().path_names == ("lte", "wifi")


class TestTransferSpecIntegration:
    def test_fault_paths_must_be_condition_paths(self):
        from repro.experiments.fig15 import TESTBED
        from repro.workload.spec import TransferSpec

        with pytest.raises(ConfigurationError, match="TransferSpec.faults"):
            TransferSpec(
                kind="tcp", condition=TESTBED, nbytes=1000, path="wifi",
                faults=FaultSpec(events=(
                    FaultEvent(kind="outage", path="dsl", at_s=1.0),
                )),
            )

    def test_transfer_spec_round_trips_faults(self):
        from repro.experiments.fig15 import TESTBED
        from repro.workload.spec import TransferSpec

        spec = TransferSpec(
            kind="tcp", condition=TESTBED, nbytes=1000, path="wifi",
            faults=FaultSpec(events=(
                FaultEvent(kind="outage", path="wifi", at_s=1.0),
            )),
        )
        again = TransferSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.faults == spec.faults
