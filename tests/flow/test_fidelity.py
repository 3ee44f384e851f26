"""Fidelity selection: spec field, overrides, cache keys, CLI rejection."""

import pytest

from repro.core.errors import ConfigurationError
from repro.flow.fidelity import apply_fidelity_override, resolve_fidelity
from repro.linkem.conditions import make_conditions
from repro.parallel.cache import canonical_spec, spec_key
from repro.workload import Session, TransferSpec
from repro.workload.session import RUN_SPEC_FN


def _spec(**overrides):
    kwargs = dict(
        kind="tcp",
        condition=make_conditions()[0],
        path="wifi", nbytes=100_000, seed=3,
    )
    kwargs.update(overrides)
    return TransferSpec(**kwargs)


def test_fidelity_defaults_to_packet():
    assert _spec().fidelity == "packet"
    assert resolve_fidelity() is None


def test_spec_round_trips_fidelity():
    spec = _spec(fidelity="flow")
    restored = TransferSpec.from_dict(spec.to_dict())
    assert restored == spec
    assert restored.fidelity == "flow"
    # Default fidelity survives the round trip too.
    assert TransferSpec.from_dict(_spec().to_dict()).fidelity == "packet"


def test_invalid_fidelity_rejected():
    with pytest.raises(ConfigurationError, match="fidelity"):
        _spec(fidelity="quantum")


def test_with_fidelity_is_noop_for_none_and_equal():
    spec = _spec()
    assert spec.with_fidelity(None) is spec
    assert spec.with_fidelity("packet") is spec
    assert spec.with_fidelity("flow").fidelity == "flow"


def test_env_override_applies(monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "flow")
    assert resolve_fidelity() == "flow"
    assert apply_fidelity_override(_spec()).fidelity == "flow"


def test_invalid_env_override_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "quantum")
    with pytest.raises(ConfigurationError, match="REPRO_FIDELITY"):
        resolve_fidelity()


def test_cache_keys_differ_by_fidelity():
    packet, flow = _spec(), _spec(fidelity="flow")
    assert canonical_spec(packet) != canonical_spec(flow)
    key = lambda s: spec_key(RUN_SPEC_FN, {"spec": s, "seed": 3}, "fp")
    assert key(packet) != key(flow)


def test_task_for_folds_override_into_cache_key(monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "flow")
    task = Session().task_for(_spec())
    assert task.kwargs["spec"].fidelity == "flow"


def test_runner_rejects_packet_only_experiments(capsys):
    from repro.experiments.runner import main

    assert main(["--fidelity", "flow", "fig04"]) == 2
    err = capsys.readouterr().err
    assert "fig04" in err
    assert "flow-capable experiments" in err
    assert resolve_fidelity() is None  # the flag ended with the command


def test_runner_lists_flow_capable_experiments():
    from repro.experiments.common import FLOW_CAPABLE
    from repro.experiments.runner import load_all_experiments

    load_all_experiments()
    capable = {name for name, ok in FLOW_CAPABLE.items() if ok}
    assert capable == {"fig06", "fig08", "fig13", "fig14", "failover"}
