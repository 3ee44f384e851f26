"""Workload spec validation, JSON round-trips, and cache-key stability."""

import json
import subprocess
import sys

import pytest

from repro.core.errors import ConfigurationError
from repro.linkem.conditions import make_conditions
from repro.mptcp.connection import MptcpOptions
from repro.parallel.cache import canonical_spec, spec_key
from repro.tcp.config import TcpConfig
from repro.workload import (
    ConditionSpec,
    PathSpec,
    TransferSpec,
    WorkloadSpec,
    config_overrides,
)
from repro.workload.spec import mptcp_option_overrides

CONDITION = make_conditions(seed=3)[0]


def tcp_spec(**overrides) -> TransferSpec:
    kwargs = dict(kind="tcp", condition=CONDITION, nbytes=64 * 1024,
                  path="wifi")
    kwargs.update(overrides)
    return TransferSpec(**kwargs)


class TestRoundTrips:
    def test_path_spec_round_trip(self):
        path = CONDITION.paths[0]
        assert PathSpec.from_dict(path.to_dict()) == path

    def test_condition_spec_round_trip(self):
        assert ConditionSpec.from_dict(CONDITION.to_dict()) == CONDITION

    def test_transfer_spec_round_trip_through_json(self):
        spec = TransferSpec(
            kind="mptcp", condition=CONDITION, nbytes=100_000,
            direction="up", cc="decoupled", primary="lte", seed=77,
            deadline_s=30.0, config={"initial_ssthresh_segments": 32},
            options={"scheduler": "roundrobin", "join_delay_rtts": 0.0},
            label="custom.label",
        )
        rebuilt = TransferSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_workload_round_trip_identity(self):
        workload = WorkloadSpec(
            name="demo", seed=5, description="two transfers",
            transfers=(
                tcp_spec(seed=1),
                TransferSpec(kind="mptcp", condition=CONDITION,
                             nbytes=10_000, primary="wifi"),
            ),
        )
        assert WorkloadSpec.from_dict(workload.to_dict()) == workload
        assert WorkloadSpec.from_json(workload.to_json()) == workload

    def test_canonical_json_is_deterministic(self):
        spec = tcp_spec(seed=3)
        again = TransferSpec.from_dict(spec.to_dict())
        assert spec.canonical_json() == again.canonical_json()

    def test_cc_defaults_resolve_per_kind(self):
        assert tcp_spec().cc == "cubic"
        mptcp = TransferSpec(kind="mptcp", condition=CONDITION,
                             nbytes=10, primary="wifi")
        assert mptcp.cc == "coupled"

    def test_cc_aliases_canonicalize(self):
        spec = TransferSpec(kind="mptcp", condition=CONDITION, nbytes=10,
                            primary="wifi", cc="lia")
        assert spec.cc == "coupled"

    def test_default_key_matches_legacy_task_keys(self):
        cid = CONDITION.condition_id
        assert tcp_spec().key() == f"tcp.{cid}.wifi.{64 * 1024}"
        mptcp = TransferSpec(kind="mptcp", condition=CONDITION,
                             nbytes=10, primary="lte", cc="decoupled")
        assert mptcp.key() == f"mptcp.{cid}.lte.decoupled.10"


class TestValidation:
    @pytest.mark.parametrize("overrides,field", [
        (dict(nbytes=0), "TransferSpec.nbytes"),
        (dict(nbytes=-5), "TransferSpec.nbytes"),
        (dict(direction="sideways"), "TransferSpec.direction"),
        (dict(cc="vegas"), "TransferSpec.cc"),
        (dict(cc="coupled"), "TransferSpec.cc"),  # mptcp-only cc on tcp
        (dict(path="dsl"), "TransferSpec.path"),
        (dict(path=None), "TransferSpec.path"),
        (dict(primary="wifi"), "TransferSpec.primary"),
        (dict(kind="sctp"), "TransferSpec.kind"),
        (dict(deadline_s=0.0), "TransferSpec.deadline_s"),
        (dict(seed="tuesday"), "TransferSpec.seed"),
        (dict(config={"mss": 1}), "TransferSpec.config"),
        (dict(options={"scheduler": "minrtt"}), "TransferSpec.options"),
    ])
    def test_invalid_transfer_names_offending_field(self, overrides, field):
        with pytest.raises(ConfigurationError) as excinfo:
            tcp_spec(**overrides)
        assert field in str(excinfo.value)

    def test_unknown_mptcp_option_named(self):
        with pytest.raises(ConfigurationError) as excinfo:
            TransferSpec(kind="mptcp", condition=CONDITION, nbytes=10,
                         primary="wifi", options={"turbo": True})
        assert "TransferSpec.options" in str(excinfo.value)
        assert "turbo" in str(excinfo.value)

    def test_duplicate_path_names_rejected(self):
        path = CONDITION.paths[0]
        with pytest.raises(ConfigurationError) as excinfo:
            ConditionSpec(condition_id=1, paths=(path, path))
        assert "ConditionSpec.paths" in str(excinfo.value)
        assert "duplicate" in str(excinfo.value)

    def test_bad_path_fields_named(self):
        with pytest.raises(ConfigurationError) as excinfo:
            PathSpec(name="wifi", technology="wifi", down_mbps=-1,
                     up_mbps=1, rtt_ms=10)
        assert "PathSpec.down_mbps" in str(excinfo.value)
        with pytest.raises(ConfigurationError) as excinfo:
            PathSpec(name="wifi", technology="dsl", down_mbps=1,
                     up_mbps=1, rtt_ms=10)
        assert "PathSpec.technology" in str(excinfo.value)

    def test_unknown_fields_rejected_by_name(self):
        data = tcp_spec().to_dict()
        data["bandwidth"] = 10
        with pytest.raises(ConfigurationError) as excinfo:
            TransferSpec.from_dict(data)
        assert "bandwidth" in str(excinfo.value)

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            WorkloadSpec(name="empty", transfers=())
        assert "WorkloadSpec.transfers" in str(excinfo.value)

    def test_workload_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.from_json("not json {")
        with pytest.raises(ConfigurationError):
            WorkloadSpec.from_json("[1, 2]")


class TestOverrideHelpers:
    def test_config_overrides_diffs_against_defaults(self):
        assert config_overrides(None) is None
        assert config_overrides(TcpConfig()) is None
        overrides = config_overrides(TcpConfig(initial_ssthresh_segments=32))
        assert overrides == {"initial_ssthresh_segments": 32}
        assert TcpConfig(**overrides) == TcpConfig(initial_ssthresh_segments=32)

    def test_mptcp_option_overrides_exclude_primary_and_cc(self):
        options = MptcpOptions(primary="lte", congestion_control="olia",
                               mode="backup", join_delay_rtts=0.0)
        overrides = mptcp_option_overrides(options)
        assert overrides == {"mode": "backup", "join_delay_rtts": 0.0}
        assert mptcp_option_overrides(MptcpOptions()) is None

    def test_spec_materializes_equivalent_options(self):
        spec = TransferSpec(kind="mptcp", condition=CONDITION, nbytes=10,
                            primary="lte", cc="olia",
                            options={"mode": "backup"})
        options = spec.mptcp_options()
        assert options.primary == "lte"
        assert options.congestion_control == "olia"
        assert options.mode == "backup"


class TestCacheKeys:
    def test_canonical_spec_uses_canonical_dict_hook(self):
        spec = tcp_spec(seed=1)
        canonical = canonical_spec({"spec": spec})
        assert canonical["spec"]["__spec__"].endswith("TransferSpec")
        assert canonical["spec"]["nbytes"] == spec.nbytes

    def test_spec_key_stable_across_processes(self):
        spec = tcp_spec(seed=13)
        key = spec_key("repro.workload.session:run_transfer_spec",
                       {"spec": spec, "seed": 13}, fingerprint="pinned")
        program = (
            "import sys, json\n"
            "from repro.linkem.conditions import make_conditions\n"
            "from repro.parallel.cache import spec_key\n"
            "from repro.workload import TransferSpec\n"
            "condition = make_conditions(seed=3)[0]\n"
            "spec = TransferSpec(kind='tcp', condition=condition,\n"
            "                    nbytes=64 * 1024, path='wifi', seed=13)\n"
            "print(spec_key('repro.workload.session:run_transfer_spec',\n"
            "               {'spec': spec, 'seed': 13}, fingerprint='pinned'))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        assert output == key

    def test_seed_changes_key(self):
        a = spec_key("f", {"spec": tcp_spec(seed=1)}, fingerprint="x")
        b = spec_key("f", {"spec": tcp_spec(seed=2)}, fingerprint="x")
        assert a != b
