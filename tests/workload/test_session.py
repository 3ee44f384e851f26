"""Session interpreter: inline byte-identity, batches, caching."""

import pytest

from repro.linkem.conditions import make_conditions
from repro.linkem.shells import mpshell
from repro.mptcp.connection import MptcpOptions
from repro.parallel import ResultCache
from repro.tcp.config import TcpConfig
from repro.workload import ConditionSpec, Session, TransferSpec, WorkloadSpec

FLOW_BYTES = 48 * 1024


KEEP_ENV = ("REPRO_EXECUTOR",)  # CI's executor matrix covers this module
pytestmark = pytest.mark.usefixtures("isolated_env")


def _condition():
    return make_conditions(seed=5)[1]


def _specs(seed=21):
    condition = _condition()
    return [
        TransferSpec(kind="tcp", condition=condition, nbytes=FLOW_BYTES,
                     path="wifi", seed=seed),
        TransferSpec(kind="tcp", condition=condition, nbytes=FLOW_BYTES,
                     path="lte", direction="up", seed=seed),
        TransferSpec(kind="mptcp", condition=condition, nbytes=FLOW_BYTES,
                     primary="lte", cc="decoupled", seed=seed),
    ]


class TestLegacyByteIdentity:
    """Session.run ≡ driving the same connection inline on an mpshell."""

    def test_tcp_matches_inline_scenario(self):
        condition = _condition()
        spec = TransferSpec(
            kind="tcp", condition=condition,
            nbytes=FLOW_BYTES, path="wifi", seed=31,
            config={"initial_ssthresh_segments": 32},
        )
        report = Session().run(spec)

        scenario = mpshell(condition, seed=31)
        connection = scenario.tcp(
            "wifi", FLOW_BYTES, direction="down", cc="cubic",
            config=TcpConfig(initial_ssthresh_segments=32),
        )
        legacy = scenario.run_transfer(connection, deadline_s=240.0)
        assert report.completed_at == legacy.completed_at
        assert report.delivery_log == list(legacy.delivery_log)

    def test_mptcp_matches_inline_scenario(self):
        condition = _condition()
        spec = TransferSpec(
            kind="mptcp", condition=condition,
            nbytes=FLOW_BYTES, primary="lte", cc="coupled", seed=8,
            options={"join_delay_rtts": 0.0},
        )
        report = Session().run(spec)

        scenario = mpshell(condition, seed=8)
        connection = scenario.mptcp(
            FLOW_BYTES, direction="down",
            options=MptcpOptions(primary="lte", congestion_control="coupled",
                                 join_delay_rtts=0.0),
        )
        legacy = scenario.run_transfer(connection, deadline_s=240.0)
        assert report.completed_at == legacy.completed_at
        assert report.delivery_log == list(legacy.delivery_log)
        assert report.subflow_delivery_logs == {
            name: list(log)
            for name, log in connection.subflow_delivery_logs.items()
        }


class TestBatches:
    def test_worker_count_does_not_change_reports(self):
        session = Session()
        serial = session.run_many(_specs(), workers=1, cache=False)
        parallel = session.run_many(_specs(), workers=4, cache=False)
        assert serial == parallel
        assert all(report.completed for report in serial)

    def test_batch_matches_single_runs(self):
        session = Session()
        batch = session.run_many(_specs(), workers=2, cache=False)
        for spec, report in zip(_specs(), batch):
            assert report == session.run(spec)

    def test_unseeded_specs_derive_deterministically(self):
        from repro.workload import PathSpec

        # Temporal jitter makes the link rate seed-dependent, so a
        # different derived seed is guaranteed to change the timeline.
        condition = ConditionSpec(condition_id=77, paths=(
            PathSpec(name="wifi", technology="wifi", down_mbps=8,
                     up_mbps=4, rtt_ms=40, temporal_sigma=0.3),
            PathSpec(name="lte", technology="lte", down_mbps=6,
                     up_mbps=3, rtt_ms=80, temporal_sigma=0.3),
        ))
        spec = TransferSpec(kind="tcp", condition=condition,
                            nbytes=FLOW_BYTES, path="wifi")
        session = Session(seed=99)
        first = session.run_many([spec], workers=1, cache=False)
        second = session.run_many([spec], workers=1, cache=False)
        assert first == second
        # A different master seed redraws the derived per-spec seed.
        other = Session(seed=100).run_many([spec], workers=1, cache=False)
        assert first != other

    def test_workload_cache_hit_on_second_run(self, tmp_path):
        workload = WorkloadSpec(name="cached", seed=3,
                                transfers=tuple(_specs()))
        session = Session()
        cold = session.run_workload(
            workload, cache=ResultCache(root=str(tmp_path)))
        assert session.last_stats.cache_hits == 0
        assert session.last_stats.executed == len(workload.transfers)

        warm = session.run_workload(
            workload, cache=ResultCache(root=str(tmp_path)))
        assert session.last_stats.cache_hits == len(workload.transfers)
        assert session.last_stats.executed == 0
        assert warm == cold


class TestDualCellularLocation:
    """A location the wifi+lte pair could not express: two LTE paths."""

    def test_two_lte_paths_run_mptcp_at_both_fidelities(self):
        from repro.workload import PathSpec

        condition = ConditionSpec(
            condition_id=30, city="(out of sample)", paths=(
                PathSpec("lte", "lte", down_mbps=9, up_mbps=4, rtt_ms=70,
                         queue_packets=600),
                PathSpec("lte2", "lte", down_mbps=6, up_mbps=2, rtt_ms=95,
                         queue_packets=600, trace_driven=True,
                         temporal_sigma=0.2),
            ))
        assert mpshell(condition, seed=5).path_names == ["lte", "lte2"]
        spec = TransferSpec(kind="mptcp", condition=condition,
                            nbytes=512 * 1024, primary="lte2",
                            cc="coupled", seed=5)
        for fidelity in ("packet", "flow"):
            report = Session().run(spec.with_fidelity(fidelity))
            assert report.completed
            assert sorted(report.subflow_delivery_logs) == ["lte", "lte2"]
            assert all(log and log[-1][1] > 0
                       for log in report.subflow_delivery_logs.values())
