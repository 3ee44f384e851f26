"""Integration tests for MPTCP connections."""

import pytest

from repro import MptcpOptions, PathConfig, Scenario
from repro.core.errors import ConfigurationError
from repro.core.packet import PacketFlags
from repro.faults import FaultEvent, FaultSpec
from repro.tcp.subflow import SubflowState

KB = 1024
MB = 1024 * 1024


def _scenario(wifi=(10.0, 5.0, 40.0), lte=(8.0, 4.0, 80.0), seed=1):
    scenario = Scenario(seed=seed)
    scenario.add_path(PathConfig(
        name="wifi", down_mbps=wifi[0], up_mbps=wifi[1], rtt_ms=wifi[2],
    ))
    scenario.add_path(PathConfig(
        name="lte", down_mbps=lte[0], up_mbps=lte[1], rtt_ms=lte[2],
        queue_packets=600,
    ))
    return scenario


def _fail(scenario, kind, path, at_s, **extra):
    """Arm one §3.6 failure: ``iface_down`` is "multipath off" (the
    stack is notified), ``blackhole`` the silent unplug."""
    scenario.inject_faults(
        FaultSpec(events=(FaultEvent(kind, path, at_s, **extra),)))


def _run(scenario, nbytes, **options):
    connection = scenario.mptcp(nbytes, options=MptcpOptions(**options))
    result = scenario.run_transfer(connection)
    return result, connection


class TestBasicOperation:
    def test_transfer_completes(self):
        result, _ = _run(_scenario(), 500 * KB, primary="wifi")
        assert result.completed

    def test_aggregates_both_links(self):
        # A 4 MB flow should exceed what either link alone delivers.
        scenario = _scenario()
        result, connection = _run(scenario, 4 * MB, primary="wifi")
        assert result.throughput_mbps > 10.0  # wifi alone is 10
        delivered = connection.subflow_delivery_logs
        assert delivered["wifi"][-1][1] > 0
        assert delivered["lte"][-1][1] > 0

    def test_primary_subflow_rides_requested_path(self):
        scenario = _scenario()
        _, connection = _run(scenario, 100 * KB, primary="lte")
        assert connection.primary_subflow.name == "lte"
        assert connection.primary_subflow.subflow_id == 0

    def test_secondary_joins_after_primary(self):
        scenario = _scenario()
        connection = scenario.mptcp(
            500 * KB, options=MptcpOptions(primary="wifi"))
        connection.start()
        scenario.run(until=5.0)
        secondary = connection.subflow_on("lte")
        assert secondary.join
        assert secondary.established_at > connection.primary_subflow.established_at

    def test_join_syn_carries_mp_join_flag(self):
        scenario = _scenario()
        joins = []
        scenario.path("lte").uplink.on_transmit.append(
            lambda p, t: joins.append(t)
            if p.flags & PacketFlags.MP_JOIN else None
        )
        _run(scenario, 100 * KB, primary="wifi")
        assert len(joins) >= 1

    def test_unknown_primary_rejected(self):
        scenario = _scenario()
        with pytest.raises(ConfigurationError):
            scenario.mptcp(100, options=MptcpOptions(primary="ethernet"))

    def test_upload_direction(self):
        scenario = _scenario()
        connection = scenario.mptcp(
            200 * KB, direction="up", options=MptcpOptions(primary="wifi"))
        result = scenario.run_transfer(connection)
        assert result.completed

    def test_reassembly_is_exact(self):
        scenario = _scenario()
        result, connection = _run(scenario, 1 * MB, primary="wifi")
        assert connection.bytes_delivered == 1 * MB

    def test_deterministic(self):
        durations = []
        for _ in range(2):
            result, _ = _run(_scenario(seed=5), 500 * KB, primary="wifi")
            durations.append(result.duration_s)
        assert durations[0] == durations[1]


class TestCongestionControlVariants:
    @pytest.mark.parametrize("cc", ["coupled", "decoupled", "olia", "cubic"])
    def test_all_variants_complete(self, cc):
        result, _ = _run(_scenario(), 500 * KB, primary="wifi",
                         congestion_control=cc)
        assert result.completed

    def test_coupled_uses_lia_controllers(self):
        from repro.tcp.cc import LiaSubflowCc

        scenario = _scenario()
        _, connection = _run(scenario, 100 * KB, congestion_control="coupled")
        assert all(
            isinstance(sf.sender.cc, LiaSubflowCc) for sf in connection.subflows
        )

    def test_decoupled_uses_reno(self):
        from repro.tcp.cc import Reno

        scenario = _scenario()
        _, connection = _run(scenario, 100 * KB, congestion_control="decoupled")
        assert all(isinstance(sf.sender.cc, Reno) for sf in connection.subflows)


class TestBackupMode:
    def test_backup_carries_no_data(self):
        scenario = _scenario()
        _, connection = _run(scenario, 500 * KB, primary="lte", mode="backup")
        assert connection.subflow_delivery_logs["wifi"] == []
        assert connection.subflow_delivery_logs["lte"][-1][1] == 500 * KB

    def test_backup_still_handshakes(self):
        scenario = _scenario()
        _, connection = _run(scenario, 100 * KB, primary="lte", mode="backup")
        backup = connection.subflow_on("wifi")
        assert backup.client_established

    def test_admin_failover_to_backup(self):
        scenario = _scenario()
        _fail(scenario, "iface_down", "lte", 0.5)
        connection = scenario.mptcp(
            2 * MB, options=MptcpOptions(primary="lte", mode="backup"))
        connection.start()
        connection.close()
        scenario.run(until=20.0)
        assert connection.complete
        assert connection.subflow_delivery_logs["wifi"][-1][1] > 0

    def test_silent_unplug_stalls(self):
        scenario = _scenario()
        _fail(scenario, "blackhole", "lte", 0.5)
        connection = scenario.mptcp(
            2 * MB, options=MptcpOptions(primary="lte", mode="backup"))
        connection.start()
        connection.close()
        scenario.run(until=20.0)
        assert not connection.complete

    def test_detected_unplug_fails_over(self):
        scenario = _scenario()
        _fail(scenario, "blackhole", "lte", 0.5, detected=True)
        connection = scenario.mptcp(
            2 * MB, options=MptcpOptions(primary="lte", mode="backup"))
        connection.start()
        connection.close()
        scenario.run(until=30.0)
        assert connection.complete

    def test_replug_resumes_transfer(self):
        scenario = _scenario()
        _fail(scenario, "blackhole", "lte", 0.5, duration_s=3.5)
        connection = scenario.mptcp(
            500 * KB, options=MptcpOptions(primary="lte", mode="backup"))
        connection.start()
        connection.close()
        scenario.run(until=60.0)
        assert connection.complete

    def test_window_update_emitted_on_silent_stall(self):
        scenario = _scenario()
        updates = []
        scenario.path("wifi").uplink.on_transmit.append(
            lambda p, t: updates.append(t)
            if p.flags & PacketFlags.WINDOW_UPDATE else None
        )
        _fail(scenario, "blackhole", "lte", 0.5)
        connection = scenario.mptcp(
            2 * MB, options=MptcpOptions(primary="lte", mode="backup"))
        connection.start()
        scenario.run(until=20.0)
        assert len(updates) == 1


class TestFullModeFailover:
    def test_failover_reinjects_and_completes(self):
        scenario = _scenario()
        _fail(scenario, "iface_down", "wifi", 0.3)
        connection = scenario.mptcp(
            1 * MB, options=MptcpOptions(primary="wifi", mode="full"))
        connection.start()
        connection.close()
        scenario.run(until=30.0)
        assert connection.complete
        assert connection.bytes_delivered == 1 * MB

    def test_dead_subflow_marked(self):
        scenario = _scenario()
        _fail(scenario, "iface_down", "wifi", 0.3)
        connection = scenario.mptcp(
            1 * MB, options=MptcpOptions(primary="wifi"))
        connection.start()
        connection.close()
        scenario.run(until=30.0)
        assert connection.subflow_on("wifi").state == SubflowState.DEAD


class TestSinglePathMode:
    def test_no_second_subflow_until_failure(self):
        scenario = _scenario()
        connection = scenario.mptcp(
            200 * KB, options=MptcpOptions(primary="wifi", mode="singlepath"))
        connection.start()
        connection.close()
        scenario.run(until=10.0)
        assert connection.complete
        assert len(connection.subflows) == 1

    def test_failover_creates_subflow_on_demand(self):
        scenario = _scenario()
        _fail(scenario, "iface_down", "wifi", 0.3)
        connection = scenario.mptcp(
            1 * MB, options=MptcpOptions(primary="wifi", mode="singlepath"))
        connection.start()
        connection.close()
        scenario.run(until=30.0)
        assert connection.complete
        assert len(connection.subflows) == 2
        assert connection.subflows[1].name == "lte"


class TestSimultaneousJoinAblation:
    def test_simultaneous_join_connects_both_at_start(self):
        scenario = _scenario()
        connection = scenario.mptcp(100 * KB, options=MptcpOptions(
            primary="wifi", simultaneous_join=True, join_delay_rtts=0.0))
        connection.start()
        scenario.run(until=0.01)
        states = {sf.name: sf.state for sf in connection.subflows}
        assert states["lte"] == SubflowState.CONNECTING
