"""Tests for the redundant scheduler extension."""


from repro import MptcpOptions, PathConfig, Scenario
from repro.faults import FaultEvent, FaultSpec
from repro.mptcp.scheduler import RedundantScheduler, make_scheduler


def _scenario(wifi_rtt=35.0, lte_rtt=200.0):
    scenario = Scenario()
    scenario.add_path(PathConfig(name="wifi", down_mbps=8, up_mbps=4,
                                 rtt_ms=wifi_rtt))
    scenario.add_path(PathConfig(name="lte", down_mbps=8, up_mbps=4,
                                 rtt_ms=lte_rtt, queue_packets=500))
    return scenario


class TestRedundantScheduler:
    def test_factory(self):
        assert isinstance(make_scheduler("redundant"), RedundantScheduler)

    def test_pick_all_returns_everything(self):
        class Fake:
            def __init__(self, sid, srtt):
                self.subflow_id = sid
                self.srtt = srtt

        scheduler = RedundantScheduler()
        subflows = [Fake(1, 0.1), Fake(0, 0.2)]
        assert [sf.subflow_id for sf in scheduler.pick_all(subflows)] == [0, 1]

    def test_transfer_completes_exactly(self):
        scenario = _scenario()
        options = MptcpOptions(primary="wifi", scheduler="redundant",
                               congestion_control="decoupled")
        connection = scenario.mptcp(200 * 1024, options=options)
        result = scenario.run_transfer(connection)
        assert result.completed
        assert connection.bytes_delivered == 200 * 1024

    def test_both_paths_carry_duplicates(self):
        # LTE RTT moderate so its subflow joins while data remains.
        scenario = _scenario(lte_rtt=80.0)
        options = MptcpOptions(primary="wifi", scheduler="redundant",
                               congestion_control="decoupled")
        connection = scenario.mptcp(1024 * 1024, options=options)
        scenario.run_transfer(connection)
        sent = {sf.name: sf.sender.stats.bytes_sent
                for sf in connection.subflows}
        # Duplication happened: together the subflows sent meaningfully
        # more than the transfer size, and both carried real volume.
        assert sum(sent.values()) > 1024 * 1024 * 1.02
        assert min(sent.values()) >= 150 * 1024

    def test_completion_tracks_fast_path(self):
        # Redundant completion should be close to the fast path's time,
        # despite the 200 ms path carrying duplicates.
        scenario = _scenario()
        options = MptcpOptions(primary="wifi", scheduler="redundant",
                               congestion_control="decoupled")
        redundant = scenario.run_transfer(
            scenario.mptcp(100 * 1024, options=options))

        scenario_tcp = _scenario()
        single = scenario_tcp.run_transfer(scenario_tcp.tcp("wifi", 100 * 1024))
        assert redundant.duration_s <= single.duration_s * 1.5

    def test_survives_silent_path_loss(self):
        # With every chunk duplicated, silently losing one path cannot
        # stall the transfer (unlike Backup mode's Fig. 15g).
        scenario = _scenario()
        scenario.inject_faults(FaultSpec(events=(
            FaultEvent("blackhole", "lte", at_s=0.2),)))
        options = MptcpOptions(primary="wifi", scheduler="redundant",
                               congestion_control="decoupled")
        connection = scenario.mptcp(300 * 1024, options=options)
        result = scenario.run_transfer(connection, deadline_s=60.0)
        assert result.completed
