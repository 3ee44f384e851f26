"""Integration tests for single-path TCP connections."""

import pytest

from repro import PathConfig, Scenario
from repro.tcp.config import TcpConfig

KB = 1024
MB = 1024 * 1024


def _scenario(down=10.0, up=5.0, rtt=40.0, loss=0.0, queue=250):
    scenario = Scenario()
    scenario.add_path(PathConfig(
        name="wifi", down_mbps=down, up_mbps=up, rtt_ms=rtt,
        loss_rate=loss, queue_packets=queue,
    ))
    return scenario


class TestBulkTransfer:
    def test_download_completes(self):
        scenario = _scenario()
        result = scenario.run_transfer(scenario.tcp("wifi", 100 * KB))
        assert result.completed
        assert result.connection.bytes_delivered == 100 * KB

    def test_upload_completes(self):
        scenario = _scenario()
        result = scenario.run_transfer(
            scenario.tcp("wifi", 100 * KB, direction="up")
        )
        assert result.completed

    def test_throughput_below_link_rate(self):
        scenario = _scenario(down=10.0)
        result = scenario.run_transfer(scenario.tcp("wifi", 1 * MB))
        assert 0 < result.throughput_mbps < 10.0

    def test_long_transfer_approaches_link_rate(self):
        scenario = _scenario(down=6.0)
        result = scenario.run_transfer(scenario.tcp("wifi", 4 * MB, cc="cubic"))
        assert result.throughput_mbps > 0.7 * 6.0

    def test_faster_link_gives_higher_throughput(self):
        # Build each scenario separately (independent event loops).
        scenario_slow = _scenario(down=2.0)
        slow = scenario_slow.run_transfer(scenario_slow.tcp("wifi", 500 * KB))
        scenario_fast = _scenario(down=20.0)
        fast = scenario_fast.run_transfer(scenario_fast.tcp("wifi", 500 * KB))
        assert fast.throughput_mbps > slow.throughput_mbps

    def test_higher_rtt_slows_short_flows(self):
        scenario_near = _scenario(rtt=20.0)
        near = scenario_near.run_transfer(scenario_near.tcp("wifi", 20 * KB))
        scenario_far = _scenario(rtt=200.0)
        far = scenario_far.run_transfer(scenario_far.tcp("wifi", 20 * KB))
        assert near.duration_s < far.duration_s

    def test_lossy_link_still_completes(self):
        scenario = _scenario(loss=0.01)
        result = scenario.run_transfer(scenario.tcp("wifi", 300 * KB))
        assert result.completed
        assert result.connection.stats().retransmits > 0

    def test_tiny_queue_still_completes(self):
        scenario = _scenario(queue=10)
        result = scenario.run_transfer(scenario.tcp("wifi", 500 * KB))
        assert result.completed

    def test_zero_byte_transfer_completes_immediately(self):
        scenario = _scenario()
        result = scenario.run_transfer(scenario.tcp("wifi", 0))
        assert result.completed
        assert result.connection.bytes_delivered == 0

    def test_reno_and_cubic_both_work(self):
        for cc in ("reno", "cubic"):
            scenario = _scenario()
            result = scenario.run_transfer(scenario.tcp("wifi", 500 * KB, cc=cc))
            assert result.completed, cc

    def test_deterministic_given_seed(self):
        durations = []
        for _ in range(2):
            scenario = _scenario(loss=0.005)
            result = scenario.run_transfer(scenario.tcp("wifi", 500 * KB))
            durations.append(result.duration_s)
        assert durations[0] == durations[1]


class TestDeliveryLog:
    def test_log_is_monotonic(self):
        scenario = _scenario()
        result = scenario.run_transfer(scenario.tcp("wifi", 500 * KB))
        log = result.delivery_log
        times = [t for t, _ in log]
        cums = [c for _, c in log]
        assert times == sorted(times)
        assert cums == sorted(cums)
        assert cums[-1] == 500 * KB

    def test_time_to_bytes_monotonic_in_bytes(self):
        scenario = _scenario()
        connection = scenario.tcp("wifi", 1 * MB)
        scenario.run_transfer(connection)
        t_small = connection.time_to_bytes(10 * KB)
        t_large = connection.time_to_bytes(900 * KB)
        assert t_small < t_large

    def test_throughput_at_bytes_small_flows_slower(self):
        # Handshake and slow start penalize small flows.
        scenario = _scenario()
        connection = scenario.tcp("wifi", 1 * MB)
        scenario.run_transfer(connection)
        assert connection.throughput_at_bytes(10 * KB) < (
            connection.throughput_at_bytes(1 * MB)
        )


class TestPersistentConnections:
    def test_append_transfer_reuses_connection(self):
        scenario = _scenario()
        connection = scenario.tcp("wifi", 50 * KB)
        finished = []
        connection.notify_at_bytes(50 * KB, lambda: finished.append(1))
        connection.notify_at_bytes(120 * KB, lambda: finished.append(2))
        connection.start()
        scenario.loop.call_at(1.0, lambda: connection.append_transfer(70 * KB))
        scenario.run(until=5.0)
        assert finished == [1, 2]
        assert connection.bytes_delivered == 120 * KB

    def test_no_fin_until_app_closes(self):
        scenario = _scenario()
        fins = []
        scenario.path("wifi").downlink.on_transmit.append(
            lambda p, t: fins.append(t) if p.is_fin else None
        )
        connection = scenario.tcp("wifi", 50 * KB)
        connection.start()
        scenario.run(until=3.0)
        assert connection.complete
        assert fins == []
        connection.close()
        scenario.run(until=4.0)
        assert fins

    def test_append_after_close_rejected(self):
        from repro.core.errors import ConfigurationError

        scenario = _scenario()
        connection = scenario.tcp("wifi", 10 * KB)
        scenario.run_transfer(connection)
        with pytest.raises(ConfigurationError):
            connection.append_transfer(1000)


class TestWarmStart:
    def test_warm_ssthresh_slows_mid_size_flows(self):
        cold_scenario = _scenario(down=20.0)
        cold = cold_scenario.run_transfer(cold_scenario.tcp("wifi", 1 * MB))
        warm_scenario = _scenario(down=20.0)
        warm = warm_scenario.run_transfer(warm_scenario.tcp(
            "wifi", 1 * MB, config=TcpConfig(initial_ssthresh_segments=16),
        ))
        assert warm.duration_s > cold.duration_s


class TestCloseCheck:
    """The close check runs on every ACK of the FIN drain; a subflow
    whose FIN is already out is skipped before ``start_close``."""

    @pytest.mark.parametrize("kind", ["tcp", "mptcp"])
    def test_no_start_close_once_the_fin_is_out(self, kind, monkeypatch):
        from repro.tcp.subflow import Subflow

        calls = {"fresh": 0, "fin_out": 0}
        start_close = Subflow.start_close

        def counting(subflow):
            calls["fin_out" if subflow._fin_sent else "fresh"] += 1
            start_close(subflow)

        monkeypatch.setattr(Subflow, "start_close", counting)
        scenario = _scenario()
        scenario.add_path(PathConfig(name="lte", down_mbps=8.0, up_mbps=4.0,
                                     rtt_ms=70.0, queue_packets=250))
        connection = (scenario.tcp("wifi", 10 * KB) if kind == "tcp"
                      else scenario.mptcp(10 * KB))
        assert scenario.run_transfer(connection).completed
        assert calls["fresh"] == len(connection.subflows)
        assert calls["fin_out"] == 0
