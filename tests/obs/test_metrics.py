"""Tests for the metrics registry and transfer-metrics collection."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    collect_transfer_metrics,
    metrics_for_subflow,
    reconcile,
    subflow_label_pairs,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("segments").inc()
        registry.counter("segments").inc(4)
        assert registry.snapshot() == {"segments": 5.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.set(3)
        assert registry.snapshot() == {"depth": 3.0}

    def test_histogram_summary_stats(self):
        histogram = Histogram()
        for value in (0.030, 0.050, 0.040):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(0.040)
        assert histogram.minimum == 0.030
        assert histogram.maximum == 0.050

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0


class TestRegistrySnapshot:
    def test_labels_render_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("sent", subflow="0", path="wifi").inc(7)
        snap = registry.snapshot()
        assert snap == {"sent{path=wifi,subflow=0}": 7.0}
        # Same labels in any keyword order address the same instrument.
        registry.counter("sent", path="wifi", subflow="0").inc(1)
        assert registry.snapshot()["sent{path=wifi,subflow=0}"] == 8.0

    def test_histogram_expands_to_series(self):
        registry = MetricsRegistry()
        registry.histogram("rtt_s", path="lte").observe(0.05)
        snap = registry.snapshot()
        assert snap == {
            "rtt_s_count{path=lte}": 1.0,
            "rtt_s_sum{path=lte}": 0.05,
            "rtt_s_min{path=lte}": 0.05,
            "rtt_s_max{path=lte}": 0.05,
        }

    def test_empty_histogram_omits_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("rtt_s")
        snap = registry.snapshot()
        assert snap == {"rtt_s_count": 0.0, "rtt_s_sum": 0.0}

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa").inc()
        assert list(registry.snapshot()) == ["aa", "zz"]


class TestCollectTransferMetrics:
    def _run(self):
        from repro import PathConfig, Scenario

        scenario = Scenario(seed=5)
        scenario.add_path(PathConfig(name="wifi", down_mbps=10, up_mbps=5,
                                     rtt_ms=30))
        connection = scenario.tcp("wifi", 64 * 1024)
        scenario.run_transfer(connection)
        return connection, scenario.paths

    def test_sender_counters_surface(self):
        connection, paths = self._run()
        metrics = collect_transfer_metrics(connection, paths)
        stats = connection.subflows[0].sender.stats
        assert metrics["segments_sent{path=wifi,subflow=0}"] == float(
            stats.segments_sent
        )
        assert metrics["bytes_sent{path=wifi,subflow=0}"] == float(
            stats.bytes_sent
        )
        assert metrics["handshake_rtt_s_count{path=wifi}"] == 1.0

    def test_link_series_per_direction(self):
        connection, paths = self._run()
        metrics = collect_transfer_metrics(connection, paths)
        assert metrics["link_delivered_bytes{dir=down,path=wifi}"] > 0
        assert "queue_drops{dir=up,path=wifi}" in metrics
        assert "queue_max_depth_bytes{dir=down,path=wifi}" in metrics

    def test_subflow_helpers(self):
        connection, paths = self._run()
        metrics = collect_transfer_metrics(connection, paths)
        assert subflow_label_pairs(metrics) == [("wifi", 0)]
        series = metrics_for_subflow(metrics, "wifi", 0)
        assert series["segments_sent"] == metrics[
            "segments_sent{path=wifi,subflow=0}"
        ]


def _registry_snapshot(connection, paths):
    """``collect_transfer_metrics`` as it was first written: through a
    :class:`MetricsRegistry`.  The production function now fills the
    flat dict directly; this is the reference it must stay equal to."""
    registry = MetricsRegistry()
    for subflow in connection.subflows:
        labels = {"path": subflow.name, "subflow": str(subflow.subflow_id)}
        stats = subflow.sender.stats
        registry.counter("segments_sent", **labels).inc(stats.segments_sent)
        registry.counter("bytes_sent", **labels).inc(stats.bytes_sent)
        registry.counter("retransmits", **labels).inc(stats.retransmits)
        registry.counter("fast_retransmits", **labels).inc(
            stats.fast_retransmits
        )
        registry.counter("timeouts", **labels).inc(stats.timeouts)
        if subflow.handshake_rtt is not None:
            registry.histogram("handshake_rtt_s", path=subflow.name).observe(
                subflow.handshake_rtt
            )
    for path in paths:
        for direction, link in (("up", path.uplink), ("down", path.downlink)):
            labels = {"path": path.name, "dir": direction}
            qstats = link.queue.stats
            registry.counter("queue_drops", **labels).inc(qstats.dropped)
            registry.gauge("queue_max_depth_packets", **labels).set(
                qstats.max_depth_packets
            )
            registry.gauge("queue_max_depth_bytes", **labels).set(
                qstats.max_depth_bytes
            )
            registry.counter("link_delivered_bytes", **labels).inc(
                link.delivered_bytes
            )
            registry.counter("link_channel_drops", **labels).inc(
                link.channel_drops
            )
    return registry.snapshot()


class TestCollectMatchesRegistry:
    """The snapshot is in every report and digest: same keys, same
    order, same value *types* as the registry would have produced."""

    def _scenario(self, lossy=False):
        from repro import PathConfig, Scenario

        scenario = Scenario(seed=9)
        scenario.add_path(PathConfig(
            name="wifi", down_mbps=8, up_mbps=3, rtt_ms=30,
            queue_packets=15, loss_rate=0.02 if lossy else 0.0))
        scenario.add_path(PathConfig(name="lte", down_mbps=5, up_mbps=2,
                                     rtt_ms=80, queue_packets=30))
        return scenario

    def _assert_identical(self, connection, scenario):
        got = collect_transfer_metrics(connection, scenario.paths)
        want = _registry_snapshot(connection, scenario.paths)
        assert got == want
        assert list(got) == list(want)
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()
        }
        return got

    def test_tcp(self):
        scenario = self._scenario(lossy=True)
        connection = scenario.tcp("wifi", 200_000)
        scenario.run_transfer(connection)
        got = self._assert_identical(connection, scenario)
        assert got["retransmits{path=wifi,subflow=0}"] > 0
        assert type(got["queue_max_depth_packets{dir=down,path=wifi}"]) is int
        assert type(got["queue_drops{dir=down,path=wifi}"]) is float

    def test_two_subflow_mptcp(self):
        scenario = self._scenario(lossy=True)
        connection = scenario.mptcp(300_000)
        scenario.run_transfer(connection)
        got = self._assert_identical(connection, scenario)
        assert got["handshake_rtt_s_count{path=lte}"] == 1.0

    def test_subflows_sharing_a_path_share_its_histogram(self):
        from repro.mptcp.connection import MptcpOptions

        scenario = self._scenario()
        connection = scenario.mptcp(
            300_000, options=MptcpOptions(subflows_per_path=2))
        scenario.run_transfer(connection)
        got = self._assert_identical(connection, scenario)
        assert len(connection.subflows) == 4
        assert got["handshake_rtt_s_count{path=wifi}"] == 2.0
        assert (got["handshake_rtt_s_min{path=wifi}"]
                <= got["handshake_rtt_s_max{path=wifi}"])

    def test_backup_subflow_that_never_establishes(self):
        from repro.mptcp.connection import MptcpOptions

        scenario = self._scenario()
        scenario.path("lte").unplug()  # the backup's SYNs vanish
        connection = scenario.mptcp(
            100_000, options=MptcpOptions(primary="wifi", mode="backup"))
        scenario.run_transfer(connection)
        got = self._assert_identical(connection, scenario)
        assert connection.subflow_on("lte").handshake_rtt is None
        assert not any(key.startswith("handshake_rtt_s")
                       and key.endswith("{path=lte}") for key in got)
        assert got["segments_sent{path=lte,subflow=1}"] == 0.0

    def test_mid_transfer_snapshot(self):
        scenario = self._scenario()
        connection = scenario.mptcp(2_000_000)
        connection.start()
        scenario.run(until=0.5)
        assert not connection.complete
        self._assert_identical(connection, scenario)


class TestReconcile:
    def test_exact_match_is_empty(self):
        metrics = {
            "segments_sent{path=wifi,subflow=0}": 10.0,
            "bytes_sent{path=wifi,subflow=0}": 14480.0,
        }
        counts = {("wifi", 0): {"segments_sent": 10.0,
                                "bytes_sent": 14480.0}}
        assert reconcile(metrics, counts) == []

    def test_mismatch_reported_per_field(self):
        metrics = {"segments_sent{path=wifi,subflow=0}": 10.0}
        counts = {("wifi", 0): {"segments_sent": 9.0}}
        problems = reconcile(metrics, counts)
        assert len(problems) == 1
        assert "wifi/0 segments_sent" in problems[0]


class TestSpanTimer:
    def test_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("coordinator.dispatch"):
            pass
        snap = registry.snapshot()
        assert snap["coordinator.dispatch_s_count"] == 1.0
        assert snap["coordinator.dispatch_s_sum"] >= 0.0

    def test_timer_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("span"):
                raise RuntimeError("boom")
        assert registry.snapshot()["span_s_count"] == 1.0

    def test_labeled_timers_are_distinct(self):
        registry = MetricsRegistry()
        with registry.timer("rt", executor="socket"):
            pass
        with registry.timer("rt", executor="process"):
            pass
        snap = registry.snapshot()
        assert snap["rt_s_count{executor=socket}"] == 1.0
        assert snap["rt_s_count{executor=process}"] == 1.0
