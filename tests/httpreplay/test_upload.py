"""Tests for upload-transaction support in the replay engine."""


from repro.httpreplay.engine import ReplayEngine, STANDARD_CONFIGS
from repro.httpreplay.patterns import dropbox_upload
from repro.linkem import ConditionSpec, PathSpec


def _condition(wifi_up=4.0, lte_up=4.0):
    return ConditionSpec(condition_id=1, paths=(
        PathSpec("wifi", "wifi", down_mbps=10, up_mbps=wifi_up, rtt_ms=35),
        PathSpec("lte", "lte", down_mbps=10, up_mbps=lte_up, rtt_ms=80),
    ))


class TestUploadTransactions:
    def test_upload_session_completes(self):
        engine = ReplayEngine(_condition())
        result = engine.run(dropbox_upload(), STANDARD_CONFIGS[0],
                            deadline_s=120.0)
        assert result.completed
        assert result.replay_misses == 0

    def test_response_time_dominated_by_upload(self):
        # 2 MB at 4 Mbit/s uplink is ~4.2 s of serialization alone.
        engine = ReplayEngine(_condition(wifi_up=4.0))
        result = engine.run(dropbox_upload(), STANDARD_CONFIGS[0],
                            deadline_s=120.0)
        assert result.response_time_s > 3.5

    def test_uplink_rate_governs_response_time(self):
        slow = ReplayEngine(_condition(wifi_up=1.0)).run(
            dropbox_upload(), STANDARD_CONFIGS[0], deadline_s=180.0)
        fast = ReplayEngine(_condition(wifi_up=8.0)).run(
            dropbox_upload(), STANDARD_CONFIGS[0], deadline_s=180.0)
        assert slow.response_time_s > 2 * fast.response_time_s

    def test_upload_rides_configured_path(self):
        # With a dead-slow LTE uplink, the LTE-TCP configuration must
        # be much slower than WiFi-TCP for the upload session.
        engine = ReplayEngine(_condition(wifi_up=8.0, lte_up=0.5))
        wifi = engine.run(dropbox_upload(), STANDARD_CONFIGS[0],
                          deadline_s=180.0)
        lte = engine.run(dropbox_upload(), STANDARD_CONFIGS[1],
                         deadline_s=180.0)
        assert lte.response_time_s > 2 * wifi.response_time_s

    def test_small_requests_do_not_spawn_uploads(self):
        from repro.httpreplay.patterns import cnn_launch

        session = cnn_launch()
        biggest = max(
            t.request.body_bytes
            for c in session.connections for t in c.transactions
        )
        from repro.httpreplay.engine import _ConnectionDriver

        assert biggest < _ConnectionDriver.UPLOAD_THRESHOLD_BYTES

    def test_mptcp_config_uploads_on_primary(self):
        engine = ReplayEngine(_condition())
        result = engine.run(dropbox_upload(), STANDARD_CONFIGS[3],  # LTE prim
                            deadline_s=120.0)
        assert result.completed
