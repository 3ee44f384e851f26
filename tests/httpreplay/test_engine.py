"""Integration tests for the app replay engine."""

import pytest

from repro.core import env
from repro.core.errors import ConfigurationError
from repro.httpreplay.engine import (
    ReplayEngine,
    STANDARD_CONFIGS,
    TransportConfig,
    replay_app,
)
from repro.httpreplay.message import HttpRequest, HttpResponse
from repro.httpreplay.patterns import dropbox_launch
from repro.httpreplay.session import AppSession, RecordedConnection, Transaction
from repro.linkem import ConditionSpec, PathSpec
from repro.obs.trace import load_events, trace_filename


def _condition(wifi_down=10.0, lte_down=8.0):
    return ConditionSpec(condition_id=1, paths=(
        PathSpec("wifi", "wifi", down_mbps=wifi_down, up_mbps=wifi_down / 2,
                 rtt_ms=35),
        PathSpec("lte", "lte", down_mbps=lte_down, up_mbps=lte_down / 2,
                 rtt_ms=80),
    ))


def _tiny_session():
    connection = RecordedConnection(
        connection_id=1, open_offset_s=0.0,
        transactions=[
            Transaction(
                request=HttpRequest("GET", "http://x.example/1"),
                response=HttpResponse(body_bytes=50_000),
                server_think_s=0.02,
            ),
            Transaction(
                request=HttpRequest("GET", "http://x.example/2"),
                response=HttpResponse(body_bytes=20_000),
                client_think_s=0.1,
                server_think_s=0.02,
            ),
        ],
    )
    return AppSession(name="tiny", connections=[connection])


class TestStandardConfigs:
    def test_six_configurations(self):
        assert len(STANDARD_CONFIGS) == 6
        names = [c.name for c in STANDARD_CONFIGS]
        assert names[0] == "WiFi-TCP"
        assert "MPTCP-Decoupled-LTE" in names

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TransportConfig("x", "udp", "wifi", "cubic")


class TestReplayEngine:
    def test_tiny_session_completes_on_all_configs(self):
        engine = ReplayEngine(_condition())
        results = [engine.run(_tiny_session(), config, deadline_s=60.0)
                   for config in STANDARD_CONFIGS]
        assert [r.config_name for r in results] == [
            c.name for c in STANDARD_CONFIGS]
        assert all(r.completed for r in results)

    def test_response_time_includes_think_times(self):
        engine = ReplayEngine(_condition())
        result = engine.run(_tiny_session(), STANDARD_CONFIGS[0])
        assert result.response_time_s > 0.1  # at least the client think

    def test_all_requests_matched_by_replay_shell(self):
        engine = ReplayEngine(_condition())
        result = engine.run(_tiny_session(), STANDARD_CONFIGS[0])
        assert result.replay_misses == 0
        assert result.replay_hits == 2

    def test_slower_network_slower_response(self):
        session = dropbox_launch()
        fast = ReplayEngine(_condition(wifi_down=20.0)).run(
            session, STANDARD_CONFIGS[0])
        slow = ReplayEngine(_condition(wifi_down=1.0)).run(
            session, STANDARD_CONFIGS[0])
        assert slow.response_time_s > fast.response_time_s

    def test_tcp_config_uses_named_path(self):
        # With a dead-slow LTE, LTE-TCP must be much slower than WiFi-TCP.
        engine = ReplayEngine(_condition(wifi_down=20.0, lte_down=0.5))
        session = dropbox_launch()
        wifi = engine.run(session, STANDARD_CONFIGS[0])
        lte = engine.run(session, STANDARD_CONFIGS[1])
        assert lte.response_time_s > wifi.response_time_s

    def test_deadline_caps_incomplete_replays(self):
        engine = ReplayEngine(_condition(wifi_down=0.3, lte_down=0.3))
        session = dropbox_launch()
        result = engine.run(session, STANDARD_CONFIGS[0], deadline_s=0.5)
        assert not result.completed
        assert result.response_time_s == 0.5

    def test_connection_finish_times_recorded(self):
        engine = ReplayEngine(_condition())
        session = dropbox_launch()
        result = engine.run(session, STANDARD_CONFIGS[0])
        assert set(result.connection_finish_times) == {
            c.connection_id for c in session.connections
        }

    def test_deterministic(self):
        engine = ReplayEngine(_condition())
        a = engine.run(_tiny_session(), STANDARD_CONFIGS[2], seed=3)
        b = engine.run(_tiny_session(), STANDARD_CONFIGS[2], seed=3)
        assert a.response_time_s == b.response_time_s


class TestNothingToReplay:
    """An empty recording is a caller error, not a 300 s "success"."""

    @pytest.mark.parametrize("session", [
        AppSession("empty", []),
        AppSession("hollow", [RecordedConnection(
            connection_id=1, open_offset_s=0.0, transactions=[])]),
    ], ids=lambda session: session.name)
    def test_session_without_transactions_is_a_typed_error(self, session):
        with pytest.raises(ConfigurationError,
                           match=f"{session.name}.*no transactions"):
            ReplayEngine(_condition()).run(session, STANDARD_CONFIGS[0])


class TestReplayApp:
    """``replay_app``: ``ReplayEngine.run`` with everything named."""

    def test_equals_engine_run_on_the_same_pattern_and_seed(self):
        config = STANDARD_CONFIGS[3]
        assert replay_app(
            "dropbox_launch", 7, _condition(), config.name, seed=11,
            deadline_s=60.0,
        ) == ReplayEngine(_condition()).run(
            dropbox_launch(7), config, deadline_s=60.0, seed=11)

    @pytest.mark.parametrize("app, config, complaint", [
        ("tiktok_launch", "WiFi-TCP", "unknown app pattern 'tiktok_launch'"),
        ("dropbox_launch", "QUIC-WiFi", "unknown configuration 'QUIC-WiFi'"),
    ])
    def test_unknown_names_are_typed_errors(self, app, config, complaint):
        with pytest.raises(ConfigurationError, match=complaint):
            replay_app(app, 1, _condition(), config, seed=1)

    def test_result_survives_a_pickle_round_trip(self):
        import pickle

        result = replay_app("dropbox_launch", 7, _condition(), "LTE-TCP",
                            seed=11)
        assert result.completed and result.connection_finish_times
        assert pickle.loads(pickle.dumps(result)) == result


class TestReturnsAtTheFinishInstant:
    """``run`` is one ``loop.run``, stopped by the last driver to finish
    — not a wake-up every simulated second to poll for it."""

    @pytest.fixture
    def scenarios(self, monkeypatch):
        from repro.workload import session

        built = []

        def recording_mpshell(*args, **kwargs):
            built.append(session_mpshell(*args, **kwargs))
            return built[-1]

        session_mpshell = session.mpshell
        monkeypatch.setattr(session, "mpshell", recording_mpshell)
        return built

    def test_short_session_leaves_the_clock_at_its_finish(self, scenarios):
        result = ReplayEngine(_condition()).run(
            _tiny_session(), STANDARD_CONFIGS[0])
        assert result.completed
        assert result.response_time_s < 1.0
        (scenario,) = scenarios
        assert scenario.loop.now == result.response_time_s

    def test_unfinishable_session_returns_at_the_deadline(self, scenarios):
        result = ReplayEngine(_condition(wifi_down=0.3, lte_down=0.3)).run(
            dropbox_launch(), STANDARD_CONFIGS[0], deadline_s=0.5)
        assert not result.completed
        assert result.response_time_s == 0.5
        (scenario,) = scenarios
        assert scenario.loop.now == 0.5


class TestConditionWithoutTheConfiguredPath:
    def test_dual_lte_location_is_a_typed_error(self):
        dual_lte = ConditionSpec(condition_id=30, paths=(
            PathSpec("lte", "lte", down_mbps=9, up_mbps=4, rtt_ms=70),
            PathSpec("lte2", "lte", down_mbps=6, up_mbps=2, rtt_ms=95),
        ))
        engine = ReplayEngine(dual_lte)
        for config in (STANDARD_CONFIGS[0], STANDARD_CONFIGS[2]):
            assert config.path == "wifi"
            with pytest.raises(ConfigurationError, match=r"lte.*lte2"):
                engine.run(_tiny_session(), config)
        assert engine.run(_tiny_session(), STANDARD_CONFIGS[1]).completed


class TestTracedReplay:
    """With ``REPRO_TRACE_DIR`` set, a replay is traced like a transfer:
    one JSONL file named for its sweep key, and the same result."""

    def test_one_trace_named_for_the_sweep_key(self, monkeypatch, tmp_path):
        def replay():
            return replay_app("dropbox_launch", 7, _condition(),
                              "MPTCP-Coupled-LTE", seed=11)

        monkeypatch.delenv(env.TRACE_DIR, raising=False)
        untraced = replay()
        monkeypatch.setenv(env.TRACE_DIR, str(tmp_path))
        assert replay() == untraced
        name = trace_filename("replay.dropbox_launch.1.MPTCP-Coupled-LTE", 11)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        kinds = {event.kind for event in load_events(str(tmp_path / name))}
        assert "handshake" in kinds
