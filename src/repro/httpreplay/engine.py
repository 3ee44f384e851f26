"""The replay engine: run a recorded app session over emulated links.

For each recorded connection the engine opens a transport connection
(single-path TCP or MPTCP, per the configuration under test) at the
recorded offset, then walks its transactions: the request is served
from the replay archive (ReplayShell matching), the response bytes are
pushed through the simulated transport, and the next transaction waits
for the recorded client think time.  The session's *app response time*
is the paper's metric: start of the first HTTP connection to the end
of the last one.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.httpreplay.patterns import PATTERN_BUILDERS
from repro.httpreplay.recorder import RecordShell
from repro.httpreplay.replayer import ReplayShell
from repro.httpreplay.session import AppSession, RecordedConnection
from repro.linkem.conditions import ConditionSpec
from repro.mptcp.connection import MptcpOptions
from repro.scenario import Scenario
from repro.tcp.connection import ConnectionBase
from repro.workload.session import Session

__all__ = ["TransportConfig", "STANDARD_CONFIGS", "AppReplayResult",
           "ReplayEngine", "replay_app"]


@dataclass(frozen=True)
class TransportConfig:
    """One of the paper's six replay configurations (§5)."""

    name: str
    kind: str  # "tcp" or "mptcp"
    path: str  # TCP: the path used; MPTCP: the primary subflow's path
    congestion_control: str  # TCP: "cubic"/"reno"; MPTCP: "coupled"/"decoupled"

    def __post_init__(self) -> None:
        if self.kind not in ("tcp", "mptcp"):
            raise ConfigurationError(f"unknown transport kind: {self.kind!r}")


#: The six configurations of §5, in the paper's order.
STANDARD_CONFIGS: List[TransportConfig] = [
    TransportConfig("WiFi-TCP", "tcp", "wifi", "cubic"),
    TransportConfig("LTE-TCP", "tcp", "lte", "cubic"),
    TransportConfig("MPTCP-Coupled-WiFi", "mptcp", "wifi", "coupled"),
    TransportConfig("MPTCP-Coupled-LTE", "mptcp", "lte", "coupled"),
    TransportConfig("MPTCP-Decoupled-WiFi", "mptcp", "wifi", "decoupled"),
    TransportConfig("MPTCP-Decoupled-LTE", "mptcp", "lte", "decoupled"),
]


@dataclass
class AppReplayResult:
    """Outcome of replaying one session under one configuration."""

    session_name: str
    config_name: str
    response_time_s: float
    completed: bool
    connection_finish_times: Dict[int, float] = field(default_factory=dict)
    replay_hits: int = 0
    replay_misses: int = 0


class _ConnectionDriver:
    """Walks one recorded connection's transactions over a transport."""

    def __init__(
        self,
        scenario: Scenario,
        recorded: RecordedConnection,
        transport: ConnectionBase,
        replay: ReplayShell,
        request_one_way_s: float,
        on_finished,
        upload_path: str = "wifi",
    ) -> None:
        self.scenario = scenario
        self.recorded = recorded
        self.transport = transport
        self.replay = replay
        self.request_one_way_s = request_one_way_s
        self.on_finished = on_finished
        #: Large request bodies ride a single-path upload on this path
        #: (the configuration's path / MPTCP primary).
        self.upload_path = upload_path
        self._cumulative = 0
        self.finished_at: Optional[float] = None

    def start(self) -> None:
        self.transport.start()
        self._issue(0)

    #: Request bodies above this ride a simulated uplink transfer
    #: instead of being folded into the fixed request delay.
    UPLOAD_THRESHOLD_BYTES = 16 * 1024

    def _issue(self, index: int) -> None:
        transaction = self.recorded.transactions[index]
        response = self.replay.serve(transaction.request)
        if transaction.request.body_bytes >= self.UPLOAD_THRESHOLD_BYTES:
            # A large request body (photo/file upload): actually move
            # the bytes upstream before the server can respond.
            upload = self.scenario.tcp(
                self.upload_path, transaction.request.body_bytes,
                direction="up",
            )
            upload.on_complete.append(
                lambda _conn: self._schedule_response(
                    index, response, transaction.server_think_s)
            )
            upload.start()
            upload.close()
            return
        if index == 0:
            # The first request rides the handshake-completing ACK;
            # only server think time is extra.
            delay = transaction.server_think_s
        else:
            delay = transaction.server_think_s + self.request_one_way_s
        self._schedule_response(index, response, delay)

    def _schedule_response(self, index: int, response, delay: float) -> None:
        nbytes = max(1, response.wire_bytes)
        self._cumulative += nbytes
        threshold = self._cumulative
        self.scenario.loop.call_later(
            delay, lambda: self.transport.append_transfer(nbytes)
        )
        self.transport.notify_at_bytes(
            threshold, lambda: self._finished_transaction(index)
        )

    def _finished_transaction(self, index: int) -> None:
        if index + 1 < len(self.recorded.transactions):
            think = self.recorded.transactions[index + 1].client_think_s
            self.scenario.loop.call_later(
                think, lambda: self._issue(index + 1)
            )
        else:
            self.finished_at = self.scenario.loop.now
            self.transport.close()
            self.on_finished(self)


class ReplayEngine:
    """Replays app sessions inside the MpShell emulating a location."""

    def __init__(self, condition: ConditionSpec):
        self.condition = condition

    def _make_transport(
        self, scenario: Scenario, config: TransportConfig
    ) -> ConnectionBase:
        if config.kind == "tcp":
            return scenario.tcp(
                config.path, total_bytes=0, direction="down",
                cc=config.congestion_control,
            )
        options = MptcpOptions(
            primary=config.path,
            congestion_control=config.congestion_control,
        )
        return scenario.mptcp(total_bytes=0, direction="down", options=options)

    def run(
        self,
        session: AppSession,
        config: TransportConfig,
        deadline_s: float = 300.0,
        seed: Optional[int] = None,
    ) -> AppReplayResult:
        """Replay ``session`` under ``config``; returns the app metrics."""
        recorder = RecordShell()
        recorder.record(session)
        replay = ReplayShell(recorder.archive)
        unfinished: List[_ConnectionDriver] = []
        finish_times: Dict[int, float] = {}

        def finished(driver: _ConnectionDriver) -> None:
            unfinished.remove(driver)
            finish_times[driver.recorded.connection_id] = driver.finished_at
            if not unfinished:
                # ``run`` returns at the last finish instant, not at
                # ``deadline_s``.
                scenario.loop.stop()

        # The sweep key of :func:`replay_app`'s task names the trace.
        key = f"replay.{session.name}.{self.condition.condition_id}.{config.name}"
        with Session().network(self.condition, seed, key) as scenario:
            for recorded in session.connections:
                if not recorded.transactions:
                    continue
                transport = self._make_transport(scenario, config)
                one_way = scenario.path(config.path).config.rtt_ms / 2000.0
                driver = _ConnectionDriver(
                    scenario, recorded, transport, replay, one_way, finished,
                    upload_path=config.path,
                )
                unfinished.append(driver)
                scenario.loop.call_at(recorded.open_offset_s, driver.start)

            if not unfinished:
                # Nothing would ever finish: a deadline-sized response
                # time must not enter an oracle mean as a success.
                raise ConfigurationError(
                    f"session {session.name!r} has no transactions to replay"
                )
            scenario.loop.run(until=deadline_s)

        completed = not unfinished
        # Each driver's ``on_finished`` closes over this list.
        unfinished.clear()
        return AppReplayResult(
            session_name=session.name,
            config_name=config.name,
            response_time_s=(
                max(finish_times.values()) if completed else deadline_s
            ),
            completed=completed,
            connection_finish_times=finish_times,
            replay_hits=replay.hits,
            replay_misses=replay.misses,
        )


def replay_app(
    app: str,
    app_seed: int,
    condition: ConditionSpec,
    config: str,
    seed: int,
    deadline_s: float = 300.0,
) -> AppReplayResult:
    """:meth:`ReplayEngine.run` as a sweep task: all arguments plain data.

    ``app`` names a :data:`PATTERN_BUILDERS` pattern (built from
    ``app_seed``), ``config`` one of :data:`STANDARD_CONFIGS`; ``seed``
    realizes ``condition``'s network.
    """
    configs = {c.name: c for c in STANDARD_CONFIGS}
    if app not in PATTERN_BUILDERS:
        raise ConfigurationError(
            f"unknown app pattern {app!r}; have {sorted(PATTERN_BUILDERS)}"
        )
    if config not in configs:
        raise ConfigurationError(
            f"unknown configuration {config!r}; have {list(configs)}"
        )
    return ReplayEngine(condition).run(
        PATTERN_BUILDERS[app](app_seed), configs[config],
        deadline_s=deadline_s, seed=seed,
    )
