"""High-level harness: build paths, run transfers, collect results.

This is the front door of the library.  A :class:`Scenario` owns an
event loop and a set of named paths (a multi-homed client's WiFi and
LTE interfaces); transfers are created on top and the whole thing runs
deterministically.

Example
-------
>>> from repro.scenario import Scenario
>>> from repro.net.path import PathConfig
>>> sc = Scenario()
>>> _ = sc.add_path(PathConfig(name="wifi", down_mbps=20, up_mbps=8, rtt_ms=30))
>>> conn = sc.tcp("wifi", total_bytes=100_000)
>>> result = sc.run_transfer(conn)
>>> result.completed
True
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import throughput as metrics
from repro.core.errors import ConfigurationError, SimulationError, TransferDeadlineExceeded
from repro.core.events import EventLoop
from repro.core.rng import DEFAULT_SEED, RngStreams
from repro.net.fabric import AttachedPath
from repro.net.path import Path, PathConfig
from repro.tcp.cc import single_path_factory
from repro.tcp.config import TcpConfig
from repro.tcp.connection import ConnectionBase, TcpConnection
from repro.mptcp.connection import MptcpConnection, MptcpOptions

__all__ = ["Scenario", "TransferResult"]

#: Wall-clock guard for a single simulated transfer, seconds.
DEFAULT_DEADLINE_S = 600.0


@dataclass
class TransferResult:
    """Outcome of one bulk transfer."""

    connection: ConnectionBase
    total_bytes: int
    started_at: Optional[float]
    completed_at: Optional[float]
    delivery_log: metrics.DeliveryLog

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def duration_s(self) -> Optional[float]:
        return metrics.transfer_duration_s(self.started_at, self.completed_at)

    @property
    def throughput_mbps(self) -> Optional[float]:
        return metrics.mean_throughput_mbps(
            self.total_bytes, self.started_at, self.completed_at
        )

    def throughput_at_bytes(self, nbytes: int) -> Optional[float]:
        """Average throughput over the first ``nbytes`` delivered in order."""
        return self.connection.throughput_at_bytes(nbytes)


class Scenario:
    """An event loop plus the client's attached paths (``with`` closes it)."""

    def __init__(self, seed: int = DEFAULT_SEED, recorder=None):
        self.loop = EventLoop()
        self.rng = RngStreams(seed)
        self._paths: Dict[str, AttachedPath] = {}
        #: Optional :class:`~repro.obs.trace.TraceRecorder`.  When set,
        #: every path added and every transfer created is wired into it.
        self.recorder = recorder
        #: Armed :class:`~repro.faults.injector.FaultInjector` objects,
        #: in :meth:`inject_faults` order.
        self.fault_injectors: List = []
        #: Every connection :meth:`tcp`/:meth:`mptcp` built (for :meth:`close`).
        self._connections: List[ConnectionBase] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_path(self, config: PathConfig) -> AttachedPath:
        """Attach a new named path (e.g. the client's WiFi interface)."""
        if config.name in self._paths:
            raise ConfigurationError(f"duplicate path name: {config.name!r}")
        # Only a lossy path draws; streams are keyed by name, not by
        # creation order, so skipping the rest moves no other stream.
        path = Path(
            self._live_loop(), config,
            loss_rng=self.rng.get(f"loss.{config.name}")
            if config.loss_rate > 0 else None,
        )
        attached = AttachedPath(path)
        self._paths[config.name] = attached
        if self.recorder is not None:
            self.recorder.watch_path(path)
        return attached

    def attached(self, name: str) -> AttachedPath:
        """Look up a previously added path."""
        if name not in self._paths:
            raise ConfigurationError(
                f"unknown path {name!r}; have {sorted(self._paths)}"
            )
        return self._paths[name]

    def path(self, name: str) -> Path:
        return self.attached(name).path

    @property
    def path_names(self) -> List[str]:
        return list(self._paths)

    @property
    def paths(self) -> List[Path]:
        """The underlying :class:`Path` objects, in insertion order."""
        return [attached.path for attached in self._paths.values()]

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def inject_faults(self, spec):
        """Arm a :class:`~repro.faults.spec.FaultSpec` on this scenario.

        Every event's path must already be attached.  Returns the
        armed :class:`~repro.faults.injector.FaultInjector`, whose
        ``applied`` log records the edges that actually fired.
        """
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            spec, self.loop,
            {name: attached.path for name, attached in self._paths.items()},
            rng=self.rng, recorder=self.recorder,
        ).arm()
        self.fault_injectors.append(injector)
        return injector

    def applied_faults(self) -> List[dict]:
        """Every fired fault edge across injectors, as plain dicts."""
        return [
            entry
            for injector in self.fault_injectors
            for entry in injector.applied_dicts()
        ]

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def tcp(
        self,
        path_name: str,
        total_bytes: int,
        direction: str = "down",
        cc: str = "cubic",
        config: Optional[TcpConfig] = None,
    ) -> TcpConnection:
        """Create (but don't start) a single-path TCP transfer."""
        connection = TcpConnection(
            self._live_loop(), self.attached(path_name), total_bytes,
            direction=direction, cc_factory=single_path_factory(cc),
            config=config,
        )
        if self.recorder is not None:
            connection.attach_recorder(self.recorder)
        self._connections.append(connection)
        return connection

    def mptcp(
        self,
        total_bytes: int,
        direction: str = "down",
        options: Optional[MptcpOptions] = None,
        config: Optional[TcpConfig] = None,
        path_names: Optional[List[str]] = None,
    ) -> MptcpConnection:
        """Create (but don't start) an MPTCP transfer over the paths."""
        names = path_names if path_names is not None else self.path_names
        attached = [self.attached(name) for name in names]
        if len(attached) < 1:
            raise ConfigurationError("MPTCP needs at least one path")
        connection = MptcpConnection(
            self._live_loop(), attached, total_bytes,
            direction=direction, options=options, config=config,
        )
        if self.recorder is not None:
            connection.attach_recorder(self.recorder)
        self._connections.append(connection)
        return connection

    def add_background_flow(
        self,
        path_name: str,
        direction: str = "down",
        cc: str = "cubic",
        total_bytes: int = 512 * 1024 * 1024,
        start_at: float = 0.0,
    ) -> TcpConnection:
        """Start a long-lived competing TCP flow on a path.

        Public WiFi and cellular links are shared; a greedy competitor
        keeps the bottleneck queue occupied so measured flows operate
        under congestion from their first RTT — the regime in which
        congestion-control choices matter (paper §3.5).
        """
        connection = self.tcp(path_name, total_bytes, direction=direction, cc=cc)
        self.loop.call_at(start_at, connection.start)
        return connection

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Drive the event loop (absolute simulated deadline)."""
        self.loop.run(until=until)

    def run_transfer(
        self,
        connection: ConnectionBase,
        deadline_s: float = DEFAULT_DEADLINE_S,
        partial_ok: bool = False,
    ) -> TransferResult:
        """Start ``connection`` and run until it completes (or deadline).

        The application half-closes right away (it has written all its
        bytes), so FINs go out as soon as the transfer drains — the
        paper's bulk-measurement behaviour.

        A transfer that misses the deadline raises
        :class:`~repro.core.errors.TransferDeadlineExceeded` (carrying
        its bytes-acked progress and the partial result), so an
        unfinished run can never masquerade as a successful one.
        Callers measuring timeouts on purpose — probes, deadline
        sweeps, fault scenarios — opt into the old behaviour with
        ``partial_ok=True`` and get the incomplete
        :class:`TransferResult` back.
        """
        connection.start()
        connection.close()
        deadline = self.loop.now + deadline_s
        # Stop the loop directly from the completion callback: the run
        # returns at the exact completion instant instead of waking
        # every simulated second to poll for it.
        if not connection.complete:
            connection.on_complete.append(lambda conn: self.loop.stop())
            self.loop.run(until=deadline)
        if connection.complete:
            # Drain the FIN teardown (at most one simulated second past
            # completion, the old polling loop's upper bound) so
            # packet captures and energy logs see the 4-way close.
            self.loop.run(until=min(deadline, self.loop.now + 1.0))
        elif not partial_ok:
            raise TransferDeadlineExceeded(
                deadline_s=deadline_s,
                bytes_acked=connection.bytes_delivered,
                total_bytes=connection.total_bytes,
                result=self.result_of(connection),
            )
        return self.result_of(connection)

    def _live_loop(self) -> EventLoop:
        if self.loop.closed:
            raise SimulationError("scenario is closed: build a new one")
        return self.loop

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Unwire loop, paths and connections once results are read, so
        the graph is freed by reference counting (DESIGN §4); the
        connections keep their state for queries."""
        self.loop.close()
        for attached in self._paths.values():
            attached.close()
        self.fault_injectors.clear()
        for connection in self._connections:
            connection.release()

    def result_of(self, connection: ConnectionBase) -> TransferResult:
        """Snapshot a connection's outcome."""
        return TransferResult(
            connection=connection,
            total_bytes=connection.total_bytes,
            started_at=connection.started_at,
            completed_at=connection.completed_at,
            delivery_log=connection.delivery_log.copy(),
        )
