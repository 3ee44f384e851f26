"""The MPTCP connection: subflow management, scheduling, failover.

Semantics follow the Linux MPTCP v0.88 stack the paper used:

* the client opens the *primary subflow* on the default-route
  interface; every other interface joins with MP_JOIN only after the
  primary handshake completes (§3.1);
* the scheduler assigns each data chunk to one subflow with window
  space (lowest-RTT by default);
* in Backup mode, backup subflows complete their handshake (their
  SYN/FIN wakeups are what costs energy in §3.6) but carry no data
  until every non-backup subflow is *known* dead.  An interface
  removed via iproute ("multipath off") notifies the stack and triggers
  failover with reinjection; a silently unplugged interface does not,
  reproducing the stall of Fig. 15g;
* in Single-Path mode (Paasch et al., §3.6), no second subflow exists
  until the active one dies, costing extra round trips on failover.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.throughput import DeliveryLog
from repro.core.errors import ConfigurationError
from repro.core.events import EventLoop
from repro.net.fabric import AttachedPath
from repro.net.path import Path
from repro.tcp.cc import (
    Cubic,
    LiaCoupling,
    LiaSubflowCc,
    OliaCoupling,
    OliaSubflowCc,
    Reno,
    validate_cc,
)
from repro.tcp.config import TcpConfig
from repro.tcp.connection import ConnectionBase
from repro.tcp.source import Chunk
from repro.tcp.subflow import Subflow, SubflowState
from repro.mptcp.scheduler import Scheduler, make_scheduler

__all__ = ["MptcpOptions", "MptcpConnection"]

COUPLED = "coupled"
DECOUPLED = "decoupled"
OLIA = "olia"

FULL_MPTCP = "full"
BACKUP_MODE = "backup"
SINGLE_PATH_MODE = "singlepath"


@dataclass
class MptcpOptions:
    """Configuration of one MPTCP connection.

    Attributes
    ----------
    primary:
        Name of the path carrying the primary subflow (the paper's key
        knob: "it is crucial to select the correct network for the
        primary subflow").
    congestion_control:
        ``"coupled"`` (LIA), ``"decoupled"`` (per-subflow Reno, footnote
        5 of the paper), ``"olia"``, or ``"cubic"`` (decoupled CUBIC).
    mode:
        ``"full"``, ``"backup"``, or ``"singlepath"``.
    backup_paths:
        Path names acting as backups in Backup mode; defaults to every
        non-primary path.
    join_delay_s:
        Extra delay between primary establishment and MP_JOIN SYNs.
    emit_backup_window_update:
        Reproduce the single window-update packet observed on the
        backup subflow when the active path silently blackholes
        (Fig. 15g).
    """

    primary: str = "wifi"
    congestion_control: str = COUPLED
    mode: str = FULL_MPTCP
    scheduler: str = "minrtt"
    backup_paths: Optional[List[str]] = None
    join_delay_s: float = 0.0
    #: Additional join delay measured in primary handshake RTTs.  In
    #: Linux MPTCP v0.88 the MP_JOIN SYN goes out only after the
    #: primary's third ACK and the ADD_ADDR exchange — about one more
    #: round trip on the primary path (visible in the paper's Fig. 9a,
    #: where the LTE subflow comes up well after the WiFi handshake).
    join_delay_rtts: float = 1.0
    emit_backup_window_update: bool = True
    #: Ablation knob: open every subflow's handshake at connection
    #: start instead of waiting for the primary to establish (real
    #: Linux MPTCP cannot do this — the MP_JOIN key arrives with the
    #: primary's handshake — but it isolates how much of the
    #: primary-subflow effect comes from the join delay).
    simultaneous_join: bool = False
    #: Linux MPTCP's ``ndiffports`` path manager opens several subflows
    #: over the *same* interface (different source ports) to defeat
    #: per-flow traffic shaping.  1 = the paper's fullmesh-style setup.
    subflows_per_path: int = 1

    def __post_init__(self) -> None:
        # Canonicalize through the unified registry ("lia" -> "coupled")
        # so every layer shares one name set and one error message.
        self.congestion_control = validate_cc(self.congestion_control, "mptcp")
        if self.mode not in (FULL_MPTCP, BACKUP_MODE, SINGLE_PATH_MODE):
            raise ConfigurationError(f"unknown MPTCP mode: {self.mode!r}")
        if self.join_delay_s < 0:
            raise ConfigurationError(f"negative join delay: {self.join_delay_s}")
        if self.subflows_per_path < 1:
            raise ConfigurationError(
                f"subflows_per_path must be >= 1: {self.subflows_per_path}"
            )


class MptcpConnection(ConnectionBase):
    """One MPTCP bulk transfer across several client interfaces."""

    def __init__(
        self,
        loop: EventLoop,
        attached_paths: List[AttachedPath],
        total_bytes: int,
        direction: str = "down",
        options: Optional[MptcpOptions] = None,
        config: Optional[TcpConfig] = None,
    ) -> None:
        config = config if config is not None else TcpConfig()
        super().__init__(loop, total_bytes, config)
        self.options = options if options is not None else MptcpOptions()
        self.direction = direction
        self._scheduler: Scheduler = make_scheduler(self.options.scheduler)

        by_name = {attached.name: attached for attached in attached_paths}
        if self.options.primary not in by_name:
            raise ConfigurationError(
                f"primary path {self.options.primary!r} not among "
                f"{sorted(by_name)}"
            )
        ordered = [by_name[self.options.primary]] + [
            attached for attached in attached_paths
            if attached.name != self.options.primary
        ]
        backup_names = set(
            self.options.backup_paths
            if self.options.backup_paths is not None
            else [a.name for a in ordered[1:]]
        ) if self.options.mode in (BACKUP_MODE, SINGLE_PATH_MODE) else set()

        self._lia: Optional[LiaCoupling] = None
        self._olia: Optional[OliaCoupling] = None
        if self.options.congestion_control == COUPLED:
            self._lia = LiaCoupling()
        elif self.options.congestion_control == OLIA:
            self._olia = OliaCoupling()

        self._subflows: List[Subflow] = []
        self._pending_attachments: List[Tuple[AttachedPath, bool]] = []
        #: (time, cumulative bytes) per subflow name, for Figs. 9 and 10.
        self.subflow_delivery_logs: Dict[str, DeliveryLog] = {}
        self._window_update_sent = False
        self._next_subflow_id = 0
        #: Per-subflow byte cursors used by the redundant scheduler.
        self._redundant_offsets: Dict[int, int] = {}

        for index, attached in enumerate(ordered):
            is_backup = attached.name in backup_names
            if self.options.mode == SINGLE_PATH_MODE and index > 0:
                # Break-before-make: defer even creating the subflow.
                self._pending_attachments.append((attached, is_backup))
                continue
            for extra in range(self.options.subflows_per_path):
                self._create_subflow(
                    attached,
                    is_primary=(index == 0 and extra == 0),
                    backup=is_backup,
                )

        for attached in ordered:
            attached.path.on_admin_change.append(self._on_path_admin_change)

    # ------------------------------------------------------------------
    # Subflow construction
    # ------------------------------------------------------------------
    def _make_cc(self):
        name = self.options.congestion_control
        if name == COUPLED:
            assert self._lia is not None
            return LiaSubflowCc(self.config, self._lia)
        if name == OLIA:
            assert self._olia is not None
            return OliaSubflowCc(self.config, self._olia)
        if name == "cubic":
            return Cubic(self.config)
        return Reno(self.config)

    def _create_subflow(
        self, attached: AttachedPath, is_primary: bool, backup: bool
    ) -> Subflow:
        subflow_id = self._next_subflow_id
        self._next_subflow_id += 1
        subflow = Subflow(
            self.loop, attached, self.flow_id, subflow_id, self.direction,
            self._make_cc(), self.config,
            is_primary=is_primary, backup=backup, join=not is_primary,
        )
        subflow.on_established = self._on_subflow_established
        subflow.on_data_arrived = self._on_subflow_data
        subflow.on_data_acked = self._handle_acked
        subflow.on_window_open = lambda sf: self._pump()
        subflow.on_dead = self._on_subflow_dead
        subflow.on_rto = self._on_subflow_rto
        self._subflows.append(subflow)
        self.subflow_delivery_logs.setdefault(attached.name, DeliveryLog())
        if self.obs is not None:
            # Covers subflows created after attachment too, e.g. the
            # deferred fallbacks of Single-Path mode.
            subflow.attach_recorder(self.obs)
            self._emit_subflow_add(subflow)
        return subflow

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        super().attach_recorder(recorder)
        for subflow in self._subflows:
            self._emit_subflow_add(subflow)

    def _emit_subflow_add(self, subflow: Subflow) -> None:
        self.obs.emit(
            "subflow_add", self.loop.now, path=subflow.name,
            flow_id=self.flow_id, subflow_id=subflow.subflow_id,
            primary=subflow.is_primary, backup=subflow.backup,
        )

    def _failure_reason(self, subflow: Subflow) -> str:
        path = subflow.path
        if not path.admin_up:
            return "admin_down"
        if path.unplugged:
            return "blackhole"
        return "retries_exhausted"

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def subflows(self) -> List[Subflow]:
        return list(self._subflows)

    @property
    def primary_subflow(self) -> Subflow:
        return self._subflows[0]

    def subflow_on(self, path_name: str) -> Optional[Subflow]:
        """The (most recent) subflow riding the named path."""
        for subflow in reversed(self._subflows):
            if subflow.name == path_name:
                return subflow
        return None

    def start(self) -> None:
        """Open the primary subflow; secondaries join once it completes."""
        if self.started_at is not None:
            return
        self.started_at = self.loop.now
        self._log_time(self.loop.now)
        self._log_bytes(0)
        self.primary_subflow.connect()
        if self.options.simultaneous_join:
            for subflow in self._subflows:
                if not subflow.is_primary:
                    subflow.connect()
        self._maybe_complete()

    # ------------------------------------------------------------------
    # Subflow events
    # ------------------------------------------------------------------
    def _on_subflow_established(self, subflow: Subflow) -> None:
        if subflow.is_primary:
            delay = self.options.join_delay_s
            delay += self.options.join_delay_rtts * (subflow.handshake_rtt or 0.0)
            for other in self._subflows:
                if not other.is_primary and other.state == SubflowState.CLOSED:
                    self.loop.call_later(delay, other.connect)
        self._pump()

    def _on_subflow_data(self, subflow: Subflow, data_seq: int, length: int) -> None:
        log = self.subflow_delivery_logs[subflow.name]
        cums = log.cums
        log.times.append(self.loop.now)
        cums.append((cums[-1] if cums else 0) + length)
        self._handle_data(subflow, data_seq, length)

    def _on_subflow_dead(self, subflow: Subflow) -> None:
        self._fail_over(subflow)

    def _on_subflow_rto(self, subflow: Subflow) -> None:
        """Reproduce Fig. 15g's lone window update on the backup subflow.

        When the active path silently blackholes in Backup mode, the
        kernel the paper measured sent exactly one TCP window update on
        the backup subflow and then halted.  The transfer resumes only
        if the unplugged phone is reconnected.
        """
        if (
            self.options.mode != BACKUP_MODE
            or not self.options.emit_backup_window_update
            or self._window_update_sent
            or not subflow.path.unplugged
        ):
            return
        for other in self._subflows:
            if other.backup and other.alive and other.client_established:
                other.send_window_update()
                self._window_update_sent = True
                break

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _on_path_admin_change(self, path: Path) -> None:
        if path.admin_up:
            return
        for subflow in self._subflows:
            if subflow.name == path.name and subflow.alive:
                # fail() marks the subflow dead, which re-enters
                # _fail_over via on_dead with the chunks preserved.
                chunks = subflow.fail()
                self._reinject(chunks)
        self._activate_fallbacks()
        self._pump()

    def _fail_over(self, subflow: Subflow) -> None:
        if self.obs is not None:
            # Every failure mode funnels through here via on_dead:
            # administrative removal, SYN-retry exhaustion, data-retry
            # exhaustion on a blackholed path.
            self.obs.emit(
                "subflow_fail", self.loop.now, path=subflow.name,
                flow_id=self.flow_id, subflow_id=subflow.subflow_id,
                reason=self._failure_reason(subflow),
            )
        chunks = subflow.sender.fail()
        self._reinject(chunks)
        subflow.sender.cc.detach()
        self._activate_fallbacks()
        self._pump()

    def _reinject(self, chunks: List[Chunk]) -> None:
        surviving = self._live_reinjection_filter(chunks)
        if surviving:
            self.source.reinject(surviving)

    def _activate_fallbacks(self) -> None:
        """Bring up deferred subflows in Single-Path mode."""
        if self.options.mode != SINGLE_PATH_MODE:
            return
        if any(sf.alive for sf in self._subflows):
            return
        if not self._pending_attachments:
            return
        attached, backup = self._pending_attachments.pop(0)
        subflow = self._create_subflow(attached, is_primary=False, backup=False)
        subflow.join = True
        subflow.connect()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedulable(self, subflow: Subflow) -> bool:
        if self.options.mode != BACKUP_MODE:
            return True
        if not subflow.backup:
            return True
        # A backup subflow carries data only when every non-backup
        # subflow is known dead (administrative removal, SYN failure,
        # or retry exhaustion) — silent blackholes do not count.
        return all(
            not sf.alive for sf in self._subflows if not sf.backup
        )

    def _pump(self) -> None:
        if self.options.scheduler == "redundant":
            self._pump_redundant()
            return
        source = self.source
        subflows = self._subflows
        pick = self._scheduler.pick
        mss_bytes = self.config.mss_bytes
        # Outside Backup mode every subflow is schedulable.
        backup_mode = self.options.mode == BACKUP_MODE
        while source.has_data():
            eligible = [sf for sf in subflows if sf.can_send()]
            if backup_mode:
                eligible = [sf for sf in eligible if self._schedulable(sf)]
            if not eligible:
                break
            subflow = pick(eligible)
            chunk = source.next_chunk(mss_bytes)
            if chunk is None:
                break
            if self.obs is not None:
                self.obs.emit(
                    "sched", self.loop.now, path=subflow.name,
                    flow_id=self.flow_id, subflow_id=subflow.subflow_id,
                    data_seq=chunk[0], length=chunk[1],
                    srtt={
                        f"{sf.name}/{sf.subflow_id}": sf.srtt
                        for sf in eligible
                    },
                )
            subflow.send_chunk(chunk)
        self._maybe_close_subflows()

    def _pump_redundant(self) -> None:
        """Redundant scheduling: every subflow streams the whole transfer.

        Each subflow keeps its own cursor over the connection's byte
        space and transmits independently at its own window's pace; the
        connection-level interval set keeps whichever copy of each
        range lands first.  No ``sched`` trace events: there is no
        decision to record — every subflow carries everything.
        """
        total = self.total_bytes
        for subflow in self._subflows:
            if not (subflow.can_send() and self._schedulable(subflow)):
                continue
            offset = self._redundant_offsets.get(subflow.subflow_id, 0)
            while subflow.can_send() and offset < total:
                length = min(self.config.mss_bytes, total - offset)
                subflow.send_chunk((offset, length))
                offset += length
            self._redundant_offsets[subflow.subflow_id] = offset
        if any(cursor >= total for cursor in self._redundant_offsets.values()):
            # At least one copy of everything is out: the shared source
            # is logically drained (enables teardown bookkeeping).
            while self.source.has_data():
                self.source.next_chunk(1 << 20)
        self._maybe_close_subflows()
