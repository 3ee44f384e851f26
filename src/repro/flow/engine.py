"""The flow-level transfer executor.

Executes one :class:`~repro.workload.spec.TransferSpec` without an
event loop or packets: each subflow is a bandwidth-share state machine
(slow-start ramp → steady rate), and simulated time advances straight
to the next instant at which a share changes — a fault edge, a subflow
establishing, a window growth step, the source draining or completion.
A steady share still riding its decaying loss transient follows it in
closed form (:meth:`~repro.flow.model.ShareTerms.transient_bytes`), so
it needs no breakpoint of its own.  Whenever shares change, the pending
events are regenerated from the new rates (the dt-simulator idiom): a
transfer costs a dozen iterations instead of one event per segment.

Everything in a share that only a fault edge can move is a
:class:`~repro.flow.model.ShareTerms`, derived when the subflow is built
and again in :meth:`_Subflow.on_path_change`.  :meth:`_FlowRun.run` is
one flat loop over locals that evaluates those terms against progress
(bytes delivered, the live window) at every breakpoint; the ``_Subflow``
methods are the cold paths — handshake, ramp steps, fault edges, traced
``sched`` events — and the reference the loop is tested against
(``tests/flow/test_hot_path.py``).

The output is the packet engine's canonical
:class:`~repro.workload.report.TransferReport`: densified delivery logs
(so ``time_to_bytes`` and the figure pipelines work unchanged), a
metrics snapshot that reconciles exactly with the emitted trace, and
the fired fault edges as :class:`~repro.faults.injector.AppliedFault`.
The trace is *reduced* — ``subflow_add``, ``sched``, ``send`` (per rate
interval, not per segment) and ``fault_state`` — and an untraced run
pays one ``recorder is not None`` test per would-be event.

Determinism: the only randomness is the packet engine's own
``jitter.{path}``/``trace.{path}`` streams (consumed identically, see
:func:`repro.flow.model.path_flow_params`); everything else is pure
arithmetic on the spec, so reports are bit-identical for any worker
count.
"""

import math
from math import exp
from typing import Dict, List, Optional, Tuple

from repro.analysis.throughput import DeliveryLog
from repro.core.errors import ConfigurationError
from repro.core.rng import DEFAULT_SEED, RngStreams
from repro.faults.injector import AppliedFault
from repro.faults.spec import FaultEvent
from repro.flow.model import (
    CONGESTION_AVOIDANCE_GROWTH,
    FlowPathParams,
    LOSS_CONVERGENCE_EVENTS,
    SLOW_START_GROWTH,
    ge_stationary_loss,
    path_flow_params,
    share_terms,
)
from repro.obs.metrics import subflow_series
from repro.obs.trace import TraceRecorder
from repro.tcp.config import TcpConfig
from repro.workload.report import TransferReport
from repro.workload.spec import KIND_TCP, TransferSpec

__all__ = ["run_flow_spec"]

_EPS = 1e-9
#: Densification step of the delivery logs (matches the packet-side
#: throughput-series step in :mod:`repro.analysis.throughput`).
_LOG_STEP_S = 0.05
#: Hard bound on engine iterations — generous (a worst-case run has a
#: few thousand breakpoints) but keeps a modelling bug from spinning.
_MAX_ITERATIONS = 200_000


class _PathState:
    """One path's live share inputs: base params + active fault edges."""

    __slots__ = ("params", "down", "admin_down", "rate_factor",
                 "extra_delay_s", "loss_rate", "rtt_s", "wire_bytes_s",
                 "_saved_loss")

    def __init__(self, params: FlowPathParams) -> None:
        self.params = params
        #: Links dropped (``outage``/``blackhole``): packets vanish.
        self.down = False
        #: Explicit admin removal (``iface_down``, detected blackhole):
        #: MPTCP stops scheduling onto the path; plain TCP — whose
        #: links are untouched by the admin signal — keeps sending.
        self.admin_down = False
        self.rate_factor = 1.0
        self.extra_delay_s = 0.0
        self.loss_rate = params.loss_rate
        self.rtt_s = params.rtt_s
        self.wire_bytes_s = params.wire_bytes_s
        self._saved_loss: Dict[int, float] = {}

    def apply_edge(self, index: int, event: FaultEvent, edge: str) -> None:
        inject = edge == "inject"
        kind = event.kind
        if kind in ("outage", "blackhole"):
            self.down = inject
            if event.detected:  # a blackhole the kernel noticed
                self.admin_down = inject
        elif kind == "iface_down":
            self.admin_down = inject
        elif kind == "rate_collapse":
            # The link knob scales from the *base* rate and restores it
            # outright, so the last edge wins (no compounding).
            self.rate_factor = event.factor if inject else 1.0
        elif kind == "delay_spike":
            self.extra_delay_s = event.extra_delay_s if inject else 0.0
        elif kind == "burst_loss":
            if inject:
                self._saved_loss[index] = self.loss_rate
                self.loss_rate = ge_stationary_loss(
                    event.p_good_to_bad, event.p_bad_to_good,
                    event.p_good, event.p_bad,
                )
            else:
                self.loss_rate = self._saved_loss.pop(
                    index, self.params.loss_rate
                )
        # A delay spike adds one-way delay on both links of the path.
        self.rtt_s = self.params.rtt_s + 2.0 * self.extra_delay_s
        self.wire_bytes_s = (
            0.0 if self.down else self.params.wire_bytes_s * self.rate_factor
        )


class _Subflow:
    """One subflow's bandwidth-share state machine."""

    __slots__ = ("subflow_id", "state", "config", "cc", "is_mptcp", "mss",
                 "established_at", "established", "gated", "cwnd",
                 "ssthresh", "steady", "next_ramp_at", "interrupted",
                 "delivered", "drain_target", "log", "sent_bytes_int",
                 "send_events", "handshake_rtt_s", "usable", "terms")

    def __init__(self, subflow_id: int, state: _PathState, config: TcpConfig,
                 cc: str, is_mptcp: bool,
                 established_at: Optional[float]) -> None:
        self.subflow_id = subflow_id
        self.state = state
        self.config = config
        self.cc = cc
        self.is_mptcp = is_mptcp
        self.mss = config.mss_bytes
        #: Handshake completion; ``None`` = not scheduled yet
        #: (singlepath standby subflows open only on failover).
        self.established_at = established_at
        self.established = False
        #: Carries no data while gated (backup-mode standby).
        self.gated = False
        self.cwnd = float(config.initial_cwnd_segments)
        self.ssthresh = (
            float(config.initial_ssthresh_segments)
            if config.initial_ssthresh_segments is not None
            else math.inf
        )
        self.steady = False
        self.next_ramp_at: Optional[float] = None
        #: Set while the path is unusable; cleared by a fresh ramp.
        self.interrupted = False
        self.delivered = 0.0
        #: Residual bytes this subflow still owes once the source has
        #: drained (``None`` until drain mode allocates it).
        self.drain_target: Optional[float] = None
        #: Cumulative (time, bytes) breakpoints, densified at the end.
        self.log: List[Tuple[float, float]] = []
        self.sent_bytes_int = 0
        self.send_events = 0
        self.handshake_rtt_s: Optional[float] = None
        self._refresh_terms()

    # -- share inputs ---------------------------------------------------
    def _refresh_terms(self) -> None:
        """Re-derive what a fault edge can move (see ``ShareTerms``)."""
        state = self.state
        self.usable = not (
            state.down or (self.is_mptcp and state.admin_down)
        )
        self.terms = share_terms(
            state.wire_bytes_s if self.usable else 0.0, state.rtt_s,
            state.loss_rate, self.config, self.cc,
            state.params.queue_packets,
        )

    def steady_cap(self) -> float:
        return self.terms.goodput(self.delivered / self.mss)

    def rate(self) -> float:
        """Current goodput share, bytes per second (at this instant: a
        steady share on a decaying cap falls as the bytes arrive)."""
        if not self.established or self.gated:
            return 0.0
        if (
            self.drain_target is not None
            and self.delivered >= self.drain_target - 0.5
        ):
            return 0.0  # committed backlog fully delivered
        cap = self.steady_cap()
        if cap <= 0.0:
            return 0.0
        if self.steady:
            return cap
        return min(cap, self.cwnd * self.mss / self.terms.rtt_s)

    # -- transitions ----------------------------------------------------
    def establish(self, now: float) -> None:
        self.established = True
        self.handshake_rtt_s = self.state.rtt_s
        self.log.append((now, 0.0))
        self._begin_ramp(now)

    def _begin_ramp(self, now: float) -> None:
        self.steady = False
        self.next_ramp_at = (
            now + self.state.rtt_s if self.usable and not self.gated
            else None
        )

    def ramp_step(self, now: float) -> None:
        cap = self.steady_cap()
        if cap <= 0.0 or self.gated:
            self.next_ramp_at = None
            return
        # The window grows until it covers the larger of the current
        # cap's own window (the slow-start overshoot riding the loss
        # transient) and the committed pipe: on a capacity-limited
        # path the excess sits in the bottleneck queue (bufferbloat),
        # and that commitment is what the drain model measures.
        # Delivered rate stays capped throughout (see :meth:`rate`).
        # Once the window covers it the share is steady: the cap only
        # falls from here, and the run follows any loss transient left
        # in closed form, so no further step is due.
        target = max(cap * self.state.rtt_s, self.terms.pipe(cap))
        if self.cwnd * self.mss >= target - 0.5:
            self.steady = True
            self.next_ramp_at = None
            return
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd * SLOW_START_GROWTH, self.ssthresh)
        else:
            self.cwnd *= CONGESTION_AVOIDANCE_GROWTH
        self.next_ramp_at = now + self.state.rtt_s

    def on_path_change(self, now: float) -> None:
        """Re-derive terms and ramp state after a fault edge."""
        self._refresh_terms()
        if not self.established:
            return
        if not self.usable:
            self.interrupted = True
            self.next_ramp_at = None
            return
        if self.interrupted:
            # Resuming after an unusable episode: the packet stack
            # comes back from an RTO with the loss window and half the
            # old share as ssthresh.
            cap = self.steady_cap()
            cap_segments = (
                cap * self.state.rtt_s / self.mss
                if cap > 0.0 else self.cwnd
            )
            self.ssthresh = max(2.0, cap_segments / 2.0)
            self.cwnd = float(self.config.loss_cwnd_segments)
            self.interrupted = False
            self._begin_ramp(now)
        elif self.steady or (self.next_ramp_at is None and not self.gated):
            # Capacity moved (collapse/restore, loss episode): keep the
            # current window and let the ramp re-approach the new cap.
            self._begin_ramp(now)

    def on_ungated(self, now: float) -> None:
        self.gated = False
        if self.established and self.next_ramp_at is None and not self.steady:
            self._begin_ramp(now)


def _fault_edges(spec: TransferSpec) -> List[Tuple[float, int, int, str, FaultEvent]]:
    """Inject/clear edges sorted by (time, arming order), like the
    packet-side injector's event-loop callbacks."""
    edges: List[Tuple[float, int, int, str, FaultEvent]] = []
    for index, event in enumerate(spec.faults.events if spec.faults else ()):
        edges.append((event.at_s, len(edges), index, "inject", event))
        if event.clears_at is not None:
            edges.append((event.clears_at, len(edges), index, "clear", event))
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    return edges


def _densify(points: List[Tuple[float, float]]) -> DeliveryLog:
    """Breakpoints → a packet-log-shaped cumulative (time, bytes) log.

    Inserts grid points every ``_LOG_STEP_S`` inside long constant-rate
    intervals so bisection helpers (``time_to_bytes``) resolve
    intermediate flow sizes, and keeps only strictly increasing byte
    counts plus the first point (matching packet logs, which only
    record deliveries).
    """
    times, cums = [], []
    add_time, add_cum = times.append, cums.append
    # Sentinels: the first point has no span to fill and is always kept.
    t0, c0, last_bytes = math.inf, 0.0, -math.inf
    for t, cum in points:
        span = t - t0
        if span > _LOG_STEP_S and cum > c0:
            rise = cum - c0
            end = t - _EPS
            for k in range(1, int(span / _LOG_STEP_S) + 1):
                tk = t0 + k * _LOG_STEP_S
                if tk >= end:
                    break
                ck = round(c0 + rise * (tk - t0) / span)
                if ck > last_bytes:
                    add_time(tk)
                    add_cum(ck)
                    last_bytes = ck
        ci = round(cum)
        if ci > last_bytes:
            add_time(t)
            add_cum(ci)
            last_bytes = ci
        t0, c0 = t, cum
    return DeliveryLog(times, cums)


class _FlowRun:
    """One transfer's flow-level execution (see :func:`run_flow_spec`)."""

    def __init__(
        self, spec: TransferSpec, seed: int,
        recorder: Optional[TraceRecorder],
    ) -> None:
        self.spec = spec
        self.recorder = recorder
        self.config = spec.tcp_config() or TcpConfig()
        rng = RngStreams(seed)
        self.states = {
            path_spec.name: _PathState(
                path_flow_params(path_spec, spec.direction, rng)
            )
            for path_spec in spec.condition.paths
        }
        self.edges = _fault_edges(spec)
        self.edge_i = 0
        self.applied: List[AppliedFault] = []
        self.now = 0.0
        self.log: List[Tuple[float, float]] = [(0.0, 0.0)]
        self.completed_at: Optional[float] = None
        # Schedules armed at t=0 apply before data: the subflows are
        # built from the already-spiked path states.
        self.subflows: List[_Subflow] = []
        self._fire_due_edges()
        self.options = spec.mptcp_options() if spec.kind != KIND_TCP else None
        self.subflows = self._build_subflows()
        self._mode = self.options.mode if self.options is not None else "tcp"
        self._backup_names = self._backup_set()
        self._refresh_gating()

    # -- construction ---------------------------------------------------
    def _build_subflows(self) -> List[_Subflow]:
        spec, options = self.spec, self.options
        is_mptcp = options is not None
        primary = self.states[options.primary if is_mptcp else spec.path]
        subflows = [_Subflow(0, primary, self.config, spec.cc, is_mptcp,
                             established_at=1.5 * primary.rtt_s)]
        if not is_mptcp:
            return subflows
        join_at = (
            0.0 if options.simultaneous_join
            else primary.rtt_s + options.join_delay_rtts * primary.rtt_s
            + options.join_delay_s
        )
        for path_spec in spec.condition.paths:
            if path_spec.name != options.primary:
                state = self.states[path_spec.name]
                subflows.append(_Subflow(
                    len(subflows), state, self.config, spec.cc, is_mptcp,
                    # A singlepath standby opens on failover only.
                    established_at=None if options.mode == "singlepath"
                    else join_at + 1.5 * state.rtt_s,
                ))
        return subflows

    def _backup_set(self) -> frozenset:
        if self._mode != "backup":
            return frozenset()
        options = self.options
        if options.backup_paths is not None:
            return frozenset(options.backup_paths)
        return frozenset(
            name for name in self.states if name != options.primary
        )

    # -- gating / failover ----------------------------------------------
    def _refresh_gating(self) -> None:
        """Who may carry data; a no-op outside backup/singlepath modes.

        Not a pure function of the path states: while a singlepath
        primary is unusable, every call opens the *next* standby, so
        the loop visits it at every breakpoint, not on edges only.
        """
        if self._mode == "backup":
            active_ok = any(
                sf.usable and sf.established_at is not None
                for sf in self.subflows
                if sf.state.params.name not in self._backup_names
            )
            for sf in self.subflows:
                if sf.state.params.name in self._backup_names:
                    if active_ok:
                        sf.gated = True
                        sf.next_ramp_at = None
                    elif sf.gated:
                        sf.on_ungated(self.now)
        elif self._mode == "singlepath":
            primary = self.subflows[0]
            if not primary.usable:
                for sf in self.subflows[1:]:
                    if sf.established_at is None:
                        # Failover: open the standby subflow now.
                        sf.established_at = self.now + 1.5 * sf.state.rtt_s
                        primary.gated = True
                        break

    # -- execution -------------------------------------------------------
    def _fire_due_edges(self) -> None:
        now = self.now
        recorder = self.recorder
        while (
            self.edge_i < len(self.edges)
            and self.edges[self.edge_i][0] <= now + _EPS
        ):
            _, _, index, edge, event = self.edges[self.edge_i]
            self.edge_i += 1
            self.states[event.path].apply_edge(index, event, edge)
            self.applied.append(
                AppliedFault(now, edge, index, event.kind, event.path)
            )
            if recorder is not None:
                recorder.emit(
                    "fault_state", now, path=event.path,
                    state=f"{event.kind}:{edge}", index=index,
                )
            for sf in self.subflows:
                if sf.state.params.name == event.path:
                    sf.on_path_change(now)
                    if recorder is not None:
                        self._emit_sched(sf)
            # Rates just moved: any committed-backlog split is stale.
            # Clearing it re-derives the commitment from the new shares
            # (the packet stack's failover reinjection, approximately).
            for sf in self.subflows:
                sf.drain_target = None

    def _emit_sched(self, subflow: _Subflow) -> None:
        if subflow.established:
            self.recorder.emit(
                "sched", self.now, path=subflow.state.params.name,
                flow_id=0, subflow_id=subflow.subflow_id,
                rate_bytes_s=round(subflow.rate(), 3),
            )

    def _drain_root(self, owed, dt, rates, excesses) -> float:
        """How long the shares take to deliver ``owed`` bytes, some along
        their decaying caps.  Delivery is increasing and concave in time,
        and ``dt`` (``owed`` at the current rates) lies below the root, so
        Newton's iterates climb to it from there and never overshoot."""
        for _ in range(50):
            got = slope = 0.0
            for sf, rate, excess in zip(self.subflows, rates, excesses):
                if excess > 0.0:
                    terms = sf.terms
                    delta = terms.transient_bytes(excess, dt)
                    got += delta
                    slope += terms.converged + excess * exp(
                        -terms.decay_per_byte * delta)
                elif rate > 0.0:
                    got += rate * dt
                    slope += rate
            if owed - got <= 1e-12 * owed:
                break
            dt += (owed - got) / slope
        return dt

    def _sample_curves(self, now, t_next, delivered, rates, excesses):
        """Log points on the ``_LOG_STEP_S`` grid through a span in
        which a share rides its decaying cap: ``_densify`` fills long
        spans on the same grid, but linearly."""
        nbytes = self.spec.nbytes
        for k in range(1, int((t_next - now) / _LOG_STEP_S) + 1):
            t = now + k * _LOG_STEP_S
            if t >= t_next - _EPS:
                break
            total = delivered
            for sf, rate, excess in zip(self.subflows, rates, excesses):
                if rate > 0.0:
                    delta = (sf.terms.transient_bytes(excess, t - now)
                             if excess > 0.0 else rate * (t - now))
                    if sf.drain_target is not None:
                        delta = min(delta, sf.drain_target - sf.delivered)
                    total += delta
                    if excess > 0.0:
                        sf.log.append((t, sf.delivered + delta))
            self.log.append((t, total if total < nbytes else nbytes))

    def run(self) -> None:
        nbytes = float(self.spec.nbytes)
        deadline = self.spec.deadline_s
        subflows = self.subflows
        indices = range(len(subflows))
        #: Multipath runs track scheduler commitment (drain model);
        #: single-subflow runs finish on plain delivery.
        multipath = len(subflows) > 1
        gating = self._mode in ("backup", "singlepath")
        edges = self.edges
        recorder = self.recorder
        log = self.log
        rates = [0.0] * len(subflows)
        #: A steady share's part above ``terms.converged`` while the
        #: loss transient decays it (integrated in closed form), else 0.
        excesses = [0.0] * len(subflows)
        inflight = [0.0] * len(subflows)
        now = 0.0
        now_eps = _EPS
        delivered = 0.0
        #: True once the remaining bytes are split into per-subflow
        #: committed-backlog drains (``drain_target``): from there each
        #: subflow only delivers what was already assigned to it and
        #: the slowest pipe sets the completion time (the straggler
        #: tail of the paper's Figs. 9/10).  A fault edge voids it.
        draining = False
        next_edge_at = (
            edges[self.edge_i][0] if self.edge_i < len(edges) else math.inf
        )
        for _ in range(_MAX_ITERATIONS):
            # One pass: shares, the next share transition and the
            # scheduler's commitment.  Floats accumulate left to right
            # (builtin sum() compensates on CPython >= 3.12 only and
            # would part ways with 3.10/3.11 from the third subflow).
            t_next = deadline
            if next_edge_at < t_next:
                t_next = next_edge_at if next_edge_at > now else now
            total_rate = 0.0
            inflight_total = 0.0
            curved = False
            for i in indices:
                sf = subflows[i]
                rate = pipe = excess = 0.0
                if not sf.established:
                    transition = sf.established_at
                else:
                    transition = sf.next_ramp_at
                    target = sf.drain_target
                    if not sf.gated and (
                        target is None or sf.delivered < target - 0.5
                    ):
                        # The share rule, inlined.  It must equal
                        # _Subflow.rate() (= ShareTerms.goodput ∧ the
                        # live window) and, below, ShareTerms.pipe —
                        # whose rtt_s <= 0 guard PathSpec rules out
                        # here.  A model change touches all three;
                        # tests/flow/test_hot_path.py holds them equal.
                        terms = sf.terms
                        rate = terms.cap
                        if terms.decays:
                            rate = terms.converged
                            excess = (terms.cap - rate) * exp(
                                -sf.delivered / sf.mss * terms.loss_rate
                                / LOSS_CONVERGENCE_EVENTS
                            )
                            rate += excess
                        if rate <= 0.0:
                            rate = 0.0
                        else:
                            if not sf.steady:
                                # Ramping: the share holds until the
                                # next window step, an RTT away at most.
                                excess = 0.0
                                window = sf.cwnd * sf.mss
                                cwnd_rate = window / terms.rtt_s
                                if cwnd_rate < rate:
                                    rate = cwnd_rate
                            elif excess > 0.0:
                                curved = True
                            total_rate += rate
                            if multipath and not draining:
                                # Committed-but-undelivered bytes: the
                                # pipe, bounded by the live window while
                                # the subflow ramps (``pipe_limit`` binds
                                # on a decaying cap: a constant there).
                                pipe = rate * terms.rtt_s + terms.queue_bytes
                                if terms.pipe_limit < pipe:
                                    pipe = terms.pipe_limit
                                if not sf.steady and window < pipe:
                                    pipe = window
                                inflight_total += pipe
                if (
                    transition is not None
                    and now_eps < transition < t_next
                ):
                    t_next = transition
                rates[i] = rate
                excesses[i] = excess
                inflight[i] = pipe
            finishing = False
            if draining:
                # Each subflow drains its own committed share; its
                # target-reach instant is a share transition.
                for i in indices:
                    sf = subflows[i]
                    if sf.drain_target is not None and rates[i] > _EPS:
                        owed = sf.drain_target - sf.delivered
                        t_reach = now + (
                            sf.terms.transient_seconds(excesses[i], owed)
                            if excesses[i] > 0.0 else owed / rates[i]
                        )
                        if t_reach <= t_next + _EPS:
                            if t_reach < now:
                                t_reach = now
                            if t_reach < t_next:
                                t_next = t_reach
            elif multipath and total_rate > _EPS:
                # The source drains when the scheduler's commitment
                # (delivered + in-flight) covers the transfer, which
                # runs ahead of delivery by the in-flight sum.
                remaining = nbytes - delivered
                if remaining > inflight_total + 0.5:
                    owed = remaining - inflight_total
                    dt = owed / total_rate
                    if curved and now + dt < t_next:
                        dt = self._drain_root(owed, dt, rates, excesses)
                    t_drain = now + dt
                    if t_drain <= t_next + _EPS:
                        if t_drain < now:
                            t_drain = now
                        if t_drain < t_next:
                            t_next = t_drain
                elif inflight_total > _EPS:
                    # Split the remaining bytes along the in-flight
                    # pipes.  A subflow with nothing in flight owes
                    # nothing more — in particular one that joins after
                    # this point carries nothing, exactly like an
                    # MP_JOIN completing after the source emptied.
                    if remaining < 0.0:
                        remaining = 0.0
                    for i in indices:
                        sf = subflows[i]
                        sf.drain_target = sf.delivered + (
                            remaining * inflight[i] / inflight_total
                            if inflight[i] > 0.0 else 0.0
                        )
                    draining = True
                    continue
            elif total_rate > _EPS:
                owed = nbytes - delivered
                t_finish = now + (
                    subflows[0].terms.transient_seconds(excesses[0], owed)
                    if curved else owed / total_rate
                )
                if t_finish <= t_next + _EPS:
                    if t_finish < t_next:
                        t_next = t_finish
                    finishing = True
            dt = t_next - now
            if dt > 0.0:
                if curved and dt > _LOG_STEP_S:
                    self._sample_curves(now, t_next, delivered, rates,
                                        excesses)
                for i in indices:
                    if rates[i] > 0.0:
                        sf = subflows[i]
                        if excesses[i] > 0.0:
                            delta = sf.terms.transient_bytes(excesses[i], dt)
                        else:
                            delta = rates[i] * dt
                        if sf.drain_target is not None:
                            room = sf.drain_target - sf.delivered
                            if room < delta:
                                delta = room
                        if delta > 0.0:
                            sf.delivered = progress = sf.delivered + delta
                            delivered += delta
                            sf.log.append((t_next, progress))
                            # One ``send`` per subflow per rate
                            # interval (not per segment).
                            sent = round(progress)
                            length = sent - sf.sent_bytes_int
                            if length > 0:
                                sf.sent_bytes_int = sent
                                sf.send_events += 1
                                if recorder is not None:
                                    recorder.emit(
                                        "send", t_next,
                                        path=sf.state.params.name,
                                        flow_id=0,
                                        subflow_id=sf.subflow_id,
                                        length=length, rxt=False,
                                    )
                log.append(
                    (t_next, delivered if delivered < nbytes else nbytes)
                )
            self.now = now = t_next
            now_eps = now + _EPS
            if delivered >= nbytes - 0.5 and (finishing or (
                draining and not any(
                    sf.drain_target is not None
                    and sf.delivered < sf.drain_target - 0.5
                    for sf in subflows
                )
            )):
                self.completed_at = now
                return
            if now >= deadline - _EPS:
                return
            if next_edge_at <= now_eps:
                self._fire_due_edges()
                draining = False
                next_edge_at = (
                    edges[self.edge_i][0] if self.edge_i < len(edges)
                    else math.inf
                )
            for sf in subflows:
                if not sf.established:
                    if (
                        sf.established_at is not None
                        and sf.established_at <= now_eps
                    ):
                        sf.establish(now)
                        if recorder is not None:
                            recorder.emit(
                                "subflow_add", now,
                                path=sf.state.params.name, flow_id=0,
                                subflow_id=sf.subflow_id,
                                rtt_s=sf.handshake_rtt_s,
                            )
                            self._emit_sched(sf)
                elif (
                    sf.next_ramp_at is not None
                    and sf.next_ramp_at <= now_eps
                ):
                    sf.ramp_step(now)
            if gating:
                self._refresh_gating()
        raise ConfigurationError(
            f"flow engine exceeded {_MAX_ITERATIONS} iterations for "
            f"spec {self.spec.key()!r} — degenerate fault schedule?"
        )

    # -- reporting -------------------------------------------------------
    def report(self) -> TransferReport:
        subflow_logs: Dict[str, DeliveryLog] = {}
        rows = []
        for sf in self.subflows:
            if sf.established_at is None and not sf.established:
                continue  # singlepath standby that never opened
            name = sf.state.params.name
            subflow_logs[name] = _densify(sf.log)
            # segments_sent counts emitted (aggregate) send events so
            # the reduced trace reconciles exactly with the snapshot.
            rows.append((
                name, sf.subflow_id, sf.send_events, sf.sent_bytes_int,
                0, 0, 0, sf.handshake_rtt_s if sf.established else None,
            ))
        return TransferReport(
            total_bytes=self.spec.nbytes,
            started_at=0.0,
            completed_at=self.completed_at,
            delivery_log=_densify(self.log),
            subflow_delivery_logs=subflow_logs,
            retransmits=0,
            timeouts=0,
            label=self.spec.key(),
            metrics=dict(sorted(subflow_series(rows).items())),
            faults=[fault.to_dict() for fault in self.applied],
        )


def run_flow_spec(
    spec: TransferSpec,
    seed: Optional[int] = None,
    recorder: Optional[TraceRecorder] = None,
) -> TransferReport:
    """Execute ``spec`` at flow fidelity and report canonically.

    Mirrors the packet path's seed resolution: the spec's own seed
    wins, then the explicit argument, then :data:`DEFAULT_SEED`.
    """
    resolved = (
        spec.seed if spec.seed is not None
        else (seed if seed is not None else DEFAULT_SEED)
    )
    run = _FlowRun(spec, resolved, recorder)
    run.run()
    return run.report()
