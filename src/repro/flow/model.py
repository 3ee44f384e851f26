"""The analytic throughput model behind the flow engine.

A flow-level simulator replaces per-packet dynamics with a per-subflow
*rate*: the minimum of what the link can carry, what the receive
window allows, and what the loss process sustains (the Mathis bound).
Short transfers are dominated by slow start, so the engine ramps each
subflow's congestion window geometrically per RTT before handing over
to the steady-state rate, whose loss transient it follows in closed form
(:meth:`ShareTerms.transient_bytes`); :mod:`repro.flow.engine`
regenerates events whenever any of these terms changes.

All rates in this module are *payload goodput* in bytes per second:
link capacities are discounted by the TCP/IP header overhead the
packet engine pays per segment (``mss / (mss + 40)``) and by the loss
rate (lost segments are retransmitted, so the goodput share of the
wire is ``1 - p``).

The model is calibrated against the packet engine by
:mod:`repro.flow.validate`; DESIGN.md §10 documents what each term
does and does not capture.
"""

import math
from dataclasses import dataclass

from repro.core.packet import TCP_HEADER_BYTES
from repro.core.rng import RngStreams
from repro.linkem.shells import PathSpec
from repro.tcp.config import TcpConfig

__all__ = [
    "CONGESTION_AVOIDANCE_GROWTH",
    "CUBIC_RESPONSE_CONSTANT",
    "DRAIN_QUEUE_FILL",
    "FlowPathParams",
    "LIA_FACTOR",
    "RENO_RESPONSE_CONSTANT",
    "SLOW_START_GROWTH",
    "ShareTerms",
    "ge_stationary_loss",
    "loss_limited_bytes_s",
    "path_flow_params",
    "share_terms",
]

#: Coupled congestion control (LIA/OLIA) keeps the *aggregate* no more
#: aggressive than one TCP; per subflow that shows up as a reduced
#: loss-limited rate (factor ``1/sqrt(2)`` for two subflows sharing).
LIA_FACTOR = 1.0 / math.sqrt(2.0)

#: Congestion-window growth per RTT below ssthresh (classic doubling).
SLOW_START_GROWTH = 2.0

#: Growth per RTT above ssthresh.  Linux CUBIC's convex recovery is
#: much faster than Reno's one-segment-per-RTT; a geometric 1.25×/RTT
#: keeps the event count bounded and sits between the two (see
#: DESIGN.md §10 for the resulting error bounds).
CONGESTION_AVOIDANCE_GROWTH = 1.25

#: CUBIC response function ``W = k * (rtt / p^3)^(1/4)`` constant:
#: ``(C*(3+beta)/(4*(1-beta)))^(1/4)`` with Linux's C=0.4, beta=0.7
#: gives 1.054.  Multi-seed packet-engine means reproduce it within a
#: few percent across p in [0.003, 0.02] and rtt in [20 ms, 70 ms]
#: (see repro.flow.validate).
CUBIC_RESPONSE_CONSTANT = 1.054

#: Reno-family response ``W = k / sqrt(p)``.  Loss-event-driven AIMD
#: predicts k in [1.22 (per-packet Mathis), 1.63 (per-window events)];
#: the packet engine's multi-seed means sit at ~1.4.
RENO_RESPONSE_CONSTANT = 1.4

#: Congestion controls whose per-subflow loss response follows CUBIC;
#: everything else (reno, decoupled, coupled, olia) is Reno-family.
_CUBIC_CCS = frozenset({"cubic"})

#: Coupled controllers (aggregate no more aggressive than one TCP).
_COUPLED_CCS = frozenset({"coupled", "olia"})

#: Loss-equilibrium convergence constant, in expected loss events.
#: A transfer's first segments ride the slow-start overshoot near link
#: capacity; the response-function window only describes the long-run
#: average after a few loss/recovery epochs.  The effective cap decays
#: from the capacity term toward the loss limit as
#: ``exp(-segments_delivered * p / LOSS_CONVERGENCE_EVENTS)`` — i.e.
#: equilibrium after ~3 expected losses, matching the packet engine's
#: 1 MB-vs-4 MB throughput ratio on lossy paths.
LOSS_CONVERGENCE_EVENTS = 3.0

#: Average fill of the bottleneck DropTail buffer behind a
#: capacity-limited subflow, in queue capacities.  The packet sender's
#: window saws between overflow and recovery, and retransmission
#: epochs stretch the drain of whatever is queued, so the *effective*
#: committed backlog exceeds one queue capacity; calibrated against
#: packet-engine MPTCP straggler tails (see repro.flow.validate).
DRAIN_QUEUE_FILL = 1.5


@dataclass(frozen=True)
class FlowPathParams:
    """Static per-path inputs to the flow model (one transfer direction).

    ``wire_bytes_s`` is the raw serialization capacity of the
    direction the payload travels (trace-driven links contribute their
    mean rate), before header/loss discounts.
    """

    name: str
    wire_bytes_s: float
    rtt_s: float
    loss_rate: float
    #: DropTail buffer depth of the bottleneck link, in packets.
    queue_packets: int = 250


def path_flow_params(
    path_spec: PathSpec, direction: str, rng: RngStreams
) -> FlowPathParams:
    """Materialize one condition path for the flow model.

    Goes through :meth:`~repro.linkem.shells.PathSpec.to_path_config`
    — the exact constructor the packet engine uses — so temporal
    jitter consumes the same ``jitter.{name}`` RNG draws and
    trace-driven links report the same synthesized mean rate.  A flow
    run at seed *s* therefore sees bit-identical effective link
    parameters to the packet run at seed *s*.
    """
    config = path_spec.to_path_config(rng)
    rate_mbps = (
        config.effective_down_mbps if direction == "down"
        else config.effective_up_mbps
    )
    return FlowPathParams(
        name=path_spec.name,
        wire_bytes_s=rate_mbps * 1e6 / 8.0,
        rtt_s=config.rtt_ms / 1000.0,
        loss_rate=config.loss_rate,
        queue_packets=config.queue_packets,
    )


def ge_stationary_loss(
    p_good_to_bad: float, p_bad_to_good: float,
    p_good: float, p_bad: float,
) -> float:
    """Stationary loss rate of a Gilbert–Elliott chain.

    The flow model cannot follow individual episodes, so a
    ``burst_loss`` fault contributes its long-run average loss for the
    duration of the episode.
    """
    denominator = p_good_to_bad + p_bad_to_good
    if denominator <= 0:
        return p_good
    pi_bad = p_good_to_bad / denominator
    return (1.0 - pi_bad) * p_good + pi_bad * p_bad


def loss_limited_bytes_s(
    mss_bytes: int, rtt_s: float, loss_rate: float, cc: str
) -> float:
    """Loss-limited sustainable rate of one subflow, bytes per second.

    Response-function form (average window per loss rate), with the
    constants calibrated against multi-seed packet-engine means —
    DESIGN.md §10 records the fit.  Coupled controllers (LIA/OLIA)
    additionally scale by :data:`LIA_FACTOR` so the aggregate stays no
    more aggressive than a single TCP.
    """
    if loss_rate <= 0.0 or rtt_s <= 0.0:
        return math.inf
    if cc in _CUBIC_CCS:
        window = CUBIC_RESPONSE_CONSTANT * (rtt_s / loss_rate**3) ** 0.25
    else:
        window = RENO_RESPONSE_CONSTANT / math.sqrt(loss_rate)
    rate = window * mss_bytes / rtt_s
    if cc in _COUPLED_CCS:
        rate *= LIA_FACTOR
    return rate


def loss_transient_factor(segments_delivered: float, loss_rate: float) -> float:
    """How far a subflow still is from loss equilibrium (1 → 0)."""
    if loss_rate <= 0.0:
        return 0.0
    return math.exp(
        -segments_delivered * loss_rate / LOSS_CONVERGENCE_EVENTS
    )


@dataclass(frozen=True, slots=True)
class ShareTerms:
    """What of one subflow's share only a fault edge can move.

    Progress (bytes delivered, the live window) enters through
    :meth:`goodput` and :meth:`pipe` alone, so the flow engine computes
    these once per fault epoch and evaluates them at every breakpoint.
    """

    #: Header/loss-discounted link capacity ∧ ``rwnd / rtt``.
    cap: float
    #: Long-run rate, ``min(cap, loss limit)``.
    converged: float
    #: The slow-start transient rides above ``converged`` and decays
    #: with progress; ``False`` when capacity or flow control binds.
    decays: bool
    loss_rate: float
    rtt_s: float
    #: Standing DropTail backlog behind a capacity-limited subflow.
    queue_bytes: float
    #: Window bound on the pipe: ``rwnd`` ∧ ``loss limit * rtt``.
    pipe_limit: float
    #: λ of the transient ``exp(−λ·bytes delivered)``.
    decay_per_byte: float

    def goodput(self, segments_delivered: float = math.inf) -> float:
        """Sustainable goodput, bytes per second: the loss limit phased
        in over the first loss epochs (:data:`LOSS_CONVERGENCE_EVENTS`);
        the default is the fully converged long-run rate."""
        if not self.decays:
            return max(0.0, self.cap)
        transient = loss_transient_factor(segments_delivered, self.loss_rate)
        return max(
            0.0, self.converged + (self.cap - self.converged) * transient
        )

    # A share delivering at its decaying cap obeys dD/dt = a + b·e^(−λD)
    # (a = converged, a + b the share now): D(t) = ln((e^(λD₀) + b/a)
    # · e^(λa(t−t₀)) − b/a) / λ, written below relative to D₀ and t₀ so
    # no exponential can overflow.
    def transient_bytes(self, excess: float, dt: float) -> float:
        """Bytes delivered in ``dt`` from a share ``converged + excess``."""
        lam = self.decay_per_byte
        y = lam * self.converged * dt
        return (y + math.log1p(-excess / self.converged * math.expm1(-y))) / lam

    def transient_seconds(self, excess: float, nbytes: float) -> float:
        """The inverse: how long ``nbytes`` take along the same curve."""
        lam = self.decay_per_byte
        ratio = excess / self.converged
        z = lam * nbytes
        return (z + math.log1p(ratio * math.expm1(-z) / (1.0 + ratio))) / (
            lam * self.converged)

    def pipe(self, rate_bytes_s: float) -> float:
        """Bytes the subflow holds *committed* at ``rate_bytes_s``.

        MPTCP's min-RTT scheduler assigns a chunk to any subflow with
        window space, and the chunk stays there (no reinjection short of
        failure).  The steady commitment is what the window sustains:
        the loss response window or ``rwnd`` if either binds, else the
        BDP plus the DropTail buffer the sawing window keeps (over-)full
        — bufferbloat.  When the source drains the slowest pipe drains
        alone: the straggler tail of the paper's Figs. 9/10.  A ramping
        window commits only itself (the engine bounds this by it).
        """
        if rate_bytes_s <= 0.0 or self.rtt_s <= 0.0:
            return 0.0
        return min(rate_bytes_s * self.rtt_s + self.queue_bytes,
                   self.pipe_limit)


def share_terms(
    wire_bytes_s: float,
    rtt_s: float,
    loss_rate: float,
    config: TcpConfig,
    cc: str,
    queue_packets: int,
) -> ShareTerms:
    """The one statement of the share model's per-epoch terms."""
    mss = config.mss_bytes
    packet_bytes = mss + TCP_HEADER_BYTES
    cap = 0.0
    if wire_bytes_s > 0.0:
        cap = wire_bytes_s * (mss / packet_bytes) * (1.0 - loss_rate)
        if rtt_s > 0.0:
            cap = min(cap, config.receive_window_bytes / rtt_s)
    loss_limit = loss_limited_bytes_s(mss, rtt_s, loss_rate, cc)
    converged = min(cap, loss_limit)
    pipe_limit = float(config.receive_window_bytes)
    if math.isfinite(loss_limit):
        pipe_limit = min(pipe_limit, loss_limit * rtt_s)
    return ShareTerms(
        cap=cap, converged=converged, decays=converged < cap,
        loss_rate=loss_rate, rtt_s=rtt_s,
        queue_bytes=queue_packets * packet_bytes * DRAIN_QUEUE_FILL,
        pipe_limit=pipe_limit,
        decay_per_byte=loss_rate / (mss * LOSS_CONVERGENCE_EVENTS),
    )

