"""Unidirectional link models.

A link accepts packets from an endpoint (``send``), queues them in a
DropTail buffer, serializes them according to its rate model, applies
propagation delay, and hands them to its connected sink.  Two rate
models are provided:

* :class:`FixedRateLink` — constant bit-rate serialization.
* :class:`TraceDrivenLink` — Mahimahi semantics: one packet may depart
  per delivery opportunity of a looping :class:`~repro.net.trace.DeliveryTrace`.

Links also expose the failure knobs used in §3.6 of the paper: an
administrative ``up`` flag (iproute "multipath off") and a ``blackhole``
flag (physically unplugging the tethered phone — packets vanish with no
signal to the endpoint).
"""

from abc import ABC, abstractmethod
from functools import partial
from typing import Callable, List, Optional

from repro.core.errors import ConfigurationError, SimulationError
from repro.core.events import EventLoop
from repro.core.packet import Packet
from repro.net.loss import LossModel, NoLoss
from repro.net.queue import DropTailQueue
from repro.net.trace import DeliveryTrace

__all__ = ["Link", "FixedRateLink", "TraceDrivenLink"]

PacketSink = Callable[[Packet], None]
PacketObserver = Callable[[Packet, float], None]
#: Called with (link, state) on failure-knob transitions; ``state`` is
#: one of "down", "up", "blackhole_on", "blackhole_off",
#: "rate_collapse", "rate_restore", "delay_spike", "delay_restore".
StateObserver = Callable[["Link", str], None]


class Link(ABC):
    """Common queueing/delivery machinery for unidirectional links."""

    def __init__(
        self,
        loop: EventLoop,
        name: str = "link",
        propagation_delay_s: float = 0.0,
        queue: Optional[DropTailQueue] = None,
        loss: Optional[LossModel] = None,
    ) -> None:
        if propagation_delay_s < 0:
            raise ConfigurationError(
                f"negative propagation delay: {propagation_delay_s}"
            )
        self.loop = loop
        self.name = name
        self.propagation_delay_s = propagation_delay_s
        self._base_propagation_delay_s = propagation_delay_s
        self.queue = queue if queue is not None else DropTailQueue()
        self.loss = loss if loss is not None else NoLoss()
        self.up = True
        self.blackhole = False
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.channel_drops = 0
        self.blackholed_packets = 0
        self._sink: Optional[PacketSink] = None
        #: Called with (packet, time) when a packet starts transmission.
        self.on_transmit: List[PacketObserver] = []
        #: Called with (packet, time) when a packet reaches the sink.
        self.on_deliver: List[PacketObserver] = []
        #: Called with (packet, time) when the queue tail-drops a packet.
        self.on_drop: List[PacketObserver] = []
        #: Called with (link, state) on every failure-knob transition
        #: (see :data:`StateObserver`).  Observability sinks subscribe
        #: here to timeline outages alongside cwnd/queue series.
        self.on_state_change: List[StateObserver] = []

    def connect(self, sink: PacketSink) -> None:
        """Attach the receiving endpoint."""
        self._sink = sink

    # ------------------------------------------------------------------
    # Failure knobs (paper §3.6; driven by repro.faults)
    # ------------------------------------------------------------------
    def _notify_state(self, state: str) -> None:
        for observer in list(self.on_state_change):
            observer(self, state)

    def set_down(self) -> None:
        """Administratively disable the link (packets sent here vanish)."""
        if not self.up:
            return
        self.up = False
        self._notify_state("down")

    def set_up(self) -> None:
        """Administratively re-enable the link."""
        if self.up:
            return
        self.up = True
        self._notify_state("up")

    def set_blackhole(self, blackhole: bool = True) -> None:
        """Silently blackhole (or restore) the link.

        Models physically unplugging a tethered phone: queued packets
        are discarded (they sat in the device that just disappeared),
        in-flight packets vanish at delivery time, and the link still
        reports ``up`` — no endpoint is signalled.
        """
        if self.blackhole == blackhole:
            return
        self.blackhole = blackhole
        if blackhole:
            # Flushed packets are lost to the unplug like any other:
            # counted, so sent == delivered + dropped + blackholed.
            self.blackholed_packets += self.queue.clear()
        self._notify_state("blackhole_on" if blackhole else "blackhole_off")

    def spike_delay(self, extra_s: float) -> None:
        """Add ``extra_s`` of propagation delay (e.g. a handover pause)."""
        if extra_s < 0:
            raise ConfigurationError(f"negative delay spike: {extra_s}")
        self.propagation_delay_s = self._base_propagation_delay_s + extra_s
        self._notify_state("delay_spike")

    def restore_delay(self) -> None:
        """Return propagation delay to its configured value."""
        if self.propagation_delay_s == self._base_propagation_delay_s:
            return
        self.propagation_delay_s = self._base_propagation_delay_s
        self._notify_state("delay_restore")

    def send(self, packet: Packet) -> None:
        """Entry point for endpoints: queue ``packet`` for transmission."""
        if self._sink is None:
            raise SimulationError(f"link {self.name} has no connected sink")
        if self.blackhole or not self.up:
            self.blackholed_packets += 1
            return
        loss = self.loss
        if type(loss) is not NoLoss and loss.should_drop(packet):
            self.channel_drops += 1
            return
        if packet.sent_at < 0:
            # Stamp at enqueue so RTT samples include queueing delay.
            packet.sent_at = self.loop.now
        if self.queue.offer(packet):
            self._on_enqueue()
        elif self.on_drop:
            now = self.loop.now
            for observer in self.on_drop:
                observer(packet, now)

    def _emit_transmit(self, packet: Packet) -> None:
        now = self.loop.now
        if packet.sent_at < 0:
            packet.sent_at = now
        for observer in self.on_transmit:
            observer(packet, now)

    def _deliver_after_propagation(self, packet: Packet) -> None:
        self.loop.call_later(self.propagation_delay_s,
                             partial(self._deliver, packet))

    def _deliver(self, packet: Packet) -> None:
        if self.blackhole:
            # The phone was unplugged while this packet was in flight.
            self.blackholed_packets += 1
            return
        assert self._sink is not None
        now = self.loop.now
        packet.delivered_at = now
        self.delivered_packets += 1
        self.delivered_bytes += packet.wire_bytes
        for observer in self.on_deliver:
            observer(packet, now)
        self._sink(packet)

    @abstractmethod
    def _on_enqueue(self) -> None:
        """Kick the rate model after a successful enqueue."""

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        if self.blackhole:
            state = "blackhole"
        return f"{type(self).__name__}({self.name}, {state}, q={len(self.queue)})"


class FixedRateLink(Link):
    """Constant-bit-rate link: serialization time = wire bytes / rate."""

    def __init__(
        self,
        loop: EventLoop,
        rate_mbps: float,
        name: str = "link",
        propagation_delay_s: float = 0.0,
        queue: Optional[DropTailQueue] = None,
        loss: Optional[LossModel] = None,
    ) -> None:
        super().__init__(loop, name, propagation_delay_s, queue, loss)
        if rate_mbps <= 0:
            raise ConfigurationError(f"rate must be positive: {rate_mbps}")
        self.rate_bytes_per_sec = rate_mbps * 1e6 / 8.0
        self._base_rate_bytes_per_sec = self.rate_bytes_per_sec
        self._transmitting = False

    def collapse_rate(self, factor: float) -> None:
        """Scale the serialization rate to ``factor`` of its base value.

        Models a sudden capacity collapse (a WiFi AP dropping to a
        legacy MCS, an LTE cell entering congestion).  Packets already
        serializing finish at the old rate; subsequent ones use the new
        one.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"rate collapse factor must be positive: {factor}"
            )
        self.rate_bytes_per_sec = self._base_rate_bytes_per_sec * factor
        self._notify_state("rate_collapse")

    def restore_rate(self) -> None:
        """Return the serialization rate to its configured value."""
        if self.rate_bytes_per_sec == self._base_rate_bytes_per_sec:
            return
        self.rate_bytes_per_sec = self._base_rate_bytes_per_sec
        self._notify_state("rate_restore")

    def _on_enqueue(self) -> None:
        if not self._transmitting:
            self._start_transmission()

    def _start_transmission(self) -> None:
        packet = self.queue.poll()
        if packet is None:
            return
        self._transmitting = True
        if self.on_transmit or packet.sent_at < 0:
            self._emit_transmit(packet)
        tx_time = packet.wire_bytes / self.rate_bytes_per_sec
        self.loop.call_later(tx_time,
                             partial(self._finish_transmission, packet))

    def _finish_transmission(self, packet: Packet) -> None:
        self._transmitting = False
        self.loop.call_later(self.propagation_delay_s,
                             partial(self._deliver, packet))
        if not self.queue.empty:
            self._start_transmission()


class TraceDrivenLink(Link):
    """Mahimahi-style link: one packet departs per delivery opportunity.

    Opportunities that arrive while the queue is empty are wasted, as in
    a real radio scheduler grant that goes unused.
    """

    def __init__(
        self,
        loop: EventLoop,
        trace: DeliveryTrace,
        name: str = "link",
        propagation_delay_s: float = 0.0,
        queue: Optional[DropTailQueue] = None,
        loss: Optional[LossModel] = None,
    ) -> None:
        super().__init__(loop, name, propagation_delay_s, queue, loss)
        self.trace = trace
        self._opportunity_scheduled = False

    def _on_enqueue(self) -> None:
        if not self._opportunity_scheduled:
            self._schedule_next_opportunity()

    def _schedule_next_opportunity(self) -> None:
        next_time, count = self.trace.next_opportunity_with_count_after(
            self.loop.now
        )
        self._opportunity_scheduled = True
        self.loop.call_at(next_time, partial(self._opportunity, count))

    def _opportunity(self, count: int) -> None:
        self._opportunity_scheduled = False
        for _ in range(count):
            packet = self.queue.poll()
            if packet is None:
                break
            self._emit_transmit(packet)
            self._deliver_after_propagation(packet)
        if not self.queue.empty:
            self._schedule_next_opportunity()
