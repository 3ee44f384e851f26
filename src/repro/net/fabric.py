"""Wiring between paths and transport endpoints.

Many connections can share one path (a phone's WiFi link carries every
app connection at once), so each end of a path terminates in a
:class:`PacketDemux` that routes arriving packets to the registered
``(flow_id, subflow_id)`` handler.  :class:`AttachedPath` bundles a
:class:`~repro.net.path.Path` with its two demuxes and exposes the
send primitives each side uses.
"""

from typing import Callable, Dict, Tuple

from repro.core.packet import Packet
from repro.net.path import Path

__all__ = ["PacketDemux", "AttachedPath"]

Handler = Callable[[Packet], None]
Key = Tuple[int, int]


class PacketDemux:
    """Routes delivered packets to per-(flow, subflow) handlers."""

    def __init__(self, name: str = "demux"):
        self.name = name
        self._handlers: Dict[Key, Handler] = {}
        self.stray_packets = 0

    def register(self, flow_id: int, subflow_id: int, handler: Handler) -> None:
        self._handlers[(flow_id, subflow_id)] = handler

    def unregister(self, flow_id: int, subflow_id: int) -> None:
        self._handlers.pop((flow_id, subflow_id), None)

    def dispatch(self, packet: Packet) -> None:
        handler = self._handlers.get((packet.flow_id, packet.subflow_id))
        if handler is None:
            # Late packets for torn-down connections are dropped, as a
            # real host would RST them; we just count them.
            self.stray_packets += 1
            return
        handler(packet)


class AttachedPath:
    """A path plus the client/server demuxes terminating it."""

    def __init__(self, path: Path):
        self.path = path
        self.client_rx = PacketDemux(f"{path.name}.client")
        self.server_rx = PacketDemux(f"{path.name}.server")
        path.uplink.connect(self.server_rx.dispatch)
        path.downlink.connect(self.client_rx.dispatch)

    @property
    def name(self) -> str:
        return self.path.name

    def client_send(self, packet: Packet) -> None:
        """Transmit a packet from the client toward the server."""
        self.path.uplink.send(packet)

    def server_send(self, packet: Packet) -> None:
        """Transmit a packet from the server toward the client."""
        self.path.downlink.send(packet)

    def register(
        self,
        flow_id: int,
        subflow_id: int,
        client_handler: Handler,
        server_handler: Handler,
    ) -> None:
        """Register both ends of a subflow on this path."""
        self.client_rx.register(flow_id, subflow_id, client_handler)
        self.server_rx.register(flow_id, subflow_id, server_handler)

    def close(self) -> None:
        """Unwire the path: handlers, link sinks and every observer."""
        self.client_rx._handlers.clear()
        self.server_rx._handlers.clear()
        self.path.on_admin_change.clear()
        for link in (self.path.uplink, self.path.downlink):
            link._sink = None
            for observers in (link.on_transmit, link.on_deliver,
                              link.on_drop, link.on_state_change):
                observers.clear()

    def __repr__(self) -> str:
        return f"AttachedPath({self.path!r})"
