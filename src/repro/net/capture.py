"""Packet capture: the simulator's tcpdump.

The paper's entire methodology rests on tcpdump traces collected at
the client; this module is the in-simulator equivalent.  A
:class:`PacketCapture` taps a path's client-side events and renders
them in a tcpdump-like text format, so traces can be eyeballed, diffed,
and post-processed the same way the authors processed theirs.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.packet import Packet, PacketFlags
from repro.net.path import Path

__all__ = ["CapturedPacket", "PacketCapture"]


@dataclass(frozen=True)
class CapturedPacket:
    """One captured packet with its capture metadata."""

    time: float
    direction: str  # "out" (client sent) or "in" (client received)
    interface: str
    flow_id: int
    subflow_id: int
    seq: int
    ack: int
    payload_bytes: int
    flags: PacketFlags

    def flag_string(self) -> str:
        """tcpdump-style flag letters (S, F, R, ., W for window update).

        ACK renders as a trailing ``.`` even in combination, matching
        tcpdump's compound forms: ``S.`` for SYN|ACK, ``F.`` for
        FIN|ACK, a bare ``.`` for a pure ACK.
        """
        letters = ""
        if self.flags & PacketFlags.SYN:
            letters += "S"
        if self.flags & PacketFlags.FIN:
            letters += "F"
        if self.flags & PacketFlags.RST:
            letters += "R"
        if self.flags & PacketFlags.WINDOW_UPDATE:
            letters += "W"
        if self.flags & PacketFlags.ACK:
            letters += "."
        return letters or "-"

    def format(self) -> str:
        """Render one tcpdump-like line."""
        arrow = ">" if self.direction == "out" else "<"
        mp = " mp_join" if self.flags & PacketFlags.MP_JOIN else ""
        return (
            f"{self.time:12.6f} {self.interface:>6s} {arrow} "
            f"flow {self.flow_id}.{self.subflow_id} "
            f"Flags [{self.flag_string()}], "
            f"seq {self.seq}:{self.seq + self.payload_bytes}, "
            f"ack {self.ack}, length {self.payload_bytes}{mp}"
        )


class PacketCapture:
    """Captures every packet crossing a path, as seen from the client.

    A :mod:`repro.obs` sink: pass a
    :class:`~repro.obs.trace.TraceRecorder` and every captured packet
    is also emitted as a ``packet`` trace event, so tcpdump-style
    captures land in the same unified stream as transport events.
    """

    def __init__(self, path: Path, flow_filter: Optional[int] = None,
                 recorder=None):
        self.interface = path.name
        self.flow_filter = flow_filter
        self.recorder = recorder
        self.packets: List[CapturedPacket] = []
        #: Link failure-knob transitions: (time, link name, state) —
        #: the capture's analog of an ifconfig log next to the pcap.
        self.state_changes: List[tuple] = []
        self._loop = path.uplink.loop
        path.uplink.on_transmit.append(self._capture("out"))
        path.downlink.on_deliver.append(self._capture("in"))
        path.uplink.on_state_change.append(self._on_state_change)
        path.downlink.on_state_change.append(self._on_state_change)

    def _on_state_change(self, link, state: str) -> None:
        now = self._loop.now
        self.state_changes.append((now, link.name, state))
        if self.recorder is not None:
            self.recorder.emit(
                "fault_state", now, path=link.name, state=state,
                up=link.up, blackhole=link.blackhole,
            )

    def _capture(self, direction: str) -> Callable[[Packet, float], None]:
        def hook(packet: Packet, when: float) -> None:
            if (self.flow_filter is not None
                    and packet.flow_id != self.flow_filter):
                return
            captured = CapturedPacket(
                time=when,
                direction=direction,
                interface=self.interface,
                flow_id=packet.flow_id,
                subflow_id=packet.subflow_id,
                seq=packet.seq,
                ack=packet.ack,
                payload_bytes=packet.payload_bytes,
                flags=packet.flags,
            )
            self.packets.append(captured)
            if self.recorder is not None:
                self.recorder.emit(
                    "packet", when, path=self.interface,
                    flow_id=packet.flow_id, subflow_id=packet.subflow_id,
                    dir=direction, flags=captured.flag_string(),
                    seq=packet.seq, ack=packet.ack,
                    length=packet.payload_bytes,
                )

        return hook

    def __len__(self) -> int:
        return len(self.packets)

    def filter(self, predicate: Callable[[CapturedPacket], bool]) -> List[CapturedPacket]:
        """Captured packets satisfying ``predicate``."""
        return [p for p in self.packets if predicate(p)]

    @property
    def bytes_received(self) -> int:
        """Payload bytes the client received on this interface."""
        return sum(p.payload_bytes for p in self.packets
                   if p.direction == "in")

    def to_text(self, limit: Optional[int] = None) -> str:
        """Render the capture as tcpdump-like text."""
        rows = self.packets[:limit] if limit is not None else self.packets
        return "\n".join(p.format() for p in rows)

    def save(self, path: str) -> None:
        """Write the text rendering to a file."""
        with open(path, "w") as handle:
            handle.write(self.to_text())
            handle.write("\n")
