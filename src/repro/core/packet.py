"""Packet model shared by the TCP and MPTCP stacks.

A :class:`Packet` is a mutable record: the sending endpoint fills in
sequence/ack numbers and flags, links stamp queueing/delivery times, and
receivers read everything back.  Packets are MSS-granular — the
simulator never fragments.

A bulk transfer builds two packets per segment and reads each a dozen
times on its way through queue, link and endpoint, so the record is
slotted, its wire size is computed once at construction (nothing
changes ``payload_bytes`` afterwards) and the flag tests read the
flag's integer bits: ``enum.Flag.__and__`` builds a new member per
test, ten times the cost of the integer test.
"""

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["PacketFlags", "Packet", "TCP_HEADER_BYTES", "MSS_BYTES"]

#: Combined IP + TCP header overhead charged per packet on the wire.
TCP_HEADER_BYTES = 40

#: Maximum segment size used throughout the simulator (typical
#: Ethernet-derived MSS).
MSS_BYTES = 1448


class PacketFlags(enum.Flag):
    """TCP header flags the simulator cares about."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    RST = enum.auto()
    #: MPTCP MP_JOIN option — marks a SYN that joins an existing
    #: connection rather than opening a new one.
    MP_JOIN = enum.auto()
    #: TCP window update (used to reproduce Fig. 15g's stalled backup).
    WINDOW_UPDATE = enum.auto()


_SYN_BIT = PacketFlags.SYN.value
_ACK_BIT = PacketFlags.ACK.value
_FIN_BIT = PacketFlags.FIN.value

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One simulated TCP segment.

    Attributes
    ----------
    flow_id:
        Identifier of the (MP)TCP connection this segment belongs to.
    subflow_id:
        Identifier of the subflow (0 for plain TCP).
    seq / ack:
        Subflow-level sequence and cumulative acknowledgment numbers,
        counted in payload bytes.
    data_seq:
        MPTCP data-sequence number (connection-level byte offset) of the
        first payload byte, or ``None`` for plain TCP segments.
    payload_bytes:
        Payload length; the wire size adds :data:`TCP_HEADER_BYTES`.
    """

    flow_id: int
    subflow_id: int = 0
    seq: int = 0
    ack: int = 0
    flags: PacketFlags = PacketFlags.NONE
    payload_bytes: int = 0
    data_seq: Optional[int] = None
    data_ack: Optional[int] = None
    #: Time the packet was handed to the link (set by the sender).
    sent_at: float = -1.0
    #: Time the packet was delivered to the far endpoint (set by links).
    delivered_at: float = -1.0
    #: True when this is a retransmission (disables RTT sampling, per
    #: Karn's algorithm).
    retransmitted: bool = False
    #: Timestamp echo (RFC 7323 TSecr analogue): the ``sent_at`` of the
    #: packet that triggered this ACK, enabling clean RTT samples even
    #: during loss recovery.
    echo_ts: Optional[float] = None
    #: Selective-acknowledgment blocks: received ``[start, end)`` byte
    #: ranges above the cumulative ACK.
    sack: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Advertised receive window in bytes (flow control); ``None`` on
    #: segments that don't update it.
    rwnd: Optional[int] = None
    packet_id: int = field(default_factory=_packet_ids.__next__)
    #: Total bytes this packet occupies on the wire.
    wire_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_bytes = self.payload_bytes + TCP_HEADER_BYTES

    @property
    def is_syn(self) -> bool:
        return self.flags._value_ & _SYN_BIT != 0

    @property
    def is_ack(self) -> bool:
        return self.flags._value_ & _ACK_BIT != 0

    @property
    def is_fin(self) -> bool:
        return self.flags._value_ & _FIN_BIT != 0

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last payload byte."""
        return self.seq + self.payload_bytes

    def __repr__(self) -> str:
        names = []
        for flag in (PacketFlags.SYN, PacketFlags.ACK, PacketFlags.FIN,
                     PacketFlags.RST, PacketFlags.MP_JOIN):
            if self.flags & flag:
                names.append(flag.name or "?")
        label = "|".join(names) if names else "DATA"
        return (
            f"Packet(flow={self.flow_id}, sub={self.subflow_id}, {label}, "
            f"seq={self.seq}, ack={self.ack}, len={self.payload_bytes})"
        )
