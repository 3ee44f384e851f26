"""DropTail (tail-drop FIFO) queue used at the head of every link."""

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.core.errors import ConfigurationError
from repro.core.packet import Packet

__all__ = ["QueueStats", "DropTailQueue"]


@dataclass(slots=True)
class QueueStats:
    """Counters a queue keeps over its lifetime."""

    enqueued: int = 0
    dropped: int = 0
    dequeued: int = 0
    bytes_enqueued: int = 0
    bytes_dropped: int = 0
    max_depth_packets: int = field(default=0)
    max_depth_bytes: int = field(default=0)

    @property
    def drop_rate(self) -> float:
        """Fraction of arriving packets that were tail-dropped."""
        arrivals = self.enqueued + self.dropped
        if arrivals == 0:
            return 0.0
        return self.dropped / arrivals


class DropTailQueue:
    """A FIFO queue bounded in packets and/or bytes.

    Arriving packets that would exceed either bound are dropped.  Both
    bounds default to values typical of access-link buffers; pass
    ``None`` to make a bound infinite.
    """

    __slots__ = ("max_packets", "max_bytes", "_queue", "_bytes", "stats")

    def __init__(
        self,
        max_packets: Optional[int] = 1000,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_packets is not None and max_packets <= 0:
            raise ConfigurationError(f"max_packets must be positive: {max_packets}")
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(f"max_bytes must be positive: {max_bytes}")
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        """Total wire bytes currently queued."""
        return self._bytes

    @property
    def empty(self) -> bool:
        return not self._queue

    def offer(self, packet: Packet) -> bool:
        """Try to enqueue ``packet``; return False if it was tail-dropped."""
        stats = self.stats
        wire_bytes = packet.wire_bytes
        queue = self._queue
        max_packets = self.max_packets
        max_bytes = self.max_bytes
        depth = len(queue) + 1
        if (max_packets is not None and depth > max_packets) or (
            max_bytes is not None and self._bytes + wire_bytes > max_bytes
        ):
            stats.dropped += 1
            stats.bytes_dropped += wire_bytes
            return False
        queue.append(packet)
        self._bytes += wire_bytes
        stats.enqueued += 1
        stats.bytes_enqueued += wire_bytes
        if depth > stats.max_depth_packets:
            stats.max_depth_packets = depth
        if self._bytes > stats.max_depth_bytes:
            stats.max_depth_bytes = self._bytes
        return True

    def peek(self) -> Optional[Packet]:
        """Return the head packet without removing it, or ``None``."""
        return self._queue[0] if self._queue else None

    def poll(self) -> Optional[Packet]:
        """Remove and return the head packet, or ``None`` when empty."""
        queue = self._queue
        if not queue:
            return None
        packet = queue.popleft()
        self._bytes -= packet.wire_bytes
        self.stats.dequeued += 1
        return packet

    def clear(self) -> int:
        """Drop everything queued (used when an interface is unplugged).

        Returns the number of packets discarded.
        """
        discarded = len(self._queue)
        self._queue.clear()
        self._bytes = 0
        return discarded
