"""Congestion-control interface.

The sender engine owns all loss detection; a congestion controller
only answers "how big is the window now?".  Windows are floats measured
in segments — the sender floors when deciding whether another segment
fits.
"""

import math
from abc import ABC, abstractmethod
from typing import List, Optional

from repro.tcp.config import TcpConfig

__all__ = ["CongestionControl", "Coupling"]


class Coupling:
    """Shared state linking the subflow controllers of one connection."""

    def __init__(self) -> None:
        self._members: List["CongestionControl"] = []

    def register(self, member: "CongestionControl") -> None:
        self._members.append(member)

    def unregister(self, member: "CongestionControl") -> None:
        if member in self._members:
            self._members.remove(member)

    @property
    def members(self) -> List["CongestionControl"]:
        return list(self._members)


class CongestionControl(ABC):
    """Window-evolution policy for one (sub)flow."""

    #: Set by coupled algorithms (LIA, OLIA) to their connection's
    #: :class:`Coupling`.
    coupling: Optional[Coupling] = None

    def __init__(self, config: TcpConfig):
        self.config = config
        self.cwnd: float = float(config.initial_cwnd_segments)
        self.ssthresh: float = (
            float(config.initial_ssthresh_segments)
            if config.initial_ssthresh_segments is not None
            else math.inf
        )
        #: Set by the sender so controllers can read the subflow's RTT
        #: (coupled algorithms need it).
        self.srtt_getter = lambda: 0.1

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    @abstractmethod
    def on_ack(self, newly_acked_segments: float) -> None:
        """Grow the window after a cumulative ACK covering new data."""

    def detach(self) -> None:
        """Leave the coupled increase computation, if in one."""
        if self.coupling is not None:
            self.coupling.unregister(self)

    def on_rtt_sample(self, rtt: float) -> None:
        """Observe a raw RTT sample (HyStart-style algorithms use this)."""

    def on_enter_recovery(self, inflight_segments: float) -> None:
        """Multiplicative decrease at the start of fast recovery."""
        self.ssthresh = max(inflight_segments / 2.0, 2.0)
        self.cwnd = self.ssthresh

    def on_timeout(self, inflight_segments: float) -> None:
        """Collapse the window after an RTO."""
        self.ssthresh = max(inflight_segments / 2.0, 2.0)
        self.cwnd = float(self.config.loss_cwnd_segments)

    def slow_start_increase(self, newly_acked_segments: float) -> float:
        """Shared slow-start growth: one segment per segment ACKed.

        Returns any ACK credit left over after cwnd reaches ssthresh so
        congestion-avoidance growth can consume the remainder.
        """
        if not self.in_slow_start:
            return newly_acked_segments
        room = self.ssthresh - self.cwnd
        used = min(newly_acked_segments, room)
        self.cwnd += used
        return newly_acked_segments - used

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(cwnd={self.cwnd:.2f}, "
            f"ssthresh={self.ssthresh:.2f})"
        )
