"""OLIA — Opportunistic Linked Increases Algorithm (extension).

Khalili et al. ("MPTCP is not Pareto-optimal", CoNEXT'12 — reference
[10] of the paper) proposed OLIA to fix LIA's tendency to keep traffic
on congested paths.  The paper cites it as the basis of coupled
congestion control; we provide it as an extension so ablation benches
can compare LIA vs OLIA vs decoupled Reno.

Per ACK on subflow *i* the congestion-avoidance increase is::

    cwnd_i/rtt_i^2 / (sum_j cwnd_j/rtt_j)^2  +  epsilon_i / cwnd_i

where ``epsilon_i`` shifts traffic toward the *best* paths (those with
the highest estimated delivery rate since the last loss).
"""

from typing import List

from repro.tcp.cc.base import CongestionControl, Coupling
from repro.tcp.config import TcpConfig

__all__ = ["OliaCoupling", "OliaSubflowCc"]


class OliaCoupling(Coupling):
    """Shared OLIA state for one MPTCP connection."""

    def rtt_weighted_sum(self) -> float:
        return sum(
            member.cwnd / max(member.srtt_getter(), 1e-3) for member in self._members
        )

    def best_paths(self) -> List["OliaSubflowCc"]:
        """Paths with the highest bytes-delivered-since-loss / rtt^2."""
        if not self._members:
            return []
        scores = [
            (member.bytes_since_loss / max(member.srtt_getter(), 1e-3) ** 2, member)
            for member in self._members
        ]
        best_score = max(score for score, _ in scores)
        return [member for score, member in scores if score >= best_score * 0.999]

    def max_cwnd_paths(self) -> List["OliaSubflowCc"]:
        if not self._members:
            return []
        best = max(member.cwnd for member in self._members)
        return [member for member in self._members if member.cwnd >= best * 0.999]


class OliaSubflowCc(CongestionControl):
    """Per-subflow OLIA controller."""

    def __init__(self, config: TcpConfig, coupling: OliaCoupling):
        super().__init__(config)
        self.coupling = coupling
        self.bytes_since_loss = 0.0
        coupling.register(self)

    def _epsilon(self) -> float:
        members = self.coupling.members
        count = len(members)
        if count <= 1:
            return 0.0
        best = self.coupling.best_paths()
        max_paths = self.coupling.max_cwnd_paths()
        collected = [m for m in best if m not in max_paths]
        if collected:
            if self in collected:
                return 1.0 / (len(collected) * count)
            if self in max_paths:
                return -1.0 / (len(max_paths) * count)
        return 0.0

    def on_ack(self, newly_acked_segments: float) -> None:
        self.bytes_since_loss += newly_acked_segments * self.config.mss_bytes
        remainder = self.slow_start_increase(newly_acked_segments)
        if remainder <= 0 or self.cwnd <= 0:
            return
        rtt = max(self.srtt_getter(), 1e-3)
        denom = self.coupling.rtt_weighted_sum()
        if denom <= 0:
            denom = self.cwnd / rtt
        base = (self.cwnd / (rtt * rtt)) / (denom * denom)
        increase = base * rtt * rtt + self._epsilon() / self.cwnd
        self.cwnd += max(increase, 0.0) * remainder

    def on_enter_recovery(self, inflight_segments: float) -> None:
        super().on_enter_recovery(inflight_segments)
        self.bytes_since_loss = 0.0

    def on_timeout(self, inflight_segments: float) -> None:
        super().on_timeout(inflight_segments)
        self.bytes_since_loss = 0.0
