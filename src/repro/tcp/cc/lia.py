"""Coupled MPTCP congestion control: the Linked Increases Algorithm.

RFC 6356 couples the congestion-avoidance *increase* across the
subflows of one MPTCP connection so the aggregate is fair to a
single-path TCP at the shared bottleneck.  Per ACK on subflow *i*, the
window increase (in segments, per acked segment) is::

    min( alpha / cwnd_total ,  1 / cwnd_i )

with::

    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2

Slow start and the multiplicative decrease stay per-subflow, exactly as
in the Linux implementation the paper measured.
"""

from repro.tcp.cc.base import CongestionControl, Coupling
from repro.tcp.config import TcpConfig

__all__ = ["LiaCoupling", "LiaSubflowCc"]


class LiaCoupling(Coupling):
    """The LIA controllers of one connection."""

    def total_cwnd(self) -> float:
        return sum(member.cwnd for member in self._members)

    def alpha(self) -> float:
        """RFC 6356 aggressiveness factor."""
        total = self.total_cwnd()
        if total <= 0:
            return 1.0
        best = 0.0
        denom = 0.0
        for member in self._members:
            rtt = max(member.srtt_getter(), 1e-3)
            best = max(best, member.cwnd / (rtt * rtt))
            denom += member.cwnd / rtt
        if denom <= 0:
            return 1.0
        return total * best / (denom * denom)


class LiaSubflowCc(CongestionControl):
    """Per-subflow controller participating in a :class:`LiaCoupling`."""

    def __init__(self, config: TcpConfig, coupling: LiaCoupling):
        super().__init__(config)
        self.coupling = coupling
        coupling.register(self)

    def on_ack(self, newly_acked_segments: float) -> None:
        remainder = self.slow_start_increase(newly_acked_segments)
        if remainder <= 0 or self.cwnd <= 0:
            return
        total = self.coupling.total_cwnd()
        if total <= 0:
            total = self.cwnd
        coupled = self.coupling.alpha() / total
        uncoupled = 1.0 / self.cwnd
        self.cwnd += min(coupled, uncoupled) * remainder
