"""RFC 6298 round-trip-time estimation and RTO computation."""

from typing import Optional

from repro.tcp.config import TcpConfig

__all__ = ["RttEstimator"]


class RttEstimator:
    """Maintains SRTT / RTTVAR and derives the retransmission timeout.

    Follows RFC 6298 with Linux-style clamping of the minimum RTO.
    Retransmitted segments must not be sampled (Karn's algorithm) —
    enforcing that is the sender's job; this class just takes clean
    samples.
    """

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0

    def __init__(self, config: TcpConfig):
        self._config = config
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto = config.initial_rto_s
        self._backoff = 1.0
        self.samples = 0

    @property
    def rto(self) -> float:
        """Current retransmission timeout, including exponential backoff."""
        rto = self._rto * self._backoff
        config = self._config
        if rto < config.min_rto_s:
            rto = config.min_rto_s
        if rto > config.max_rto_s:
            rto = config.max_rto_s
        return rto

    @property
    def smoothed_rtt(self) -> float:
        """Best current RTT estimate; the initial RTO before any sample."""
        return self.srtt if self.srtt is not None else self._config.initial_rto_s

    def add_sample(self, rtt: float) -> None:
        """Incorporate a clean (non-retransmitted) RTT measurement."""
        if rtt < 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self._rto = self.srtt + max(self.K * (self.rttvar or 0.0), 0.001)
        self._backoff = 1.0
        self.samples += 1

    def back_off(self) -> None:
        """Double the RTO after a retransmission timeout."""
        self._backoff = min(self._backoff * 2.0, 2.0 ** 10)

    def __repr__(self) -> str:
        srtt = f"{self.srtt * 1000:.1f}ms" if self.srtt is not None else "unset"
        return f"RttEstimator(srtt={srtt}, rto={self.rto * 1000:.1f}ms)"
