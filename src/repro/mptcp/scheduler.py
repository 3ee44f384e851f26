"""MPTCP packet schedulers.

The scheduler picks, among subflows that currently have congestion
window space, which one carries the next data chunk.  Linux's default
is the lowest-smoothed-RTT scheduler; a round-robin alternative is
provided for ablation.
"""

from abc import ABC, abstractmethod
from typing import List

from repro.core.errors import ConfigurationError
from repro.tcp.subflow import Subflow

__all__ = [
    "Scheduler",
    "MinRttScheduler",
    "RoundRobinScheduler",
    "RedundantScheduler",
    "make_scheduler",
]


class Scheduler(ABC):
    """Chooses the next subflow(s) to receive a data chunk."""

    @abstractmethod
    def pick(self, eligible: List[Subflow]) -> Subflow:
        """Return one of ``eligible`` (guaranteed non-empty)."""

    def pick_all(self, eligible: List[Subflow]) -> List[Subflow]:
        """Subflows that should each carry a copy of the next chunk.

        Default: exactly one (the :meth:`pick` winner); redundant
        schedulers override this to duplicate the chunk.
        """
        return [self.pick(eligible)]


class MinRttScheduler(Scheduler):
    """Prefer the subflow with the lowest smoothed RTT (Linux default)."""

    def pick(self, eligible: List[Subflow]) -> Subflow:
        if len(eligible) == 1:
            return eligible[0]
        return min(eligible, key=lambda sf: (sf.srtt, sf.subflow_id))


class RoundRobinScheduler(Scheduler):
    """Rotate through eligible subflows."""

    def __init__(self) -> None:
        self._last_id = -1

    def pick(self, eligible: List[Subflow]) -> Subflow:
        ordered = sorted(eligible, key=lambda sf: sf.subflow_id)
        for subflow in ordered:
            if subflow.subflow_id > self._last_id:
                self._last_id = subflow.subflow_id
                return subflow
        self._last_id = ordered[0].subflow_id
        return ordered[0]


class RedundantScheduler(Scheduler):
    """Send every chunk on *every* available subflow (extension).

    Trades bytes for latency: the receiver keeps whichever copy lands
    first, so short-flow completion tracks the currently-fastest path
    without having to predict it.  (Cf. the ReMP/redundant schedulers
    in later MPTCP literature — not part of the paper's kernel.)
    """

    def pick(self, eligible: List[Subflow]) -> Subflow:
        return min(eligible, key=lambda sf: (sf.srtt, sf.subflow_id))

    def pick_all(self, eligible: List[Subflow]) -> List[Subflow]:
        return sorted(eligible, key=lambda sf: sf.subflow_id)


def make_scheduler(name: str) -> Scheduler:
    """Build a scheduler by name: ``minrtt``, ``roundrobin``, ``redundant``."""
    if name == "minrtt":
        return MinRttScheduler()
    if name == "roundrobin":
        return RoundRobinScheduler()
    if name == "redundant":
        return RedundantScheduler()
    raise ConfigurationError(f"unknown scheduler: {name!r}")
