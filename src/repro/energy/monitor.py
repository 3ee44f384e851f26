"""Power monitoring: the Monsoon-monitor analog.

:class:`InterfaceActivityLog` taps a path's client-side packet events
(transmissions on the uplink, deliveries on the downlink) — the times
at which the phone's radio must be awake.  :class:`PowerMonitor` turns
that activity into power-vs-time traces (Fig. 16) and energy integrals
(§3.6.2).
"""

from typing import Dict, List, Optional, Tuple

from repro.core.packet import Packet, PacketFlags
from repro.energy.states import BASE_POWER_W, RadioPowerModel
from repro.net.path import Path
from repro.scenario import Scenario

__all__ = ["InterfaceActivityLog", "PowerMonitor", "activity_logs"]


class InterfaceActivityLog:
    """Records every packet event seen by the client on one interface.

    Also keeps per-event flags so Fig. 15-style packet timelines can
    distinguish SYN/FIN wakeups from data.  Plain data (no reference
    to the tapped path): a log pickles, and compares by its events.
    """

    def __init__(self, path: Path):
        #: (time, flags, payload_bytes, direction) per event; direction
        #: is "tx" (client sent) or "rx" (client received).
        self.events: List[Tuple[float, PacketFlags, int, str]] = []
        path.uplink.on_transmit.append(self._on_tx)
        path.downlink.on_deliver.append(self._on_rx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterfaceActivityLog):
            return NotImplemented
        return self.events == other.events

    def _on_tx(self, packet: Packet, when: float) -> None:
        self.events.append((when, packet.flags, packet.payload_bytes, "tx"))

    def _on_rx(self, packet: Packet, when: float) -> None:
        self.events.append((when, packet.flags, packet.payload_bytes, "rx"))

    @property
    def activity_times(self) -> List[float]:
        """Sorted times of all packet events."""
        return sorted(event[0] for event in self.events)

    def times_with_flag(self, flag: PacketFlags) -> List[float]:
        """Times of events whose packet carried ``flag``."""
        return sorted(t for t, flags, _, _ in self.events if flags & flag)

    @property
    def first_activity(self) -> Optional[float]:
        times = self.activity_times
        return times[0] if times else None

    @property
    def last_activity(self) -> Optional[float]:
        times = self.activity_times
        return times[-1] if times else None


def activity_logs(scenario: Scenario) -> Dict[str, InterfaceActivityLog]:
    """Watch every radio: one log per attached path, by path name."""
    return {
        name: InterfaceActivityLog(scenario.path(name))
        for name in scenario.path_names
    }


class PowerMonitor:
    """Computes power traces and energy from an interface's activity."""

    def __init__(self, log: InterfaceActivityLog, model: RadioPowerModel):
        self.log = log
        self.model = model

    def power_series(
        self, t_start: float, t_end: float, step_s: float = 0.1,
        include_base: bool = True,
    ) -> List[Tuple[float, float]]:
        """(time, watts) samples — the paper's Fig. 16 traces."""
        times = self.log.activity_times
        base = BASE_POWER_W if include_base else 0.0
        series: List[Tuple[float, float]] = []
        t = t_start
        while t <= t_end + 1e-9:
            series.append((t, base + self.model.power_at(t, times)))
            t += step_s
        return series

    def radio_energy_j(self, t_start: float, t_end: float) -> float:
        """Radio-only energy (J) over the window (base power excluded)."""
        return self.model.energy_j(self.log.activity_times, t_start, t_end)

    def total_energy_j(self, t_start: float, t_end: float) -> float:
        """Radio plus base energy (J) over the window."""
        return self.radio_energy_j(t_start, t_end) + BASE_POWER_W * max(
            0.0, t_end - t_start
        )
