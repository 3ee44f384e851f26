"""Figure 15: packet-level behaviour of Full-MPTCP and Backup mode.

Eight panels reproduce §3.6.1:

* (a, b) Full-MPTCP: data flows on both interfaces for the whole
  connection, whichever network is primary.
* (c, d) Backup mode: the backup interface carries only the SYN
  handshake and the FIN teardown.
* (e, f) Backup mode with the active interface removed via iproute
  ("multipath off"): the stack is notified and the backup takes over.
* (g) Backup mode with the active (LTE) phone physically unplugged:
  nothing is notified; the client emits a single TCP window update on
  the WiFi backup and then halts until the phone is replugged at
  t = 68 s, after which the transfer resumes and FINs go out on both
  paths.
* (h) The mirror unplug (WiFi): the kernel noticed the netdev removal,
  so LTE is brought up immediately.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.plotting import ascii_timeline
from repro.core.rng import DEFAULT_SEED
from repro.energy.monitor import InterfaceActivityLog
from repro.experiments.common import ExperimentResult, register
from repro.faults.spec import FaultEvent, FaultSpec
from repro.mptcp.connection import MptcpConnection, MptcpOptions
from repro.net.path import PathConfig
from repro.scenario import Scenario
from repro.tcp.config import TcpConfig

__all__ = ["run", "PanelResult", "run_panel", "PANELS"]

MB = 1024 * 1024


@dataclass
class PanelResult:
    """Everything captured for one Fig. 15 panel."""

    panel: str
    description: str
    logs: Dict[str, InterfaceActivityLog]
    connection: MptcpConnection
    scenario: Scenario
    horizon_s: float

    @property
    def completed(self) -> bool:
        return self.connection.complete

    def events_on(self, path: str) -> List[float]:
        return self.logs[path].activity_times

    def data_packet_count(self, path: str) -> int:
        return sum(
            1 for _, _, payload, _ in self.logs[path].events if payload > 0
        )

    def render(self) -> str:
        lanes = {
            "LTE": self.events_on("lte"),
            "WiFi": self.events_on("wifi"),
        }
        header = f"({self.panel}) {self.description}"
        return header + "\n" + ascii_timeline(lanes, 0.0, self.horizon_s)


def _scenario(seed: int) -> Scenario:
    scenario = Scenario(seed=seed)
    scenario.add_path(PathConfig(name="wifi", down_mbps=2.0, up_mbps=1.0,
                                 rtt_ms=50, queue_packets=150))
    scenario.add_path(PathConfig(name="lte", down_mbps=2.5, up_mbps=1.2,
                                 rtt_ms=80, queue_packets=500))
    return scenario


def run_panel(
    panel: str,
    seed: int = DEFAULT_SEED,
    nbytes: int = 5 * MB,
    mode: str = "backup",
    primary: str = "lte",
    horizon_s: float = 25.0,
    faults: Optional[FaultSpec] = None,
    description: str = "",
) -> PanelResult:
    """Run one Fig. 15 scenario and capture per-interface activity."""
    scenario = _scenario(seed)
    logs = {
        name: InterfaceActivityLog(scenario.path(name))
        for name in ("wifi", "lte")
    }
    options = MptcpOptions(primary=primary, congestion_control="decoupled",
                           mode=mode)
    # Mobile stacks clamp the retransmission-timer backoff well below
    # the RFC's 60 s so connectivity restoration is noticed quickly;
    # this also matches the paper's Fig. 15g, where the transfer
    # resumes within seconds of replugging at t = 68 s.
    config = TcpConfig(max_rto_s=16.0)
    connection = scenario.mptcp(nbytes, options=options, config=config)
    if faults is not None:
        scenario.inject_faults(faults)
    connection.start()
    connection.close()
    scenario.run(until=horizon_s)
    return PanelResult(
        panel=panel, description=description, logs=logs,
        connection=connection, scenario=scenario, horizon_s=horizon_s,
    )


#: §3.6's two ways of disabling an interface, as fault schedules:
#: iproute "multipath off" is ``iface_down`` (the stack is notified);
#: unplugging the phone is ``blackhole`` (silent, unless ``detected``).
PANEL_FAULTS: Dict[str, FaultSpec] = {
    "e": FaultSpec(events=(FaultEvent("iface_down", "lte", at_s=9.0),)),
    "f": FaultSpec(events=(FaultEvent("iface_down", "wifi", at_s=11.0),)),
    "g": FaultSpec(events=(
        FaultEvent("blackhole", "lte", at_s=3.0, duration_s=65.0),)),
    "h": FaultSpec(events=(
        FaultEvent("blackhole", "wifi", at_s=6.0, detected=True),)),
}

#: Panel name → factory replicating the paper's eight sub-figures.
PANELS: Dict[str, Callable[[int], PanelResult]] = {
    "a": lambda seed: run_panel(
        "a", seed, nbytes=9 * MB, mode="full", primary="lte",
        description="Full-MPTCP, LTE primary",
    ),
    "b": lambda seed: run_panel(
        "b", seed, nbytes=9 * MB, mode="full", primary="wifi",
        description="Full-MPTCP, WiFi primary",
    ),
    "c": lambda seed: run_panel(
        "c", seed, nbytes=5 * MB, mode="backup", primary="lte",
        description="Backup mode, LTE primary, WiFi backup",
    ),
    "d": lambda seed: run_panel(
        "d", seed, nbytes=8 * MB, mode="backup", primary="wifi",
        horizon_s=45.0,
        description="Backup mode, WiFi primary, LTE backup",
    ),
    "e": lambda seed: run_panel(
        "e", seed, nbytes=5 * MB, mode="backup", primary="lte",
        horizon_s=45.0,
        faults=PANEL_FAULTS["e"],
        description="Backup (LTE primary); LTE 'multipath off' at t=9 s",
    ),
    "f": lambda seed: run_panel(
        "f", seed, nbytes=5 * MB, mode="backup", primary="wifi",
        horizon_s=40.0,
        faults=PANEL_FAULTS["f"],
        description="Backup (WiFi primary); WiFi 'multipath off' at t=11 s",
    ),
    "g": lambda seed: run_panel(
        "g", seed, nbytes=5 * MB, mode="backup", primary="lte",
        horizon_s=110.0,
        faults=PANEL_FAULTS["g"],
        description="Backup (LTE primary); unplug LTE at t=3 s, replug at t=68 s",
    ),
    "h": lambda seed: run_panel(
        "h", seed, nbytes=5 * MB, mode="backup", primary="wifi",
        horizon_s=30.0,
        faults=PANEL_FAULTS["h"],
        description="Backup (WiFi primary); unplug WiFi at t=6 s (detected)",
    ),
}


def _progress_between(connection: MptcpConnection, t0: float, t1: float) -> int:
    """In-order bytes delivered within (t0, t1]."""
    before = after = 0
    for t, total in connection.delivery_log:
        if t <= t0:
            before = total
        if t <= t1:
            after = total
    return after - before


@register("fig15")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    panel_names = ["c", "e", "g", "h"] if fast else list(PANELS)
    results = {name: PANELS[name](seed) for name in panel_names}

    body = "\n\n".join(results[name].render() for name in panel_names)
    metrics: Dict[str, float] = {}

    if "a" in results:
        metrics["a_both_paths_carry_data"] = float(
            results["a"].data_packet_count("wifi") > 100
            and results["a"].data_packet_count("lte") > 100
        )
    if "b" in results:
        metrics["b_both_paths_carry_data"] = float(
            results["b"].data_packet_count("wifi") > 100
            and results["b"].data_packet_count("lte") > 100
        )
    if "c" in results:
        # The backup (WiFi) carries only handshake/teardown packets.
        metrics["c_backup_data_packets"] = float(
            results["c"].data_packet_count("wifi")
        )
        metrics["c_completed"] = float(results["c"].completed)
    if "d" in results:
        metrics["d_backup_data_packets"] = float(
            results["d"].data_packet_count("lte")
        )
    if "e" in results:
        metrics["e_failover_completes"] = float(results["e"].completed)
        metrics["e_backup_data_packets"] = float(
            results["e"].data_packet_count("wifi")
        )
    if "f" in results:
        metrics["f_failover_completes"] = float(results["f"].completed)
    if "g" in results:
        g = results["g"]
        metrics["g_stalled_while_unplugged"] = float(
            _progress_between(g.connection, 5.0, 65.0) == 0
        )
        metrics["g_resumes_after_replug"] = float(
            _progress_between(g.connection, 68.0, g.horizon_s) > 0
        )
        from repro.core.packet import PacketFlags

        metrics["g_backup_window_updates"] = float(len(
            results["g"].logs["wifi"].times_with_flag(PacketFlags.WINDOW_UPDATE)
        ))
    if "h" in results:
        h = results["h"]
        lte_data_times = [
            t for t, _, payload, _ in h.logs["lte"].events if payload > 0
        ]
        first_lte_data = min(lte_data_times) if lte_data_times else float("inf")
        metrics["h_failover_latency_s"] = first_lte_data - 6.0
        metrics["h_failover_within_2s"] = float(first_lte_data - 6.0 < 2.0)
        metrics["h_completed"] = float(h.completed)

    targets = {
        "c_backup_data_packets": 0.0,
        "e_failover_completes": 1.0,
        "g_stalled_while_unplugged": 1.0,
        "g_resumes_after_replug": 1.0,
        "g_backup_window_updates": 1.0,
        "h_failover_within_2s": 1.0,
    }
    return ExperimentResult(
        experiment_id="fig15",
        title="Full-MPTCP and Backup mode packet timelines",
        body=body,
        metrics=metrics,
        paper_targets=targets,
    )
