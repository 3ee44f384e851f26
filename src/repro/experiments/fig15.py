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
from typing import Any, Dict, List, Optional

from repro.analysis.plotting import ascii_timeline
from repro.analysis.throughput import DeliveryLog
from repro.core.packet import PacketFlags
from repro.core.rng import DEFAULT_SEED
from repro.energy.monitor import InterfaceActivityLog, activity_logs
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    _SESSION,
    mptcp_spec,
    register,
)
from repro.faults.spec import FaultEvent, FaultSpec
from repro.parallel import SimTask, SweepRunner
from repro.tcp.config import TcpConfig
from repro.workload.spec import ConditionSpec, PathSpec

__all__ = ["run", "PanelResult", "run_panel", "PANELS", "TESTBED"]

MB = 1024 * 1024

#: The §3.6 testbed: one fixed-rate WiFi and one fixed-rate LTE link.
TESTBED = ConditionSpec(
    condition_id=90,
    description="§3.6 failover/energy testbed",
    paths=(
        PathSpec("wifi", "wifi", down_mbps=2.0, up_mbps=1.0, rtt_ms=50,
                 queue_packets=150),
        PathSpec("lte", "lte", down_mbps=2.5, up_mbps=1.2, rtt_ms=80,
                 queue_packets=500),
    ),
)

#: Mobile stacks clamp the retransmission-timer backoff well below
#: the RFC's 60 s so connectivity restoration is noticed quickly;
#: this also matches the paper's Fig. 15g, where the transfer
#: resumes within seconds of replugging at t = 68 s.
RTO_CLAMP = TcpConfig(max_rto_s=16.0)


@dataclass
class PanelResult:
    """Everything captured for one Fig. 15 panel, as plain data."""

    panel: str
    description: str
    logs: Dict[str, InterfaceActivityLog]
    horizon_s: float
    #: Instant the last byte was delivered in order (``None``: never).
    completed_at: Optional[float]
    #: (time, cumulative in-order bytes) per delivery.
    delivery_log: DeliveryLog
    #: Every fault edge that fired, as ``Scenario.applied_faults`` dicts.
    applied_faults: List[dict]

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    def events_on(self, path: str) -> List[float]:
        return self.logs[path].activity_times

    def data_packet_count(self, path: str) -> int:
        return sum(
            1 for _, _, payload, _ in self.logs[path].events if payload > 0
        )

    def progress_between(self, t0: float, t1: float) -> int:
        """In-order bytes delivered within (t0, t1]."""
        log = self.delivery_log
        return log.delivered_by(t1) - log.delivered_by(t0)

    def render(self) -> str:
        lanes = {
            "LTE": self.events_on("lte"),
            "WiFi": self.events_on("wifi"),
        }
        header = f"({self.panel}) {self.description}"
        return header + "\n" + ascii_timeline(lanes, 0.0, self.horizon_s)


def run_panel(
    panel: str,
    seed: int = DEFAULT_SEED,
    nbytes: int = 5 * MB,
    mode: str = "backup",
    primary: str = "lte",
    horizon_s: float = 25.0,
    faults: Optional[FaultSpec] = None,
    description: str = "",
    condition: ConditionSpec = TESTBED,
) -> PanelResult:
    """Run one §3.6 flow and capture per-interface activity."""
    spec = mptcp_spec(
        condition, primary, "decoupled", nbytes, seed=seed,
        options={"mode": mode}, config=RTO_CLAMP,
    ).with_faults(faults)
    scenario, connection = _SESSION.open(spec)
    with scenario:
        logs = activity_logs(scenario)
        connection.start()
        connection.close()
        scenario.run(until=horizon_s)
        return PanelResult(
            panel=panel, description=description, logs=logs,
            horizon_s=horizon_s, completed_at=connection.completed_at,
            delivery_log=connection.delivery_log.copy(),
            applied_faults=scenario.applied_faults(),
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

#: Panel name → the :func:`run_panel` arguments replicating the
#: paper's eight sub-figures.
PANELS: Dict[str, Dict[str, Any]] = {
    "a": dict(nbytes=9 * MB, mode="full", primary="lte",
              description="Full-MPTCP, LTE primary"),
    "b": dict(nbytes=9 * MB, mode="full", primary="wifi",
              description="Full-MPTCP, WiFi primary"),
    "c": dict(nbytes=5 * MB, mode="backup", primary="lte",
              description="Backup mode, LTE primary, WiFi backup"),
    "d": dict(nbytes=8 * MB, mode="backup", primary="wifi", horizon_s=45.0,
              description="Backup mode, WiFi primary, LTE backup"),
    "e": dict(nbytes=5 * MB, mode="backup", primary="lte", horizon_s=45.0,
              faults=PANEL_FAULTS["e"],
              description="Backup (LTE primary); LTE 'multipath off' at t=9 s"),
    "f": dict(nbytes=5 * MB, mode="backup", primary="wifi", horizon_s=40.0,
              faults=PANEL_FAULTS["f"],
              description="Backup (WiFi primary); WiFi 'multipath off' at t=11 s"),
    "g": dict(nbytes=5 * MB, mode="backup", primary="lte", horizon_s=110.0,
              faults=PANEL_FAULTS["g"],
              description="Backup (LTE primary); unplug LTE at t=3 s, replug at t=68 s"),
    "h": dict(nbytes=5 * MB, mode="backup", primary="wifi", horizon_s=30.0,
              faults=PANEL_FAULTS["h"],
              description="Backup (WiFi primary); unplug WiFi at t=6 s (detected)"),
}


@register("fig15")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    panel_names = ["c", "e", "g", "h"] if fast else list(PANELS)
    tasks = [
        SimTask(fn="repro.experiments.fig15:run_panel",
                kwargs={"panel": name, "seed": seed, **PANELS[name]},
                key=f"fig15.{name}")
        for name in panel_names
    ]
    results = dict(zip(panel_names, SweepRunner(seed=seed).run(tasks)))

    body = "\n\n".join(results[name].render() for name in panel_names)
    metrics: Dict[str, float] = {}

    for name in ("a", "b"):
        if name in results:
            metrics[f"{name}_both_paths_carry_data"] = float(all(
                results[name].data_packet_count(path) > 100
                for path in ("wifi", "lte")
            ))
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
            g.progress_between(5.0, 65.0) == 0
        )
        metrics["g_resumes_after_replug"] = float(
            g.progress_between(68.0, g.horizon_s) > 0
        )
        metrics["g_backup_window_updates"] = float(len(
            g.logs["wifi"].times_with_flag(PacketFlags.WINDOW_UPDATE)
        ))
    if "h" in results:
        h = results["h"]
        first_lte_data = min(
            (t for t, _, payload, _ in h.logs["lte"].events if payload > 0),
            default=float("inf"),
        )
        latency = first_lte_data - PANEL_FAULTS["h"].events[0].at_s
        metrics["h_failover_latency_s"] = latency
        metrics["h_failover_within_2s"] = float(latency < 2.0)
        metrics["h_completed"] = float(h.completed)

    # Panels a, b, d and f are not run at fast; the figure gives no
    # number for them, so they claim without a paper value.
    claims = [
        Claim(metric, "within", value, full_only=True)
        for metric, value in (("a_both_paths_carry_data", 1.0),
                              ("b_both_paths_carry_data", 1.0),
                              ("d_backup_data_packets", 0.0),
                              ("f_failover_completes", 1.0))
    ] + [
        Claim.within("c_backup_data_packets", 0.0),
        Claim.within("e_failover_completes", 1.0),
        Claim.within("g_stalled_while_unplugged", 1.0),
        Claim.within("g_resumes_after_replug", 1.0),
        Claim.within("g_backup_window_updates", 1.0),
        Claim.within("h_failover_within_2s", 1.0),
    ]
    return ExperimentResult(
        experiment_id="fig15",
        title="Full-MPTCP and Backup mode packet timelines",
        body=body,
        metrics=metrics,
        claims=claims,
    )
