"""Figure 16 and §3.6.2: radio power traces and Backup-mode energy.

Four power panels (LTE/WiFi × non-backup/backup) plus the section's
headline claim: because a lone SYN or FIN keeps the LTE radio in its
~15 s high-power tail, setting LTE as the backup interface saves very
little energy for flows shorter than about 15 seconds.
"""

from typing import Dict, List, Tuple

from repro.analysis.plotting import ascii_series
from repro.analysis.report import Table
from repro.core.rng import DEFAULT_SEED
from repro.energy.monitor import InterfaceActivityLog, PowerMonitor
from repro.energy.states import LTE_POWER_MODEL, WIFI_POWER_MODEL
from repro.experiments.common import ExperimentResult, register
from repro.mptcp.connection import MptcpOptions
from repro.parallel import SimTask, SweepRunner
from repro.net.path import PathConfig
from repro.scenario import Scenario

__all__ = ["run", "backup_flow_energy", "power_panels"]

MB = 1024 * 1024
MODELS = {"lte": LTE_POWER_MODEL, "wifi": WIFI_POWER_MODEL}


def _scenario(seed: int) -> Tuple[Scenario, Dict[str, InterfaceActivityLog]]:
    scenario = Scenario(seed=seed)
    scenario.add_path(PathConfig(name="wifi", down_mbps=2.0, up_mbps=1.0,
                                 rtt_ms=50, queue_packets=150))
    scenario.add_path(PathConfig(name="lte", down_mbps=2.0, up_mbps=1.0,
                                 rtt_ms=80, queue_packets=500))
    logs = {
        name: InterfaceActivityLog(scenario.path(name))
        for name in ("wifi", "lte")
    }
    return scenario, logs


def _run_backup_flow(
    primary: str, nbytes: int, seed: int, horizon_s: float
) -> Tuple[Dict[str, InterfaceActivityLog], float]:
    """Backup-mode transfer; returns activity logs and completion time."""
    scenario, logs = _scenario(seed)
    options = MptcpOptions(primary=primary, congestion_control="decoupled",
                           mode="backup")
    connection = scenario.mptcp(nbytes, options=options)
    connection.start()
    connection.close()
    scenario.run(until=horizon_s)
    return logs, (connection.completed_at or horizon_s)


def power_panels(seed: int = DEFAULT_SEED) -> Dict[str, List[Tuple[float, float]]]:
    """The four Fig. 16 power-vs-time traces (watts incl. 1 W base).

    A ~20 s flow in Backup mode: with WiFi as the backup, LTE is the
    active radio (panels a and d's mirror), and vice versa.
    """
    panels: Dict[str, List[Tuple[float, float]]] = {}
    horizon = 50.0
    # LTE active (WiFi backup): panels (a) LTE and (d) WiFi-backup.
    logs, _ = _run_backup_flow("lte", 5 * MB, seed, horizon)
    panels["a: LTE, non-backup"] = PowerMonitor(
        logs["lte"], MODELS["lte"]).power_series(0, horizon)
    panels["d: WiFi, backup"] = PowerMonitor(
        logs["wifi"], MODELS["wifi"]).power_series(0, horizon)
    # WiFi active (LTE backup): panels (b) WiFi and (c) LTE-backup.
    logs, _ = _run_backup_flow("wifi", 5 * MB, seed, horizon)
    panels["b: WiFi, non-backup"] = PowerMonitor(
        logs["wifi"], MODELS["wifi"]).power_series(0, horizon)
    panels["c: LTE, backup"] = PowerMonitor(
        logs["lte"], MODELS["lte"]).power_series(0, horizon)
    return panels


def backup_flow_energy(
    flow_duration_target_s: float,
    seed: int = DEFAULT_SEED,
    fast_dormancy: bool = False,
) -> Dict[str, float]:
    """LTE radio energy with LTE active vs LTE as backup (§3.6.2).

    The flow size is chosen so the transfer lasts roughly the target
    duration at the active link's 2 Mbit/s.  With ``fast_dormancy``
    the LTE model uses the paper's suggested mitigation: a ~3 s tail
    instead of ~15 s.
    """
    model = MODELS["lte"]
    if fast_dormancy:
        model = model.with_fast_dormancy()
    nbytes = max(20_000, int(2e6 / 8 * flow_duration_target_s))
    horizon = flow_duration_target_s + 40.0
    # LTE carries the data.
    logs_active, done_active = _run_backup_flow("lte", nbytes, seed, horizon)
    lte_active_j = PowerMonitor(logs_active["lte"], model).radio_energy_j(
        0.0, done_active + model.tail_s
    )
    # LTE is the backup: only SYN/FIN wakeups.
    logs_backup, done_backup = _run_backup_flow("wifi", nbytes, seed, horizon)
    lte_backup_j = PowerMonitor(logs_backup["lte"], model).radio_energy_j(
        0.0, done_backup + model.tail_s
    )
    saving = 1.0 - lte_backup_j / lte_active_j if lte_active_j > 0 else 0.0
    return {
        "flow_duration_s": max(done_active, done_backup),
        "lte_active_j": lte_active_j,
        "lte_backup_j": lte_backup_j,
        "saving_fraction": saving,
    }


@register("fig16")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    durations = [3.0, 8.0] if fast else [3.0, 8.0, 15.0, 30.0, 60.0]

    # The power panels and every (duration, dormancy) energy figure are
    # independent simulations: one sweep covers them all.
    tasks = [SimTask(fn="repro.experiments.fig16:power_panels",
                     kwargs={"seed": seed}, key="fig16.panels")]
    for duration in durations:
        for fast_dormancy in (False, True):
            tasks.append(SimTask(
                fn="repro.experiments.fig16:backup_flow_energy",
                kwargs={"flow_duration_target_s": duration, "seed": seed,
                        "fast_dormancy": fast_dormancy},
                key=f"fig16.energy.{duration}.{fast_dormancy}",
            ))
    outcomes = SweepRunner(seed=seed).run(tasks)
    panels = outcomes[0]
    energies = {
        (duration, fast_dormancy): outcome
        for (duration, fast_dormancy), outcome in zip(
            [(d, fd) for d in durations for fd in (False, True)], outcomes[1:]
        )
    }

    parts = []
    for name, series in panels.items():
        parts.append(
            name + "\n" + ascii_series({"power": series},
                                       x_label="time (s)", y_label="W")
        )

    table = Table(
        ["target duration (s)", "LTE active (J)", "LTE backup (J)", "saving",
         "saving w/ fast dormancy"],
        title="§3.6.2: LTE radio energy, active vs backup interface",
    )
    metrics: Dict[str, float] = {}
    for duration in durations:
        result = energies[(duration, False)]
        dormant = energies[(duration, True)]
        table.add_row([
            duration,
            result["lte_active_j"],
            result["lte_backup_j"],
            f"{100 * result['saving_fraction']:.0f}%",
            f"{100 * dormant['saving_fraction']:.0f}%",
        ])
        metrics[f"saving_at_{int(duration)}s"] = result["saving_fraction"]
        metrics[f"fd_saving_at_{int(duration)}s"] = dormant["saving_fraction"]
    parts.append(table.render())

    if not fast:
        metrics["short_flows_save_little"] = float(
            metrics["saving_at_3s"] < 0.35
        )
        metrics["long_flows_save_more"] = float(
            metrics["saving_at_60s"] > metrics["saving_at_3s"] + 0.2
        )
        # The paper's suggested fix restores the savings for short flows.
        metrics["fast_dormancy_rescues_short_flows"] = float(
            metrics["fd_saving_at_3s"] > metrics["saving_at_3s"] + 0.15
        )
    targets = {
        "short_flows_save_little": 1.0,
        "long_flows_save_more": 1.0,
        "fast_dormancy_rescues_short_flows": 1.0,
    }
    return ExperimentResult(
        experiment_id="fig16",
        title="Radio power traces and Backup-mode energy",
        body="\n\n".join(parts),
        metrics=metrics,
        paper_targets=targets,
    )
