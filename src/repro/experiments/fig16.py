"""Figure 16 and §3.6.2: radio power traces and Backup-mode energy.

Four power panels (LTE/WiFi × non-backup/backup) plus the section's
headline claim: because a lone SYN or FIN keeps the LTE radio in its
~15 s high-power tail, setting LTE as the backup interface saves very
little energy for flows shorter than about 15 seconds.
"""

import dataclasses
from typing import Dict, List, Tuple

from repro.analysis.plotting import ascii_series
from repro.analysis.report import Table
from repro.core.rng import DEFAULT_SEED
from repro.energy.monitor import PowerMonitor
from repro.energy.states import LTE_POWER_MODEL, WIFI_POWER_MODEL
from repro.experiments.common import Claim, ExperimentResult, register
from repro.experiments.fig15 import TESTBED, PanelResult
from repro.parallel import SimTask, SweepRunner

__all__ = ["run", "flow_pair", "energy_flow_pair", "backup_flow_energy",
           "power_panels"]

MB = 1024 * 1024
MODELS = {"lte": LTE_POWER_MODEL, "wifi": WIFI_POWER_MODEL}

#: Fig. 15's testbed with the LTE link evened out to WiFi's 2/1 Mbit/s,
#: so a flow lasts the same whichever radio carries it.
EVEN_TESTBED = TESTBED.with_path(
    dataclasses.replace(TESTBED.lte, down_mbps=2.0, up_mbps=1.0)
)


def flow_pair(nbytes: int, horizon_s: float, seed: int) -> List[SimTask]:
    """One Backup-mode flow twice: LTE active, then LTE as the backup."""
    return [
        SimTask(
            fn="repro.experiments.fig15:run_panel",
            kwargs={"panel": primary, "seed": seed,
                    "nbytes": nbytes, "primary": primary,
                    "horizon_s": horizon_s, "condition": EVEN_TESTBED},
            key=f"fig16.{primary}.{nbytes}.{horizon_s}",
        )
        for primary in ("lte", "wifi")
    ]


def energy_flow_pair(flow_duration_target_s: float, seed: int) -> List[SimTask]:
    """A :func:`flow_pair` lasting ~the target at the links' 2 Mbit/s."""
    nbytes = max(20_000, int(2e6 / 8 * flow_duration_target_s))
    return flow_pair(nbytes, flow_duration_target_s + 40.0, seed)


def power_panels(
    lte_active: PanelResult, wifi_active: PanelResult
) -> Dict[str, List[Tuple[float, float]]]:
    """The four Fig. 16 power-vs-time traces (watts incl. 1 W base).

    A ~20 s flow in Backup mode: with WiFi as the backup, LTE is the
    active radio (panels a and d), and vice versa (panels b and c).
    """
    def series(flow: PanelResult, radio: str) -> List[Tuple[float, float]]:
        return PowerMonitor(flow.logs[radio], MODELS[radio]).power_series(
            0, flow.horizon_s)

    return {
        "a: LTE, non-backup": series(lte_active, "lte"),
        "d: WiFi, backup": series(lte_active, "wifi"),
        "b: WiFi, non-backup": series(wifi_active, "wifi"),
        "c: LTE, backup": series(wifi_active, "lte"),
    }


def backup_flow_energy(
    lte_active: PanelResult,
    lte_backup: PanelResult,
    fast_dormancy: bool = False,
) -> Dict[str, float]:
    """LTE radio energy with LTE active vs LTE as backup (§3.6.2).

    The two flows are one :func:`energy_flow_pair`, simulated.  With
    ``fast_dormancy`` the LTE model uses the paper's suggested
    mitigation: a ~3 s tail instead of ~15 s — a property of the power
    model alone, so both variants read the same two flows.
    """
    model = MODELS["lte"]
    if fast_dormancy:
        model = model.with_fast_dormancy()

    def lte_energy_j(flow: PanelResult) -> float:
        done = flow.completed_at or flow.horizon_s
        return PowerMonitor(flow.logs["lte"], model).radio_energy_j(
            0.0, done + model.tail_s
        )

    # LTE carries the data, vs only its SYN/FIN wakeups.
    lte_active_j = lte_energy_j(lte_active)
    lte_backup_j = lte_energy_j(lte_backup)
    saving = 1.0 - lte_backup_j / lte_active_j if lte_active_j > 0 else 0.0
    return {
        "lte_active_j": lte_active_j,
        "lte_backup_j": lte_backup_j,
        "saving_fraction": saving,
    }


@register("fig16")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    durations = [3.0, 8.0] if fast else [3.0, 8.0, 15.0, 30.0, 60.0]

    # Every distinct flow is simulated once; the power panels and both
    # power models' energy figures are reductions of the same flows.
    tasks = flow_pair(5 * MB, 50.0, seed)
    for duration in durations:
        tasks += energy_flow_pair(duration, seed)
    flows = SweepRunner(seed=seed).run(tasks)
    pairs = [flows[i:i + 2] for i in range(0, len(flows), 2)]
    panels = power_panels(*pairs[0])

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
    for duration, pair in zip(durations, pairs[1:]):
        result = backup_flow_energy(*pair)
        dormant = backup_flow_energy(*pair, fast_dormancy=True)
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
    # The fast sweep stops at 8 s: there only the short-flow saving is
    # claimed, as the threshold short_flows_save_little applies.
    claims = [
        Claim.within(metric, 1.0, full_only=True)
        for metric in ("short_flows_save_little", "long_flows_save_more",
                       "fast_dormancy_rescues_short_flows")
    ] + [Claim("saving_at_3s", "at most", 0.35, strict=True)]
    return ExperimentResult(
        experiment_id="fig16",
        title="Radio power traces and Backup-mode energy",
        body="\n\n".join(parts),
        metrics=metrics,
        claims=claims,
    )
