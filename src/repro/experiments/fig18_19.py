"""Figures 18 and 19: short-flow dominated app replay (CNN launch).

Fig. 18: app response time for the six transport configurations at
four representative conditions (IDs 1–2 WiFi-better, 3–4 LTE-better).
Fig. 19: the five oracle schemes' response times averaged over all 20
conditions, normalized by WiFi-TCP.  Paper headlines: the single-path
oracle cuts response time ~50 %, MPTCP oracles only ~15–35 % — for
short-flow apps, picking the right network beats using both.
"""

from typing import Dict, List

from repro.analysis.report import Table
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import ExperimentResult, register
from repro.httpreplay.engine import ReplayEngine, STANDARD_CONFIGS
from repro.httpreplay.oracles import normalized_oracle_means
from repro.httpreplay.patterns import cnn_launch
from repro.httpreplay.session import AppSession
from repro.linkem.conditions import make_conditions

__all__ = ["run", "replay_over_conditions"]


def replay_over_conditions(
    session: AppSession,
    seed: int,
    condition_count: int = 20,
    deadline_s: float = 240.0,
) -> List[Dict[str, float]]:
    """Response times for all six configs at each condition."""
    conditions = make_conditions(seed=seed)[:condition_count]
    per_condition: List[Dict[str, float]] = []
    for condition in conditions:
        engine = ReplayEngine(condition)
        results = engine.run_all_configs(
            session, deadline_s=deadline_s, seed=seed + condition.condition_id
        )
        per_condition.append(
            {name: result.response_time_s for name, result in results.items()}
        )
    return per_condition


def _build_result(
    experiment_id: str,
    title: str,
    session: AppSession,
    seed: int,
    fast: bool,
    oracle_targets: Dict[str, float],
    headline: str,
) -> ExperimentResult:
    count = 4 if fast else 20
    per_condition = replay_over_conditions(session, seed, condition_count=count)

    table = Table(
        ["condition"] + [c.name for c in STANDARD_CONFIGS],
        title=f"{experiment_id}: {session.name} response time (s) per config",
    )
    for index, times in enumerate(per_condition[:4], start=1):
        table.add_row([index] + [f"{times[c.name]:.1f}" for c in STANDARD_CONFIGS])

    means = normalized_oracle_means(per_condition)
    oracle_table = Table(
        ["scheme", "normalized response time"],
        title="oracle schemes (normalized by WiFi-TCP, averaged over conditions)",
    )
    metrics: Dict[str, float] = {}
    for scheme, value in means.items():
        oracle_table.add_row([scheme, f"{value:.2f}"])
        key = f"normalized[{scheme}]"
        metrics[key] = value

    single = means["Single-Path-TCP Oracle"]
    best_mptcp = min(v for k, v in means.items() if "MPTCP" in k)
    # How much using both networks helps beyond simply picking the
    # right one.  The paper's short-flow finding is "no appreciable
    # benefit" (the single-path oracle matches or beats the MPTCP
    # oracles); the long-flow finding is a clear MPTCP win.
    metrics["mptcp_benefit_over_single_path"] = single - best_mptcp
    if "short" in headline:
        metrics[headline] = float(single - best_mptcp < 0.05)
    else:
        metrics[headline] = float(single - best_mptcp > 0.05)
    metrics["network_selection_saving"] = 1.0 - single
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        body=table.render() + "\n\n" + oracle_table.render(),
        metrics=metrics,
        paper_targets=oracle_targets,
    )


@register("fig18_19")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    return _build_result(
        experiment_id="fig18_19",
        title="CNN (short-flow dominated) replay and oracles",
        session=cnn_launch(seed),
        seed=seed,
        fast=fast,
        oracle_targets={
            "normalized[Single-Path-TCP Oracle]": 0.50,
            "normalized[Decoupled-MPTCP Oracle]": 0.70,
            "normalized[Coupled-MPTCP Oracle]": 0.75,
            "normalized[MPTCP-WiFi-Primary Oracle]": 0.85,
            "normalized[MPTCP-LTE-Primary Oracle]": 0.65,
            "short_flow_single_path_oracle_wins": 1.0,
        },
        headline="short_flow_single_path_oracle_wins",
    )
