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
from repro.experiments.common import Claim, ExperimentResult, register
from repro.httpreplay.engine import AppReplayResult, STANDARD_CONFIGS
from repro.httpreplay.oracles import normalized_oracle_means
from repro.linkem.conditions import make_conditions
from repro.parallel import SimTask, SweepRunner

__all__ = ["run", "replay_grid", "response_times"]


def replay_grid(
    app: str,
    seed: int,
    condition_count: int = 20,
    deadline_s: float = 240.0,
) -> List[SimTask]:
    """One replay of ``app`` per condition × configuration.

    Condition-major, :data:`STANDARD_CONFIGS` order within a condition;
    all six configurations at a location see the same network
    realization (``seed + condition_id``).
    """
    return [
        SimTask(
            fn="repro.httpreplay.engine:replay_app",
            kwargs={"app": app, "app_seed": seed, "condition": condition,
                    "config": config.name,
                    "seed": seed + condition.condition_id,
                    "deadline_s": deadline_s},
            key=f"replay.{app}.{condition.condition_id}.{config.name}",
        )
        for condition in make_conditions(seed=seed)[:condition_count]
        for config in STANDARD_CONFIGS
    ]


def response_times(results: List[AppReplayResult]) -> List[Dict[str, float]]:
    """Per condition (grid order): configuration name → response time."""
    per = len(STANDARD_CONFIGS)
    return [
        {r.config_name: r.response_time_s for r in results[start:start + per]}
        for start in range(0, len(results), per)
    ]


def _build_result(
    experiment_id: str,
    title: str,
    app: str,
    seed: int,
    fast: bool,
    claims: List[Claim],
    headline: str,
    mptcp_should_win: bool,
) -> ExperimentResult:
    grid = replay_grid(app, seed, condition_count=4 if fast else 20)
    per_condition = response_times(SweepRunner(seed=seed).run(grid))

    table = Table(
        ["condition"] + [c.name for c in STANDARD_CONFIGS],
        title=f"{experiment_id}: {app} response time (s) per config",
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
        metrics[f"normalized[{scheme}]"] = value

    single = means["Single-Path-TCP Oracle"]
    best_mptcp = min(v for k, v in means.items() if "MPTCP" in k)
    # How much using both networks helps beyond simply picking the
    # right one.  The paper's short-flow finding is "no appreciable
    # benefit" (the single-path oracle matches or beats the MPTCP
    # oracles); the long-flow finding is a clear MPTCP win.
    benefit = single - best_mptcp
    metrics["mptcp_benefit_over_single_path"] = benefit
    metrics[headline] = float(
        benefit > 0.05 if mptcp_should_win else benefit < 0.05
    )
    metrics["network_selection_saving"] = 1.0 - single
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        body=table.render() + "\n\n" + oracle_table.render(),
        metrics=metrics,
        claims=claims,
    )


@register("fig18_19")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    return _build_result(
        experiment_id="fig18_19",
        title="CNN (short-flow dominated) replay and oracles",
        app="cnn_launch",
        seed=seed,
        fast=fast,
        claims=[
            # Short-flow finding: MPTCP adds no appreciable benefit over
            # picking the right network, and every oracle cuts response
            # time.  The MPTCP oracles sit within a quarter of the
            # paper's values over the 20 conditions; the single-path
            # oracle (0.76 vs 0.50) is bounded, not matched.
            Claim.within("short_flow_single_path_oracle_wins", 1.0),
            Claim("normalized[Single-Path-TCP Oracle]", "at most", 0.95,
                  strict=True, paper=0.50),
            Claim.within("normalized[Decoupled-MPTCP Oracle]", 0.70, 0.175,
                         full_only=True),
            Claim.within("normalized[Coupled-MPTCP Oracle]", 0.75, 0.1875,
                         full_only=True),
            Claim.within("normalized[MPTCP-WiFi-Primary Oracle]", 0.85,
                         0.2125, full_only=True),
            Claim.within("normalized[MPTCP-LTE-Primary Oracle]", 0.65,
                         0.1625, full_only=True),
        ],
        headline="short_flow_single_path_oracle_wins",
        mptcp_should_win=False,
    )
