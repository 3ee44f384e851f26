"""Figures 20 and 21: long-flow dominated app replay (Dropbox click).

Same methodology as Figs. 18/19 but for the long-flow dominated
pattern (a 4 MB PDF download dominates).  Paper headlines: MPTCP now
helps markedly — the MPTCP oracles reduce response time by up to 50 %
while the single-path oracle manages 42 % — provided the right network
feeds the primary subflow and the right congestion control is used.
"""


from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import ExperimentResult, register
from repro.experiments.fig18_19 import _build_result

__all__ = ["run"]


@register("fig20_21")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    return _build_result(
        experiment_id="fig20_21",
        title="Dropbox (long-flow dominated) replay and oracles",
        app="dropbox_click",
        seed=seed,
        fast=fast,
        oracle_targets={
            "normalized[Single-Path-TCP Oracle]": 0.58,
            "normalized[Decoupled-MPTCP Oracle]": 0.50,
            "normalized[Coupled-MPTCP Oracle]": 0.50,
            "normalized[MPTCP-WiFi-Primary Oracle]": 0.50,
            "normalized[MPTCP-LTE-Primary Oracle]": 0.50,
            "long_flow_mptcp_oracle_wins": 1.0,
        },
        headline="long_flow_mptcp_oracle_wins",
        mptcp_should_win=True,
    )
