"""Table 2: the 20 emulated measurement locations.

Renders the condition registry standing in for the paper's 20 physical
locations, including the per-location link parameters our substitution
assigns (the paper's table lists only city and venue).
"""

from repro.analysis.report import Table
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import Claim, ExperimentResult, register
from repro.linkem.conditions import DUAL_CC_CONDITION_IDS, make_conditions

__all__ = ["run"]


@register("table2")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    conditions = make_conditions(seed=seed)
    table = Table(
        ["ID", "City", "Description", "WiFi down/up (RTT)", "LTE down/up (RTT)",
         "dual-CC"],
        title="Table 2: emulated measurement locations",
    )
    lte_better = 0
    for condition in conditions:
        wifi = condition.wifi
        lte = condition.lte
        if lte.down_mbps > wifi.down_mbps:
            lte_better += 1
        table.add_row([
            condition.condition_id,
            condition.city,
            condition.description,
            f"{wifi.down_mbps:.1f}/{wifi.up_mbps:.1f} Mbps ({wifi.rtt_ms:.0f} ms)",
            f"{lte.down_mbps:.1f}/{lte.up_mbps:.1f} Mbps ({lte.rtt_ms:.0f} ms)",
            "yes" if condition.condition_id in DUAL_CC_CONDITION_IDS else "",
        ])

    metrics = {
        "location_count": float(len(conditions)),
        "dual_cc_locations": float(len(DUAL_CC_CONDITION_IDS)),
        "lte_nominally_better_count": float(lte_better),
    }
    claims = [
        Claim.within("location_count", 20.0),
        Claim.within("dual_cc_locations", 7.0),
        Claim("lte_nominally_better_count", "at least", 5.0),
        Claim("lte_nominally_better_count", "at most", 12.0),
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Locations where MPTCP measurements were conducted",
        body=table.render(),
        metrics=metrics,
        claims=claims,
    )
