"""Figure 3: CDF of Tput(WiFi) − Tput(LTE), uplink and downlink.

The paper's headline: LTE outperforms WiFi in 42 % of uplink samples
and 35 % of downlink samples — 40 % combined.
"""

from repro.analysis.cdf import Cdf
from repro.analysis.plotting import ascii_cdf
from repro.core.rng import DEFAULT_SEED
from repro.crowd.world import TABLE1_SITES
from repro.experiments.common import Claim, ExperimentResult, register, table1_dataset

__all__ = ["run"]


@register("fig03")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    sites = TABLE1_SITES[:8] if fast else TABLE1_SITES
    dataset = table1_dataset(sites, seed=seed).analysis_set()

    up = Cdf(dataset.uplink_diffs())
    down = Cdf(dataset.downlink_diffs())

    body = "\n".join([
        "Uplink: CDF of Tput(WiFi) - Tput(LTE) (Mbit/s)",
        ascii_cdf({"uplink": up.points()}, x_label="Tput(WiFi)-Tput(LTE) Mbps"),
        "",
        "Downlink: CDF of Tput(WiFi) - Tput(LTE) (Mbit/s)",
        ascii_cdf({"downlink": down.points()}, x_label="Tput(WiFi)-Tput(LTE) Mbps"),
    ])

    metrics = {
        "lte_win_fraction_uplink": dataset.lte_win_fraction_uplink(),
        "lte_win_fraction_downlink": dataset.lte_win_fraction_downlink(),
        "lte_win_fraction_combined": dataset.lte_win_fraction_combined(),
        "uplink_diff_p5_mbps": up.percentile(5),
        "uplink_diff_p95_mbps": up.percentile(95),
        "downlink_diff_p95_mbps": down.percentile(95),
    }
    claims = [
        Claim.within("lte_win_fraction_uplink", 0.42, 0.06),
        Claim.within("lte_win_fraction_downlink", 0.35, 0.06),
        Claim.within("lte_win_fraction_combined", 0.40, 0.06),
        Claim("lte_win_fraction_uplink", "ordering",
              "lte_win_fraction_downlink", strict=True),
        # The tails span >10 Mbit/s in both directions, as in the figure.
        Claim("uplink_diff_p5_mbps", "at most", -3.0, strict=True),
        Claim("downlink_diff_p95_mbps", "at least", 8.0, strict=True),
    ]
    return ExperimentResult(
        experiment_id="fig03",
        title="CDF of WiFi-vs-LTE throughput difference (up/down)",
        body=body,
        metrics=metrics,
        claims=claims,
    )
