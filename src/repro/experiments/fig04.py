"""Figure 4: CDF of the average-ping RTT difference, WiFi − LTE.

Paper headline: LTE has lower ping RTT in 20 % of runs, despite
cellular networks being assumed higher-delay.
"""

from repro.analysis.cdf import Cdf
from repro.analysis.plotting import ascii_cdf
from repro.core.rng import DEFAULT_SEED
from repro.crowd.world import TABLE1_SITES
from repro.experiments.common import Claim, ExperimentResult, register, table1_dataset

__all__ = ["run"]


@register("fig04")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    sites = TABLE1_SITES[:8] if fast else TABLE1_SITES
    dataset = table1_dataset(sites, seed=seed).analysis_set()

    diffs = dataset.rtt_diffs()  # RTT(WiFi) - RTT(LTE)
    cdf = Cdf(diffs)
    lte_lower = sum(1 for d in diffs if d > 0) / len(diffs)

    body = ascii_cdf(
        {"rtt-diff": cdf.points()}, x_label="RTT(WiFi)-RTT(LTE) ms"
    )
    metrics = {
        "lte_rtt_lower_fraction": lte_lower,
        "rtt_diff_median_ms": cdf.median,
        "rtt_diff_p5_ms": cdf.percentile(5),
        "rtt_diff_p95_ms": cdf.percentile(95),
    }
    claims = [
        Claim.within("lte_rtt_lower_fraction", 0.20, 0.06),
        # WiFi is usually faster (negative median difference).
        Claim("rtt_diff_median_ms", "at most", 0.0, strict=True),
    ]
    return ExperimentResult(
        experiment_id="fig04",
        title="CDF of average ping-RTT difference (WiFi − LTE)",
        body=body,
        metrics=metrics,
        claims=claims,
    )
