"""Table 1: geographic coverage of the crowdsourced dataset.

Generates the synthetic Cell vs WiFi dataset, applies the paper's
filters, clusters runs geographically (k-means, r = 100 km), and
prints the same columns as the paper: location, coordinates, run
count, and the percentage of runs where LTE beat WiFi.
"""

from typing import Dict, List

from repro.analysis.report import Table
from repro.core.rng import DEFAULT_SEED
from repro.crowd.kmeans import cluster_runs
from repro.crowd.world import TABLE1_SITES
from repro.experiments.common import Claim, ExperimentResult, register, table1_dataset

__all__ = ["run", "claims"]


def _nearest_site_name(cluster) -> str:
    return min(
        TABLE1_SITES, key=lambda site: cluster.center.distance_km(site.point)
    ).name


def claims(sites) -> List[Claim]:
    """Table 1's claims over ``sites``.

    Each site with >= 80 runs keeps its LTE-win rate within 10 points,
    the filtered run count is exact, and k-means (r = 100 km) recovers
    one location group per site -- not at ``fast``, whose 8 sites
    cluster into 9 groups.
    """
    return [
        Claim.within(f"lte_win_pct[{site.name}]",
                     100.0 * site.lte_win_fraction, 10.0)
        for site in sites if site.runs >= 80
    ] + [
        Claim.within("total_filtered_runs",
                     float(sum(site.runs for site in sites))),
        Claim.within("cluster_count", float(len(sites)), full_only=True),
    ]


@register("table1")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    """Reproduce Table 1.  ``fast`` restricts to the 8 largest sites."""
    sites = TABLE1_SITES[:8] if fast else TABLE1_SITES
    dataset = table1_dataset(sites, seed=seed)
    analysis = dataset.analysis_set()
    clusters = cluster_runs(analysis.runs, radius_km=100.0)

    table = Table(
        ["location", "(lat, long)", "# of runs", "LTE %"],
        title="Table 1: location groups (k-means, r=100 km)",
    )
    table_claims = claims(sites)
    claimed = {claim.metric for claim in table_claims}
    metrics: Dict[str, float] = {}
    for cluster in clusters:
        name = _nearest_site_name(cluster)
        lte_pct = 100.0 * cluster.lte_win_fraction()
        table.add_row([
            name,
            f"({cluster.center.lat:.1f}, {cluster.center.lon:.1f})",
            cluster.size,
            f"{lte_pct:.0f}%",
        ])
        key = f"lte_win_pct[{name}]"
        if key in claimed:
            metrics[key] = lte_pct

    metrics["total_filtered_runs"] = float(len(analysis))
    metrics["cluster_count"] = float(len(clusters))
    metrics["raw_runs_before_filtering"] = float(len(dataset))

    return ExperimentResult(
        experiment_id="table1",
        title="Geographic coverage and diversity of crowd-sourced data",
        body=table.render(),
        metrics=metrics,
        claims=table_claims,
    )
