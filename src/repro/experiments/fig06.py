"""Figure 6: the 20 measurement locations are representative.

The paper overlays the throughput-difference CDF from the 20 MPTCP
measurement locations ("20-Location") onto the crowdsourced app-data
CDF and argues they match.  Here the 20-location samples come from the
*packet simulator* (actual TCP transfers over the emulated links) while
the app-data samples come from the analytic crowd pipeline — so this
experiment also validates that the two modelling levels agree.
"""

from typing import List

from repro.analysis.cdf import Cdf
from repro.analysis.plotting import ascii_cdf
from repro.core.rng import DEFAULT_SEED
from repro.crowd.world import TABLE1_SITES
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    _SESSION,
    register,
    table1_dataset,
    tcp_spec,
)
from repro.linkem.conditions import make_conditions
from repro.workload import TransferSpec

__all__ = ["run", "ks_distance", "location_grid"]

ONE_MBYTE = 1_048_576


def ks_distance(a: Cdf, b: Cdf) -> float:
    """Kolmogorov–Smirnov distance between two empirical CDFs."""
    points = sorted(set(a.samples) | set(b.samples))
    return max(abs(a.evaluate(x) - b.evaluate(x)) for x in points)


def location_grid(seed: int, fast: bool = False) -> List[TransferSpec]:
    """(WiFi↓, LTE↓, WiFi↑, LTE↑) 1 MB TCP specs per location × repeat."""
    conditions = make_conditions(seed=seed)
    return [
        tcp_spec(condition, path, ONE_MBYTE, direction=direction,
                 seed=seed + repeat * 9973)
        for condition in (conditions[:8] if fast else conditions)
        for repeat in range(1 if fast else 3)
        for direction in ("down", "up")
        for path in ("wifi", "lte")
    ]


@register("fig06", flow_capable=True)
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    sites = TABLE1_SITES[:8] if fast else TABLE1_SITES
    app_data = table1_dataset(sites, seed=seed).analysis_set()

    reports = _SESSION.run_many(location_grid(seed, fast))
    up_diffs = []
    down_diffs = []
    for start in range(0, len(reports), 4):
        wifi_down, lte_down, wifi_up, lte_up = reports[start:start + 4]
        if wifi_down.completed and lte_down.completed:
            down_diffs.append(
                wifi_down.throughput_mbps - lte_down.throughput_mbps
            )
        if wifi_up.completed and lte_up.completed:
            up_diffs.append(wifi_up.throughput_mbps - lte_up.throughput_mbps)

    app_up = Cdf(app_data.uplink_diffs())
    app_down = Cdf(app_data.downlink_diffs())
    loc_up = Cdf(up_diffs)
    loc_down = Cdf(down_diffs)

    body = "\n".join([
        "Uplink:",
        ascii_cdf(
            {"App Data": app_up.points(), "20-Location": loc_up.points()},
            x_label="Tput(WiFi)-Tput(LTE) Mbps",
        ),
        "",
        "Downlink:",
        ascii_cdf(
            {"App Data": app_down.points(), "20-Location": loc_down.points()},
            x_label="Tput(WiFi)-Tput(LTE) Mbps",
        ),
    ])
    metrics = {
        "ks_distance_uplink": ks_distance(app_up, loc_up),
        "ks_distance_downlink": ks_distance(app_down, loc_down),
        "20loc_lte_win_downlink": sum(1 for d in down_diffs if d < 0) / len(down_diffs),
    }
    # The paper claims the curves are "close"; we quantify with KS <= 0.25
    # (<= 0.40 over the fast sweep's 6 locations).
    claims = [
        Claim("ks_distance_uplink", "at most", 0.25, paper=0.25, fast=0.40),
        Claim("ks_distance_downlink", "at most", 0.25, paper=0.25, fast=0.40),
    ]
    return ExperimentResult(
        experiment_id="fig06",
        title="20-location TCP CDFs vs crowdsourced app-data CDFs",
        body=body,
        metrics=metrics,
        claims=claims,
    )
