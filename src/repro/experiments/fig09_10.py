"""Figures 9 and 10: MPTCP throughput evolution over time.

Fig. 9: at a location where LTE is much faster, the connection ramps
faster when LTE carries the primary subflow (the SYN-ACK returns
sooner and the first subflow is the fast one).  Fig. 10: the mirror
case where WiFi is faster.  Each panel shows the whole-connection
average throughput over time plus the per-subflow contributions.
"""

from typing import Dict, List, Tuple

from repro.analysis.plotting import ascii_series
from repro.analysis.throughput import average_throughput_series
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    Claim,
    _SESSION,
    ExperimentResult,
    WARM_FLOW_CONFIG,
    mptcp_spec,
    register,
)
from repro.linkem.conditions import ConditionSpec
from repro.linkem.shells import PathSpec
from repro.workload import TransferReport

__all__ = ["run", "evolution_series"]

ONE_MBYTE = 1_048_576

#: The paper's Fig. 9/10 time axis: the grid's specs carry it as their
#: deadline, so a transfer stops here instead of running to completion.
HORIZON_S = 2.0


def evolution_series(
    report: TransferReport, horizon_s: float = HORIZON_S,
) -> Dict[str, List[Tuple[float, float]]]:
    """Average-throughput-vs-time series for MPTCP and its subflows."""
    started_at = report.started_at or 0.0
    series = {
        "MPTCP": average_throughput_series(
            report.delivery_log, started_at, end_time=horizon_s,
        )
    }
    for path_name, log in report.subflow_delivery_logs.items():
        label = "LTE" if path_name == "lte" else "WiFi"
        series[label] = average_throughput_series(
            log, started_at, end_time=horizon_s
        )
    return series


def _final(points: List[Tuple[float, float]]) -> float:
    return points[-1][1] if points else 0.0


def _pick(conditions, prefer: str):
    """A location where ``prefer`` is clearly faster but both links are
    slow enough that a transfer is still ramping at t = 2 s (the
    paper's Fig. 9/10 time horizon)."""
    def score(c):
        fast = c.lte if prefer == "lte" else c.wifi
        slow = c.wifi if prefer == "lte" else c.lte
        if fast.down_mbps <= slow.down_mbps or fast.down_mbps > 9.0:
            return -1.0
        # A slow primary hurts most when its handshake is slow too, so
        # weight by the slow path's RTT (cf. the 1-second WiFi SYN-ACK
        # in the paper's Fig. 9a).
        return (fast.down_mbps / slow.down_mbps) * slow.rtt_ms
    best = max(conditions, key=score)
    if score(best) <= 0:  # fall back to the extreme conditions
        return conditions[2] if prefer == "lte" else conditions[0]
    return best


#: Illustrative locations matching the paper's two traces.  Fig. 9 was
#: captured where LTE was much faster and the WiFi handshake itself was
#: slow (the SYN-ACK took a full second in the paper's trace); Fig. 10
#: is the mirror image.  Values sit inside the ranges observed across
#: the 20-location registry.
def _illustrative_conditions():
    lte_better = ConditionSpec(
        condition_id=901, city="(illustrative)", description="crowded cafe AP",
        paths=(
            PathSpec("wifi", "wifi", down_mbps=1.6, up_mbps=0.8, rtt_ms=420.0,
                     queue_packets=100),
            PathSpec("lte", "lte", down_mbps=7.5, up_mbps=3.0, rtt_ms=70.0,
                     queue_packets=700),
        ),
    )
    wifi_better = ConditionSpec(
        condition_id=902, city="(illustrative)", description="apartment WiFi",
        paths=(
            PathSpec("wifi", "wifi", down_mbps=6.0, up_mbps=3.0, rtt_ms=150.0,
                     queue_packets=150),
            PathSpec("lte", "lte", down_mbps=1.4, up_mbps=0.6, rtt_ms=260.0,
                     queue_packets=500),
        ),
    )
    return lte_better, wifi_better


@register("fig09_10")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    lte_better, wifi_better = _illustrative_conditions()

    # All four (condition, primary) simulations are independent: one
    # spec grid, stopped at the figure's horizon by the deadline.
    panel_specs = [
        (fig, condition, primary)
        for fig, condition in (("fig09", lte_better), ("fig10", wifi_better))
        for primary in ("wifi", "lte")
    ]
    reports = _SESSION.run_many(
        [
            mptcp_spec(condition, primary, "decoupled", 4 * ONE_MBYTE,
                       seed=seed, deadline_s=HORIZON_S,
                       config=WARM_FLOW_CONFIG)
            for _, condition, primary in panel_specs
        ],
    )
    series_by_key = {
        (fig, primary): evolution_series(report)
        for (fig, _, primary), report in zip(panel_specs, reports)
    }

    panels = []
    metrics = {}
    for fig, condition, better in (
        ("fig09", lte_better, "lte"),
        ("fig10", wifi_better, "wifi"),
    ):
        per_primary = {}
        for primary in ("wifi", "lte"):
            series = series_by_key[(fig, primary)]
            per_primary[primary] = series
            panels.append(
                f"{fig}{'a' if primary == 'wifi' else 'b'}: "
                f"condition #{condition.condition_id}, primary={primary}\n"
                + ascii_series(series, x_label="time (s)", y_label="tput Mbps")
            )
        bad_primary = "wifi" if better == "lte" else "lte"

        def at(points, t):
            best = min(points, key=lambda p: abs(p[0] - t))
            return best[1]

        for t_probe, label in ((1.0, "1s"), (2.0, "2s")):
            good = at(per_primary[better]["MPTCP"], t_probe)
            bad = at(per_primary[bad_primary]["MPTCP"], t_probe)
            metrics[f"{fig}_tput_ratio_better_primary_at_{label}"] = (
                good / max(bad, 1e-9)
            )

    body = "\n\n".join(panels)
    # The paper's qualitative claim: using the faster network for the
    # primary subflow yields higher average throughput while the
    # connection ramps.  1.2 is a threshold, not a number of the paper.
    claims = [
        Claim(f"{fig}_tput_ratio_better_primary_at_1s", "at least", 1.2,
              strict=True)
        for fig in ("fig09", "fig10")
    ]
    return ExperimentResult(
        experiment_id="fig09_10",
        title="MPTCP throughput over time by primary-subflow choice",
        body=body,
        metrics=metrics,
        claims=claims,
    )
