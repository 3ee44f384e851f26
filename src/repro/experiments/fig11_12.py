"""Figures 11 and 12: absolute difference vs relative ratio by flow size.

For the two primary-subflow choices, the *absolute* throughput gap
grows with flow size while the *relative* ratio shrinks — i.e. picking
the right primary matters most, proportionally, for small flows.
Fig. 11 is measured where LTE is faster; Fig. 12 where WiFi is faster.
"""

from typing import Dict, List, Tuple

from repro.analysis.plotting import ascii_series
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    WARM_FLOW_CONFIG,
    _SESSION,
    mptcp_spec,
    register,
)
from repro.experiments.fig07 import _curve
from repro.experiments.fig09_10 import _illustrative_conditions
from repro.linkem.conditions import ConditionSpec
from repro.workload import TransferSpec

__all__ = ["run"]

ONE_MBYTE = 1_048_576
PROFILE_SIZES_KB = list(range(25, 1025, 50))


def _profile_specs(condition: ConditionSpec, seed: int) -> List[TransferSpec]:
    """The two primary-subflow transfers of one Fig. 11/12 panel."""
    return [
        mptcp_spec(condition, primary, "decoupled", ONE_MBYTE, seed=seed,
                   config=WARM_FLOW_CONFIG)
        for primary in ("lte", "wifi")
    ]


def _profile_from(
    lte_summary, wifi_summary, sizes_kb: List[int]
) -> Dict[str, List[Tuple[float, float]]]:
    absolute = {
        "MPTCP(LTE)": _curve(lte_summary, sizes_kb),
        "MPTCP(WiFi)": _curve(wifi_summary, sizes_kb),
    }
    ratio = []
    for (kb, lte_t), (_, wifi_t) in zip(absolute["MPTCP(LTE)"], absolute["MPTCP(WiFi)"]):
        if wifi_t > 0:
            ratio.append((kb, lte_t / wifi_t))
    return {**absolute, "ratio LTE/WiFi": ratio}


def _gap_and_ratio(profile, kb: float) -> Tuple[float, float]:
    def value(name):
        for x, y in profile[name]:
            if x == kb:
                return y
        return 0.0

    lte_t = value("MPTCP(LTE)")
    wifi_t = value("MPTCP(WiFi)")
    gap = abs(lte_t - wifi_t)
    lo = min(lte_t, wifi_t)
    ratio = max(lte_t, wifi_t) / lo if lo > 0 else 0.0
    return gap, ratio


@register("fig11_12")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    lte_better, wifi_better = _illustrative_conditions()
    sizes = PROFILE_SIZES_KB[::4] if fast else PROFILE_SIZES_KB

    # One sweep covers both panels' four independent transfers.
    summaries = _SESSION.run_many(
        _profile_specs(lte_better, seed) + _profile_specs(wifi_better, seed),
    )
    profiles = {
        "fig11": _profile_from(summaries[0], summaries[1], sizes),
        "fig12": _profile_from(summaries[2], summaries[3], sizes),
    }

    panels = []
    metrics = {}
    for fig, condition in (("fig11", lte_better), ("fig12", wifi_better)):
        profile = profiles[fig]
        absolute = {k: v for k, v in profile.items() if k != "ratio LTE/WiFi"}
        panels.append(
            f"{fig}a: absolute throughput (condition #{condition.condition_id})\n"
            + ascii_series(absolute, x_label="flow size (KB)", y_label="tput Mbps")
        )
        panels.append(
            f"{fig}b: relative throughput ratio\n"
            + ascii_series(
                {"ratio": profile["ratio LTE/WiFi"]},
                x_label="flow size (KB)", y_label="LTE/WiFi",
            )
        )
        small_kb, large_kb = float(sizes[1]), float(sizes[-1])
        small_gap, small_ratio = _gap_and_ratio(profile, small_kb)
        large_gap, large_ratio = _gap_and_ratio(profile, large_kb)
        metrics[f"{fig}_abs_gap_grows"] = float(large_gap > small_gap)
        metrics[f"{fig}_rel_ratio_shrinks"] = float(small_ratio > large_ratio)
        metrics[f"{fig}_ratio_at_{int(small_kb)}KB"] = small_ratio
        metrics[f"{fig}_ratio_at_{int(large_kb)}KB"] = large_ratio

    claims = [
        # The fast sweep's coarse sizes miss fig11's growing gap.
        Claim.within("fig11_abs_gap_grows", 1.0, full_only=True),
        Claim.within("fig11_rel_ratio_shrinks", 1.0),
        Claim.within("fig12_abs_gap_grows", 1.0),
        Claim.within("fig12_rel_ratio_shrinks", 1.0),
    ]
    return ExperimentResult(
        experiment_id="fig11_12",
        title="Absolute gap grows, relative ratio shrinks, with flow size",
        body="\n\n".join(panels),
        metrics=metrics,
        claims=claims,
    )
