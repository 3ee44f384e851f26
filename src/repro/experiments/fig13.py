"""Figure 13: coupled vs decoupled congestion control by flow size.

CDF of ``|MPTCP_coupled − MPTCP_decoupled| / MPTCP_coupled`` at the 7
dual-CC locations, 5 runs per configuration, both directions.  Paper
medians: 16 % at 10 KB, 16 % at 100 KB, 34 % at 1 MB — congestion
control matters most for long flows.

This is the r_cwnd (``"CC"``) reduction of the campaign Fig. 14 also
reads (:func:`repro.experiments.fig14.dual_cc_grid`), so whichever of
the two runs second is served from the result cache.
"""

from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    flow_size_result,
    register,
)
from repro.experiments.fig14 import measure_dual_cc

__all__ = ["run"]


@register("fig13", flow_capable=True)
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    return flow_size_result(
        "fig13",
        "Coupled vs decoupled congestion control by flow size",
        measure_dual_cc(seed, fast)["CC"],
        ordering=("ordering_large_gt_small", "1MB", "10KB"),
        claims=[
            # Magnitudes within a quarter of the paper's (1 MB: within
            # 26 points), over the full 7-site grid.
            Claim.within("median_rel_diff[10KB]", 16.0, 4.0, full_only=True),
            Claim.within("median_rel_diff[100KB]", 16.0, 4.0, full_only=True),
            Claim.within("median_rel_diff[1MB]", 34.0, 26.0),
        ],
    )
