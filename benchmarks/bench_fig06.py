"""Bench: regenerate Figure 6 (20-location vs app-data CDF agreement)."""

from _harness import run_once
from repro.experiments import fig06


def bench_fig06(benchmark, capfd):
    result = run_once(benchmark, fig06.run, capfd=capfd)
    # EXPERIMENTS.md's "curves are close" claim, quantified.
    assert result.metrics["ks_distance_uplink"] <= 0.25
    assert result.metrics["ks_distance_downlink"] <= 0.25
