"""Bench: regenerate Table 1 (geographic coverage, LTE-win rates)."""

import pytest

from _harness import run_once
from repro.experiments import table1


def bench_table1(benchmark, capfd):
    result = run_once(benchmark, table1.run, capfd=capfd)
    # Per-site LTE-win percentages track the paper's Table 1.
    for key, value in result.metrics.items():
        target = result.paper_targets.get(key)
        if key.startswith("lte_win_pct") and target is not None:
            assert value == pytest.approx(target, abs=10.0), key
    assert result.metrics["total_filtered_runs"] == (
        result.paper_targets["total_filtered_runs"]
    )
    # k-means (r = 100 km) recovers one location group per Table-1 site.
    assert result.metrics["cluster_count"] == 22
