"""Shared helpers for the standalone bench scripts."""

import os
from typing import Dict, Optional

from repro.parallel import resolve_executor_spec, resolve_workers

__all__ = ["bench_environment"]


def bench_environment(workers: Optional[int] = None,
                      executor: Optional[str] = None) -> Dict[str, object]:
    """Machine context stamped into every ``BENCH_*.json``.

    Wall-clock comparisons across PRs are meaningless without knowing
    what ran them: the visible core count, the worker count and
    executor backend the run actually resolved to, and a
    ``single_core`` flag CI can use to discount parallel-speedup
    numbers measured on one core.
    """
    cpu_count = os.cpu_count() or 1
    effective_workers = resolve_workers(workers)
    return {
        "cpu_count": cpu_count,
        "effective_workers": effective_workers,
        "executor": resolve_executor_spec(executor),
        "single_core": cpu_count <= 1 or effective_workers <= 1,
    }
