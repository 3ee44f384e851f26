"""Shared helpers for the benchmark harness.

Each bench runs one experiment's *full* (non-fast) version exactly
once under pytest-benchmark, prints the regenerated table/figure to the
terminal (pytest's capture temporarily disabled so ``pytest
benchmarks/`` output shows the same rows/series the paper reports),
persists the rendering under ``benchmarks/output/``, and asserts the
headline claims hold.
"""

import os
from typing import Dict, Optional

from repro.experiments.common import ExperimentResult
from repro.parallel import resolve_executor_spec, resolve_workers

__all__ = ["run_once", "emit", "bench_environment"]

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


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


def emit(result: ExperimentResult, capfd=None) -> None:
    """Print the rendered artifact and save it to benchmarks/output/."""
    text = result.render()
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, f"{result.experiment_id}.txt"),
              "w") as handle:
        handle.write(text)
        handle.write("\n")
    if capfd is not None:
        with capfd.disabled():
            print()
            print(text)
            print()
    else:
        print()
        print(text)
        print()


def run_once(benchmark, fn, capfd=None, **kwargs) -> ExperimentResult:
    """Benchmark ``fn`` with a single timed invocation.

    Honours ``REPRO_WORKERS``: exporting it shards each experiment's
    sweep across that many worker processes (outputs are identical;
    only the wall-clock changes, which is the point of a benchmark
    knob).
    """
    result = benchmark.pedantic(
        lambda: fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0,
    )
    emit(result, capfd=capfd)
    return result
