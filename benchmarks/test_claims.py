"""Every paper claim, asserted at full size: one case per experiment.

Each case runs one registered experiment's full (non-fast) version once
under pytest-benchmark, prints its rendering (pytest's capture
disabled, so ``pytest benchmarks/`` shows the rows and series the paper
reports), saves it to ``benchmarks/output/<id>.txt`` and asserts the
claims the experiment declares beside its reducer
(:class:`~repro.experiments.common.Claim`).

A run that covers every experiment also rewrites
``benchmarks/output/claims.txt``: one row per claim with its bound, the
paper's number, the measurement, the distance between the two and
whether the claim held.  A partial run (``-k fig08``) leaves it alone.
"""

import os

import pytest

import repro.experiments.ablations  # noqa: F401  (registers the ablations)
from repro.analysis.report import Table
from repro.experiments.common import EXPERIMENTS
from repro.experiments.runner import EXPERIMENT_MODULES, load_all_experiments

load_all_experiments()

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: Paper order, then the ablations in registration order.
EXPERIMENT_IDS = EXPERIMENT_MODULES + [
    name for name in EXPERIMENTS if name not in EXPERIMENT_MODULES
]

#: Renders a wall-clock rate, so only its claims are recorded.
UNRENDERED = {"crowd-scale"}

_ROWS = {}


def _save(name: str, text: str) -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, name), "w") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="module", autouse=True)
def claims_table():
    yield
    if set(_ROWS) != set(EXPERIMENT_IDS):
        return
    table = Table(["experiment", "metric", "bound", "paper", "measured",
                   "distance", "held"])
    for name in EXPERIMENT_IDS:
        for row in _ROWS[name]:
            table.add_row([name] + row)
    _save("claims.txt", table.render())


def _row(claim, metrics):
    measured = metrics.get(claim.metric)
    paper = "-" if claim.paper is None else f"{claim.paper:g}"
    distance = "-"
    if measured is not None and claim.paper:
        distance = f"{measured / claim.paper - 1:+.1%}"
    held = ("no" if claim.failure(metrics)
            else "-" if claim.kind is None else "yes")
    return [claim.metric, claim.describe(), paper,
            "missing" if measured is None else f"{measured:.4g}",
            distance, held]


@pytest.mark.parametrize("name", EXPERIMENT_IDS)
def test_claims(benchmark, capfd, name):
    result = benchmark.pedantic(EXPERIMENTS[name], rounds=1, iterations=1,
                                warmup_rounds=0)
    text = result.render()
    if name not in UNRENDERED:
        _save(f"{name}.txt", text)
    with capfd.disabled():
        print(f"\n{text}\n")
    _ROWS[name] = [_row(claim, result.metrics) for claim in result.claims]
    assert result.failures() == []
