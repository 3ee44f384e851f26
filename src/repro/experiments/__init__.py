"""One module per table/figure of the paper, plus a CLI runner.

Each experiment module exposes ``run(seed=DEFAULT_SEED, fast=False)``
returning an :class:`~repro.experiments.common.ExperimentResult` whose
``render()`` prints the same rows/series the paper reports and whose
``metrics`` dict carries the headline numbers compared against the
paper in EXPERIMENTS.md.  ``fast=True`` shrinks sweep sizes for the
test suite; benchmarks run the full versions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ExperimentResult": ".common", "EXPERIMENTS": ".common",
})
