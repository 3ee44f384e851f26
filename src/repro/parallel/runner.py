"""Import surface of the sweep engine.

The engine itself is :class:`repro.parallel.coordinator.SweepRunner`;
this module re-exports it beside the task types and worker-count
helpers callers construct sweeps with.
"""

from repro.parallel.coordinator import SweepRunner
from repro.parallel.task import (
    SimTask,
    SweepStats,
    TaskFailure,
    resolve_workers,
)

__all__ = [
    "SimTask",
    "SweepRunner",
    "SweepStats",
    "TaskFailure",
    "resolve_workers",
]
