"""Cross-fidelity validation: flow engine vs packet engine.

The flow engine is only useful if its aggregates track the packet
engine on the workloads the figures are built from.  This module runs
the same figure-class transfer specs at both fidelities and compares
*median-across-seeds* throughput and duration per condition — medians
because individual packet-engine runs have heavy-tailed outliers (an
unlucky RTO storm can stretch one seed's run 10×) that no rate model
should be asked to chase.

Two bounds are asserted, both calibrated against the packet engine:
:data:`DEFAULT_ERROR_BOUND` on one (workload class, flow size) cell's
mean error across conditions and :data:`PER_CONDITION_ERROR_BOUND` on
any single condition (DESIGN.md §10 has the measured table).

Run it directly for the full table::

    PYTHONPATH=src python -m repro.flow.validate

or ``--fast`` for the CI-sized subset.
"""

import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import env
from repro.core.errors import ConfigurationError
from repro.linkem.conditions import ConditionSpec, make_conditions
from repro.workload.session import Session
from repro.workload.spec import TransferSpec

__all__ = [
    "DEFAULT_ERROR_BOUND",
    "PER_CONDITION_ERROR_BOUND",
    "VALIDATION_SEEDS",
    "VALIDATION_SIZES",
    "WorkloadClass",
    "FIGURE_CLASSES",
    "CaseResult",
    "ClassResult",
    "ValidationReport",
    "validation_conditions",
    "validate_fidelity",
]

#: Bound on the |mean relative error| across conditions for one
#: (class, size) cell.  Measured maximum: 12.4 % (TCP WiFi 4 MB).
DEFAULT_ERROR_BOUND = 0.20

#: Bound on any single condition's |relative error|.  Measured
#: maximum: 49 % (coupled-LTE 4 MB at a deep-buffer WiFi location
#: whose packet runs collapse out of slow start).
PER_CONDITION_ERROR_BOUND = 0.60

#: Seeds whose median defines each condition's reference value.  Odd
#: spread on purpose: medians need ≥3 samples to shed one outlier.
VALIDATION_SEEDS: Tuple[int, ...] = (1, 12, 23)

#: Flow sizes of the §3.4/§3.5 sweeps (Figs. 3, 9, 10; Table 1 uses
#: the same transfers' durations).
VALIDATION_SIZES: Dict[str, int] = {
    "100KB": 100_000, "1MB": 1_000_000, "4MB": 4_000_000,
}


@dataclass(frozen=True)
class WorkloadClass:
    """One figure-class workload shape (everything but size/condition)."""

    name: str
    kind: str
    #: Extra :class:`~repro.workload.spec.TransferSpec` fields
    #: (``path``/``cc`` for TCP, ``primary``/``cc`` for MPTCP).
    spec_kwargs: Dict[str, Any] = field(default_factory=dict)

    def spec(self, condition: ConditionSpec, nbytes: int,
             seed: int) -> TransferSpec:
        return TransferSpec(kind=self.kind, condition=condition,
                            nbytes=nbytes, seed=seed, **self.spec_kwargs)


#: The four workload classes behind the tier-1 figures: single-path
#: TCP on each technology (Fig. 3 / Table 1) and the two MPTCP
#: corners that bracket Figs. 9/10 (decoupled-primary-WiFi vs
#: coupled-primary-LTE).
FIGURE_CLASSES: Tuple[WorkloadClass, ...] = (
    WorkloadClass("fig03.tcp-wifi", "tcp", {"path": "wifi", "cc": "cubic"}),
    WorkloadClass("fig03.tcp-lte", "tcp", {"path": "lte", "cc": "cubic"}),
    WorkloadClass("fig09_10.mptcp-dec-wifi", "mptcp",
                  {"primary": "wifi", "cc": "decoupled"}),
    WorkloadClass("fig09_10.mptcp-cpl-lte", "mptcp",
                  {"primary": "lte", "cc": "coupled"}),
)


@dataclass
class CaseResult:
    """One (class, size, condition) comparison cell."""

    class_name: str
    size_label: str
    condition_index: int
    packet_throughput_mbps: float
    flow_throughput_mbps: float
    #: Signed relative error, flow vs packet (medians across seeds).
    throughput_error: float
    packet_duration_s: float
    flow_duration_s: float
    duration_error: float


@dataclass
class ClassResult:
    """All conditions of one (class, size) cell, plus its aggregate."""

    class_name: str
    size_label: str
    cases: List[CaseResult]
    mean_throughput_error: float
    max_abs_condition_error: float

    def within(self, class_bound: float, condition_bound: float) -> bool:
        return (abs(self.mean_throughput_error) <= class_bound
                and self.max_abs_condition_error <= condition_bound)


@dataclass
class ValidationReport:
    """Outcome of one cross-fidelity validation run."""

    classes: List[ClassResult]
    class_bound: float
    condition_bound: float
    seeds: Tuple[int, ...]
    condition_count: int
    packet_wall_s: float
    flow_wall_s: float

    @property
    def speedup(self) -> float:
        if self.flow_wall_s <= 0.0:
            return float("inf")
        return self.packet_wall_s / self.flow_wall_s

    @property
    def ok(self) -> bool:
        return all(
            c.within(self.class_bound, self.condition_bound)
            for c in self.classes
        )

    @property
    def worst_class_error(self) -> float:
        return max(
            (abs(c.mean_throughput_error) for c in self.classes),
            default=0.0,
        )

    @property
    def worst_condition_error(self) -> float:
        return max(
            (c.max_abs_condition_error for c in self.classes), default=0.0
        )

    def assert_ok(self) -> None:
        """Raise ``AssertionError`` listing every out-of-bound cell."""
        failures = [
            f"{c.class_name}/{c.size_label}: mean "
            f"{c.mean_throughput_error:+.1%} (bound "
            f"±{self.class_bound:.0%}), worst condition "
            f"{c.max_abs_condition_error:.1%} (bound "
            f"±{self.condition_bound:.0%})"
            for c in self.classes
            if not c.within(self.class_bound, self.condition_bound)
        ]
        assert not failures, (
            "flow fidelity out of calibration:\n  " + "\n  ".join(failures)
        )

    def render(self) -> str:
        lines = [
            "cross-fidelity validation (flow vs packet, median of "
            f"seeds {list(self.seeds)}, {self.condition_count} conditions)",
            f"{'class':30s} {'size':>6s} {'mean err':>9s} "
            f"{'worst cond':>10s}  per-condition",
        ]
        for c in self.classes:
            per_cond = " ".join(
                f"{case.throughput_error:+.0%}" for case in c.cases
            )
            lines.append(
                f"{c.class_name:30s} {c.size_label:>6s} "
                f"{c.mean_throughput_error:+8.1%} "
                f"{c.max_abs_condition_error:9.1%}  [{per_cond}]"
            )
        lines.append(
            f"bounds: class mean ±{self.class_bound:.0%}, per condition "
            f"±{self.condition_bound:.0%} -> "
            f"{'PASS' if self.ok else 'FAIL'}"
        )
        lines.append(
            f"wall clock: packet {self.packet_wall_s:.2f}s, flow "
            f"{self.flow_wall_s:.3f}s ({self.speedup:.0f}x)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "classes": [asdict(c) for c in self.classes],
            "class_bound": self.class_bound,
            "condition_bound": self.condition_bound,
            "seeds": list(self.seeds),
            "condition_count": self.condition_count,
            "packet_wall_s": self.packet_wall_s,
            "flow_wall_s": self.flow_wall_s,
            "speedup": self.speedup,
            "worst_class_error": self.worst_class_error,
            "worst_condition_error": self.worst_condition_error,
            "ok": self.ok,
        }


def validation_conditions(count: int = 4) -> List[ConditionSpec]:
    """The default-seed emulated locations the bounds were fit on."""
    return make_conditions()[:count]


def _median(values: Sequence[Optional[float]], what: str) -> float:
    import statistics

    present = [v for v in values if v is not None and v > 0.0]
    if not present:
        raise ConfigurationError(
            f"validation transfer never completed ({what}); cannot "
            "compare fidelities on a workload that hits its deadline"
        )
    return statistics.median(present)


def validate_fidelity(
    conditions: Optional[Sequence[ConditionSpec]] = None,
    sizes: Optional[Dict[str, int]] = None,
    seeds: Sequence[int] = VALIDATION_SEEDS,
    classes: Sequence[WorkloadClass] = FIGURE_CLASSES,
    workers: Optional[int] = None,
    class_bound: float = DEFAULT_ERROR_BOUND,
    condition_bound: float = PER_CONDITION_ERROR_BOUND,
) -> ValidationReport:
    """Run every (class, size, condition, seed) cell at both fidelities.

    Each fidelity runs as one uncached :meth:`Session.run_many` batch
    — the exact sweep path experiments use — and the two batch wall
    clocks give the headline speedup.  Nothing is asserted here; call
    :meth:`ValidationReport.assert_ok` (tests do) or inspect the
    report.
    """
    conditions = (
        list(conditions) if conditions is not None
        else validation_conditions()
    )
    sizes = dict(sizes) if sizes is not None else dict(VALIDATION_SIZES)
    session = Session()

    cells = [
        (cls, size_label, nbytes, cond_index, condition)
        for cls in classes
        for size_label, nbytes in sizes.items()
        for cond_index, condition in enumerate(conditions)
    ]
    packet_specs, flow_specs = [], []
    for cls, _, nbytes, _, condition in cells:
        for seed in seeds:
            spec = cls.spec(condition, nbytes, seed)
            packet_specs.append(spec)
            flow_specs.append(spec.with_fidelity("flow"))

    started = time.perf_counter()
    packet_reports = session.run_many(
        packet_specs, workers=workers, cache=False
    )
    packet_wall_s = time.perf_counter() - started
    started = time.perf_counter()
    flow_reports = session.run_many(flow_specs, workers=workers, cache=False)
    flow_wall_s = time.perf_counter() - started

    results: Dict[Tuple[str, str], ClassResult] = {}
    offset = 0
    for cls, size_label, _, cond_index, _ in cells:
        chunk = slice(offset, offset + len(seeds))
        offset += len(seeds)
        what = f"{cls.name}/{size_label}/cond{cond_index}"
        packet_tput = _median(
            [r.throughput_mbps for r in packet_reports[chunk]],
            f"packet {what}",
        )
        flow_tput = _median(
            [r.throughput_mbps for r in flow_reports[chunk]],
            f"flow {what}",
        )
        packet_dur = _median(
            [r.duration_s for r in packet_reports[chunk]], f"packet {what}"
        )
        flow_dur = _median(
            [r.duration_s for r in flow_reports[chunk]], f"flow {what}"
        )
        case = CaseResult(
            class_name=cls.name,
            size_label=size_label,
            condition_index=cond_index,
            packet_throughput_mbps=packet_tput,
            flow_throughput_mbps=flow_tput,
            throughput_error=(flow_tput - packet_tput) / packet_tput,
            packet_duration_s=packet_dur,
            flow_duration_s=flow_dur,
            duration_error=(flow_dur - packet_dur) / packet_dur,
        )
        results.setdefault(
            (cls.name, size_label),
            ClassResult(cls.name, size_label, [], 0.0, 0.0),
        ).cases.append(case)

    import statistics

    class_results = []
    for result in results.values():
        errors = [case.throughput_error for case in result.cases]
        result.mean_throughput_error = statistics.mean(errors)
        result.max_abs_condition_error = max(abs(e) for e in errors)
        class_results.append(result)

    return ValidationReport(
        classes=class_results,
        class_bound=class_bound,
        condition_bound=condition_bound,
        seeds=tuple(seeds),
        condition_count=len(conditions),
        packet_wall_s=packet_wall_s,
        flow_wall_s=flow_wall_s,
    )


def main(argv: Optional[Sequence[int]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.flow.validate",
        description="Validate flow-fidelity aggregates against the "
        "packet engine on figure-class workloads.",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="CI-sized subset: 2 conditions, sizes 100KB/1MB",
    )
    env.add_flags(parser, "--workers")
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    conditions = validation_conditions(2 if args.fast else 4)
    sizes = dict(VALIDATION_SIZES)
    if args.fast:
        sizes.pop("4MB")
    with env.exported("flow.validate", args, "--workers"):
        report = validate_fidelity(conditions=conditions, sizes=sizes)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
