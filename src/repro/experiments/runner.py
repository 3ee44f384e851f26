"""CLI entry point: run any or all of the paper's experiments.

Usage::

    repro-experiments --list
    repro-experiments fig03 fig08
    repro-experiments --all --fast --workers 4
    repro-experiments run-spec workload.json --workers 4

Sweep-based experiments shard their independent simulations across
``--workers`` processes (default: the ``REPRO_WORKERS`` environment
variable, else 1) and reuse cached results from previous runs unless
``--no-cache`` is given.  ``--executor`` (default ``REPRO_EXECUTOR``,
else ``process``) selects the backend — serial in-process, the local
pool, or a remote ``socket:HOST:PORT,...`` worker fleet.  Neither
worker count nor backend ever changes the outputs — only the
wall-clock.

The ``run-spec`` subcommand executes a declarative
:class:`~repro.workload.WorkloadSpec` JSON file through the same
engine (see ``examples/workload.json`` for the format).
"""

import argparse
import importlib
import os
import sys
import time
from typing import List, Optional

from repro.core import env
from repro.core.errors import ConfigurationError, SweepTaskError
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import EXPERIMENTS, FLOW_CAPABLE
from repro.flow.fidelity import resolve_fidelity
from repro.parallel import resolve_workers

__all__ = ["main", "run_spec_main", "load_all_experiments",
           "EXPERIMENT_MODULES"]

#: Every experiment module, in paper order.
EXPERIMENT_MODULES = [
    "table1",
    "fig03",
    "fig04",
    "fig06",
    "table2",
    "fig07",
    "fig08",
    "fig09_10",
    "fig11_12",
    "fig13",
    "fig14",
    "fig15",
    "failover",
    "fig16",
    "fig17",
    "fig18_19",
    "fig20_21",
    "crowd-scale",
]


def load_all_experiments() -> None:
    """Import every experiment module so the registry is populated."""
    for module in EXPERIMENT_MODULES:
        # Experiment ids may use hyphens; module files use underscores.
        importlib.import_module(
            f"repro.experiments.{module.replace('-', '_')}"
        )


#: The run-level flags both commands take (declared once, in
#: :data:`repro.core.env.FLAGS`).
_RUN_FLAGS = ("--workers", "--no-cache", "--fidelity", "--executor",
              "--trace", "--progress", "--chaos")


def _workload_with_faults(workload, path: str):
    """Attach a file's :class:`FaultSpec` to every fault-free transfer.

    Per-transfer schedules embedded in the workload win; transfers
    whose conditions lack the schedule's paths are a configuration
    error (surfaced by ``TransferSpec`` validation).
    """
    import dataclasses

    from repro.faults.spec import FaultSpec

    faults = FaultSpec.from_file(path)
    return dataclasses.replace(
        workload,
        transfers=tuple(t.with_faults(faults) for t in workload.transfers),
    )


def run_spec_main(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments run-spec``: execute a workload JSON file."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments run-spec",
        description="Execute a declarative workload (WorkloadSpec JSON).",
    )
    parser.add_argument("workload", help="path to a workload JSON file")
    parser.add_argument("--faults", metavar="FILE", default=None,
                        help="apply a FaultSpec JSON schedule (see "
                             "examples/faults.json) to every transfer "
                             "that does not already carry one")
    env.add_flags(parser, *_RUN_FLAGS)
    args = parser.parse_args(argv)
    with env.exported("run-spec", args, *_RUN_FLAGS):
        return _run_spec(args)


def _run_spec(args: argparse.Namespace) -> int:
    from repro.workload import Session, WorkloadSpec

    try:
        with open(args.workload, "r", encoding="utf-8") as handle:
            workload = WorkloadSpec.from_json(handle.read())
        if args.faults:
            workload = _workload_with_faults(workload, args.faults)
    except (OSError, ConfigurationError) as exc:
        print(f"run-spec: {exc}", file=sys.stderr)
        return 2

    session = Session(seed=workload.seed)
    try:
        reports = session.run_workload(workload)
    except SweepTaskError as exc:
        # Healthy transfers already ran (and were cached); report the
        # permanently-failed ones and exit non-zero.
        print(f"run-spec: {exc}", file=sys.stderr)
        return 3

    failures = 0
    for spec, report in zip(workload.transfers, reports):
        if report.completed:
            outcome = (f"{report.duration_s:8.3f} s  "
                       f"{report.throughput_mbps:8.2f} Mbit/s")
        else:
            outcome = "did not complete before the deadline"
            failures += 1
        print(f"  {spec.key():44s} {outcome}")
    stats = session.last_stats
    if stats is not None:
        print(f"[{workload.name}: {stats.summary()}]")
    if args.trace and session.last_manifests:
        from repro.obs.manifest import write_manifests

        manifest_path = os.path.join(
            args.trace, f"{workload.name}.manifests.json"
        )
        write_manifests(session.last_manifests, manifest_path)
        print(f"[manifests: {manifest_path}]", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "run-spec":
        return run_spec_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Deng et al., IMC'14.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig08 table1)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sweep sizes (seconds instead of minutes)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    env.add_flags(parser, *_RUN_FLAGS)
    args = parser.parse_args(argv)
    with env.exported("repro-experiments", args, *_RUN_FLAGS):
        return _run_experiments(parser, args)


def _run_experiments(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> int:
    load_all_experiments()
    if args.list:
        for name in EXPERIMENT_MODULES:
            print(name)
        return 0

    names = EXPERIMENT_MODULES if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    if resolve_fidelity() == "flow":
        packet_only = [n for n in names if not FLOW_CAPABLE.get(n)]
        if packet_only:
            capable = sorted(n for n, ok in FLOW_CAPABLE.items() if ok)
            print(
                "flow fidelity only reproduces throughput/duration "
                f"aggregates; {', '.join(packet_only)} need(s) "
                "packet-level signals (RTT samples, cwnd traces, "
                "energy activity, live connections).\n"
                f"flow-capable experiments: {', '.join(capable)}",
                file=sys.stderr,
            )
            return 2

    for name in names:
        started = time.time()
        result = EXPERIMENTS[name](seed=args.seed, fast=args.fast)
        print(result.render())
        elapsed = time.time() - started
        print(f"[{name} finished in {elapsed:.1f}s]\n")
        if args.trace:
            _write_experiment_manifest(args.trace, name, args, elapsed)
    return 0


def _write_experiment_manifest(trace_dir: str, name: str,
                               args: argparse.Namespace,
                               elapsed_s: float) -> None:
    """Stamp a provenance sidecar next to the figure's traces.

    A sidecar file — never part of ``ExperimentResult.render()`` — so
    rendered figure text stays byte-identical with tracing on or off.
    """
    from repro import __version__
    from repro.obs.manifest import RunManifest
    from repro.parallel.cache import spec_hash

    RunManifest(
        key=name,
        spec_hash=spec_hash(
            f"repro.experiments.{name}:run",
            {"seed": args.seed, "fast": args.fast},
        ),
        seed=args.seed,
        cache_hit=False,
        wall_time_s=elapsed_s,
        worker_pid=os.getpid(),
        workers=resolve_workers(),
        package_version=__version__,
    ).write(os.path.join(trace_dir, f"{name}.manifest.json"))


if __name__ == "__main__":
    sys.exit(main())
