"""Measure the flow engine's speedup over the packet engine.

Times the Fig. 9/10-class sweep — the paper's MPTCP variant grid (4
variants × 3 flow sizes × 4 conditions × 3 seeds) — at both
fidelities through the same ``Session.run_many`` path, then runs the
cross-fidelity validation harness so the speedup number is always
published next to the model error it buys.  Results land in
``BENCH_flow.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_flow.py
    PYTHONPATH=src python benchmarks/bench_flow.py --smoke   # CI-sized

Both legs run serially in-process (``workers=1``): the point is the
per-engine cost, not pool scaling, and serial timing is what makes
the ratio machine-independent.  Exit 1 if the speedup falls below
``--required-speedup`` (30× full, 5× smoke) or validation leaves its
calibrated bounds.  The floor was 100× until the packet core's hot
path was rewritten: the ratio's *denominator* got faster (this sweep
fell from 12.1 s to 4.0–5.8 s of packet time on the 2-vCPU box while
the flow leg stayed at 0.11–0.15 s), so the same flow engine read
33–41×.  The flow engine's own hot-path rewrite (DESIGN.md §10) then
took the flow leg to 0.064–0.070 s: 67–87× over three runs, same
validation errors.
"""

import argparse
import json
import os
import sys
import time
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_flow.json")

#: Minimum acceptable packet/flow wall-clock ratio on the full sweep.
REQUIRED_SPEEDUP = 30.0
#: Smoke subsets are too small to amortize imports; a loose floor
#: still catches "flow engine silently fell back to packet".
SMOKE_REQUIRED_SPEEDUP = 5.0


def _sweep_specs(smoke: bool):
    from repro.experiments.common import MPTCP_VARIANTS
    from repro.flow.validate import (
        VALIDATION_SEEDS,
        VALIDATION_SIZES,
        validation_conditions,
    )
    from repro.workload.spec import TransferSpec

    variants = MPTCP_VARIANTS[:2] if smoke else MPTCP_VARIANTS
    sizes = dict(VALIDATION_SIZES)
    if smoke:
        sizes.pop("4MB")
    conditions = validation_conditions(1 if smoke else 4)
    seeds = VALIDATION_SEEDS[:2] if smoke else VALIDATION_SEEDS
    return [
        TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                     primary=primary, cc=cc, seed=seed)
        for _, primary, cc in variants
        for nbytes in sizes.values()
        for condition in conditions
        for seed in seeds
    ]


def _timed_batch(session, specs) -> float:
    started = time.perf_counter()
    reports = session.run_many(specs, workers=1, cache=False)
    elapsed = time.perf_counter() - started
    incomplete = sum(1 for r in reports if not r.completed)
    if incomplete:
        raise RuntimeError(
            f"{incomplete}/{len(reports)} sweep transfers missed their "
            "deadline; timing a broken sweep is meaningless"
        )
    return elapsed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark flow vs packet fidelity on the "
        "Fig. 9/10-class MPTCP sweep."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized subset; looser speedup floor; "
                             "no BENCH_flow.json unless --output is given")
    parser.add_argument("--output", default=None,
                        help=f"output JSON path (default {DEFAULT_OUTPUT}; "
                             "smoke runs write nothing by default)")
    parser.add_argument("--required-speedup", type=float, default=None,
                        help="fail below this packet/flow ratio "
                             f"(default {REQUIRED_SPEEDUP:g}, smoke "
                             f"{SMOKE_REQUIRED_SPEEDUP:g})")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _harness import bench_environment

    from repro.flow.validate import validate_fidelity, validation_conditions
    from repro.workload.session import Session

    os.environ["REPRO_CACHE"] = "0"
    required = args.required_speedup
    if required is None:
        required = SMOKE_REQUIRED_SPEEDUP if args.smoke else REQUIRED_SPEEDUP

    session = Session()
    specs = _sweep_specs(args.smoke)
    # Warm both engines before timing: module imports and first-call
    # setup are one-time costs, not per-transfer ones, and the flow
    # leg is short enough that ~0.1s of import skew moves the ratio.
    for warm in (specs[0], specs[0].with_fidelity("flow")):
        session.run(warm)
    print(f"fig09_10-class sweep: {len(specs)} transfers per fidelity",
          flush=True)
    print("packet fidelity (serial, warm) ...", flush=True)
    packet_s = round(_timed_batch(session, specs), 3)
    print(f"  {packet_s:.2f}s")
    print("flow fidelity (serial, warm) ...", flush=True)
    flow_s = round(
        _timed_batch(
            session, [spec.with_fidelity("flow") for spec in specs]
        ),
        4,
    )
    speedup = round(packet_s / max(flow_s, 1e-9), 1)
    print(f"  {flow_s:.3f}s  ({speedup:.0f}x)")

    # Smoke still needs >=2 conditions: the class-mean bound is a
    # *mean across conditions*, and a single condition's worst cell
    # sits outside it by design (see repro.flow.validate).
    print("cross-fidelity validation ...", flush=True)
    validation = validate_fidelity(
        conditions=validation_conditions(2 if args.smoke else 4),
        sizes=None if not args.smoke else {"100KB": 100_000,
                                           "1MB": 1_000_000},
    )
    print(validation.render())

    results = {
        "experiment": "fig09_10-class MPTCP sweep "
                      f"({len(specs)} transfers per fidelity)",
        "smoke": args.smoke,
        "tasks": len(specs),
        "packet_s": packet_s,
        "flow_s": flow_s,
        "speedup": speedup,
        "required_speedup": required,
        "validation": validation.to_dict(),
    }
    results.update(bench_environment(1))

    output = args.output
    if output is None and not args.smoke:
        output = DEFAULT_OUTPUT
    if output is not None:
        # The per-condition detail is for humans reading the console;
        # the committed artifact keeps the headline aggregates.
        results["validation"] = {
            k: v for k, v in results["validation"].items() if k != "classes"
        }
        with open(output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {output}]")

    failed = False
    if speedup < required:
        print(f"FAIL: speedup {speedup:.1f}x below required "
              f"{required:g}x", file=sys.stderr)
        failed = True
    if not validation.ok:
        print("FAIL: cross-fidelity validation out of bounds",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
