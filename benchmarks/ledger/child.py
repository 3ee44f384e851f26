"""One workload in one fresh interpreter: set-up, passes, JSON out.

``run.py`` starts this file once per measurement so that set-up time
and peak memory are honest and per workload.  Three modes:

* ``setup``   — set up, tear down, report the set-up time;
* ``measure`` — set up, one untimed warm-up pass, timed passes for
  ``--seconds``, the workload's accuracy checks (tracing off);
* ``trace``   — set up under spans, an untraced and a traced pass, a
  ``cProfile`` pass over a third of the inputs, the tight-loop legs.

The last line of stdout is one JSON object; ``run.py`` turns it into
metrics.
"""

import argparse
import atexit
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT_DIR = os.path.join(HERE, "output")
sys.path.insert(0, HERE)

from stats import cut_slices  # noqa: E402

#: Slices a marked leg is cut into (see stats.py): 24 makes a slice of
#: the serial workloads 0.1 s, shorter than most of the box's bursts.
SLICES = 24


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when run.py started this process")
    return parser.parse_args(argv)


def run_pass(workload, fraction: int = 1) -> dict:
    """Time every leg of one pass, slice by slice; digest its results."""
    from workloads import digest, payload_of

    record = {"legs": {}, "digests": {}, "attempted": 0, "failed": 0,
              "stats": {}, "results": {}}
    for name, fn in workload.legs(fraction):
        started = time.perf_counter()
        leg = fn()
        ended = time.perf_counter()
        record["legs"][name] = cut_slices(started, leg.marks, ended, SLICES)
        record["digests"][name] = digest(payload_of(leg))
        record["attempted"] += leg.attempted
        record["failed"] += leg.failed + leg.verify()
        record["results"][name] = leg
        for key, value in leg.stats.items():
            record["stats"][key] = record["stats"].get(key, 0) + value
    record["seconds"] = sum(
        sum(slices) for slices in record["legs"].values())
    return record


def _public(record: dict) -> dict:
    """The pass without the result objects (only a traced run reads them)."""
    return {key: value for key, value in record.items() if key != "results"}


def _check_digests(passes, failures) -> dict:
    """Every pass must reproduce the first pass's digests, leg by leg."""
    first = passes[0]["digests"]
    for index, record in enumerate(passes[1:], start=2):
        if record["digests"] != first:
            failures.append(f"pass {index} digests differ from pass 1")
    if len(set(first.values())) != 1:
        failures.append(f"legs disagree on results: {first}")
    return first


def measure(workload, args) -> dict:
    run_pass(workload)  # warm-up: lazy imports, allocator, page cache
    min_passes = 2 if args.quick else 3
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(_public(run_pass(workload)))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["seconds"] for p in passes)
        # Stop at the pass boundary nearest the requested length.
        if len(passes) >= min_passes and elapsed + typical / 2 > args.seconds:
            break
    failures = []
    digests = _check_digests(passes, failures)
    extras, after_failures = workload.after()
    failures.extend(after_failures)
    failed = sum(p["failed"] for p in passes)
    if failed:
        failures.append(f"{failed} operations failed")
    return {
        "passes": passes,
        "digest": next(iter(digests.values())),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "extras": extras,
        "failures": failures,
        "units_per_pass": workload.units_per_pass(),
        "unit": workload.unit,
    }


def trace(workload, args, recorder, scratch) -> dict:
    import cProfile

    import repro
    from legs import run_legs
    from tracing import LAYERS, SEAMS, attribute_profile

    failures = []
    recorder.enabled = False
    run_pass(workload, fraction=4)  # warm-up
    untraced = run_pass(workload)
    first_traced_span = len(recorder.spans)
    recorder.enabled = True
    traced = run_pass(workload)
    recorder.enabled = False
    if traced["digests"] != untraced["digests"]:
        failures.append("tracing changed the results")
    _check_digests([untraced], failures)

    # A third of the inputs: cProfile costs ~4x on call-heavy code.
    profile = cProfile.Profile()
    for _, fn in workload.legs(3):
        profile.runcall(fn)
    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    layers, modules, functions = attribute_profile(profile, package_root)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
        metrics[f"{layer}.calls"] = layers[layer]["calls"]

    # Spans: set-up seams (world build, fleet up) plus the traced pass.
    span_self = recorder.self_seconds()
    for name, *_ in SEAMS:
        metrics[f"span.{name}_s"] = span_self.get(name, 0.0)
    for leg in ("cold", "warm", "fleet"):
        metrics[f"span.plane.{leg}_s"] = sum(traced["legs"].get(leg, ()))
    metrics["trace_overhead_ratio"] = traced["seconds"] / untraced["seconds"]

    # Counters the program already keeps, read off the traced pass.
    reports = [
        report for leg in traced["results"].values()
        if isinstance(leg.payloads, list) for report in leg.payloads
    ]

    def total(prefix: str) -> float:
        return sum(value for report in reports
                   for key, value in report.metrics.items()
                   if key.startswith(prefix))

    metrics["tcp.segments_sent"] = total("segments_sent")
    metrics["tcp.retransmits"] = total("retransmits")
    metrics["tcp.timeouts"] = total("timeouts")
    metrics["net.queue.drops"] = total("queue_drops")
    metrics["net.link.delivered_bytes"] = total("link_delivered_bytes")
    metrics["parallel.cache.hits"] = traced["stats"].get("cache_hits", 0)
    metrics["parallel.retries"] = traced["stats"].get("retries", 0)
    metrics["core.events.scheduled"] = functions.get(
        "core.events:call_at", 0)

    metrics.update(run_legs(args.seconds / 40.0, args.seed, scratch))

    trace_path = os.path.join(OUTPUT_DIR, f"trace-{workload.name}.json")
    with open(trace_path, "w") as handle:
        json.dump({
            "workload": workload.name, "seed": args.seed,
            "traced_pass_first_span": first_traced_span,
            "missing_seams": recorder.missing,
            "spans": recorder.to_json(),
            "profile_modules": modules,
            "profile_layers": layers,
        }, handle)
    return {
        "metrics": metrics,
        "attempted": traced["attempted"] + untraced["attempted"],
        "failed": traced["failed"] + untraced["failed"],
        "failures": failures,
        "missing_seams": recorder.missing,
        "trace_file": os.path.relpath(trace_path, os.getcwd()),
    }


def main(argv) -> int:
    args = _parse(argv)
    state = {}

    def cleanup() -> None:
        workload = state.pop("workload", None)
        if workload is not None:
            workload.teardown()
        if "scratch" in state:
            shutil.rmtree(state.pop("scratch"), ignore_errors=True)

    # A fleet must not outlive the run, however the run ends.
    atexit.register(cleanup)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    scratch = state["scratch"] = tempfile.mkdtemp(prefix="tmp-",
                                                  dir=OUTPUT_DIR)
    from repro.flow.fidelity import resolve_fidelity
    from workloads import make_workload

    if resolve_fidelity() is not None:
        print("a fidelity override is active; refusing to measure",
              file=sys.stderr)
        return 2
    recorder = None
    if args.mode == "trace":
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        recorder.enabled = True
    workload = state["workload"] = make_workload(
        args.workload, args.seed, args.quick)
    workload.setup(scratch)
    out = {
        "workload": workload.name, "seed": args.seed, "mode": args.mode,
        "quick": args.quick,
        # Set-up is timed from the moment run.py spawned this process.
        "setup_s": time.time() - args.spawned_at,
    }
    try:
        if args.mode == "measure":
            out.update(measure(workload, args))
        elif args.mode == "trace":
            out.update(trace(workload, args, recorder, scratch))
    finally:
        if recorder is not None:
            recorder.uninstall()
        cleanup()
    # Pool and fleet workers are reaped by now, so their peak counts.
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
