#!/usr/bin/env python3
"""The performance ledger: one benchmark, five workloads.

    python3 benchmarks/ledger/run.py                 # all five, end to end
    python3 benchmarks/ledger/run.py --trace         # ... plus per-layer
    python3 benchmarks/ledger/run.py --quick         # shrunken smoke run
    python3 benchmarks/ledger/run.py --runs 10 --out A.json
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --record A.json # refresh definitions
                                                     # and baseline

and, as the acceptance driver calls it, one workload per process::

    python3 benchmarks/ledger/run.py --workload packet_bulk --seed 7 \\
        --seconds 10 --trace 0

whose last line of stdout is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  Run from the repository
root; ``src/`` is put on the path here, no ``PYTHONPATH`` needed.

Every workload runs in a fresh child interpreter (``child.py``) with
all ``REPRO_*`` variables scrubbed, so nothing the caller exported —
a fidelity override, a default executor, a cache directory — can leak
into a measurement.  See README.md for what each number means.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(HERE, "output")
sys.path.insert(0, HERE)

#: Set-ups per run (set-up-only children plus the measuring one);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A child that has not answered by then is killed (the driver allows
#: a run 180 s).
CHILD_TIMEOUT_S = 150.0


class LedgerError(Exception):
    """A child failed to produce a result."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The caller's environment minus everything that steers repro."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["REPRO_CACHE"] = "0"  # belt and braces: cache= is always passed
    env["PYTHONHASHSEED"] = "0"  # same dict/set order in every child
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p
    )
    return env


def spawn(workload: str, mode: str, seed: int, seconds: float,
          quick: bool) -> Dict[str, Any]:
    """Run one child to completion and return its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawned-at", repr(time.time()),
    ]
    if quick:
        command.append("--quick")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}/{mode}: no result after "
                          f"{CHILD_TIMEOUT_S:g}s")
    finally:
        # However we leave (timeout, Ctrl-C), the child goes first: it
        # tears its fleet down on SIGTERM.
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LedgerError(f"{workload}/{mode}: child exited "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_end_to_end(workload: str, seed: int, seconds: float,
                   quick: bool) -> Dict[str, Any]:
    """Set up ``SETUP_SAMPLES`` times, measure once, derive metrics."""
    from stats import price_slices, summarize

    load_start = os.getloadavg()
    setups = [spawn(workload, "setup", seed, seconds, quick)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(workload, "measure", seed, 0.0 if quick else seconds,
                   quick)
    setups.append(result["setup_s"])
    passes = result["passes"]
    units = result["units_per_pass"]

    # A leg is priced slice by slice (stats.py); a pass is its legs.
    legs = {name: price_slices([p["legs"][name] for p in passes])
            for name in passes[0]["legs"]}
    wall = {key: sum(leg[key] for leg in legs.values())
            for key in ("value", "q1", "median", "q3", "min")}
    metrics: Dict[str, Dict[str, Any]] = {
        "wall_s": dict(wall, n=len(passes), unit="s"),
        "units_per_s": {
            "value": units / wall["value"], "q1": units / wall["q3"],
            "median": units / wall["median"], "q3": units / wall["q1"],
            "max": units / wall["min"], "n": len(passes), "unit": "1/s"},
        "peak_rss_mb": dict(summarize([result["peak_rss_mb"]]), unit="MB"),
        "setup_s": dict(summarize(setups), unit="s"),
        "failed_fraction": dict(
            summarize([result["failed"] / result["attempted"]]),
            unit="ratio"),
    }
    if len(legs) > 1:
        for name, leg in legs.items():
            metrics[f"{name}_wall_s"] = dict(leg, unit="s")
    for name, value in result["extras"].items():
        metrics[name] = dict(summarize([value]), unit="ratio")

    return {
        "workload": workload, "seed": seed, "quick": quick,
        "correct": not result["failures"], "failures": result["failures"],
        "attempted": result["attempted"], "failed": result["failed"],
        "unit": result["unit"], "digest": result["digest"],
        "metrics": metrics,
        "passes": len(passes),
        "pass_s": [p["seconds"] for p in passes],
        "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
    }


def run_trace(workload: str, seed: int, seconds: float,
              quick: bool) -> Dict[str, Any]:
    from definitions import PER_LAYER

    result = spawn(workload, "trace", seed, seconds, quick)
    missing = [m.name for m in PER_LAYER if m.name not in result["metrics"]]
    if missing:
        raise LedgerError(f"{workload}/trace: no value for {missing}")
    if result["missing_seams"]:
        print(f"warning: no span for {result['missing_seams']}: this "
              f"commit no longer has those seams", file=sys.stderr)
    result["correct"] = not result["failures"]
    return result


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _bound_text(metric) -> str:
    if metric.bound is None:
        return ""
    if metric.absolute:
        return f"bound +{metric.bound:g} abs"
    return f"bound {metric.bound:.0%}"


def print_end_to_end(run: Dict[str, Any]) -> None:
    from definitions import END_TO_END, EXTRAS, FAILED_FRACTION

    print(f"== {run['workload']} seed={run['seed']} "
          f"({run['passes']} passes, unit={run['unit']}, "
          f"digest {run['digest'][:12]}) "
          f"{'ok' if run['correct'] else 'FAILED: ' + '; '.join(run['failures'])}")
    metrics = run["metrics"]
    for metric in END_TO_END + EXTRAS.get(run["workload"], []) + [
            FAILED_FRACTION]:
        entry = metrics.get(metric.name)
        if entry is None:
            continue
        if entry.get("value") is None:
            print(f"  {metric.name:22s} null ({entry['reason']})")
            continue
        median = (f" median {entry['median']:.5g}" if "median" in entry
                  else "")
        print(f"  {metric.name:22s} {entry['value']:12.5g} {metric.unit:6s}"
              f" {metric.better:6s} {_bound_text(metric):16s}"
              f" [{entry['q1']:.5g} .. {entry['q3']:.5g}] n={entry['n']}"
              f"{median}")


def print_per_layer(workload: str, metrics: Dict[str, float]) -> None:
    from definitions import PER_LAYER

    print(f"== {workload} per layer (traced run)")
    for metric in PER_LAYER:
        value = metrics[metric.name]
        moves = f"  -> {metric.moves}" if metric.moves else ""
        print(f"  {metric.name:42s} {value:14.6g} {metric.unit:6s}"
              f" {metric.better:6s}{moves}")


# ----------------------------------------------------------------------
# Driver mode: one workload, last line is the result
# ----------------------------------------------------------------------
def driver_main(args) -> int:
    from definitions import END_TO_END, PER_LAYER

    if args.trace:
        result = run_trace(args.workload, args.seed, args.seconds,
                           args.quick)
        print_per_layer(args.workload, result["metrics"])
        units = {m.name: m.unit for m in PER_LAYER}
        values = result["metrics"]
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds,
                                args.quick)
        print_end_to_end(result)
        units = {m.name: m.unit for m in END_TO_END}
        values = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Full mode: all five workloads, --runs times
# ----------------------------------------------------------------------
def _cross_checks(by_workload: Dict[str, Dict[str, Any]]) -> None:
    """Checks that need two workloads of the same seed."""
    bulk = by_workload.get("packet_bulk")
    plane = by_workload.get("plane_sweep")
    if bulk is None or plane is None:
        return
    if plane["digest"] != bulk["digest"]:
        plane["correct"] = False
        plane["failures"].append(
            "cold/warm/fleet results differ from packet_bulk's")
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        plane["metrics"]["parallel_efficiency"] = {
            "value": None, "unit": "ratio",
            "reason": f"{cores} usable core: two workers cannot overlap",
        }
        return
    from stats import summarize

    plane["metrics"]["parallel_efficiency"] = dict(
        summarize([bulk["metrics"]["wall_s"]["value"]
                   / (2 * plane["metrics"]["cold_wall_s"]["value"])]),
        unit="ratio")


def summarize_runs(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per workload x metric: stats over runs (or the run's own, if one)."""
    from stats import summarize

    summary: Dict[str, Any] = {}
    for run in runs:
        summary.setdefault(run["workload"], []).append(run)
    out: Dict[str, Any] = {}
    for workload, group in summary.items():
        metrics: Dict[str, Any] = {}
        for name in group[0]["metrics"]:
            entries = [run["metrics"][name] for run in group]
            if len(entries) == 1 or any(
                    entry.get("value") is None for entry in entries):
                metrics[name] = entries[0]
            else:
                metrics[name] = dict(
                    summarize([entry["value"] for entry in entries]),
                    unit=entries[0]["unit"],
                    values=[entry["value"] for entry in entries])
        out[workload] = {
            "metrics": metrics,
            "digests": {str(run["seed"]): run["digest"] for run in group},
            "correct": all(run["correct"] for run in group),
        }
    return out


def full_main(args) -> int:
    from definitions import END_TO_END, EXTRAS
    from stats import iqr_share
    from workloads import WORKLOADS

    names = [cls.name for cls in WORKLOADS]
    env = environment()
    env["load_avg_start"] = os.getloadavg()
    env["run_seconds"] = args.seconds
    if env["load_avg_start"][0] > env["usable_cores"]:
        env["warning"] = (f"load average {env['load_avg_start'][0]:.2f} "
                          f"exceeds {env['usable_cores']} usable cores")
        print(f"warning: {env['warning']}", file=sys.stderr)
    print(f"ledger: {env['usable_cores']} usable cores, python "
          f"{env['python']}, commit {env['commit'][:12]}, "
          f"{args.seconds:g}s of passes per run, {args.runs} run(s)")

    runs: List[Dict[str, Any]] = []
    traces: Dict[str, Any] = {}
    for index in range(args.runs):
        seed = args.seed + index
        by_workload = {}
        for name in names:
            by_workload[name] = run_end_to_end(name, seed, args.seconds,
                                               args.quick)
        _cross_checks(by_workload)
        for run in by_workload.values():
            print_end_to_end(run)
            runs.append(run)
    if args.trace:
        for name in names:
            traces[name] = run_trace(name, args.seed, args.seconds,
                                     args.quick)
            print_per_layer(name, traces[name]["metrics"])
            print(f"  trace file: {traces[name]['trace_file']}")

    summary = summarize_runs(runs)
    if args.runs > 1:
        print("== spread over runs (quartile distance / median)")
        for workload, entry in summary.items():
            for metric in END_TO_END + EXTRAS.get(workload, []):
                stats = entry["metrics"].get(metric.name)
                if stats is None or stats.get("value") is None:
                    continue
                spread = iqr_share(stats)
                flag = ""
                if not metric.absolute and spread > metric.bound / 3:
                    flag = "  > bound/3"
                print(f"  {workload:13s} {metric.name:20s} "
                      f"median {stats['value']:11.5g}  spread "
                      f"{spread:6.2%}  bound {metric.bound:.0%}{flag}")
    env["load_avg_end"] = os.getloadavg()
    record = {
        "schema": "repro.ledger/v1",
        "environment": env,
        "quick": args.quick,
        "workloads": summary,
        "runs": runs,
        "per_layer": {name: trace["metrics"]
                      for name, trace in traces.items()},
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    out_path = args.out or os.path.join(
        OUTPUT_DIR, f"result-{args.seed}.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out_path, os.getcwd())}")
    correct = (all(run["correct"] for run in runs)
               and all(trace["correct"] for trace in traces.values()))
    if not correct:
        print("ledger: CHECKS FAILED", file=sys.stderr)
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --compare and --record
# ----------------------------------------------------------------------
def worse_by(metric, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, in the bound's terms.

    A share of ``old`` for relative bounds, the metric's own unit for
    absolute ones; negative when ``new`` is better.
    """
    delta = new - old if metric.better == "lower" else old - new
    if metric.absolute:
        return delta
    return delta / abs(old) if old else (0.0 if not delta else float("inf"))


def compare_records(old: Dict[str, Any], new: Dict[str, Any],
                    out=sys.stdout) -> int:
    """Print old vs new per workload x metric; 1 if any bound is broken.

    A pair whose quartile spread (either side) exceeds the bound is
    ``unresolved``: the medians are shown, but neither "no regression"
    nor "regression" can be read off them.
    """
    from definitions import END_TO_END, EXTRAS
    from stats import iqr_share

    status = 0
    print(f"{'workload':13s} {'metric':20s} {'old':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>7s}", file=out)
    for workload, old_entry in old["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        for metric in END_TO_END + EXTRAS.get(workload, []):
            a = old_entry["metrics"].get(metric.name)
            b = new_entry["metrics"].get(metric.name)
            if not a or not b or a.get("value") is None \
                    or b.get("value") is None:
                continue
            delta = worse_by(metric, a["value"], b["value"])
            verdict = ""
            if (not metric.absolute
                    and max(iqr_share(a), iqr_share(b)) > metric.bound):
                verdict = "unresolved"
            elif delta > metric.bound:
                verdict = "REGRESSION"
                status = 1
            shown = f"{delta:+9.4f}" if metric.absolute else f"{delta:+9.2%}"
            print(f"{workload:13s} {metric.name:20s} {a['value']:12.5g} "
                  f"{b['value']:12.5g} {shown} "
                  f"{_bound_text(metric)[6:]:>7s} {verdict}", file=out)
    return status


def record_main(path: str) -> int:
    """Rewrite BENCHMARK.json from definitions.py; keep ``path``'s
    numbers as the baseline beside the benchmark.

    ``BENCHMARK.json`` may hold nothing but the driver's keys, so what
    else the issue wanted on record — per-workload metrics, the
    "should move" mapping, environment, digests, numbers — goes into
    ``baseline.json``.
    """
    from definitions import EXTRAS, PER_LAYER, benchmark_json

    with open(path) as handle:
        record = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(benchmark_json(), handle, indent=2)
        handle.write("\n")
    baseline = {key: record[key] for key in
                ("schema", "environment", "workloads", "per_layer")}
    baseline["definitions"] = {
        "per_workload": {
            workload: [metric._asdict() for metric in metrics]
            for workload, metrics in EXTRAS.items()},
        "should_move": {metric.name: metric.moves
                        for metric in PER_LAYER if metric.moves},
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote BENCHMARK.json and benchmarks/ledger/baseline.json")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from definitions import RUN_SECONDS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this workload only and "
                        "end with the driver's one-line JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="seconds of timed passes per run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (driver: only) take the per-layer numbers")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken workloads, 2 short passes")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload with seeds seed..seed+N-1")
    parser.add_argument("--out", help="result file (default "
                        "benchmarks/ledger/output/result-<seed>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--record", metavar="RESULT",
                        help="write BENCHMARK.json and baseline.json")
    args = parser.parse_args(argv)

    if args.compare:
        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            return compare_records(json.load(a), json.load(b))
    if args.record:
        return record_main(args.record)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the child (which
    # stops its fleet) before this process goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload:
            return driver_main(args)
        return full_main(args)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
