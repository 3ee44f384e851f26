"""CLI: the Cell vs WiFi app experience (paper Fig. 1), simulated.

The real app measured both networks and told the user which to use.
This CLI does the same against the synthetic world model, drawing
``--runs`` runs of a one-site population::

    python -m repro.crowd --site "US (Boston, MA)"
    python -m repro.crowd --list-sites
    python -m repro.crowd --site Israel --runs 5

With ``--users`` the CLI switches to the crowd-scale pipeline: a
synthetic population sampled in batches, aggregated into streaming
sketches, and sharded across workers::

    python -m repro.crowd --users 1000000 --workers 8 --progress
    python -m repro.crowd --users 50000 --sink csv --csv-out runs.csv
    python -m repro.crowd --users 200000 --json --metrics-out fleet.json

The default ``--sink sketch`` keeps memory flat at any population
size; ``--sink csv`` streams one row per run to ``--csv-out``.
"""

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core import env
from repro.core.errors import ConfigurationError
from repro.core.rng import DEFAULT_SEED
from repro.crowd.aggregate import SINK_KINDS
from repro.crowd.sampling import CrowdSampler, PopulationSpec
from repro.crowd.world import TABLE1_SITES, CrowdWorld

__all__ = ["main"]


_SCALE_FLAGS = ("--workers", "--executor", "--progress")


def _find_site(name: str):
    matches = [s for s in TABLE1_SITES if name.lower() in s.name.lower()]
    if not matches:
        return None
    # Prefer the shortest (most specific) match.
    return min(matches, key=lambda s: len(s.name))


def _scale_main(args: argparse.Namespace) -> int:
    """``--users N``: run the crowd-scale sharded pipeline."""
    from repro.crowd.pipeline import DEFAULT_BATCH, simulate

    try:
        population = PopulationSpec(users=args.users, seed=args.seed)
    except ConfigurationError as exc:
        print(f"crowd: {exc}", file=sys.stderr)
        return 2
    if args.csv_out and args.sink != "csv":
        print("crowd: --csv-out needs --sink csv", file=sys.stderr)
        return 2
    csv_stream = None
    try:
        if args.sink == "csv":
            if not args.csv_out:
                print("crowd: --sink csv needs --csv-out FILE",
                      file=sys.stderr)
                return 2
            csv_stream = open(args.csv_out, "w", encoding="utf-8",
                              newline="")
        try:
            result = simulate(
                population=population,
                sink=args.sink,
                batch=DEFAULT_BATCH if args.batch is None else args.batch,
                shard_users=args.shard_users,
                csv_stream=csv_stream,
            )
        except ConfigurationError as exc:
            print(f"crowd: {exc}", file=sys.stderr)
            return 2
    finally:
        if csv_stream is not None:
            csv_stream.close()

    if args.metrics_out:
        from repro.obs.manifest import write_manifests

        write_manifests(result.manifests, args.metrics_out)
        print(f"[shard manifests: {args.metrics_out}]", file=sys.stderr)

    sketch = result.sketch
    if args.json:
        document = {
            "users": result.users,
            "runs": result.total_runs,
            "wall_s": round(result.wall_s, 3),
            "users_per_sec": round(result.users_per_sec, 1),
            "shards": len(result.manifests),
            "sink": result.sink_kind,
        }
        if sketch is not None:
            document.update({
                "lte_win_fraction_downlink":
                    sketch.lte_win_fraction_downlink(),
                "lte_win_fraction_uplink": sketch.lte_win_fraction_uplink(),
                "lte_win_fraction_combined":
                    sketch.lte_win_fraction_combined(),
                "lte_rtt_win_fraction": sketch.lte_rtt_win_fraction(),
                "downlink_diff_quartiles_mbps": [
                    sketch.quantile("down_diff", q)
                    for q in (0.25, 0.5, 0.75)
                ],
            })
        if result.sink_kind == "csv":
            document["csv_rows"] = result.value
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    print(result.summary())
    if result.sink_kind == "csv":
        print(f"csv: {result.value:,} rows -> {args.csv_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``): send what is left to
        # devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crowd",
        description="Simulate Cell vs WiFi measurement runs — one "
                    "app run, or a crowd-scale population (--users).",
    )
    parser.add_argument("--site", default="US (Boston, MA)",
                        help="Table-1 site name (substring match)")
    parser.add_argument("--runs", type=int, default=1,
                        help="number of measurement runs to perform")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--list-sites", action="store_true")
    scale = parser.add_argument_group(
        "crowd scale", "simulate a whole population instead of one site"
    )
    scale.add_argument("--users", type=int, default=None,
                       help="population size; switches to the sharded "
                            "crowd-scale pipeline")
    scale.add_argument("--batch", type=int, default=None,
                       help="sampling batch size inside each worker "
                            "(default 8192; never changes results)")
    scale.add_argument("--shard-users", type=int, default=None,
                       help="users per shard (default: sized from "
                            "--workers; never changes results)")
    scale.add_argument("--sink", choices=SINK_KINDS, default="sketch",
                       help="what to keep: streaming sketches (default, "
                            "O(1) memory) or csv rows")
    scale.add_argument("--csv-out", metavar="FILE", default=None,
                       help="output file for --sink csv")
    env.add_flags(scale, *_SCALE_FLAGS)
    scale.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the per-shard run manifests as JSON "
                            "(render with: python -m repro.obs "
                            "summarize FILE)")
    scale.add_argument("--json", action="store_true",
                       help="machine-readable summary on stdout")
    args = parser.parse_args(argv)

    if args.users is not None:
        with env.exported("crowd", args, *_SCALE_FLAGS):
            return _scale_main(args)

    if args.list_sites:
        for site in TABLE1_SITES:
            print(f"{site.name:28s} ({site.lat:6.1f}, {site.lon:7.1f})  "
                  f"{site.runs:4d} runs, LTE wins "
                  f"{100 * site.lte_win_fraction:.0f}%")
        return 0

    site = _find_site(args.site)
    if site is None:
        print(f"unknown site {args.site!r}; use --list-sites", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2

    population = PopulationSpec(users=args.runs, seed=args.seed,
                                site_names=(site.name,), site_weights=(1.0,))
    sampler = CrowdSampler(CrowdWorld(seed=args.seed), population)
    print(f"Measuring at {site.name} "
          f"({site.lat:.1f}, {site.lon:.1f})...\n")
    for index, run in enumerate(
        sampler.sample_batch(0, args.runs).to_measurement_runs()
    ):
        print(f"run {index + 1}:")
        if run.measured_wifi:
            print(f"  WiFi:     {run.wifi_down_mbps:6.2f} down / "
                  f"{run.wifi_up_mbps:5.2f} up Mbit/s, "
                  f"ping {run.wifi_rtt_ms:5.1f} ms")
        else:
            print("  WiFi:     unavailable (association failed)")
        if run.measured_cell:
            print(f"  {run.cellular_technology or 'cell':8s}: "
                  f"{run.cell_down_mbps:6.2f} down / "
                  f"{run.cell_up_mbps:5.2f} up Mbit/s, "
                  f"ping {run.cell_rtt_ms:5.1f} ms")
        else:
            print("  Cellular: unavailable (data disabled)")

        if run.complete:
            verdict = ("USE CELLULAR" if run.lte_wins_downlink
                       else "USE WIFI")
            print(f"  -> {verdict}")
        else:
            print("  -> (no comparison possible this run)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
