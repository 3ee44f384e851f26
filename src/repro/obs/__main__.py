"""CLI for trace and manifest analysis plus live fleet telemetry.

Usage::

    python -m repro.obs summarize TRACE.jsonl
    python -m repro.obs summarize NAME.manifests.json # a sweep's run record
    python -m repro.obs summarize telemetry.jsonl     # sink timeline
    python -m repro.obs diff A.manifest.json B.manifest.json
    python -m repro.obs top --connect HOST:PORT
    python -m repro.obs top telemetry.jsonl
"""

import argparse
import sys

from repro.core.errors import ReproError
from repro.obs.manifest import (
    RunManifest,
    read_manifests,
    render_diff,
    render_manifests,
)
from repro.obs.summary import render_summary, summarize_events
from repro.obs.telemetry import (
    load_telemetry_snapshots,
    render_telemetry_timeline,
)
from repro.obs.trace import load_events


def _cmd_summarize(args: argparse.Namespace) -> int:
    """A file is whichever format loads: manifests, telemetry, trace."""
    formats = (
        (read_manifests, render_manifests),
        (load_telemetry_snapshots, render_telemetry_timeline),
        (load_events, lambda events: render_summary(
            summarize_events(events), timeline_points=args.timeline_points)),
    )
    for load, render in formats:
        try:
            loaded = load(args.trace)
        except (OSError, ReproError) as exc:
            error = exc
            continue
        print(render(loaded))
        return 0
    print(
        f"summarize: cannot read {args.trace}: {error} "
        "(expected a JSONL trace, a run-manifests JSON document, "
        "or a telemetry snapshot file)",
        file=sys.stderr,
    )
    return 2


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        a = RunManifest.read(args.a)
        b = RunManifest.read(args.b)
    except (OSError, ReproError) as exc:
        print(f"diff: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    rendered = render_diff(a, b)
    print(rendered)
    return 0 if rendered == "manifests identical" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize simulator traces, diff run manifests, "
                    "and watch live fleet telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize",
        help="digest a JSONL trace, run-manifests JSON, or telemetry "
             "snapshot file",
    )
    summarize.add_argument("trace", help="path to a .jsonl trace file")
    summarize.add_argument(
        "--timeline-points", type=int, default=8,
        help="max cwnd timeline points to print per subflow",
    )
    summarize.set_defaults(fn=_cmd_summarize)

    diff = sub.add_parser(
        "diff",
        help="field-by-field diff of two run manifests "
             "(exit 1 when they differ)",
    )
    diff.add_argument("a", help="first manifest JSON file")
    diff.add_argument("b", help="second manifest JSON file")
    diff.set_defaults(fn=_cmd_diff)

    sub.add_parser(
        "top",
        help="live fleet view from a telemetry exporter or sink file "
             "(python -m repro.obs top --help)",
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `top` owns its argv (argparse.REMAINDER mis-parses a leading
    # --connect), so dispatch it before the main parser runs.
    if argv[:1] == ["top"]:
        from repro.obs.top import top_main

        return top_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
