"""Figure 17: traffic patterns of mobile apps.

Renders each synthesized app session as the paper does — one row per
flow, marks where it transfers, bucketed by rate — and verifies the
§4.2 categorization: CNN launch/click, IMDB launch, and Dropbox launch
are short-flow dominated; IMDB click (movie trailer) and Dropbox click
(PDF download) are long-flow dominated.
"""

from typing import Dict

from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import Claim, ExperimentResult, register
from repro.httpreplay.classify import FlowCategory, classify_session
from repro.httpreplay.patterns import PATTERN_BUILDERS
from repro.httpreplay.session import AppSession

__all__ = ["run", "render_pattern"]

EXPECTED_CATEGORY = {
    "cnn_launch": FlowCategory.SHORT_FLOW_DOMINATED,
    "cnn_click": FlowCategory.SHORT_FLOW_DOMINATED,
    "imdb_launch": FlowCategory.SHORT_FLOW_DOMINATED,
    "imdb_click": FlowCategory.LONG_FLOW_DOMINATED,
    "dropbox_launch": FlowCategory.SHORT_FLOW_DOMINATED,
    "dropbox_click": FlowCategory.LONG_FLOW_DOMINATED,
}


def render_pattern(session: AppSession, width: int = 60,
                   horizon_s: float = 45.0, rate_mbps: float = 4.0) -> str:
    """ASCII raster: one row per connection, rate-bucket glyphs.

    Transfer times are estimated at a nominal link rate; the paper's
    version plots the recorded timings, ours the recorded structure.
    """
    glyphs = [(1e6, "#"), (5e5, "+"), (1e5, "o"), (1e4, "."), (0, "'")]
    lines = [f"{session.name}: {session.connection_count} connections, "
             f"{session.total_bytes / 1024:.0f} KB"]
    for connection in session.connections:
        row = [" "] * width
        cursor = connection.open_offset_s
        for transaction in connection.transactions:
            cursor += transaction.client_think_s + transaction.server_think_s
            duration = transaction.response.body_bytes * 8 / (rate_mbps * 1e6)
            rate = (
                transaction.response.body_bytes * 8 / max(duration, 0.05)
            )
            glyph = next(g for threshold, g in glyphs if rate >= threshold)
            start = int(cursor / horizon_s * (width - 1))
            end = int(min(cursor + duration, horizon_s) / horizon_s * (width - 1))
            for col in range(start, max(start, end) + 1):
                if 0 <= col < width:
                    row[col] = glyph
            cursor += duration
        lines.append(f"  {connection.connection_id:3d} |{''.join(row)}|")
    return "\n".join(lines)


@register("fig17")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    sessions: Dict[str, AppSession] = {
        name: builder(seed) for name, builder in PATTERN_BUILDERS.items()
    }
    parts = []
    metrics: Dict[str, float] = {}
    correct = 0
    for name, session in sessions.items():
        category = classify_session(session)
        parts.append(
            render_pattern(session)
            + f"\n  -> classified: {category.value}"
        )
        if category == EXPECTED_CATEGORY[name]:
            correct += 1
        metrics[f"connections[{name}]"] = float(session.connection_count)
    metrics["correctly_categorized"] = float(correct)
    claims = [
        Claim.within("correctly_categorized", float(len(EXPECTED_CATEGORY))),
        Claim.within("connections[imdb_click]", 30.0),
        Claim.within("connections[dropbox_click]", 12.0),
    ]
    return ExperimentResult(
        experiment_id="fig17",
        title="Mobile app traffic patterns (short-flow vs long-flow)",
        body="\n\n".join(parts),
        metrics=metrics,
        claims=claims,
    )
