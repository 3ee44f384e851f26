"""The ledger's order statistics, and timing that survives a noisy box.

The reference box is a 2-vCPU VM that only ever *adds* time: it slows
down by 1.3-1.9x in bursts of 0.1 s to several seconds, and for
minutes on end runs everything 10-30 % slow (a fixed pure-Python loop
reads 13 ms, then 19 ms; 64 back-to-back ``packet_bulk`` passes took
2.26-4.25 s, all of it user CPU time, no steal reported).  A burst
that touches a 2.5 s pass spoils the whole pass, and in a slow phase
most passes are spoilt, so the median of the five passes that fit in a
run moved by 10-19 % (quartile distance) between runs of the same
code.

The remedy is to look closer, not to correct the clock: a pass is cut
into *slices* at the moments its results are delivered
(:func:`cut_slices`), each slice is timed in every pass, and the pass
is priced as the sum over slices of the slice's **first quartile**
over passes (:func:`price_slices`): what the slice costs when the box
leaves it alone, seen at least twice.  A burst spoils only the slices
it covers, and a slice reads high only if the box got in the way in
all but one pass.  On ten runs of each workload this halved the
spread of ``flow_sweep``, ``crowd_stream`` and ``plane_sweep`` against
the median of whole passes (12.7 -> 5.7 %, 8.5 -> 5.6 %, 17.7 -> 9.8 %);
the slices' medians, upper quartiles and minima are kept beside it.
All numbers are plain wall-clock seconds.
"""

import statistics
from typing import Dict, List, Sequence

__all__ = ["cut_slices", "iqr_share", "price_slices", "summarize"]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min and n of ``values`` (the ledger's record).

    Quartiles are ``statistics.quantiles(values, n=4)`` — the method
    the acceptance procedure uses — and collapse to the single value
    when fewer than two samples exist.
    """
    values = list(values)
    if not values:
        raise ValueError("summarize needs at least one value")
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def iqr_share(summary: Dict[str, float]) -> float:
    """Quartile distance as a share of the median (0 when median is 0)."""
    median = summary["value"]
    if median == 0:
        return 0.0
    return abs(summary["q3"] - summary["q1"]) / abs(median)


def cut_slices(started: float, marks: Sequence[float], ended: float,
               count: int) -> List[float]:
    """Durations of up to ``count`` consecutive slices of one call.

    ``marks`` are the clock readings at which the call delivered its
    results, in order.  Slice ``k`` ends once
    ``(k + 1) * len(marks) // count`` results have been delivered, so
    the same slice covers the same inputs in every pass; the last one
    runs to the call's return.  A call without marks is one slice.
    """
    count = min(count, len(marks))
    if count < 2:
        return [ended - started]
    edges = [started]
    edges += [marks[k * len(marks) // count - 1] for k in range(1, count)]
    edges.append(ended)
    return [later - earlier for earlier, later in zip(edges, edges[1:])]


def price_slices(passes: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Price a pass from its slices: statistics per slice, then summed.

    ``passes[p][k]`` is the duration of slice ``k`` in pass ``p``.
    ``value`` (and ``q1``) is the sum of the slices' first quartiles
    over passes; ``median``, ``q3`` and ``min`` are summed the same
    way; ``n`` is the number of passes.
    """
    if not passes or len({len(slices) for slices in passes}) != 1:
        raise ValueError("price_slices needs passes of equal slice count")
    per_slice = [summarize(column) for column in zip(*passes)]
    out = {key: sum(stats[key] for stats in per_slice)
           for key in ("q1", "q3", "min")}
    out["median"] = sum(stats["value"] for stats in per_slice)
    out["value"] = out["q1"]
    out["n"] = len(passes)
    return out
