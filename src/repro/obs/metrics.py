"""Metrics registry: counters, gauges, and histograms for a run.

Where the trace (:mod:`repro.obs.trace`) answers "what happened and
when", metrics answer "how much, in total".  A
:class:`MetricsRegistry` holds labeled instruments and snapshots them
into a flat ``{name{label=value,...}: number}`` dict — the shape that
rides on :class:`~repro.workload.report.TransferReport.metrics` and
that `python -m repro.obs summarize` reconciles traces against.

The registry is populated *after* a run from counters the simulator
already keeps (``SenderStats``, ``QueueStats``, link totals), so it
adds nothing to the simulation hot path.
"""

import math
import sys
import time
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTimer",
    "collect_transfer_metrics",
]

Labels = Tuple[Tuple[str, str], ...]
#: One flat series: ``(kind, name, labels, value)``.
Sample = Tuple[str, str, Labels, float]


def _labels_key(labels: Dict[str, str]) -> Labels:
    return tuple(sorted(labels.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return "{" + inner + "}"


@lru_cache(maxsize=None)
def _series_keys(names: str, rendered: str) -> Tuple[str, ...]:
    """``name + rendered`` per space-separated name, interned (DESIGN §8)."""
    return tuple(sys.intern(name + rendered) for name in names.split())


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter increment negative: {amount}")
        self.value += amount


class Gauge:
    """A value that can move in either direction (e.g. queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Summary statistics over observed samples (count/sum/min/max)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class SpanTimer:
    """Context manager timing one span into a callback.

    Obtained from :meth:`MetricsRegistry.timer`; the elapsed
    wall-clock seconds are observed into the named histogram on exit.
    Exceptions propagate (the span is still recorded).
    """

    __slots__ = ("_on_done", "_started")

    def __init__(self, on_done: Callable[[float], None]) -> None:
        self._on_done = on_done
        self._started = 0.0

    def __enter__(self) -> "SpanTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._on_done(time.perf_counter() - self._started)


class MetricsRegistry:
    """Labeled get-or-create store of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def timer(self, name: str, **labels: str) -> SpanTimer:
        """A span timer observing into ``<name>_s`` on exit.

        Usage::

            with registry.timer("coordinator.dispatch"):
                ...  # the span

        The elapsed seconds land in the histogram ``<name>_s`` (count,
        sum, min, max in :meth:`snapshot`), which is all an overhead
        profile needs — no per-span allocation survives the call.
        """
        histogram = self.histogram(f"{name}_s", **labels)
        return SpanTimer(histogram.observe)

    def iter_samples(self) -> Iterator[Sample]:
        """Flat ``(kind, series_name, labels, value)`` samples.

        Histograms expand to ``_count``/``_sum``/``_min``/``_max``.
        The exposition renderer (:mod:`repro.obs.telemetry`) consumes
        this instead of re-parsing rendered label strings.
        """
        for (name, labels), counter in self._counters.items():
            yield "counter", name, labels, counter.value
        for (name, labels), gauge in self._gauges.items():
            yield "gauge", name, labels, gauge.value
        for (name, labels), histogram in self._histograms.items():
            yield "counter", f"{name}_count", labels, float(histogram.count)
            yield "counter", f"{name}_sum", labels, histogram.total
            if histogram.count:
                yield "gauge", f"{name}_min", labels, histogram.minimum
                yield "gauge", f"{name}_max", labels, histogram.maximum

    def snapshot(self) -> Dict[str, float]:
        """Flatten every instrument into ``{name{labels}: value}``.

        The :meth:`iter_samples` expansion, keyed by rendered name.  The
        result is plain floats, picklable, and stable under
        dict-comparison — it is what lands on ``TransferReport.metrics``.
        """
        return dict(sorted(
            (name + _render_labels(labels), value)
            for _, name, labels, value in self.iter_samples()
        ))


def subflow_series(rows: Iterable[tuple]) -> Dict[str, float]:
    """The per-subflow and per-path handshake series of a snapshot.

    ``rows`` are ``(path, subflow_id, segments_sent, bytes_sent,
    retransmits, fast_retransmits, timeouts, handshake_rtt)``, the last
    ``None`` for a subflow that never established.  Both engines fill
    their report's metrics through here, so the key format is written
    once; the result is unsorted (callers add their own series, then
    sort).
    """
    # Runs after every transfer, so the flat dict is filled directly:
    # one shared key tuple per subflow, where a MetricsRegistry would
    # build a labels dict, a sorted key and two renderings per series.
    # The result is part of every report digest and must equal the
    # registry's snapshot in keys and value types (counters float,
    # gauges as set); tests/obs keeps that registry-built reference.
    out: Dict[str, float] = {}
    handshakes: Dict[str, List[float]] = {}
    for (path, subflow_id, segments_sent, bytes_sent, retransmits,
         fast_retransmits, timeouts, handshake_rtt) in rows:
        segments, sent, retx, fast, rto = _series_keys(
            "segments_sent bytes_sent retransmits fast_retransmits timeouts",
            f"{{path={path},subflow={subflow_id}}}")
        out[segments] = float(segments_sent)
        out[sent] = float(bytes_sent)
        out[retx] = float(retransmits)
        out[fast] = float(fast_retransmits)
        out[rto] = float(timeouts)
        if handshake_rtt is not None:
            handshakes.setdefault(path, []).append(handshake_rtt)
    # One histogram per path: subflows sharing a path share it.
    for name, samples in handshakes.items():
        count, sum_key, min_key, max_key = _series_keys(
            "handshake_rtt_s_count handshake_rtt_s_sum handshake_rtt_s_min "
            "handshake_rtt_s_max", f"{{path={name}}}")
        total = 0.0
        for sample in samples:  # not sum(): 3.12+ compensates, 3.11 does not
            total += sample
        out[count] = float(len(samples))
        out[sum_key] = total
        out[min_key] = min(samples)
        out[max_key] = max(samples)
    return out


def collect_transfer_metrics(connection, paths: Iterable) -> Dict[str, float]:
    """Aggregate one finished transfer into a flat metrics snapshot.

    ``connection`` is any :class:`~repro.tcp.connection.ConnectionBase`;
    ``paths`` the :class:`~repro.net.path.Path` objects it ran over.
    Pulls from counters the stack already maintains (``SenderStats``,
    ``QueueStats``, link delivery totals) — a pure read, safe to call
    on live or completed connections.
    """
    rows = []
    for subflow in connection.subflows:
        stats = subflow.sender.stats
        rows.append((
            subflow.name, subflow.subflow_id, stats.segments_sent,
            stats.bytes_sent, stats.retransmits, stats.fast_retransmits,
            stats.timeouts, subflow.handshake_rtt,
        ))
    out = subflow_series(rows)
    for path in paths:
        for direction, link in (("up", path.uplink), ("down", path.downlink)):
            drops, packets, depth, delivered, channel = _series_keys(
                "queue_drops queue_max_depth_packets queue_max_depth_bytes "
                "link_delivered_bytes link_channel_drops",
                f"{{dir={direction},path={path.name}}}")
            out[drops] = float(link.queue.stats.dropped)
            out[packets] = link.queue.stats.max_depth_packets
            out[depth] = link.queue.stats.max_depth_bytes
            out[delivered] = float(link.delivered_bytes)
            out[channel] = float(link.channel_drops)
    return dict(sorted(out.items()))


def metrics_for_subflow(
    metrics: Dict[str, float], path: str, subflow_id: int
) -> Dict[str, float]:
    """Extract one subflow's series from a flat snapshot (label-matched)."""
    needle = _render_labels(
        _labels_key({"path": path, "subflow": str(subflow_id)})
    )
    out: Dict[str, float] = {}
    for key, value in metrics.items():
        if key.endswith(needle):
            out[key[: -len(needle)]] = value
    return out


def subflow_label_pairs(
    metrics: Dict[str, float],
) -> List[Tuple[str, int]]:
    """The (path, subflow_id) pairs present in a snapshot."""
    pairs = set()
    for key in metrics:
        if "{" not in key:
            continue
        name, _, rendered = key.partition("{")
        rendered = rendered.rstrip("}")
        labels = dict(
            part.split("=", 1) for part in rendered.split(",") if "=" in part
        )
        if "path" in labels and "subflow" in labels:
            pairs.add((labels["path"], int(labels["subflow"])))
    return sorted(pairs)


def reconcile(
    metrics: Dict[str, float],
    summary_counts: Dict[Tuple[str, int], Dict[str, float]],
    fields: Optional[Iterable[str]] = None,
) -> List[str]:
    """Compare a trace summary against a report's metrics snapshot.

    Returns human-readable mismatch descriptions (empty = reconciled).
    ``summary_counts`` maps (path, subflow_id) to per-field counts as
    produced by :func:`repro.obs.summary.summarize_events`.
    """
    checked = tuple(
        fields
        if fields is not None
        else ("segments_sent", "bytes_sent", "retransmits",
              "fast_retransmits", "timeouts")
    )
    problems: List[str] = []
    for (path, subflow_id), counts in sorted(summary_counts.items()):
        observed = metrics_for_subflow(metrics, path, subflow_id)
        for field in checked:
            want = observed.get(field)
            got = counts.get(field)
            if want is None or got is None:
                continue
            if want != got:
                problems.append(
                    f"{path}/{subflow_id} {field}: trace={got} "
                    f"metrics={want}"
                )
    return problems
