"""Run manifests: provenance for every sweep task and rendered figure.

A :class:`RunManifest` records where a result came from — the spec
hash that addresses it, the derived seed, whether it was replayed from
the cache, how long it took and in which worker process — so a figure
built from thousands of cached and freshly-executed tasks stays
attributable.  ``python -m repro.obs diff`` compares two manifests
(e.g. the same task across two checkouts) field by field.

The manifest list is the one run record of a sweep: every report on it
(``SweepStats``, the crowd per-shard table, ``python -m repro.obs
summarize FILE.manifests.json``) is a reduction of that list, and the
live views (the progress line, the telemetry bus) read
:class:`SweepTally`, the same reduction kept one resolution at a time.
"""

import json
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.core.errors import ConfigurationError, json_field, json_object, require

__all__ = ["RunManifest", "diff_manifests", "render_diff"]


@dataclass(slots=True)
class RunManifest:
    """Provenance record for one executed (or cache-replayed) task.

    ``spec_hash`` may be passed as a zero-argument callable instead of
    the string: the first read calls it and stores the result, so a
    sweep whose manifests nobody reads never hashes its tasks.  Every
    reader (the attribute, ``to_dict``/``to_json``, ``==``, pickling)
    sees the same string either way.
    """

    key: str                    # the task's sweep key (human-oriented)
    spec_hash: str              # content hash of fn + canonical kwargs
    seed: Optional[int]         # seed the task actually ran with
    cache_hit: bool             # replayed from the result cache?
    wall_time_s: float          # execution wall time (0.0 on cache hit)
    worker_pid: int             # OS pid of the executing process
    workers: int                # sweep-level worker count
    package_version: str        # repro.__version__ at run time
    code_fingerprint: str = ""  # cache fingerprint, "" when cache off
    resolved_s: float = 0.0     # sweep start -> this task resolved
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        require(isinstance(data, dict), "manifest",
                f"expected a JSON object, got {type(data).__name__}")

        def get(name, convert, *default):
            return json_field(data, name, convert, "manifest", *default)

        return cls(
            key=get("key", str),
            spec_hash=get("spec_hash", str),
            seed=data.get("seed"),
            cache_hit=get("cache_hit", bool),
            wall_time_s=get("wall_time_s", float),
            worker_pid=get("worker_pid", int),
            workers=get("workers", int),
            package_version=get("package_version", str),
            code_fingerprint=get("code_fingerprint", str, ""),
            resolved_s=get("resolved_s", float, 0.0),
            extra=get("extra", dict, {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json_object(text, "manifest"))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return cls.from_json(handle.read())


def _resolved_on_read(slot):
    """``slot`` as a property that replaces a stored callable by its
    result on first read."""
    def read(manifest: RunManifest) -> Any:
        value = slot.__get__(manifest, RunManifest)
        if callable(value):
            value = value()
            slot.__set__(manifest, value)
        return value
    return property(read, slot.__set__)


RunManifest.spec_hash = _resolved_on_read(RunManifest.spec_hash)


def write_manifests(manifests: List[RunManifest], path: str) -> None:
    """Write a list of manifests as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([m.to_dict() for m in manifests], handle,
                  sort_keys=True, indent=2)
        handle.write("\n")


def read_manifests(path: str) -> List[RunManifest]:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ConfigurationError(f"{path} holds no manifests")
    return [RunManifest.from_dict(item) for item in data]


def tally(manifests: Sequence[RunManifest]) -> Dict[str, int]:
    """Task counts of one sweep, keyed like ``SweepStats`` fields."""
    hits = sum(1 for m in manifests if m.cache_hit)
    return {
        "tasks": len(manifests),
        "cache_hits": hits,
        "executed": len(manifests) - hits,
        "retried": sum(1 for m in manifests if m.extra.get("retried")),
        "failed": sum(1 for m in manifests if m.extra.get("failed")),
    }


class SweepTally:
    """:func:`tally` kept while sweeps run, for the live views.

    Fed one resolution at a time — the manifest ``SweepRunner._emit``
    has just written, or the ``cached`` flag of a ``result`` event
    streamed to ``submit --connect`` — and read by the progress line
    and the telemetry bus, so neither keeps a count of its own.
    ``total`` is ``None`` for a streamed job (never begun).  Thread-safe:
    the bus's tally is fed by every runner in the process.
    """

    #: Resolutions the rate is measured over.
    WINDOW = 240

    def __init__(self, total: Optional[int] = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.total, self._clock, self._lock = total, clock, threading.Lock()
        self.runs = self.done = self.cache_hits = self.failed = self.degraded = 0
        self._times: Deque[float] = deque(maxlen=self.WINDOW)
        # ETA reference: the busy spell's start, tasks executed before it.
        self._since, self._executed_before = clock(), 0

    def begin(self, tasks: int) -> None:
        """A sweep of ``tasks`` starts; an idle tally restarts its ETA."""
        with self._lock:
            if self.done >= self.total:
                self._since = self._clock()
                self._executed_before = self.done - self.cache_hits
            self.runs += 1
            self.total += tasks

    def settle(self, unresolved: int) -> None:
        """A sweep ended (or raised) with ``unresolved`` tasks unresolved."""
        with self._lock:
            self.total -= unresolved

    def add(self, cache_hit: bool, failed: bool = False) -> None:
        """One task resolved."""
        with self._lock:
            self.done += 1
            self.cache_hits += cache_hit
            self.failed += failed
            self._times.append(self._clock())

    def note_degraded(self) -> None:
        """A sweep lost its fleet and moved to the local pool."""
        with self._lock:
            self.degraded += 1

    def read(self) -> Dict[str, Any]:
        """The counts, rate and ETA at one instant.

        ``rate_per_s``: resolutions per second over the last
        :data:`WINDOW` (0.0 until two span some time).  ``eta_s``: the
        busy spell's seconds per *executed* task times those remaining
        (a cache hit is not work), ``None`` if either count is zero.
        """
        with self._lock:
            now = self._clock()
            times = self._times
            span = times[-1] - times[0] if len(times) > 1 else 0.0
            remaining = None if self.total is None else self.total - self.done
            executed = self.done - self.cache_hits
            spell = executed - self._executed_before
            eta = ((now - self._since) / spell * remaining
                   if remaining and remaining > 0 and spell > 0 else None)
            return {
                "runs": self.runs, "total": self.total, "done": self.done,
                "cache_hits": self.cache_hits, "failed": self.failed,
                "executed": executed, "degraded": self.degraded,
                "remaining": remaining, "eta_s": eta,
                "rate_per_s": (len(times) - 1) / span if span > 0 else 0.0,
            }


def outstanding(manifests: Sequence[RunManifest]) -> List[int]:
    """Per task: how many tasks were still unresolved when it resolved."""
    order = sorted(m.resolved_s for m in manifests)
    return [len(order) - bisect_right(order, m.resolved_s)
            for m in manifests]


def render_manifests(manifests: Sequence[RunManifest]) -> str:
    """Human-readable sweep digest for ``obs summarize``."""
    walls = [m.wall_time_s for m in manifests if not m.cache_hit] or [0.0]
    queue = outstanding(manifests)
    elapsed = max(m.resolved_s for m in manifests)
    with_units = any("units" in m.extra for m in manifests)
    lines = [
        "manifests: " + "   ".join(
            f"{name} {count}" for name, count in tally(manifests).items()),
        f"  compute: {sum(walls):.2f}s in {elapsed:.2f}s elapsed   "
        f"executed wall p50/p95: {percentile(walls, 50):.2f}s / "
        f"{percentile(walls, 95):.2f}s   max outstanding: {max(queue)}",
    ]
    header = f"  {'task':>5}  {'wall_s':>8}  {'done_s':>8}  {'queue':>5}  cached"
    if with_units:
        header += f"  {'units':>9}  {'units/s':>9}"
    lines += ["", header + "  key"]
    for index, (m, depth) in enumerate(zip(manifests, queue)):
        row = (f"  {index:>5}  {m.wall_time_s:>8.3f}  {m.resolved_s:>8.3f}  "
               f"{depth:>5}  {'yes' if m.cache_hit else 'no':>6}")
        if with_units:
            units = m.extra.get("units", 0)
            rate = units / m.wall_time_s if m.wall_time_s > 0 else 0.0
            row += f"  {units:>9}  {rate:>9,.0f}"
        # Whatever else was stamped: attempts/retried/failed/error/...
        notes = [f"{name}={value}" for name, value in sorted(m.extra.items())
                 if name != "units"]
        lines.append("  ".join([row, m.key] + notes))
    return "\n".join(lines)


def diff_manifests(
    a: RunManifest, b: RunManifest
) -> Dict[str, Tuple[Any, Any]]:
    """Fields whose values differ between two manifests."""
    da, db = a.to_dict(), b.to_dict()
    return {
        name: (da[name], db[name])
        for name in da
        if da[name] != db[name]
    }


def render_diff(a: RunManifest, b: RunManifest) -> str:
    """Human-readable two-column diff of two manifests."""
    delta = diff_manifests(a, b)
    if not delta:
        return "manifests identical"
    width = max(len(name) for name in delta)
    lines = [f"{len(delta)} field(s) differ:"]
    for name, (left, right) in sorted(delta.items()):
        lines.append(f"  {name:<{width}}  {left!r}  ->  {right!r}")
    return "\n".join(lines)
