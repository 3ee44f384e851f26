"""Per-layer numbers taken from outside the program.

Two instruments, both living in the benchmark's own files (nothing
under ``src/`` knows about them):

* :class:`SpanRecorder` wraps the public seam of each layer —
  ``Session.open``, ``Scenario.run_transfer``, ``run_flow_spec``,
  ``ResultCache.get`` ... — with a span (name, start, end, parent, one
  id per transfer/shard), kept in memory until the run ends.  A seam
  that a later change renames is skipped and reported, never fatal:
  the benchmark must keep running on commits it has not seen.
* :func:`attribute_profile` folds a ``cProfile`` pass into one
  ``self_s``/``calls`` pair per layer, where a layer is one of this
  repository's modules (:data:`LAYERS`).

Spans cover the coordinator process only; pool and fleet workers are
seen through the leg that waits for them.
"""

import functools
import importlib
import inspect
import os
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "SEAMS",
    "SpanRecorder",
    "attribute_profile",
    "layer_of",
]

#: The layers of the ledger, named after this repository's modules.
#: ``tcp.cc`` is a package; ``other`` is every repro module not listed
#: (the trace file breaks it down); ``stdlib`` is everything outside
#: the ``repro`` package, builtins included.
LAYERS: Tuple[str, ...] = (
    "core.events", "core.intervals", "core.packet", "core.rng",
    "net.link", "net.queue", "net.path",
    "tcp.sender", "tcp.subflow", "tcp.receiver", "tcp.cc",
    "mptcp.connection", "mptcp.scheduler",
    "scenario",
    "workload.session", "workload.spec", "workload.report",
    "flow.engine", "flow.model",
    "crowd.world", "crowd.sampling", "crowd.aggregate", "crowd.tcpmodel",
    "analysis.sketch",
    "parallel.coordinator", "parallel.executors", "parallel.cache",
    "parallel.socketexec", "parallel.wire",
    "obs.metrics", "obs.trace", "obs.telemetry",
    "other", "stdlib",
)

#: (span name, module, owner class or None, attribute, starts a unit).
#: A span that starts a unit opens a new transfer/shard id; every span
#: beneath it carries that id.
SEAMS: Tuple[Tuple[str, str, Optional[str], str, bool], ...] = (
    ("parallel.sweep.run", "repro.parallel.runner", "SweepRunner", "run",
     False),
    ("workload.session.open", "repro.workload.session", "Session", "open",
     True),
    ("scenario.run_transfer", "repro.scenario", "Scenario", "run_transfer",
     False),
    ("workload.report.build", "repro.workload.report", "TransferReport",
     "from_result", False),
    ("flow.engine.run_flow_spec", "repro.flow.engine", None,
     "run_flow_spec", True),
    ("crowd.world.build", "repro.crowd.world", "CrowdWorld",
     "from_profile_dict", False),
    ("crowd.sampling.batches", "repro.crowd.sampling", "CrowdSampler",
     "sample_batch", True),
    ("crowd.aggregate.consume", "repro.crowd.aggregate", "SketchSink",
     "consume", False),
    ("crowd.aggregate.absorb", "repro.crowd.aggregate", "SketchSink",
     "absorb", False),
    ("parallel.cache.get", "repro.parallel.cache", "ResultCache", "get",
     False),
    ("parallel.cache.put", "repro.parallel.cache", "ResultCache", "put",
     False),
    ("parallel.supervisor.up", "repro.parallel.supervisor",
     "FleetSupervisor", "up", False),
)


class SpanRecorder:
    """In-memory spans around the layers' public seams."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, unit id]`` per span.
        self.spans: List[List[Any]] = []
        self.enabled = False
        #: Seams that could not be wrapped on this commit.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._unit = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str, starts_unit: bool = False) -> int:
        if starts_unit:
            self._unit += 1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._unit])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping -------------------------------------------------------
    def install(self) -> None:
        for name, module_path, owner_name, attr, starts_unit in SEAMS:
            try:
                owner = importlib.import_module(module_path)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name, starts_unit))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw: Any, name: str, starts_unit: bool) -> Any:
        recorder = self
        function = raw.__func__ if isinstance(
            raw, (classmethod, staticmethod)) else raw

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            index = recorder.begin(name, starts_unit)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.end(index)

        if isinstance(raw, classmethod):
            return classmethod(wrapper)
        if isinstance(raw, staticmethod):
            return staticmethod(wrapper)
        return wrapper

    # -- reading --------------------------------------------------------
    def self_seconds(self, first: int = 0) -> Dict[str, float]:
        """Self time per span name: duration minus what children cover."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_s[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if index < first or end is None:
                continue
            totals[name] = totals.get(name, 0.0) + (
                (end - start) - child_s[index]
            )
        return totals

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "id": unit}
            for name, start, end, parent, unit in self.spans
        ]


def layer_of(filename: str, package_root: str) -> str:
    """The ledger layer a profiled function's file belongs to.

    ``package_root`` is the directory of the ``repro`` package.
    """
    root = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(root):
        return "stdlib"
    parts = filename[len(root):].split(os.sep)
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts.pop()
    for depth in (2, 1):
        candidate = ".".join(parts[:depth])
        if len(parts) >= depth and candidate in LAYERS[:-2]:
            return candidate
    return "other"


def attribute_profile(profile, package_root: str) -> Tuple[
        Dict[str, Dict[str, float]], Dict[str, Dict[str, float]],
        Dict[str, int]]:
    """Fold a ``cProfile.Profile`` into layers.

    Returns ``(layers, modules, functions)``: ``self_s``/``calls`` per
    layer (every :data:`LAYERS` name present), the same per repro
    module file (for the trace file, so ``other`` can be read), and
    total call counts of named functions as ``"layer:function"``.
    """
    import pstats

    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    modules: Dict[str, Dict[str, float]] = {}
    functions: Dict[str, int] = {}
    root = package_root.rstrip(os.sep) + os.sep
    for (filename, _, function), (_, calls, self_s, _, _) in pstats.Stats(
            profile).stats.items():
        layer = layer_of(filename, package_root)
        layers[layer]["self_s"] += self_s
        layers[layer]["calls"] += calls
        if layer != "stdlib":
            module = filename[len(root):]
            entry = modules.setdefault(module, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["calls"] += calls
            key = f"{layer}:{function}"
            functions[key] = functions.get(key, 0) + calls
    return layers, modules, functions
