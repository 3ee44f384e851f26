"""The canonical plain-data outcome of one executed transfer.

:class:`~repro.scenario.TransferResult` holds a live connection object
(callbacks, event-loop references) and cannot cross a process
boundary.  :class:`TransferReport` is the single picklable snapshot
type: the :class:`~repro.workload.session.Session` returns it, sweep
workers ship it back over pipes, and the result cache stores it.

Every derived metric delegates to the shared helpers in
:mod:`repro.analysis.throughput`, so the live connection, the report,
and the figures all compute durations and flow-size throughputs the
same way.
"""

import sys
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.analysis import throughput as metrics
from repro.analysis.throughput import DeliveryLog
from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scenario import TransferResult

__all__ = ["TransferReport"]


def _log_from_rows(name: str, rows: Any) -> DeliveryLog:
    """JSON ``[[time, bytes], ...]`` rows as columns, or a typed error."""
    log = DeliveryLog()
    index = -1
    try:
        for index, (t, n) in enumerate(rows):
            if not isfinite(t):
                raise ValueError(f"time {t!r} is not finite")
            log.times.append(t)
            log.cums.append(n)
    except (TypeError, ValueError, OverflowError) as exc:
        where = f"{name}[{index}]" if index >= 0 else name
        raise ConfigurationError(
            f"{where}: not a [time, bytes] row ({exc})") from exc
    return log


def _metrics_from(snapshot: Any) -> Dict[str, float]:
    """A decoded snapshot keyed by the interned label strings the
    builders share (DESIGN §8), or a typed error."""
    out: Dict[str, float] = {}
    for key, value in snapshot.items():
        if type(key) is not str or type(value) not in (int, float):
            raise ConfigurationError(
                f"metrics[{key!r}]: not a name and a number ({value!r})")
        out[sys.intern(key)] = value
    return out


@dataclass
class TransferReport:
    """Plain-data outcome of one bulk transfer (picklable/cacheable)."""

    total_bytes: int
    started_at: Optional[float]
    completed_at: Optional[float]
    delivery_log: DeliveryLog = field(default_factory=DeliveryLog)
    subflow_delivery_logs: Dict[str, DeliveryLog] = field(
        default_factory=dict
    )
    retransmits: int = 0
    timeouts: int = 0
    label: Optional[str] = None
    #: Flat observability snapshot (see
    #: :func:`repro.obs.metrics.collect_transfer_metrics`): per-subflow
    #: send/retransmit counters, queue drops and depths, handshake
    #: latency — keyed ``name{label=value,...}`` by interned strings that
    #: every report shares (DESIGN §8), so treat the dict as read-only.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Fault edges that fired during the transfer, chronological (see
    #: :meth:`repro.faults.injector.AppliedFault.to_dict`); empty when
    #: the spec carried no fault schedule.
    faults: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def duration_s(self) -> Optional[float]:
        return metrics.transfer_duration_s(self.started_at, self.completed_at)

    @property
    def throughput_mbps(self) -> Optional[float]:
        return metrics.mean_throughput_mbps(
            self.total_bytes, self.started_at, self.completed_at
        )

    def time_to_bytes(self, nbytes: int) -> Optional[float]:
        """Seconds from start until ``nbytes`` were delivered in order."""
        return metrics.time_to_bytes(self.delivery_log, self.started_at, nbytes)

    def throughput_at_bytes(self, nbytes: int) -> Optional[float]:
        """Average throughput (Mbit/s) over the first ``nbytes``."""
        return metrics.throughput_at_bytes(
            self.delivery_log, self.started_at, nbytes
        )

    # -- wire/JSON forms ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serialisable form (round-trips via :meth:`from_dict`).

        This is the service wire format: ``python -m repro.parallel
        submit/serve`` stream reports as JSON, which — unlike pickle —
        is safe to ingest from a half-trusted peer and stable across
        interpreter versions.  A delivery log becomes a list of
        ``[time, bytes]`` rows.
        """
        return {
            "total_bytes": self.total_bytes,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "delivery_log": [[t, n] for t, n in self.delivery_log],
            "subflow_delivery_logs": {
                name: [[t, n] for t, n in log]
                for name, log in self.subflow_delivery_logs.items()
            },
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "label": self.label,
            "metrics": dict(self.metrics),
            "faults": list(self.faults),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransferReport":
        """Decode :meth:`to_dict`'s form, or :class:`ConfigurationError`."""
        try:
            return cls(
                total_bytes=int(data["total_bytes"]),
                started_at=data.get("started_at"),
                completed_at=data.get("completed_at"),
                delivery_log=_log_from_rows(
                    "delivery_log", data.get("delivery_log", [])),
                subflow_delivery_logs={
                    str(name): _log_from_rows(
                        f"subflow_delivery_logs[{name!r}]", log)
                    for name, log in data.get("subflow_delivery_logs",
                                              {}).items()
                },
                retransmits=int(data.get("retransmits", 0)),
                timeouts=int(data.get("timeouts", 0)),
                label=data.get("label"),
                metrics=_metrics_from(data.get("metrics", {})),
                faults=list(data.get("faults", [])),
            )
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise ConfigurationError(
                f"TransferReport: malformed field ({exc!r})") from exc

    def summary_dict(self) -> Dict[str, Any]:
        """The compact per-result line a streaming client sees first."""
        return {
            "label": self.label,
            "completed": self.completed,
            "total_bytes": self.total_bytes,
            "duration_s": self.duration_s,
            "throughput_mbps": self.throughput_mbps,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
        }

    @classmethod
    def from_result(
        cls,
        result: "TransferResult",
        label: Optional[str] = None,
        metrics_snapshot: Optional[Dict[str, float]] = None,
        faults: Optional[List[Dict[str, Any]]] = None,
    ) -> "TransferReport":
        """Snapshot a live :class:`~repro.scenario.TransferResult`."""
        connection = result.connection
        subflow_logs = {
            name: log.copy()
            for name, log in getattr(
                connection, "subflow_delivery_logs", {}
            ).items()
        }
        stats = connection.stats()
        return cls(
            total_bytes=result.total_bytes,
            started_at=result.started_at,
            completed_at=result.completed_at,
            delivery_log=result.delivery_log,
            subflow_delivery_logs=subflow_logs,
            retransmits=stats.retransmits,
            timeouts=stats.timeouts,
            label=label,
            metrics=metrics_snapshot if metrics_snapshot is not None else {},
            faults=list(faults) if faults is not None else [],
        )
