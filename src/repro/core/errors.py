"""Exception hierarchy for the repro library.

All library-specific exceptions derive from :class:`ReproError` so that
callers can catch everything from this package with a single clause
while still distinguishing configuration mistakes from runtime
simulation faults.
"""

import dataclasses
import json
from typing import Any, Callable, Dict, Mapping


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid values."""


def require(condition: bool, where: str, message: str) -> None:
    """Raise :class:`ConfigurationError` ``"where: message"`` unless true."""
    if not condition:
        raise ConfigurationError(f"{where}: {message}")


def checked_kwargs(cls, data: Mapping[str, Any], where: str) -> Dict[str, Any]:
    """``data`` as constructor kwargs, rejecting unknown fields by name."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{where}: expected a JSON object, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {unknown}")
    return dict(data)


def json_object(text: str, what: str) -> Mapping[str, Any]:
    """Parse ``text`` as one JSON object; ``what`` names it in errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}")
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{what} must hold a JSON object, got {type(data).__name__}"
        )
    return data


_REQUIRED = object()


def json_field(data: Mapping[str, Any], name: str,
               convert: Callable[[Any], Any], where: str,
               default: Any = _REQUIRED) -> Any:
    """``convert(data[name])``; ``default`` (converted) when absent.

    A missing required field, or one ``convert`` rejects with
    ``TypeError``/``ValueError``, raises :class:`ConfigurationError`
    naming ``where`` and the field.
    """
    if name not in data and default is _REQUIRED:
        raise ConfigurationError(f"{where}: missing field {name!r}")
    raw = data.get(name, default)
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{where}: field {name!r} is malformed: {raw!r}") from None


class SimulationError(ReproError):
    """The simulation reached an inconsistent or impossible state."""


class EventBudgetExceeded(SimulationError):
    """The event-loop watchdog tripped (max events or max sim time).

    Carries a diagnostic dump of the loop state at the moment the
    budget ran out — the clock, the live-event count, and the next few
    scheduled callbacks — so a runaway simulation identifies its own
    hot spinner instead of stalling CI.
    """

    def __init__(self, message: str, diagnostics: str = "") -> None:
        super().__init__(f"{message}\n{diagnostics}" if diagnostics else message)
        self.diagnostics = diagnostics


class TransferDeadlineExceeded(SimulationError):
    """A transfer missed its simulated deadline.

    Raised by :meth:`repro.scenario.Scenario.run_transfer` unless the
    caller opts into partial results (``partial_ok=True``).  Carries
    the bytes-acked progress and the partial
    :class:`~repro.scenario.TransferResult` so callers can still
    inspect how far the transfer got.
    """

    def __init__(self, deadline_s: float, bytes_acked: int,
                 total_bytes: int, result=None) -> None:
        super().__init__(
            f"transfer missed its {deadline_s:g}s deadline with "
            f"{bytes_acked}/{total_bytes} bytes acked"
        )
        self.deadline_s = deadline_s
        self.bytes_acked = bytes_acked
        self.total_bytes = total_bytes
        #: The partial :class:`~repro.scenario.TransferResult`.
        self.result = result


class SweepTaskError(ReproError):
    """One or more sweep tasks failed permanently (retry budget spent).

    Carries the per-task failure records and the partial results list
    (failed slots hold ``None``), so a caller can salvage the healthy
    portion of a sweep that contained a poison task.
    """

    def __init__(self, failures, results=None) -> None:
        detail = "; ".join(
            f"{f.key} ({f.error}, {f.attempts} attempts)" for f in failures
        )
        super().__init__(
            f"{len(failures)} sweep task(s) failed permanently: {detail}"
        )
        self.failures = list(failures)
        self.results = results


class ExecutorError(ReproError):
    """A sweep execution backend is unusable (distinct from a task
    failure: e.g. no reachable socket worker, a wire-version mismatch).

    Task-level problems never raise this — they surface as failed
    shard outcomes and, after the retry budget, as
    :class:`SweepTaskError`."""


class TraceFormatError(ReproError):
    """A delivery-opportunity trace file could not be parsed."""


class ReplayError(ReproError):
    """A recorded HTTP session could not be replayed."""
