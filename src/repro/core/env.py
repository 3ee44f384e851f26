"""How a run-level setting reaches the engine.

One rule, for every setting: **explicit argument > ``REPRO_*`` variable
> built-in default**.  A function that takes ``workers=``,
``executor=``, ``cache=`` or ``progress=`` uses what it is given; given
``None`` it asks the resolver named in :data:`VARIABLES`, which reads
the variable through this module and falls back to the default.  There
is no third place a value can come from.

A CLI flag is the environment rung, not a fourth one: :data:`FLAGS`
maps each shared flag to its variable, and :func:`exported` sets those
variables for the duration of one command and puts the environment back
afterwards, so one in-process ``main([...])`` cannot steer the next.

Who inherits what.  Pool workers are children of the process that runs
the sweep, created while the command's variables are exported, so every
flag reaches them.  Socket-fleet workers are children of ``fleet up``
(:func:`for_child`): they see the environment of the command that
launched the fleet, not of the command that later submits work to it —
``--trace`` on ``repro-experiments --executor socket:…`` acts on the
coordinator only.

One setting is resolved once per process, then held: the telemetry bus
(``REPRO_TELEMETRY``; one ``None`` check per publish site).

This module holds the only ``os.environ`` access under ``src/repro``
and imports nothing above :mod:`repro.core.errors`; the resolvers that
own each variable's domain check live with the code they configure and
are named here by import path.
"""

import contextlib
import importlib
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional

from repro.core.errors import ConfigurationError

__all__ = [
    "CACHE", "CACHE_DIR", "EXECUTOR", "FIDELITY", "FLAGS", "PROGRESS",
    "TELEMETRY", "TRACE_DIR", "VARIABLES", "WORKERS", "add_flags", "check",
    "exported", "flag", "for_child", "integer", "text",
]

WORKERS = "REPRO_WORKERS"
EXECUTOR = "REPRO_EXECUTOR"
FIDELITY = "REPRO_FIDELITY"
CACHE = "REPRO_CACHE"
CACHE_DIR = "REPRO_CACHE_DIR"
TRACE_DIR = "REPRO_TRACE_DIR"
PROGRESS = "REPRO_PROGRESS"
TELEMETRY = "REPRO_TELEMETRY"

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")
_TOGGLE = f"`{'/'.join(_ON)}` or `{'/'.join(_OFF)}`"


@dataclass(frozen=True)
class Variable:
    """One ``REPRO_*`` variable: what it accepts and who resolves it."""

    name: str
    #: The README table's "accepted values" cell, verbatim.
    accepts: str
    #: ``"module:callable"`` — called with no argument it returns the
    #: value in force, or raises ``ConfigurationError`` naming the
    #: variable when the environment holds something outside its domain.
    resolver: str


#: Every variable the package reads, in README order.
VARIABLES = (
    Variable(WORKERS, "integer ≥ 1",
             "repro.parallel.task:resolve_workers"),
    Variable(EXECUTOR, "`inprocess`, `process`, `socket:HOST:PORT,...`",
             "repro.parallel.executors:resolve_executor_spec"),
    Variable(CACHE, _TOGGLE, "repro.parallel.cache:cache_enabled_by_env"),
    Variable(CACHE_DIR, "directory path",
             "repro.parallel.cache:default_cache_dir"),
    Variable(TRACE_DIR, "directory path",
             "repro.obs.trace:active_trace_dir"),
    Variable(PROGRESS, _TOGGLE,
             "repro.obs.progress:progress_enabled_by_env"),
    Variable(FIDELITY, "`packet` or `flow`",
             "repro.flow.fidelity:resolve_fidelity"),
    Variable(TELEMETRY, _TOGGLE,
             "repro.obs.telemetry:telemetry_enabled_by_env"),
)


# -- reading ----------------------------------------------------------------
def text(name: str) -> Optional[str]:
    """The variable's value, stripped; ``None`` when unset or blank."""
    value = os.environ.get(name)
    if value is None:
        return None
    return value.strip() or None


def flag(name: str, default: bool) -> bool:
    """A boolean variable: one spelling for all of them."""
    value = text(name)
    if value is None:
        return default
    lowered = value.lower()
    if lowered in _ON:
        return True
    if lowered in _OFF:
        return False
    raise ConfigurationError(
        f"{name} must be one of {'/'.join(_ON)} or {'/'.join(_OFF)}, "
        f"got {value!r}"
    )


def integer(name: str) -> Optional[int]:
    """An integer variable (range checks belong to its resolver)."""
    value = text(name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _call(path: str) -> Any:
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)()


def check() -> None:
    """Resolve every variable now, so a bad one fails before work starts."""
    for resolver in dict.fromkeys(v.resolver for v in VARIABLES):
        _call(resolver)


def for_child(base: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    """A copy of this process's environment (or ``base``) for a child."""
    return dict(os.environ if base is None else base)


# -- flags: the environment rung, spelled on a command line -------------------
def _trace_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


@dataclass(frozen=True)
class Flag:
    """One shared CLI flag and the variable it exports."""

    variable: str
    help: str
    #: Extra ``add_argument`` keywords (type, metavar, action).
    argument: Dict[str, Any]
    #: The parsed value as the variable's text.
    encode: Callable[[Any], str] = str


FLAGS: Dict[str, Flag] = {
    "--workers": Flag(
        WORKERS,
        "worker processes/shards for sweep execution (default: "
        "$REPRO_WORKERS, else 1; results are identical for any value)",
        {"type": int, "metavar": "N"}),
    "--executor": Flag(
        EXECUTOR,
        "sweep backend: inprocess (serial), process (local pool) or "
        "socket:HOST:PORT,... (a worker fleet); default: $REPRO_EXECUTOR, "
        "else process; results are identical for any backend",
        {"metavar": "SPEC"}),
    "--fidelity": Flag(
        FIDELITY,
        "run every transfer at this fidelity (flow: the 100-1000x faster "
        "analytic engine, aggregates only); default: $REPRO_FIDELITY, "
        "else each spec's own",
        {"metavar": "{packet,flow}"}),
    "--no-cache": Flag(
        CACHE,
        "ignore and do not populate the on-disk sweep result cache "
        "(sets REPRO_CACHE=0)",
        {"action": "store_true"}, lambda given: "0"),
    "--trace": Flag(
        TRACE_DIR,
        "write JSONL transport traces and run manifests into DIR "
        "(sets REPRO_TRACE_DIR; bypasses the result cache)",
        {"metavar": "DIR"}, _trace_dir),
    "--progress": Flag(
        PROGRESS,
        "live sweep progress/ETA on stderr (sets REPRO_PROGRESS=1)",
        {"action": "store_true"}, lambda given: "1"),
}


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def add_flags(parser, *options: str) -> None:
    """Declare the shared ``options`` on ``parser`` (or a group of it)."""
    for option in options:
        entry = FLAGS[option]
        parser.add_argument(option, help=entry.help, **entry.argument)


@contextlib.contextmanager
def exported(prog: str, args, *options: str) -> Iterator[None]:
    """Run a command body with its given ``options`` in the environment.

    Exports each flag of ``options`` that ``args`` carries, then
    resolves *every* variable (:func:`check`) — a bad flag or a bad
    pre-set ``$REPRO_…`` ends the command here with one ``prog:
    message`` line and exit status 2, before any work starts.  The
    environment is put back when the body leaves, however it leaves.
    """
    saved = {v.name: os.environ.get(v.name) for v in VARIABLES}
    try:
        try:
            for option in options:
                given = getattr(args, _dest(option))
                if given is None or given is False:
                    continue
                entry = FLAGS[option]
                os.environ[entry.variable] = entry.encode(given)
            check()
        except (OSError, ConfigurationError) as exc:
            print(f"{prog}: {exc}", file=sys.stderr)
            raise SystemExit(2)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
