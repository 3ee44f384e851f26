"""Declarative workload specifications.

The paper's apparatus is a pile of concrete configurations — 20
Table-2 locations × {TCP, MPTCP variants} × flow sizes × directions.
This module describes such configurations as *data*: frozen, validated
dataclasses that round-trip through JSON, so a measurement campaign
can live in a ``workload.json`` file, key a result cache canonically,
and cross process boundaries without pickling live objects.

The vocabulary:

* :class:`~repro.linkem.shells.PathSpec` — one emulated interface;
* :class:`~repro.linkem.conditions.ConditionSpec` — one emulated
  measurement location (both defined in :mod:`repro.linkem`, where
  the registry and the MpShell assembly live, and re-exported here);
* :class:`TransferSpec` — one bulk transfer at a condition (TCP or
  MPTCP, flow size, direction, congestion control, seed, deadline,
  :class:`~repro.tcp.config.TcpConfig` overrides);
* :class:`WorkloadSpec` — a named batch of transfers.

Every validation failure raises
:class:`~repro.core.errors.ConfigurationError` naming the offending
field (``"TransferSpec.direction: ..."``), and congestion-control
names are checked against the single registry in
:mod:`repro.tcp.cc.registry`.
"""

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import (
    ConfigurationError,
    checked_kwargs as _checked_kwargs,
    json_object as _json_object,
    require as _require,
)
from repro.core.rng import DEFAULT_SEED
from repro.faults.spec import FaultSpec
from repro.linkem.conditions import ConditionSpec
from repro.linkem.shells import PathSpec
from repro.mptcp.connection import MptcpOptions
from repro.tcp.cc.registry import validate_cc
from repro.tcp.config import TcpConfig

__all__ = [
    "ConditionSpec",
    "PathSpec",
    "TransferSpec",
    "WorkloadSpec",
    "config_overrides",
    "mptcp_option_overrides",
]

DIRECTIONS = ("down", "up")

#: Simulation fidelities a :class:`TransferSpec` may request.
#: ``"packet"`` is the per-packet event simulator; ``"flow"`` is the
#: analytic bandwidth-share engine in :mod:`repro.flow` (orders of
#: magnitude faster, coarser; see DESIGN.md §10).
FIDELITIES = ("packet", "flow")

KIND_TCP = "tcp"
KIND_MPTCP = "mptcp"

#: MptcpOptions fields a spec may override (primary and
#: congestion_control are first-class TransferSpec fields).
_MPTCP_OPTION_FIELDS = tuple(
    f.name for f in dataclasses.fields(MptcpOptions)
    if f.name not in ("primary", "congestion_control")
)

_TCP_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(TcpConfig))


def config_overrides(config: Optional[TcpConfig]) -> Optional[Dict[str, Any]]:
    """The non-default fields of ``config`` as a plain overrides dict.

    The declarative inverse of ``TcpConfig(**overrides)``; ``None``
    (or an all-defaults config) maps to ``None``.
    """
    if config is None:
        return None
    defaults = TcpConfig()
    overrides = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(TcpConfig)
        if getattr(config, f.name) != getattr(defaults, f.name)
    }
    return overrides or None


def mptcp_option_overrides(options: MptcpOptions) -> Optional[Dict[str, Any]]:
    """The non-default extras of ``options`` as a plain overrides dict.

    ``primary`` and ``congestion_control`` are first-class
    :class:`TransferSpec` fields, so they are excluded here; this is
    the declarative inverse of :meth:`TransferSpec.mptcp_options`.
    """
    defaults = MptcpOptions()
    overrides = {
        name: getattr(options, name)
        for name in _MPTCP_OPTION_FIELDS
        if getattr(options, name) != getattr(defaults, name)
    }
    return overrides or None


@dataclass(frozen=True)
class TransferSpec:
    """One bulk transfer at an emulated location, as data.

    ``kind`` selects single-path TCP (``"tcp"``, over ``path``) or
    MPTCP (``"mptcp"``, primary subflow on ``primary``).  ``cc`` is
    validated against the unified congestion-control registry; omitted
    it defaults to ``cubic`` for TCP (Linux's default) and ``coupled``
    (LIA) for MPTCP.  ``config`` holds :class:`TcpConfig` field
    overrides and ``options`` extra :class:`MptcpOptions` fields —
    both as plain dicts so the spec stays JSON-shaped.
    """

    kind: str
    condition: ConditionSpec
    nbytes: int
    direction: str = "down"
    cc: Optional[str] = None
    path: Optional[str] = None
    primary: Optional[str] = None
    seed: Optional[int] = None
    deadline_s: float = 240.0
    config: Optional[Dict[str, Any]] = None
    options: Optional[Dict[str, Any]] = None
    label: Optional[str] = None
    #: Optional declarative fault schedule; event paths must name
    #: condition paths (see :mod:`repro.faults`).
    faults: Optional[FaultSpec] = None
    #: Simulation fidelity: ``"packet"`` (event simulator, default) or
    #: ``"flow"`` (analytic bandwidth-share engine, :mod:`repro.flow`).
    #: Part of the canonical JSON, so the two fidelities never share a
    #: cache entry.
    fidelity: str = "packet"

    def __post_init__(self) -> None:
        if isinstance(self.condition, Mapping):
            object.__setattr__(
                self, "condition", ConditionSpec.from_dict(self.condition)
            )
        if isinstance(self.faults, Mapping):
            object.__setattr__(
                self, "faults", FaultSpec.from_dict(self.faults)
            )
        _require(self.kind in (KIND_TCP, KIND_MPTCP), "TransferSpec.kind",
                 f"must be 'tcp' or 'mptcp', got {self.kind!r}")
        _require(isinstance(self.nbytes, int) and self.nbytes > 0,
                 "TransferSpec.nbytes",
                 f"must be a positive integer, got {self.nbytes!r}")
        _require(self.direction in DIRECTIONS, "TransferSpec.direction",
                 f"must be one of {list(DIRECTIONS)}, got {self.direction!r}")
        _require(self.deadline_s > 0, "TransferSpec.deadline_s",
                 f"must be positive, got {self.deadline_s!r}")
        _require(self.seed is None or isinstance(self.seed, int),
                 "TransferSpec.seed",
                 f"must be an integer or null, got {self.seed!r}")
        _require(self.fidelity in FIDELITIES, "TransferSpec.fidelity",
                 f"must be one of {list(FIDELITIES)}, got {self.fidelity!r}")

        names = self.condition.path_names
        if self.kind == KIND_TCP:
            _require(self.primary is None, "TransferSpec.primary",
                     "only valid for kind='mptcp'")
            _require(self.path in names, "TransferSpec.path",
                     f"must name a condition path {list(names)}, "
                     f"got {self.path!r}")
            _require(self.options is None, "TransferSpec.options",
                     "only valid for kind='mptcp'")
            cc = self.cc if self.cc is not None else "cubic"
            scope = "single"
        else:
            _require(self.path is None, "TransferSpec.path",
                     "only valid for kind='tcp' (use 'primary')")
            _require(self.primary in names, "TransferSpec.primary",
                     f"must name a condition path {list(names)}, "
                     f"got {self.primary!r}")
            cc = self.cc if self.cc is not None else "coupled"
            scope = "mptcp"
        try:
            object.__setattr__(self, "cc", validate_cc(cc, scope))
        except ConfigurationError as exc:
            raise ConfigurationError(f"TransferSpec.cc: {exc}") from None

        if self.config is not None:
            unknown = sorted(set(self.config) - set(_TCP_CONFIG_FIELDS))
            _require(not unknown, "TransferSpec.config",
                     f"unknown TcpConfig fields: {unknown}")
            self.tcp_config()  # value validation via TcpConfig.__post_init__
        if self.options is not None:
            unknown = sorted(set(self.options) - set(_MPTCP_OPTION_FIELDS))
            _require(not unknown, "TransferSpec.options",
                     f"unknown MptcpOptions fields: {unknown}")
        if self.faults is not None:
            _require(isinstance(self.faults, FaultSpec), "TransferSpec.faults",
                     f"must be a FaultSpec, got {type(self.faults).__name__}")
            stray = sorted(set(self.faults.path_names) - set(names))
            _require(not stray, "TransferSpec.faults",
                     f"fault paths {stray} are not condition paths "
                     f"{list(names)}")

    # -- interpretation -------------------------------------------------
    def key(self) -> str:
        """Stable human-readable identity (seed derivation, display)."""
        if self.label is not None:
            return self.label
        who = self.path if self.kind == KIND_TCP else f"{self.primary}.{self.cc}"
        return f"{self.kind}.{self.condition.condition_id}.{who}.{self.nbytes}"

    def tcp_config(self) -> Optional[TcpConfig]:
        """Materialize the :class:`TcpConfig` overrides (or ``None``)."""
        if self.config is None:
            return None
        return TcpConfig(**self.config)

    def mptcp_options(self) -> MptcpOptions:
        """Materialize the :class:`MptcpOptions` for an MPTCP spec."""
        _require(self.kind == KIND_MPTCP, "TransferSpec.kind",
                 "mptcp_options() is only valid for kind='mptcp'")
        extras = dict(self.options or {})
        if isinstance(extras.get("backup_paths"), list):
            extras["backup_paths"] = list(extras["backup_paths"])
        return MptcpOptions(
            primary=self.primary, congestion_control=self.cc, **extras
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "condition": self.condition.to_dict(),
            "nbytes": self.nbytes,
            "direction": self.direction,
            "cc": self.cc,
            "deadline_s": self.deadline_s,
            "fidelity": self.fidelity,
        }
        for name in ("path", "primary", "seed", "config", "options", "label"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TransferSpec":
        return cls(**_checked_kwargs(cls, data, "TransferSpec"))

    def canonical_dict(self) -> Dict[str, Any]:
        """The content-address form used by the result cache."""
        return self.to_dict()

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    # -- derivation helpers ---------------------------------------------
    def with_faults(self, faults: Optional[FaultSpec]) -> "TransferSpec":
        """A copy with ``faults`` attached (no-op when already set).

        Used by ``run-spec --faults FILE`` to apply one schedule to a
        whole workload without clobbering per-transfer schedules.
        """
        if self.faults is not None or faults is None:
            return self
        return dataclasses.replace(self, faults=faults)

    def with_fidelity(self, fidelity: Optional[str]) -> "TransferSpec":
        """A copy running at ``fidelity`` (no-op when ``None``/equal)."""
        if fidelity is None or fidelity == self.fidelity:
            return self
        return dataclasses.replace(self, fidelity=fidelity)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named batch of transfers — a measurement campaign as data."""

    name: str
    transfers: Tuple[TransferSpec, ...]
    seed: int = DEFAULT_SEED
    description: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str),
                 "WorkloadSpec.name",
                 f"must be a non-empty string, got {self.name!r}")
        transfers = tuple(
            TransferSpec.from_dict(t) if isinstance(t, Mapping) else t
            for t in self.transfers
        )
        object.__setattr__(self, "transfers", transfers)
        _require(len(transfers) >= 1, "WorkloadSpec.transfers",
                 "must declare at least one transfer")
        _require(isinstance(self.seed, int), "WorkloadSpec.seed",
                 f"must be an integer, got {self.seed!r}")

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "transfers": [t.to_dict() for t in self.transfers],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        kwargs = _checked_kwargs(cls, data, "WorkloadSpec")
        kwargs["transfers"] = tuple(
            TransferSpec.from_dict(t) for t in kwargs.get("transfers", ())
        )
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        return cls.from_dict(_json_object(text, "workload file"))

    def canonical_dict(self) -> Dict[str, Any]:
        return self.to_dict()

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
