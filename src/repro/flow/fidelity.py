"""Run-level fidelity overrides.

A :class:`~repro.workload.spec.TransferSpec` carries its own
``fidelity`` field, but campaigns often want to flip an entire run
without editing specs — "rerun this workload at flow fidelity".  This
module is the single resolution point: the ``REPRO_FIDELITY``
environment variable (which the ``--fidelity`` CLI flags export for the
length of their command, see :mod:`repro.core.env`), else the spec's
own field.

The override is applied *before* sweep tasks are built (see
:meth:`~repro.workload.session.Session.task_for`), so the rewritten
spec — and therefore the cache key — always reflects the fidelity that
actually ran.
"""

from typing import TYPE_CHECKING, Optional

from repro.core import env
from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.workload.spec import TransferSpec

__all__ = ["apply_fidelity_override", "resolve_fidelity"]


def resolve_fidelity() -> Optional[str]:
    """The run-level override (``REPRO_FIDELITY``), or ``None``: spec decides."""
    value = env.text(env.FIDELITY)
    if value is None:
        return None
    # Imported here: the spec module imports the workload package,
    # which imports this module back (Session dispatches on fidelity).
    from repro.workload.spec import FIDELITIES

    if value not in FIDELITIES:
        raise ConfigurationError(
            f"{env.FIDELITY}: must be one of {list(FIDELITIES)}, "
            f"got {value!r}"
        )
    return value


def apply_fidelity_override(spec: "TransferSpec") -> "TransferSpec":
    """``spec`` rewritten to the active override fidelity, if any."""
    return spec.with_fidelity(resolve_fidelity())
