"""Process-identity helpers: is PID *p* still the process we launched?

A bare ``os.kill(pid, 0)`` probe answers "is some process alive with
this PID" — which is the wrong question for fleet state files that
outlive their writers.  PIDs are recycled; on a busy host a crashed
worker's PID can belong to an unrelated process minutes later, and a
liveness probe would then have ``fleet down`` signal that process.

The fix is the classic (pid, start-token) pair: capture a token that is
unique per *incarnation* of a PID at record time, and require both to
match at probe time.  On Linux the token is field 22 of
``/proc/<pid>/stat`` (``starttime``, measured in clock ticks since
boot — two processes recycling one PID cannot share it).  Where
``/proc`` is unavailable the token degrades to ``""`` and probes fall
back to plain liveness, which is exactly the pre-token behaviour.
"""

import os
from typing import Optional

__all__ = ["pid_alive", "pid_start_token", "same_process"]


def pid_start_token(pid: int) -> str:
    """A per-incarnation identity token for ``pid`` ("" if unknown).

    Reads ``starttime`` from ``/proc/<pid>/stat``.  The comm field
    (field 2) may contain spaces and parentheses, so the line is split
    on the *last* ``)`` before counting fields, per proc(5).
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
    except OSError:
        return ""
    try:
        rest = data.rsplit(b")", 1)[1].split()
        # rest[0] is field 3 ("state"); starttime is field 22.
        return rest[19].decode("ascii")
    except (IndexError, UnicodeDecodeError):
        return ""


def pid_alive(pid: int) -> bool:
    """True when a process with this PID exists (maybe a recycled one)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def same_process(pid: int, start_token: Optional[str]) -> bool:
    """True when ``pid`` is alive *and* still the recorded incarnation.

    With an empty/unknown recorded token (non-Linux writer, old-format
    record) this degrades to :func:`pid_alive` — we cannot prove the
    PID was recycled, so we err on the side of treating it as live.
    """
    if not pid_alive(pid):
        return False
    if not start_token:
        return True
    current = pid_start_token(pid)
    if not current:
        return True
    return current == start_token
