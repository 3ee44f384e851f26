"""Live progress/ETA reporting for sweeps.

Thousands-of-runs sweeps are opaque without feedback; a
:class:`SweepProgress` prints a single updating status line to stderr
(never stdout — figure text goes there) with completed/total counts,
cache hits, throughput, and an ETA extrapolated from wall time so far.

Enabled per-run via ``SweepRunner(progress=True)`` or globally with
``REPRO_PROGRESS=1`` (what the ``--progress`` CLI flag exports, see
:mod:`repro.core.env`).  Progress is presentation only: it never
influences sharding, seeding, or results.
"""

import sys
import time
from typing import Optional, TextIO

from repro.core import env

__all__ = ["MIN_REDRAW_INTERVAL_S", "SweepProgress",
           "progress_enabled_by_env"]

#: Default floor between stderr redraws.  A fully-cached sweep can
#: resolve thousands of tasks in a few milliseconds; unthrottled, each
#: would redraw the status line (thousands of writes flooding the
#: terminal and any log capturing stderr).  ≥100 ms keeps the line
#: live to a human while bounding a whole sweep's redraws.  Tests may
#: pass an explicit smaller ``min_interval_s`` to observe every frame.
MIN_REDRAW_INTERVAL_S = 0.1


def progress_enabled_by_env() -> bool:
    return env.flag(env.PROGRESS, False)


def _format_eta(seconds: float) -> str:
    if seconds < 0:
        return "?"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class SweepProgress:
    """One updating ``label: done/total`` status line with an ETA.

    ``total=None`` means the total is unknown (streaming ingestion
    from a live service): the line renders ``done/?`` with the
    observed completion rate instead of inventing an ETA.
    """

    def __init__(
        self,
        total: Optional[int],
        label: str = "sweep",
        stream: Optional[TextIO] = None,
        min_interval_s: float = MIN_REDRAW_INTERVAL_S,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.done = 0
        self.cached = 0
        self._started_at: Optional[float] = None
        self._last_render = 0.0

    def start(self) -> None:
        self._started_at = time.monotonic()
        self._render(force=True)

    def note_cached(self, count: int) -> None:
        """Record tasks satisfied from the cache (they count as done)."""
        self.cached += count
        self.done += count
        self._render()

    def advance(self, count: int = 1) -> None:
        self.done += count
        self._render()

    def finish(self) -> None:
        self._render(force=True)
        self.stream.write("\n")
        self.stream.flush()

    # -- rendering -------------------------------------------------------
    def _eta_s(self) -> float:
        if self._started_at is None or self.total is None:
            return -1.0
        executed = self.done - self.cached
        if executed <= 0:
            return -1.0
        elapsed = time.monotonic() - self._started_at
        remaining = self.total - self.done
        return elapsed / executed * remaining

    def _rate_per_s(self) -> float:
        """Completions per second so far (-1 when unmeasurable)."""
        if self._started_at is None or self.done <= 0:
            return -1.0
        elapsed = time.monotonic() - self._started_at
        if elapsed <= 0:
            return -1.0
        return self.done / elapsed

    def _render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval_s:
            return
        self._last_render = now
        total_text = "?" if self.total is None else str(self.total)
        parts = [f"{self.label}: {self.done}/{total_text}"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.total is None:
            # Unknown total: an ETA would be a lie; the observed rate
            # is the honest signal a streaming ingester can offer.
            rate = self._rate_per_s()
            if rate >= 0:
                parts.append(f"{rate:.1f}/s")
        elif 0 < self.done < self.total:
            eta = self._eta_s()
            if eta >= 0:
                parts.append(f"eta {_format_eta(eta)}")
        line = "  ".join(parts)
        self.stream.write("\r" + line.ljust(60))
        self.stream.flush()
