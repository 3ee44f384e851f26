"""Live progress/ETA reporting for sweeps.

Thousands-of-runs sweeps are opaque without feedback; a
:class:`SweepProgress` prints a single updating status line to stderr
(never stdout — figure text goes there) with completed/total counts,
cache hits, and an ETA — all read from its
:class:`~repro.obs.manifest.SweepTally`, which the sweep engine feeds.

Enabled per-run via ``SweepRunner(progress=True)`` or globally with
``REPRO_PROGRESS=1`` (what the ``--progress`` CLI flag exports, see
:mod:`repro.core.env`).  Progress is presentation only: it never
influences sharding, seeding, or results.
"""

import sys
import time
from typing import Optional, TextIO

from repro.core import env
from repro.obs.manifest import SweepTally

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

    ``start()`` opens the run's :attr:`tally`; whoever resolves tasks
    feeds it, then calls :meth:`render`.  ``total=None`` (a streamed
    job) renders ``done/?`` with the observed rate, not an ETA.
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
        self.tally: Optional[SweepTally] = None
        self._last_render = 0.0

    def start(self) -> None:
        self.tally = SweepTally(self.total)
        self.render(force=True)

    def finish(self) -> None:
        self.render(force=True)
        self.stream.write("\n")
        self.stream.flush()

    def render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval_s:
            return
        self._last_render = now
        counts = self.tally.read()
        total = counts["total"]
        parts = [f"{self.label}: {counts['done']}/"
                 f"{'?' if total is None else total}"]
        if counts["cache_hits"]:
            parts.append(f"{counts['cache_hits']} cached")
        if total is None:
            # Unknown total: an ETA would be a lie; the observed rate
            # is the honest signal a streaming ingester can offer.
            if counts["rate_per_s"] > 0:
                parts.append(f"{counts['rate_per_s']:.1f}/s")
        elif counts["eta_s"] is not None:
            parts.append(f"eta {_format_eta(counts['eta_s'])}")
        line = "  ".join(parts)
        self.stream.write("\r" + line.ljust(60))
        self.stream.flush()
