"""Discrete-event loop used by every simulated component.

The design is deliberately minimal: a binary heap of ``(time, seq,
event)`` tuples.  ``seq`` is a monotonically increasing counter so
that events scheduled at the same instant run in FIFO order, which
keeps runs fully deterministic.  It is also unique, so heap ordering
is decided by C tuple comparison on ``(time, seq)`` alone and the
:class:`Event` in the third slot is never compared — ``heapq`` makes
~9 comparisons per scheduled event, and routing them through a Python
``__lt__`` was the largest single cost of a packet transfer.

Cancellation is lazy — a cancelled entry stays in the heap until it
reaches the top — but the loop keeps a live-event counter so
:meth:`EventLoop.pending` is O(1), and it compacts the heap whenever
cancelled entries outnumber live ones (TCP retransmission timers
cancel and re-arm on every ACK, so cancelled-entry churn would
otherwise dominate the heap).

Example
-------
>>> loop = EventLoop()
>>> fired = []
>>> _ = loop.call_at(1.5, lambda: fired.append(loop.now))
>>> _ = loop.call_later(0.5, lambda: fired.append(loop.now))
>>> loop.run()
>>> fired
[0.5, 1.5]
"""

import heapq
from typing import Callable, List, Optional, Tuple

from repro.core.errors import EventBudgetExceeded, SimulationError

__all__ = ["Event", "EventLoop", "Timer", "Periodic"]

#: Below this heap size compaction is pointless bookkeeping.
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback.

    Returned by :meth:`EventLoop.call_at` / :meth:`EventLoop.call_later`
    so callers can cancel the callback before it fires.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 loop: Optional["EventLoop"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an already-fired or already-cancelled event is a
        no-op; the loop simply skips cancelled entries when it pops
        them.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Off the run path (heap entries are tuples); orders the
        # ``nsmallest`` listing in EventLoop.diagnostics().
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class EventLoop:
    """A deterministic discrete-event scheduler.

    Simulated time is a float number of seconds starting at 0.  The
    loop never advances past an event without running it, and events at
    equal timestamps run in the order they were scheduled.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled = 0  # cancelled entries still sitting in the heap
        self._running = False
        self._stop_requested = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        # ``not >=`` rather than ``<`` so that NaN is refused too: as a
        # heap key it compares false both ways and would silently break
        # the order of every later event.
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when:.6f} < {self._now:.6f}"
            )
        self._seq = seq = self._seq + 1
        event = Event(when, seq, callback, self)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def call_later(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # Deliberately through ``self.call_at``: it is the one place
        # events enter the heap, and instrumentation counts them by
        # wrapping it on the instance (which is why there are no
        # ``__slots__`` here).
        return self.call_at(self._now + delay, callback)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled

    def stop(self) -> None:
        """Make :meth:`run` return after the currently running callback.

        Intended to be called *from inside* an event callback (e.g. a
        transfer's completion hook); simulated time stays exactly at
        the stopping event's timestamp.  Outside of :meth:`run` it is
        a no-op on the next call, which resets the flag.
        """
        self._stop_requested = True

    def _note_cancelled(self) -> None:
        """Bookkeeping callback from :meth:`Event.cancel`."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled * 2 > len(heap) and len(heap) >= _COMPACT_MIN_HEAP:
            # In-place rebuild so any outstanding reference to the heap
            # list (e.g. a local binding inside run()) stays valid.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    def diagnostics(self, limit: int = 8) -> str:
        """A human-readable dump of the loop state (watchdog reports).

        Shows the clock, live/heaped/cancelled counts, and the next
        ``limit`` scheduled callbacks, so an exhausted event budget
        points at the code that keeps rescheduling itself.
        """
        live = [event for _, _, event in self._heap if not event.cancelled]
        lines = [
            f"loop: t={self._now:.6f}s, {len(live)} live events "
            f"({len(self._heap)} heaped, {self._cancelled} cancelled)"
        ]
        for event in heapq.nsmallest(limit, live):
            callback = event.callback
            name = getattr(callback, "__qualname__", None) or repr(callback)
            lines.append(f"  next: t={event.time:.6f}s seq={event.seq} -> {name}")
        return "\n".join(lines)

    def run(self, until: Optional[float] = None,
            max_events: int = 50_000_000,
            max_sim_time: Optional[float] = None) -> None:
        """Run events in order until the queue empties.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after this
            time; the clock is then advanced to exactly ``until``.
        max_events:
            Watchdog against runaway simulations: exceeding it raises
            :class:`~repro.core.errors.EventBudgetExceeded` with a
            diagnostic dump instead of spinning forever.
        max_sim_time:
            Watchdog on the *clock*: an event scheduled past this
            absolute simulated time raises
            :class:`~repro.core.errors.EventBudgetExceeded`.  Unlike
            ``until`` (a normal stopping condition) this is an error —
            use it to catch simulations that drift far past any sane
            deadline, e.g. a timer that re-arms with a growing backoff.
        """
        self._running = True
        self._stop_requested = False
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                event_time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and event_time > until:
                    break
                if max_sim_time is not None and event_time > max_sim_time:
                    raise EventBudgetExceeded(
                        f"simulated-time budget exhausted: next event at "
                        f"{event_time:.6f}s is past max_sim_time="
                        f"{max_sim_time:.6f}s",
                        self.diagnostics(),
                    )
                pop(heap)
                # Detach so a late cancel() of a fired event cannot
                # skew the live-event counter.
                event._loop = None
                self._now = event_time
                event.callback()
                processed += 1
                if self._stop_requested:
                    # A callback asked us to return; leave the clock at
                    # its timestamp instead of advancing to ``until``.
                    return
                if processed > max_events:
                    raise EventBudgetExceeded(
                        f"event budget exhausted after {max_events} events",
                        self.diagnostics(),
                    )
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until


class Timer:
    """A restartable one-shot timer (e.g. a TCP retransmission timer).

    Wraps the cancel-and-reschedule dance so protocol code can simply
    ``start``/``stop``/``restart``.
    """

    __slots__ = ("_loop", "_callback", "_event")

    def __init__(self, loop: EventLoop, callback: Callable[[], None]):
        self._loop = loop
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """Whether the timer is armed and has not yet fired."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time at which the timer will fire, if armed."""
        if self.running:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any prior arm."""
        event = self._event
        if event is not None:
            event.cancel()
        self._event = self._loop.call_later(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer if it is armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class Periodic:
    """A repeating callback on a fixed period (e.g. telemetry sampling).

    Unlike hand-rolled self-rescheduling callbacks, :meth:`stop`
    *cancels* the pending event rather than merely flagging it, so a
    stopped periodic contributes nothing to :meth:`EventLoop.pending`
    and cannot keep a drain phase alive (the ``run(until=...)`` window
    after an ``EventLoop.stop()``-terminated transfer).
    """

    __slots__ = ("_loop", "_period", "_callback", "_event", "_stopped")

    def __init__(self, loop: EventLoop, period_s: float,
                 callback: Callable[[], None]):
        if period_s <= 0:
            raise SimulationError(f"period must be positive: {period_s}")
        self._loop = loop
        self._period = period_s
        self._callback = callback
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self, immediate: bool = True) -> None:
        """Begin firing; with ``immediate`` the first call happens now."""
        if not self._stopped:
            return
        self._stopped = False
        if immediate:
            self._callback()
            if self._stopped:
                # The callback itself stopped us.
                return
        self._event = self._loop.call_later(self._period, self._fire)

    def stop(self) -> None:
        """Stop firing and cancel the pending event."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
        if not self._stopped:
            self._event = self._loop.call_later(self._period, self._fire)
