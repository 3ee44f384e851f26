"""The event loop against a stable-sort model, on random programs.

The loop's heap holds ``(time, seq, event)`` tuples, cancels lazily
and compacts itself; the model below keeps a plain list and picks the
next event with a *stable* sort on time alone, so FIFO order at equal
timestamps falls out of insertion order.  Hypothesis generates
programs — schedule (absolute and relative), cancel, timer start/stop,
``stop()``, bursts that cross the compaction threshold, with callbacks
that run more of the same — and both sides must agree on what fired,
when, and on every observable in between.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EventBudgetExceeded
from repro.core.events import EventLoop, Timer

TIMERS = 3
#: Delays on a coarse grid so equal timestamps are common.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0, 3.5])


class _ModelEvent:
    def __init__(self, time, callback):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True


class _ModelLoop:
    def __init__(self):
        self.now = 0.0
        self.events = []
        self.stopping = False

    def call_at(self, when, callback):
        event = _ModelEvent(when, callback)
        self.events.append(event)
        return event

    def call_later(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def stop(self):
        self.stopping = True

    def pending(self):
        return sum(1 for e in self.events if not (e.cancelled or e.fired))

    def run(self, until=None, max_sim_time=None):
        self.stopping = False
        while True:
            live = [e for e in self.events if not (e.cancelled or e.fired)]
            if not live:
                break
            event = sorted(live, key=lambda e: e.time)[0]
            if until is not None and event.time > until:
                break
            if max_sim_time is not None and event.time > max_sim_time:
                raise EventBudgetExceeded("model", "")
            event.fired = True
            self.now = event.time
            event.callback()
            if self.stopping:
                return
        if until is not None and until > self.now:
            self.now = until


class _ModelTimer:
    def __init__(self, loop, callback):
        self._loop = loop
        self._callback = callback
        self._event = None

    @property
    def running(self):
        return self._event is not None

    @property
    def expiry(self):
        return self._event.time if self._event is not None else None

    def start(self, delay):
        self.stop()
        self._event = self._loop.call_later(delay, self._fire)

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self._callback()


class _Machine:
    """Interprets one program against a loop/timer implementation."""

    def __init__(self, loop, timer_class):
        self.loop = loop
        self.log = []
        self.handles = []
        self.timers = [
            timer_class(loop, lambda index=index: self.log.append(
                ("timer", index, self._now())))
            for index in range(TIMERS)
        ]

    def _now(self):
        return self.loop.now

    def execute(self, ops):
        for op in ops:
            kind = op[0]
            if kind == "later":
                _, delay, tag, nested = op
                self.handles.append(self.loop.call_later(
                    delay, lambda tag=tag, nested=nested:
                    self._fired(tag, nested)))
            elif kind == "at":
                _, delay, tag, nested = op
                self.handles.append(self.loop.call_at(
                    self._now() + delay, lambda tag=tag, nested=nested:
                    self._fired(tag, nested)))
            elif kind == "cancel" and self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
            elif kind == "burst":
                # Enough entries to cross the compaction threshold,
                # then cancel most of them.
                _, count, keep_every = op
                first = len(self.handles)
                for index in range(count):
                    self.handles.append(self.loop.call_later(
                        1.0 + (index % 7) * 0.5,
                        lambda index=index: self.log.append(
                            ("burst", index, self._now()))))
                for index in range(count):
                    if index % keep_every:
                        self.handles[first + index].cancel()
            elif kind == "timer_start":
                self.timers[op[1]].start(op[2])
            elif kind == "timer_stop":
                self.timers[op[1]].stop()
            elif kind == "stop":
                self.loop.stop()

    def _fired(self, tag, nested):
        self.log.append(("event", tag, self._now()))
        self.execute(nested)

    def observe(self):
        return (
            self._now(), self.loop.pending(), list(self.log),
            [(timer.running, timer.expiry) for timer in self.timers],
        )


def _ops(nested):
    schedule = st.tuples(st.sampled_from(["later", "at"]), DELAYS,
                         st.integers(0, 999), nested)
    return st.lists(st.one_of(
        schedule, schedule,
        st.tuples(st.just("cancel"), st.integers(0, 500)),
        st.tuples(st.just("burst"), st.integers(60, 140),
                  st.integers(2, 9)),
        st.tuples(st.just("timer_start"), st.integers(0, TIMERS - 1),
                  DELAYS),
        st.tuples(st.just("timer_stop"), st.integers(0, TIMERS - 1)),
        st.tuples(st.just("stop")),
    ), max_size=8)


PROGRAMS = st.lists(
    st.tuples(
        _ops(_ops(_ops(st.just(())))),
        st.sampled_from(["idle", "until", "until", "max_sim_time"]),
        st.sampled_from([0.0, 0.5, 1.0, 2.25, 4.0]),
    ),
    min_size=1, max_size=5,
)


@given(PROGRAMS)
@settings(max_examples=150, deadline=None)
def test_loop_matches_stable_sort_model(program):
    real = _Machine(EventLoop(), Timer)
    model = _Machine(_ModelLoop(), _ModelTimer)
    for ops, how, horizon in program:
        outcomes = []
        for machine in (real, model):
            machine.execute(ops)
            outcomes.append([machine.observe()])
            now = machine.loop.now
            try:
                if how == "idle":
                    machine.loop.run()
                elif how == "until":
                    machine.loop.run(until=now + horizon)
                else:
                    machine.loop.run(max_sim_time=now + horizon)
                outcomes[-1].append("ran")
            except EventBudgetExceeded:
                outcomes[-1].append("budget")
            outcomes[-1].append(machine.observe())
        assert outcomes[0] == outcomes[1]
    # Drain (a nested ``stop`` may cut a run short, hence the repeats):
    # whatever is left fires in the same order on both sides.
    for _ in range(4):
        real.loop.run()
        model.loop.run()
        assert real.observe() == model.observe()
