"""Tests for the discrete-event loop and timers."""

import pytest

from repro.core.errors import SimulationError
from repro.core.events import EventLoop, Periodic, Timer, noop


class TestEventLoop:
    def test_starts_at_time_zero(self):
        assert EventLoop().now == 0.0

    def test_runs_events_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.call_at(2.0, lambda: fired.append("b"))
        loop.call_at(1.0, lambda: fired.append("a"))
        loop.call_at(3.0, lambda: fired.append("c"))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_run_fifo(self):
        loop = EventLoop()
        fired = []
        for tag in range(5):
            loop.call_at(1.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [1.5]
        assert loop.now == 1.5

    def test_call_later_is_relative(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: loop.call_later(0.5, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [1.5]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.call_at(1.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().call_later(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        # ``nan < now`` is False, so a ``when < now`` guard lets NaN
        # into the heap, where it breaks ordering for every later event.
        loop = EventLoop()
        nan = float("nan")
        with pytest.raises(SimulationError):
            loop.call_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            loop.call_later(nan, lambda: None)
        timer = Timer(loop, lambda: None)
        with pytest.raises(SimulationError):
            timer.start(nan)
        assert loop.pending() == 0
        fired = []
        for when in (3.0, 1.0, 2.0):
            loop.call_at(when, lambda when=when: fired.append(when))
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.call_at(1.0, lambda: fired.append("x"))
        event.cancel()
        loop.run()
        assert fired == []

    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, lambda: fired.append(1))
        loop.call_at(5.0, lambda: fired.append(5))
        loop.run(until=2.0)
        assert fired == [1]
        assert loop.now == 2.0
        loop.run()
        assert fired == [1, 5]

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.call_later(1.0, lambda: chain(n + 1))

        loop.call_at(0.0, lambda: chain(0))
        loop.run()
        assert fired == [0, 1, 2, 3]

    def test_event_budget_guards_runaway(self):
        loop = EventLoop()

        def forever():
            loop.call_later(0.001, forever)

        loop.call_at(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)

    def test_pending_counts_uncancelled(self):
        loop = EventLoop()
        event = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        assert loop.pending() == 2
        event.cancel()
        assert loop.pending() == 1

    def test_run_until_advances_clock_with_empty_queue(self):
        loop = EventLoop()
        loop.run(until=5.0)
        assert loop.now == 5.0
        loop.run(until=3.0)  # never moves backwards
        assert loop.now == 5.0

    def test_run_until_exact_event_time_fires_event(self):
        loop = EventLoop()
        fired = []
        loop.call_at(2.0, lambda: fired.append(loop.now))
        loop.run(until=2.0)
        assert fired == [2.0]
        assert loop.now == 2.0

    def test_double_cancel_counts_once(self):
        loop = EventLoop()
        event = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert loop.pending() == 1

    def test_cancel_after_firing_keeps_pending_accurate(self):
        loop = EventLoop()
        event = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        loop.run(until=1.5)
        event.cancel()  # already fired: must not skew the live count
        assert loop.pending() == 1
        loop.run()
        assert loop.pending() == 0

    def test_mass_cancellation_compacts_heap(self):
        loop = EventLoop()
        keep, cancelled = [], []
        events = [
            loop.call_at(float(i + 1), lambda i=i: keep.append(i))
            for i in range(200)
        ]
        for event in events[50:]:
            event.cancel()
            cancelled.append(event)
        # Lazy deletion must not leave 150 dead entries in the heap.
        assert loop.pending() == 50
        assert len(loop._heap) < 200
        loop.run()
        assert keep == list(range(50))

    def test_cancellation_during_run_stays_consistent(self):
        loop = EventLoop()
        fired = []
        later = [loop.call_at(10.0 + i, lambda i=i: fired.append(i))
                 for i in range(100)]

        def cancel_most():
            for event in later[5:]:
                event.cancel()

        loop.call_at(1.0, cancel_most)
        loop.run()
        assert fired == [0, 1, 2, 3, 4]
        assert loop.pending() == 0

    def test_max_events_budget_allows_exact_count(self):
        loop = EventLoop()
        for i in range(10):
            loop.call_at(float(i), lambda: None)
        loop.run(max_events=10)  # exactly the budget: no error
        assert loop.pending() == 0

    def test_max_events_budget_exhaustion_raises(self):
        loop = EventLoop()
        for i in range(11):
            loop.call_at(float(i), lambda: None)
        with pytest.raises(SimulationError):
            loop.run(max_events=10)

    def test_cancelled_events_do_not_consume_budget(self):
        loop = EventLoop()
        events = [loop.call_at(float(i), lambda: None) for i in range(50)]
        for event in events[:40]:
            event.cancel()
        loop.run(max_events=10)  # only the 10 live events count
        assert loop.pending() == 0

    def test_stop_returns_after_current_callback(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, lambda: (fired.append(1.0), loop.stop()))
        loop.call_at(2.0, lambda: fired.append(2.0))
        loop.run(until=10.0)
        assert fired == [1.0]
        # The clock stays at the stopping event, not the run deadline.
        assert loop.now == 1.0
        assert loop.pending() == 1

    def test_stopped_loop_can_resume(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, lambda: (fired.append(1.0), loop.stop()))
        loop.call_at(2.0, lambda: fired.append(2.0))
        loop.run(until=10.0)
        loop.run(until=10.0)  # the stop flag does not stick
        assert fired == [1.0, 2.0]
        assert loop.now == 10.0

    def test_stop_outside_run_is_cleared_on_next_run(self):
        loop = EventLoop()
        loop.stop()
        fired = []
        loop.call_at(1.0, lambda: fired.append(1.0))
        loop.run()
        assert fired == [1.0]


class TestTimer:
    def test_fires_after_delay(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(2.0)
        loop.run()
        assert fired == [2.0]

    def test_restart_replaces_previous(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(2.0)
        timer.start(5.0)
        loop.run()
        assert fired == [5.0]

    def test_stop_prevents_firing(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(2.0)
        timer.stop()
        loop.run()
        assert fired == []

    def test_running_and_expiry(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        assert not timer.running
        assert timer.expiry is None
        timer.start(3.0)
        assert timer.running
        assert timer.expiry == 3.0
        loop.run()
        assert not timer.running

    def test_can_restart_after_firing(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(1.0)
        loop.run()
        timer.start(1.0)
        loop.run()
        assert fired == [1.0, 2.0]


class TestClose:
    def test_scheduling_on_a_closed_loop_raises(self):
        loop = EventLoop()
        loop.call_at(1.0, lambda: None)
        loop.close()
        assert loop.pending() == 0
        for schedule in (lambda: loop.call_at(2.0, lambda: None),
                         lambda: loop.call_later(0.0, lambda: None)):
            with pytest.raises(SimulationError, match="closed"):
                schedule()

    def test_pending_events_never_fire_and_drop_their_callbacks(self):
        loop = EventLoop()
        fired = []
        event = loop.call_at(1.0, lambda: fired.append(1))
        loop.close()
        loop.run()
        event.cancel()  # detached: no bookkeeping on the closed loop
        assert fired == [] and event.cancelled
        assert event.callback is noop
        assert loop.now == 0.0

    def test_closed_timer_reports_not_running(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        timer.start(3.0)
        loop.close()
        assert not timer.running
        assert timer.expiry is None
        with pytest.raises(SimulationError, match="closed"):
            timer.start(1.0)

    def test_released_timer_drops_its_callback(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.start(1.0)
        timer.release()
        assert not timer.running and loop.pending() == 0
        timer.start(1.0)
        loop.run()
        assert fired == []


class TestPeriodic:
    def test_fires_on_period(self):
        loop = EventLoop()
        fired = []
        ticker = Periodic(loop, 0.5, lambda: fired.append(loop.now))
        ticker.start(immediate=True)
        loop.run(until=1.6)
        assert fired == [0.0, 0.5, 1.0, 1.5]

    def test_non_immediate_start_waits_one_period(self):
        loop = EventLoop()
        fired = []
        ticker = Periodic(loop, 0.5, lambda: fired.append(loop.now))
        ticker.start(immediate=False)
        loop.run(until=1.1)
        assert fired == [0.5, 1.0]

    def test_stop_cancels_pending_event(self):
        loop = EventLoop()
        ticker = Periodic(loop, 0.5, lambda: None)
        ticker.start()
        assert loop.pending() == 1
        ticker.stop()
        # Cancelled, not merely flagged: nothing left in the queue.
        assert loop.pending() == 0
        assert not ticker.running

    def test_stopped_periodic_does_not_extend_a_drain_window(self):
        loop = EventLoop()
        fired = []
        ticker = Periodic(loop, 0.1, lambda: fired.append(loop.now))
        ticker.start()
        loop.run(until=0.25)
        ticker.stop()
        count = len(fired)
        loop.run(until=5.0)
        assert len(fired) == count

    def test_callback_may_stop_from_inside(self):
        loop = EventLoop()
        fired = []

        def tick():
            fired.append(loop.now)
            if len(fired) == 2:
                ticker.stop()

        ticker = Periodic(loop, 1.0, tick)
        ticker.start(immediate=False)
        loop.run()
        assert fired == [1.0, 2.0]
        assert loop.pending() == 0

    def test_immediate_callback_may_stop_before_scheduling(self):
        loop = EventLoop()
        ticker = Periodic(loop, 1.0, lambda: ticker.stop())
        ticker.start(immediate=True)
        assert loop.pending() == 0
        assert not ticker.running

    def test_restart_after_stop(self):
        loop = EventLoop()
        fired = []
        ticker = Periodic(loop, 1.0, lambda: fired.append(loop.now))
        ticker.start(immediate=False)
        loop.run(until=1.5)
        ticker.stop()
        ticker.start(immediate=False)
        loop.run(until=3.6)
        assert fired == [1.0, 2.5, 3.5]

    def test_invalid_period_rejected(self):
        with pytest.raises(SimulationError):
            Periodic(EventLoop(), 0.0, lambda: None)

    def test_start_is_idempotent_while_running(self):
        loop = EventLoop()
        fired = []
        ticker = Periodic(loop, 1.0, lambda: fired.append(loop.now))
        ticker.start(immediate=False)
        ticker.start(immediate=False)
        assert loop.pending() == 1
        loop.run(until=1.1)
        assert fired == [1.0]
