"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.net.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        keep.cancel()
        assert sim.pending_events == 0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_resume_after_partial_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestPendingCounter:
    """pending_events is a live counter, not a queue scan."""

    def test_counts_scheduled_events(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 3

    def test_cancel_decrements_immediately(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in (1, 2)]
        handles[0].cancel()
        # The cancelled entry still sits in the heap, but the count
        # reflects only live events.
        assert sim.pending_events == 1

    def test_double_cancel_does_not_double_decrement(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()
        assert sim.pending_events == 1

    def test_counter_tracks_across_partial_runs(self):
        sim = Simulator()
        for delay in (1.0, 5.0, 9.0):
            sim.schedule(delay, lambda: None)
        sim.run(until=2.0)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_counter_matches_queue_scan(self):
        # The counter must agree with the definitionally correct O(n)
        # scan under a mixed schedule/cancel/run workload.
        sim = Simulator()
        handles = [
            sim.schedule(float(i % 7) + 0.5, lambda: None)
            for i in range(40)
        ]
        for handle in handles[::3]:
            handle.cancel()
        sim.run(until=3.0)
        scan = sum(
            1 for _, _, event in sim._queue if not event.cancelled
        )
        assert sim.pending_events == scan

    def test_events_cancelled_by_handlers_mid_run(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.schedule(3.0, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]
        assert sim.pending_events == 0


class TestTimestampEndBarrier:
    """call_at_timestamp_end defers work to the end of the current instant."""

    def test_barrier_runs_after_all_same_time_events(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: order.append("barrier")
        ))
        sim.schedule(1.0, order.append, "b")
        sim.schedule(2.0, order.append, "later")
        sim.run()
        assert order == ["a", "b", "barrier", "later"]

    def test_barrier_runs_before_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: seen.append(sim.now)
        ))
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert seen == [1.0]

    def test_barrier_runs_when_queue_drains(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: seen.append(sim.now)
        ))
        sim.run()
        assert seen == [1.0]
        assert sim.now == 1.0

    def test_barrier_runs_before_run_until_pads_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: seen.append(sim.now)
        ))
        sim.run(until=10.0)
        assert seen == [1.0]
        assert sim.now == 10.0

    def test_barrier_may_schedule_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(
            lambda: sim.schedule(0.5, lambda: fired.append(sim.now))
        ))
        sim.run()
        assert fired == [1.5]

    def test_barrier_event_at_current_time_reopens_timestamp(self):
        sim = Simulator()
        order = []

        def barrier():
            order.append("barrier")
            sim.schedule(0.0, order.append, "reopened")

        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(barrier))
        sim.schedule(2.0, order.append, "later")
        sim.run()
        assert order == ["barrier", "reopened", "later"]

    def test_barriers_registered_outside_run_fire_before_first_advance(self):
        sim = Simulator()
        order = []
        sim.call_at_timestamp_end(lambda: order.append(("barrier", sim.now)))
        sim.schedule(3.0, lambda: order.append(("event", sim.now)))
        sim.run()
        assert order == [("barrier", 0.0), ("event", 3.0)]

    def test_barrier_callbacks_are_not_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.call_at_timestamp_end(lambda: None))
        sim.run()
        assert sim.events_fired == 1

    def test_multiple_barriers_fire_in_registration_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: [
            sim.call_at_timestamp_end(lambda: order.append("first")),
            sim.call_at_timestamp_end(lambda: order.append("second")),
        ])
        sim.run()
        assert order == ["first", "second"]
