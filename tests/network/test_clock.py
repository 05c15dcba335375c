"""Tests for the discrete-event scheduler core."""

import pytest

from repro.network.clock import Scheduler, SimulationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert Scheduler().clock.now == 0.0

    def test_clock_advances_with_events(self):
        s = Scheduler()
        s.call_after(2.5, lambda: None)
        s.run()
        assert s.clock.now == 2.5

    def test_clock_never_moves_backwards(self):
        s = Scheduler()
        s.call_at(1.0, lambda: None)
        s.run()
        with pytest.raises(SimulationError):
            s.call_at(0.5, lambda: None)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        s = Scheduler()
        fired = []
        s.call_after(3.0, fired.append, "c")
        s.call_after(1.0, fired.append, "a")
        s.call_after(2.0, fired.append, "b")
        s.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        s = Scheduler()
        fired = []
        for tag in ("first", "second", "third"):
            s.call_at(1.0, fired.append, tag)
        s.run()
        assert fired == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        s = Scheduler()
        with pytest.raises(SimulationError):
            s.call_after(-0.1, lambda: None)

    def test_non_finite_time_rejected(self):
        s = Scheduler()
        with pytest.raises(SimulationError):
            s.call_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            s.call_at(float("nan"), lambda: None)

    def test_cancelled_event_does_not_fire(self):
        s = Scheduler()
        fired = []
        ev = s.call_after(1.0, fired.append, "x")
        ev.cancel()
        s.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        s = Scheduler()
        ev = s.call_after(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert s.run() == 0

    def test_callback_args_passed(self):
        s = Scheduler()
        got = []
        s.call_after(0.1, lambda a, b: got.append((a, b)), 1, "two")
        s.run()
        assert got == [(1, "two")]

    def test_events_scheduled_during_run(self):
        s = Scheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                s.call_after(1.0, chain, n + 1)

        s.call_after(1.0, chain, 1)
        s.run()
        assert fired == [1, 2, 3]
        assert s.clock.now == 3.0


class TestRunModes:
    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False

    def test_run_returns_event_count(self):
        s = Scheduler()
        for i in range(5):
            s.call_after(i * 0.1, lambda: None)
        assert s.run() == 5

    def test_run_until_leaves_future_events(self):
        s = Scheduler()
        fired = []
        s.call_after(1.0, fired.append, "early")
        s.call_after(5.0, fired.append, "late")
        s.run_until(2.0)
        assert fired == ["early"]
        assert s.clock.now == 2.0
        assert s.pending == 1

    def test_run_until_boundary_inclusive(self):
        s = Scheduler()
        fired = []
        s.call_after(2.0, fired.append, "edge")
        s.run_until(2.0)
        assert fired == ["edge"]

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_run_until_refuses_a_non_finite_time(self, t):
        s = Scheduler()
        fired = []
        s.call_at(5.0, fired.append, "due at 5")
        with pytest.raises(SimulationError, match="must be finite"):
            s.run_until(t)
        with pytest.raises(SimulationError, match="must be finite"):
            s.run_for(t)
        # nothing fired and the clock did not move, so the scheduler stays usable
        assert (fired, s.clock.now, s.pending) == ([], 0.0, 1)
        s.call_after(1.0, fired.append, "after")
        s.run()
        assert fired == ["after", "due at 5"]

    def test_run_for_relative(self):
        s = Scheduler()
        s.run_for(10.0)
        s.run_for(3.0)
        assert s.clock.now == 13.0

    def test_runaway_guard(self):
        s = Scheduler()

        def forever():
            s.call_after(0.001, forever)

        s.call_after(0.001, forever)
        with pytest.raises(SimulationError):
            s.run(max_events=100)

    def test_runaway_guard_spares_a_queue_that_drained(self):
        s = Scheduler()
        for t in (1.0, 2.0, 3.0):
            s.call_at(t, lambda: None)
        assert s.run(max_events=3) == 3  # used to raise with nothing pending
        assert s.pending == 0

    def test_run_until_guard_needs_a_further_due_event(self):
        s = Scheduler()
        for t in (1.0, 2.0, 3.0, 11.0, 12.0):
            s.call_at(t, lambda: None)
        assert s.run_until(10.0, max_events=3) == 3  # used to raise at 3.0
        assert s.clock.now == 10.0
        with pytest.raises(SimulationError):
            s.run_until(12.0, max_events=1)  # the event at 12.0 is one too many
        assert (s.clock.now, s.pending) == (11.0, 1)

    def test_pending_counts_uncancelled(self):
        s = Scheduler()
        ev1 = s.call_after(1.0, lambda: None)
        s.call_after(2.0, lambda: None)
        ev1.cancel()
        assert s.pending == 1
