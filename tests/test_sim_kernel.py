"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_property(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        handle.cancel()
        assert not handle.pending

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_count == 1


class TestEdgeCases:
    """Corner cases the multi-user workload engine leans on."""

    def test_cancelled_handle_does_not_fire_even_when_cancelled_mid_run(self):
        """An event may cancel a same-instant later event before it fires."""
        sim = Simulator()
        log = []
        victim = sim.schedule(1.0, log.append, "victim")
        sim.schedule_at(1.0, victim.cancel)
        # FIFO order puts `victim` first: it fires before the canceller.
        sim.run()
        assert log == ["victim"]

        sim2 = Simulator()
        log2 = []

        def arm():
            victim2 = sim2.schedule(0.0, log2.append, "victim")
            sim2.schedule(0.0, victim2.cancel)
            victim2.cancel()  # cancelled before its slot: must never fire

        sim2.schedule(1.0, arm)
        sim2.run()
        assert log2 == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        sim.run()
        handle.cancel()  # already fired: must not corrupt anything
        assert log == ["x"]
        assert not handle.pending

    def test_same_instant_fifo_across_schedule_and_schedule_at(self):
        """Mixing schedule()/schedule_at() at one instant keeps strict
        scheduling order (the seq tie-break)."""
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule_at(1.0, log.append, "b")
        sim.schedule(1.0, log.append, "c")
        sim.schedule_at(1.0, log.append, "d")
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_same_instant_fifo_with_interleaved_cancels(self):
        sim = Simulator()
        log = []
        handles = [sim.schedule(2.0, log.append, tag) for tag in "abcde"]
        handles[1].cancel()
        handles[3].cancel()
        sim.run()
        assert log == ["a", "c", "e"]

    def test_schedule_in_past_raises_simulation_error_mid_run(self):
        """Once the clock advanced, scheduling behind it must raise."""
        sim = Simulator()
        errors = []

        def backdate():
            try:
                sim.schedule_at(sim.now - 0.5, lambda: None)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, backdate)
        sim.run()
        assert len(errors) == 1

    def test_reentrant_run_raises(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_cancelled_events_do_not_count_as_executed(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        sim.run()
        assert keep is not None
        assert sim.events_executed == 1


class TestRunControl:
    def test_run_until_executes_boundary_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "in")
        sim.schedule(2.0, log.append, "boundary")
        sim.schedule(2.5, log.append, "out")
        sim.run(until=2.0)
        assert log == ["in", "boundary"]
        assert sim.now == 2.0

    def test_run_until_sets_clock_even_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=4.0)

    def test_continue_running_after_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(5.0, log.append, 5)
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert log == [1, 5]

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestFastScheduling:
    """schedule_fast/schedule_at_fast: identical ordering, no handle."""

    def test_fast_events_interleave_fifo_with_normal_ones(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule_fast(1.0, log.append, "b")
        sim.schedule_at(1.0, log.append, "c")
        sim.schedule_at_fast(1.0, log.append, "d")
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_fast_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_fast(-0.1, lambda: None)

    def test_fast_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at_fast(5.0, lambda: None)

    def test_fast_events_count_in_pending_and_step(self):
        sim = Simulator()
        log = []
        sim.schedule_fast(1.0, log.append, "x")
        assert sim.pending_count == 1
        sim.run(until=1.0)  # exactly the one event
        assert log == ["x"] and sim.now == 1.0


class TestCancellationAccounting:
    """pending_count counts live entries; cancelled ones never fire."""

    def test_pending_count_after_mass_cancellation(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(500)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_count == 250

    def test_compaction_preserves_order_and_counts(self):
        sim = Simulator()
        log = []
        keep = [sim.schedule(float(i + 1), log.append, i) for i in range(100)]
        drop = [sim.schedule(1000.0 + i, lambda: None) for i in range(300)]
        for handle in drop:
            handle.cancel()
        assert sim.pending_count == 100
        sim.run()
        assert log == list(range(100))
        assert keep[0].pending is False

    def test_cancel_mid_run_with_compaction(self):
        sim = Simulator()
        log = []
        victims = [sim.schedule(2.0 + i * 1e-6, log.append, i) for i in range(200)]

        def cancel_all():
            for victim in victims:
                victim.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(5000.0, log.append, "end")
        sim.run()
        assert log == ["end"]
        assert sim.events_executed == 2
