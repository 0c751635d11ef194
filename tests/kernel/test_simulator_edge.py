"""Kernel regression tests for scheduler edge cases.

Pins down the behaviours long campaigns rely on: exact ``run(until=...)``
boundary handling, cancelled-entry skipping and lazy-deletion compaction,
deadlock detection on an empty queue, deterministic FIFO dispatch of
simultaneous activations, the O(1) pending-activation counter and the
idle check of ``rewind()`` and the fresh-run replay after it.
"""

import pytest

from repro.kernel import NS, SimTime, Simulator, Timeout
from repro.kernel.exceptions import (
    DeadlockError, KernelError, ProcessKilled, SchedulingError)


class TestRunUntilBoundary:
    def test_until_landing_exactly_on_event_timestamp(self, sim):
        fired = []

        def proc():
            yield Timeout(SimTime(10, NS))
            fired.append(sim.now.femtoseconds)
            yield Timeout(SimTime(10, NS))
            fired.append(sim.now.femtoseconds)

        sim.spawn(proc())
        now = sim.run(until=SimTime(10, NS))
        # The activation at exactly t == until must run, and time must stop
        # at the boundary, not at the next pending activation.
        assert fired == [10 * NS]
        assert now == SimTime(10, NS)

    def test_until_before_first_event_just_advances_time(self, sim):
        fired = []

        def proc():
            yield Timeout(SimTime(10, NS))
            fired.append("late")

        sim.spawn(proc())
        sim.run(until=SimTime(4, NS))
        assert fired == []
        assert sim.now == SimTime(4, NS)
        # The remaining activation is still pending and runs on resume.
        sim.run()
        assert fired == ["late"]

    def test_resume_after_boundary_continues(self, sim):
        fired = []

        def proc():
            for _ in range(3):
                yield Timeout(SimTime(5, NS))
                fired.append(sim.now.femtoseconds)

        sim.spawn(proc())
        sim.run(until=SimTime(5, NS))
        assert fired == [5 * NS]
        sim.run(until=SimTime(15, NS))
        assert fired == [5 * NS, 10 * NS, 15 * NS]


    def test_until_in_the_past_is_refused(self, sim):
        def proc():
            yield Timeout(SimTime(20, NS))

        sim.spawn(proc())
        sim.run(until=SimTime(12, NS))
        with pytest.raises(SchedulingError):
            sim.run(until=SimTime(5, NS))
        # Time never moves backwards, and the pending work is untouched.
        assert sim.now == SimTime(12, NS)
        assert sim.pending_activations == 1
        # Running until the current time is allowed (and a no-op here).
        assert sim.run(until=SimTime(12, NS)) == SimTime(12, NS)
        assert sim.run() == SimTime(20, NS)


class TestDeadlock:
    def test_empty_queue_with_until_raises(self, sim):
        with pytest.raises(DeadlockError):
            sim.run(until=SimTime(1, NS))

    def test_drained_queue_then_until_raises(self, sim):
        def proc():
            yield Timeout(SimTime(1, NS))

        sim.spawn(proc())
        sim.run()
        with pytest.raises(DeadlockError):
            sim.run(until=SimTime(10, NS))

    def test_run_without_until_on_empty_queue_is_a_no_op(self, sim):
        assert sim.run() == SimTime(0)

    def test_kernel_errors_share_one_base(self, sim):
        for error in (SchedulingError, ProcessKilled, DeadlockError):
            assert issubclass(error, KernelError)
        with pytest.raises(KernelError):
            sim.run(until=SimTime(1, NS))

    def test_only_cancelled_entries_with_until_raises(self, sim):
        entry = sim.schedule_callback(lambda: None, 10)
        sim.cancel(entry)
        with pytest.raises(DeadlockError):
            sim.run(until=50)
        assert sim.now_fs == 0


class TestCancellation:
    def test_cancelled_callback_is_not_dispatched(self, sim):
        fired = []
        entry = sim.schedule_callback(lambda: fired.append("cancelled"),
                                      SimTime(1, NS))
        sim.schedule_callback(lambda: fired.append("kept"), SimTime(1, NS))
        assert sim.cancel(entry) is True
        sim.run()
        assert fired == ["kept"]
        assert sim.dispatched_activations == 1

    def test_cancel_is_idempotent(self, sim):
        entry = sim.schedule_callback(lambda: None, SimTime(1, NS))
        assert sim.cancel(entry) is True
        assert sim.cancel(entry) is False
        assert sim.pending_activations == 0

    def test_a_cancelled_entry_past_until_still_stops_at_the_bound(self, sim):
        sim.schedule_callback(lambda: None, 5)
        entry = sim.schedule_callback(lambda: None, 100)
        sim.cancel(entry)
        sim.run(until=50)
        assert sim.now_fs == 50
        # Unbounded, the cancelled entry is dropped without moving time.
        sim.run()
        assert sim.now_fs == 50
        assert not sim._queue

    def test_only_cancelled_entries_past_until_raise_too(self, sim):
        entry = sim.schedule_callback(lambda: None, 100)
        sim.cancel(entry)
        with pytest.raises(DeadlockError):
            sim.run(until=50)
        sim.run()  # unbounded, the cancelled entry is dropped
        assert sim.now_fs == 0 and not sim._queue

    def test_cancel_releases_action_and_value(self, sim):
        marker = object()
        entry = sim.schedule_callback(lambda m=marker: m, SimTime(1, NS))
        sim.cancel(entry)
        assert entry.action is None and entry.value is None

    def test_compaction_drops_cancelled_entries(self, sim):
        # Enough entries to clear the compaction floor, more than half
        # cancelled: the heap itself must shrink (lazy deletion bounded).
        entries = [sim.schedule_callback(lambda: None, SimTime(i + 1, NS))
                   for i in range(100)]
        for entry in entries[: 60]:
            sim.cancel(entry)
        # Compaction fires as soon as cancelled entries outnumber live ones,
        # so the heap holds the 40 live entries plus at most the few
        # cancellations that arrived after the rebuild.
        assert 40 <= len(sim._queue) <= 49
        assert sim.pending_activations == 40
        sim.run()
        assert sim.dispatched_activations == 40

    def test_small_queues_are_not_compacted(self, sim):
        entries = [sim.schedule_callback(lambda: None, SimTime(i + 1, NS))
                   for i in range(10)]
        for entry in entries:
            sim.cancel(entry)
        # Below the compaction floor the entries stay (lazily deleted)...
        assert len(sim._queue) == 10
        assert sim.pending_activations == 0
        # ...and are skipped silently at dispatch time.
        sim.run()
        assert sim.dispatched_activations == 0

    def test_cancel_after_dispatch_is_a_no_op(self, sim):
        # Timeout-vs-event race: cancelling an entry that already ran must
        # not return True or corrupt the O(1) counters.
        entry = sim.schedule_callback(lambda: None, SimTime(1, NS))
        sim.run()
        assert sim.cancel(entry) is False
        assert sim.pending_activations == 0
        assert sim._cancelled_count == 0

    def test_mid_run_compaction_keeps_future_events(self, sim):
        # A dispatched action that cancels enough entries to trigger
        # compaction must not strand the running drain: events scheduled
        # afterwards still fire.
        fired = []
        victims = [sim.schedule_callback(lambda: None, SimTime(100 + i, NS))
                   for i in range(80)]

        def cancel_and_reschedule():
            for victim in victims:
                sim.cancel(victim)
            sim.schedule_callback(lambda: fired.append("late"), SimTime(5, NS))

        sim.schedule_callback(cancel_and_reschedule, SimTime(1, NS))
        sim.run()
        assert fired == ["late"]
        assert sim.pending_activations == 0
        assert sim._cancelled_count == 0

    def test_compaction_preserves_dispatch_order(self, sim):
        fired = []
        keep = []
        for i in range(100):
            delay = SimTime(i + 1, NS)
            if i % 3 == 0:
                keep.append(i)
                sim.schedule_callback(lambda i=i: fired.append(i), delay)
            else:
                sim.cancel(sim.schedule_callback(lambda: None, delay))
        sim.run()
        assert fired == keep


class TestDispatchCounting:
    def test_raising_callback_does_not_lose_the_batch_count(self, sim):
        # Both activations of the slot ran; the counter must say so even
        # though the second one raised out of run().
        sim.schedule_callback(lambda: None, SimTime(1, NS))

        def boom():
            raise RuntimeError("boom")

        sim.schedule_callback(boom, SimTime(1, NS))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.dispatched_activations == 2

    def test_negative_delays_raise_valueerror_for_every_operand_type(self, sim):
        for delay in (-1, -1.5, ):
            with pytest.raises(ValueError):
                sim.schedule_callback(lambda: None, delay)


class TestFifoDeterminism:
    def test_simultaneous_activations_run_in_schedule_order(self, sim):
        order = []
        for index in range(50):
            sim.schedule_callback(lambda i=index: order.append(i), SimTime(1, NS))
        sim.run()
        assert order == list(range(50))

    def test_same_delta_spawns_resume_in_spawn_order(self, sim):
        order = []

        def proc(tag):
            order.append(tag)
            yield Timeout(SimTime(1, NS))
            order.append(f"{tag}'")

        for tag in ("a", "b", "c"):
            sim.spawn(proc(tag), name=tag)
        sim.run()
        assert order == ["a", "b", "c", "a'", "b'", "c'"]

    def test_delta_entries_scheduled_during_drain_run_same_timestamp(self, sim):
        order = []

        def chained():
            order.append("first")
            sim.schedule_callback(lambda: order.append("delta"))

        sim.schedule_callback(chained, SimTime(2, NS))
        sim.schedule_callback(lambda: order.append("second"), SimTime(2, NS))
        sim.run()
        # The delta callback lands at the same timestamp and must run in the
        # same evaluate drain, after the already queued activations.
        assert order == ["first", "second", "delta"]
        assert sim.now == SimTime(2, NS)


class TestPendingCounter:
    def test_counter_tracks_push_dispatch_and_cancel(self, sim):
        assert sim.pending_activations == 0
        entries = [sim.schedule_callback(lambda: None, SimTime(i + 1, NS))
                   for i in range(5)]
        assert sim.pending_activations == 5
        sim.cancel(entries[0])
        assert sim.pending_activations == 4
        sim.run(until=SimTime(3, NS))
        assert sim.pending_activations == 2
        sim.run()
        assert sim.pending_activations == 0

    def test_counter_matches_live_queue_scan(self, sim):
        entries = [sim.schedule_callback(lambda: None, SimTime(i + 1, NS))
                   for i in range(30)]
        for entry in entries[::2]:
            sim.cancel(entry)
        live = sum(1 for entry in sim._queue if not entry.cancelled)
        assert sim.pending_activations == live

    def test_counter_includes_process_activations(self, sim):
        def proc():
            yield Timeout(SimTime(1, NS))

        sim.spawn(proc())
        assert sim.pending_activations == 1


class TestRewind:
    def test_rewind_refuses_pending_entries(self):
        sim = Simulator()
        sim.schedule_callback(lambda: None, SimTime(10))
        sim.schedule_callback(lambda: None, SimTime(30))
        with pytest.raises(SchedulingError, match="not idle"):
            sim.rewind()
        sim.run(until=SimTime(20))  # stopped with one entry left
        with pytest.raises(SchedulingError, match="not idle"):
            sim.rewind()
        assert sim.now == SimTime(20) and sim.pending_activations == 1
        sim.run()
        sim.rewind()
        assert sim.now == SimTime(0) and sim.dispatched_activations == 0

    def test_rewind_refuses_a_store_of_cancelled_entries(self, sim):
        """Cancelled entries still sit in the store until a drain drops
        them, so a store holding only those is not idle either."""
        sim.schedule_callback(lambda: None, SimTime(5))
        entries = [sim.schedule_callback(lambda: None, SimTime(10 + i))
                   for i in range(3)]
        sim.run(until=SimTime(5))
        for entry in entries:
            sim.cancel(entry)
        assert sim.pending_activations == 0 and len(sim._queue) == 3
        with pytest.raises(SchedulingError, match="not idle"):
            sim.rewind()
        sim.run()
        assert sim._queue == [] and sim.now == SimTime(5)
        sim.rewind()
        assert sim.now == SimTime(0) and sim.dispatched_activations == 0

    def test_rewind_of_a_fresh_simulator_changes_nothing(self, sim):
        sim.rewind()
        assert sim.now == SimTime(0) and sim.pending_activations == 0
        assert sim.dispatched_activations == 0

    def test_rewind_refuses_while_running(self, sim):
        refusals = []

        def try_rewind():
            try:
                sim.rewind()
            except SchedulingError as exc:
                refusals.append(str(exc))

        sim.schedule_callback(try_rewind, SimTime(3, NS))
        sim.run()
        assert len(refusals) == 1 and "not idle" in refusals[0]
        assert sim.now == SimTime(3, NS)
        sim.rewind()
        assert sim.now == SimTime(0)

    def test_rewind_zeroes_the_credited_activations(self, sim):
        sim.schedule_callback(lambda: sim.credit_activations(3), SimTime(2))
        sim.run()
        assert sim.credited_activations == 3
        assert sim.dispatched_activations == 4
        sim.rewind()
        assert sim.credited_activations == 0
        assert sim.dispatched_activations == 0

    def test_a_rewound_simulator_replays_a_fresh_run(self):
        """After a rewind the same model dispatches what it would on a new
        simulator: the same order, the same times, the same counts."""

        def play(sim):
            log = []
            done = sim.event("done")

            def worker(tag, delay_ns):
                yield Timeout(SimTime(delay_ns, NS))
                log.append((sim.now_fs, tag))
                if tag == "b":
                    done.notify(SimTime(1, NS))

            def joiner():
                yield done
                log.append((sim.now_fs, "joined"))

            sim.spawn(worker("a", 5))
            sim.spawn(worker("b", 3))
            sim.spawn(joiner())
            sim.schedule_callback(lambda: log.append((sim.now_fs, "cb")),
                                  SimTime(3, NS))
            end = sim.run()
            return log, end, sim.dispatched_activations

        fresh = play(Simulator("fresh"))
        reused = Simulator("reused")
        play(reused)
        reused.rewind()
        assert play(reused) == fresh
