"""Unit tests for events, processes and the scheduler."""

import pytest

from repro.kernel import (
    AllOf,
    AnyOf,
    Event,
    NS,
    SimTime,
    Simulator,
    Timeout,
)
from repro.kernel.exceptions import DeadlockError, SchedulingError


class TestTimeoutAndRun:
    def test_timeout_advances_time(self, sim):
        log = []

        def proc():
            yield Timeout(SimTime(10, NS))
            log.append(sim.now)
            yield Timeout(SimTime(5, NS))
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [SimTime(10, NS), SimTime(15, NS)]

    def test_run_until_limits_time(self, sim):
        def proc():
            for _ in range(10):
                yield Timeout(SimTime(10, NS))

        sim.spawn(proc())
        end = sim.run(until=SimTime(35, NS))
        assert end == SimTime(35, NS)
        assert sim.pending_activations > 0

    def test_run_until_with_empty_queue_raises(self, sim):
        with pytest.raises(DeadlockError):
            sim.run(until=SimTime(1, NS))

    def test_run_with_empty_queue_returns_zero(self, sim):
        assert sim.run() == SimTime(0)

    def test_deterministic_ordering_of_simultaneous_processes(self, sim):
        order = []

        def proc(tag):
            yield Timeout(SimTime(10, NS))
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.spawn(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_process_return_value_stored(self, sim):
        def proc():
            yield Timeout(1)
            return 42

        process = sim.spawn(proc())
        sim.run()
        assert process.result == 42
        assert not process.alive

    def test_process_exception_is_reported(self, sim):
        def broken():
            yield Timeout(1)
            raise ValueError("model bug")

        sim.spawn(broken())
        with pytest.raises(RuntimeError, match="model bug"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)

    def test_dispatched_activations_counted(self, sim):
        def proc():
            for _ in range(5):
                yield Timeout(1)

        sim.spawn(proc())
        sim.run()
        assert sim.dispatched_activations >= 5


class TestEvents:
    def test_notify_wakes_waiter(self, sim):
        event = sim.event("go")
        log = []

        def waiter():
            value = yield event
            log.append((sim.now, value))

        def notifier():
            yield Timeout(SimTime(20, NS))
            event.notify(0, value="data")

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert log == [(SimTime(20, NS), "data")]

    def test_delayed_notification(self, sim):
        event = sim.event()
        times = []

        def waiter():
            yield event
            times.append(sim.now)

        sim.spawn(waiter())
        event.notify(SimTime(50, NS))
        sim.run()
        assert times == [SimTime(50, NS)]

    def test_notification_only_wakes_current_waiters(self, sim):
        event = sim.event()
        log = []

        def late_waiter():
            yield Timeout(SimTime(10, NS))
            yield event
            log.append("late")

        sim.spawn(late_waiter())
        event.notify(0)  # fires before the waiter subscribes
        sim.run(until=SimTime(100, NS))
        assert log == []

    def test_unattached_event_notify_raises(self):
        event = Event()
        with pytest.raises(SchedulingError):
            event.notify()

    def test_event_callback_invoked(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(seen.append)
        event.notify(0, value=7)
        sim.run()
        assert seen == [7]

    def test_waiter_count(self, sim):
        event = sim.event()

        def waiter():
            yield event

        sim.spawn(waiter())
        sim.run(until=SimTime(1, NS))
        assert event.waiter_count == 1


class TestCompositeWaits:
    def test_anyof_wakes_on_first(self, sim):
        first = sim.event("first")
        second = sim.event("second")
        log = []

        def waiter():
            yield AnyOf([first, second])
            log.append(sim.now)

        sim.spawn(waiter())
        second.notify(SimTime(5, NS))
        first.notify(SimTime(9, NS))
        sim.run()
        assert log == [SimTime(5, NS)]

    def test_allof_waits_for_all(self, sim):
        first = sim.event("first")
        second = sim.event("second")
        log = []

        def waiter():
            yield AllOf([first, second])
            log.append(sim.now)

        sim.spawn(waiter())
        first.notify(SimTime(5, NS))
        second.notify(SimTime(30, NS))
        sim.run()
        assert log == [SimTime(30, NS)]

    def test_repeated_joins_do_not_accumulate_callbacks(self, sim):
        beacon = sim.event("beacon")
        held = []

        def joiner():
            for _ in range(1000):
                stage = sim.event("stage")
                stage.notify(2)
                beacon.notify(1)
                yield AllOf([beacon, stage])
                held.append(len(beacon._callbacks))

        sim.spawn(joiner())
        sim.run()
        assert held == [0] * 1000
        # The spawn, then per join two notifications and one resume: the
        # same activations as when every join left its callbacks behind.
        assert sim.dispatched_activations == 3002

    def test_killed_joiner_unregisters_its_callbacks(self, sim):
        first = sim.event("first")
        second = sim.event("second")

        def joiner():
            yield AllOf([first, second])

        process = sim.spawn(joiner())
        first.notify(1)
        sim.run()
        assert len(first._callbacks) == len(second._callbacks) == 1
        process.kill()
        assert first._callbacks == second._callbacks == []

    def test_empty_composite_rejected(self):
        with pytest.raises(SchedulingError):
            AnyOf([])
        with pytest.raises(SchedulingError):
            AllOf([])

    def test_join_on_process(self, sim):
        def worker():
            yield Timeout(SimTime(25, NS))
            return "done"

        results = []

        def parent():
            child = sim.spawn(worker(), name="child")
            value = yield child
            results.append((sim.now, value))

        sim.spawn(parent())
        sim.run()
        assert results == [(SimTime(25, NS), "done")]

    def test_join_on_finished_process_returns_immediately(self, sim):
        def worker():
            yield Timeout(1)
            return 5

        def parent():
            child = sim.spawn(worker(), name="child")
            yield Timeout(SimTime(10, NS))
            value = yield child
            return value

        process = sim.spawn(parent())
        sim.run()
        assert process.result == 5


class TestProcessControl:
    def test_kill_stops_process(self, sim):
        log = []

        def runner():
            while True:
                yield Timeout(SimTime(10, NS))
                log.append(sim.now)

        process = sim.spawn(runner())

        def killer():
            yield Timeout(SimTime(25, NS))
            process.kill()

        sim.spawn(killer())
        sim.run(until=SimTime(200, NS))
        assert len(log) == 2
        assert not process.alive

    def test_yield_none_waits_a_delta(self, sim):
        order = []

        def first():
            order.append("first-before")
            yield None
            order.append("first-after")

        def second():
            order.append("second")
            yield Timeout(1)

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        assert order.index("second") < order.index("first-after")

    def test_yield_unsupported_object_raises(self, sim):
        def broken():
            yield "not a condition"

        sim.spawn(broken())
        with pytest.raises(Exception):
            sim.run()
