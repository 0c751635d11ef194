"""Unit tests for FIFOs, signals, clocks and synchronisation primitives."""

import pytest

from repro.kernel import (
    Clock,
    Fifo,
    Mutex,
    NS,
    Semaphore,
    Signal,
    SimTime,
    Simulator,
    Timeout,
)
from repro.kernel.sync import Countdown


class TestFifo:
    def test_put_get_order(self, sim):
        fifo = Fifo(sim, "f", capacity=4)
        received = []

        def producer():
            for value in range(6):
                yield from fifo.put(value)

        def consumer():
            for _ in range(6):
                value = yield from fifo.get()
                received.append(value)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert received == list(range(6))

    def test_blocking_put_when_full(self, sim):
        fifo = Fifo(sim, "f", capacity=1)
        times = []

        def producer():
            yield from fifo.put("a")
            yield from fifo.put("b")
            times.append(sim.now)

        def consumer():
            yield Timeout(SimTime(100, NS))
            yield from fifo.get()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert times[0] >= SimTime(100, NS)

    def test_blocking_get_when_empty(self, sim):
        fifo = Fifo(sim, "f")
        times = []

        def consumer():
            value = yield from fifo.get()
            times.append((sim.now, value))

        def producer():
            yield Timeout(SimTime(42, NS))
            yield from fifo.put("late")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert times == [(SimTime(42, NS), "late")]

    def test_try_put_try_get(self, sim):
        fifo = Fifo(sim, "f", capacity=1)
        assert fifo.try_put(1)
        assert not fifo.try_put(2)
        ok, value = fifo.try_get()
        assert ok and value == 1
        ok, value = fifo.try_get()
        assert not ok and value is None

    def test_len_and_free(self, sim):
        fifo = Fifo(sim, "f", capacity=3)
        fifo.try_put("x")
        assert len(fifo) == 1
        assert fifo.free == 2

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Fifo(sim, "f", capacity=0)


class TestSignal:
    def test_write_visible_after_delta(self, sim):
        signal = Signal(sim, "s", initial=0)
        observed = []

        def writer():
            signal.write(5)
            observed.append(("same_delta", signal.read()))
            yield Timeout(1)
            observed.append(("after", signal.read()))

        sim.spawn(writer())
        sim.run()
        assert observed == [("same_delta", 0), ("after", 5)]

    def test_value_changed_event(self, sim):
        signal = Signal(sim, "s", initial=0)
        changes = []

        def watcher():
            while True:
                value = yield signal.value_changed
                changes.append(value)
                if value == 2:
                    break

        def driver():
            yield Timeout(SimTime(10, NS))
            signal.write(1)
            yield Timeout(SimTime(10, NS))
            signal.write(2)

        sim.spawn(watcher())
        sim.spawn(driver())
        sim.run()
        assert changes == [1, 2]

    def test_writing_same_value_does_not_notify(self, sim):
        signal = Signal(sim, "s", initial=7)
        notified = []
        signal.value_changed.add_callback(notified.append)

        def driver():
            signal.write(7)
            yield Timeout(1)

        sim.spawn(driver())
        sim.run()
        assert notified == []


class TestClock:
    def test_cycles_duration(self, clock):
        assert clock.cycles(100) == SimTime(1000, NS)
        assert clock.cycles_fs(100) == 1000 * NS
        assert type(clock.cycles_fs(100)) is int
        timeout = Timeout(clock.cycles_fs(100))
        assert timeout.duration_fs == 1000 * NS
        assert timeout.duration == clock.cycles(100)

    def test_negative_cycle_count_rejected(self, clock):
        with pytest.raises(ValueError, match="cycle count"):
            clock.cycles_fs(-1)
        with pytest.raises(ValueError, match="cycle count"):
            clock.cycles(-1)
        with pytest.raises(ValueError):
            Timeout(-1)

    def test_frequency(self, clock):
        assert clock.frequency_hz == pytest.approx(100e6)

    def test_from_frequency(self, sim):
        clock = Clock.from_frequency(sim, "clk200", 200e6)
        assert clock.period == SimTime(5, NS)

    def test_cycles_between(self, clock):
        assert clock.cycles_between(SimTime(100, NS), SimTime(1100, NS)) == 100

    def test_posedge_wakes_processes(self, sim, clock):
        times = []

        def waiter():
            for _ in range(3):
                yield clock.posedge()
                times.append(sim.now)

        sim.spawn(waiter())
        sim.run(until=SimTime(100, NS))
        assert times == [SimTime(10, NS), SimTime(20, NS), SimTime(30, NS)]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, "bad", SimTime(0))
        with pytest.raises(ValueError):
            Clock.from_frequency(sim, "bad", 0.0)


class TestMutex:
    def test_mutual_exclusion_and_fifo_order(self, sim):
        mutex = Mutex(sim, "m")
        order = []

        def worker(tag, hold_ns):
            yield from mutex.acquire()
            order.append(f"{tag}-in")
            yield Timeout(SimTime(hold_ns, NS))
            order.append(f"{tag}-out")
            mutex.release()

        sim.spawn(worker("a", 30))
        sim.spawn(worker("b", 10))
        sim.spawn(worker("c", 10))
        sim.run()
        assert order == ["a-in", "a-out", "b-in", "b-out", "c-in", "c-out"]
        assert mutex.acquisitions == 3
        assert mutex.contentions == 2
        assert not mutex.locked

    def test_try_acquire(self, sim):
        mutex = Mutex(sim, "m")
        assert mutex.try_acquire()
        assert not mutex.try_acquire()
        mutex.release()
        assert mutex.try_acquire()

    def test_release_unheld_raises(self, sim):
        mutex = Mutex(sim, "m")
        with pytest.raises(RuntimeError):
            mutex.release()

    def test_no_sneak_in_between_release_and_handover(self, sim):
        """A late acquirer must not overtake an already queued waiter."""
        mutex = Mutex(sim, "m")
        order = []

        def holder():
            yield from mutex.acquire()
            yield Timeout(SimTime(10, NS))
            mutex.release()

        def queued():
            yield Timeout(SimTime(1, NS))
            yield from mutex.acquire()
            order.append("queued")
            yield Timeout(SimTime(10, NS))
            mutex.release()

        def late():
            yield Timeout(SimTime(10, NS))
            yield from mutex.acquire()
            order.append("late")
            mutex.release()

        sim.spawn(holder())
        sim.spawn(queued())
        sim.spawn(late())
        sim.run()
        assert order == ["queued", "late"]


    @pytest.mark.parametrize("kill_at_ns", [1, 10],
                             ids=["while_queued", "after_hand_over"])
    def test_killed_waiter_does_not_keep_the_lock(self, sim, kill_at_ns):
        """A waiter killed while queued, or at 10 ns right after the holder
        handed it the lock but before it resumed, must not keep the lock:
        the next waiter gets it."""
        mutex = Mutex(sim, "m")
        order = []

        def holder():
            yield from mutex.acquire()
            yield Timeout(SimTime(10, NS))
            mutex.release()

        def victim():
            yield from mutex.acquire()
            order.append("victim")  # pragma: no cover - must never run
            mutex.release()

        def later():
            yield Timeout(SimTime(2, NS))
            yield from mutex.acquire()
            order.append("later")
            mutex.release()

        def killer(process):
            yield Timeout(SimTime(kill_at_ns, NS))
            process.kill()

        sim.spawn(holder())
        doomed = sim.spawn(victim())
        sim.spawn(later())
        sim.spawn(killer(doomed))
        sim.run()
        assert order == ["later"]
        assert not mutex.locked
        assert mutex.acquisitions == 2

    def test_generator_and_callback_acquirers_share_one_fifo(self, sim):
        mutex = Mutex(sim, "m")
        order = []

        def hold(tag, hold_ns):
            order.append(f"{tag}-in@{sim.now_fs // NS}")

            def done():
                order.append(f"{tag}-out")
                mutex.release()

            sim.schedule_callback(done, SimTime(hold_ns, NS))

        def process(tag, start_ns, hold_ns):
            yield Timeout(SimTime(start_ns, NS))
            yield from mutex.acquire()
            order.append(f"{tag}-in@{sim.now_fs // NS}")
            yield Timeout(SimTime(hold_ns, NS))
            order.append(f"{tag}-out")
            mutex.release()

        # Free lock: the callback acquirer runs at once, in this activation.
        mutex.acquire_then(lambda: hold("c0", 10))
        assert order == ["c0-in@0"] and mutex.locked
        sim.spawn(process("p1", 1, 5))
        sim.schedule_callback(
            lambda: mutex.acquire_then(lambda: hold("c2", 5)), SimTime(2, NS))
        sim.spawn(process("p3", 3, 5))
        sim.schedule_callback(
            lambda: mutex.acquire_then(lambda: hold("c4", 5)), SimTime(4, NS))
        sim.run()
        assert order == ["c0-in@0", "c0-out", "p1-in@10", "p1-out",
                         "c2-in@15", "c2-out", "p3-in@20", "p3-out",
                         "c4-in@25", "c4-out"]
        assert mutex.acquisitions == 5
        assert mutex.contentions == 4
        assert not mutex.locked

    def test_callback_hand_over_costs_a_process_hand_over(self):
        """A queued callback acquirer gets the lock through the same number
        of activations, at the same times, as a queued process, and an
        activation between the release and the take-over sees the same
        acquisition count."""

        def run(callback_waiter):
            sim = Simulator("handover")
            mutex = Mutex(sim, "m")
            granted = []
            seen = []

            def observer():
                # Wakes right after the holder's release, before the
                # waiter has taken over.
                yield Timeout(SimTime(10, NS))
                seen.append(mutex.acquisitions)

            def holder():
                yield from mutex.acquire()
                yield Timeout(SimTime(10, NS))
                mutex.release()

            def waiter():
                yield from mutex.acquire()
                granted.append(sim.now_fs)
                mutex.release()

            sim.spawn(holder())
            sim.spawn(observer())
            if callback_waiter:
                def take():
                    granted.append(sim.now_fs)
                    mutex.release()
                    # Stands in for the waiter process's finished event.
                    sim.schedule_callback(lambda: None)

                sim.schedule_callback(lambda: mutex.acquire_then(take))
            else:
                sim.spawn(waiter())
            sim.run()
            return granted, seen, sim.dispatched_activations

        assert run(True) == run(False)


class TestCountdown:
    def test_last_arrival_resumes_the_waiter(self, sim):
        countdown = Countdown(sim, "join")
        resumed = []

        def waiter():
            for _ in range(2):
                for delay in (3, 1, 2):
                    sim.schedule_callback(countdown.arrive, SimTime(delay, NS))
                yield countdown.wait(3)
                resumed.append(sim.now_fs // NS)

        sim.spawn(waiter())
        sim.run()
        assert resumed == [3, 6]

    def test_misuse_raises(self, sim):
        countdown = Countdown(sim)
        with pytest.raises(ValueError):
            countdown.wait(0)
        countdown.wait(1)
        with pytest.raises(RuntimeError):
            countdown.wait(1)
        with pytest.raises(RuntimeError):
            Countdown(sim).arrive()

    def test_refused_arrival_changes_nothing(self, sim):
        """A stray arrival, before any wait or after one completed, raises
        and leaves the countdown armable: the next wait still joins."""
        countdown = Countdown(sim, "join")
        resumed = []
        with pytest.raises(RuntimeError, match="without a pending wait"):
            countdown.arrive()

        def waiter():
            for _ in range(2):
                for delay in (2, 5):
                    sim.schedule_callback(countdown.arrive, SimTime(delay, NS))
                yield countdown.wait(2)
                resumed.append(sim.now_fs // NS)
                with pytest.raises(RuntimeError,
                                   match="without a pending wait"):
                    countdown.arrive()

        sim.spawn(waiter())
        sim.run()
        assert resumed == [5, 10]


class TestSemaphore:
    def test_counting_behaviour(self, sim):
        semaphore = Semaphore(sim, initial=2)
        active = []
        peak = []

        def worker(tag):
            yield from semaphore.acquire()
            active.append(tag)
            peak.append(len(active))
            yield Timeout(SimTime(10, NS))
            active.remove(tag)
            semaphore.release()

        for tag in range(5):
            sim.spawn(worker(tag))
        sim.run()
        assert max(peak) <= 2
        assert semaphore.available == 2

    def test_negative_initial_rejected(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, initial=-1)
