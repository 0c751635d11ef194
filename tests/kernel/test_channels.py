"""Unit tests for clocks and synchronisation primitives."""

import pytest

from repro.kernel import (
    Channel, Clock, Module, Mutex, NS, SimTime, Simulator, Timeout)
from repro.kernel.sync import Countdown


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

    def test_cycles_between(self, clock):
        assert clock.cycles_between(SimTime(100, NS), SimTime(1100, NS)) == 100

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, "bad", SimTime(0))

    def test_negative_period_rejected(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, "bad", -5)

    def test_integer_period_is_femtoseconds(self, sim):
        clock = Clock(sim, "clk", 10 * NS)
        assert clock.period == SimTime(10, NS)
        assert clock.cycles_fs(3) == 30 * NS

    def test_zero_cycles_take_no_time(self, clock):
        assert clock.cycles_fs(0) == 0
        assert clock.cycles(0) == SimTime(0)

    def test_cycles_between_counts_only_full_cycles(self, clock):
        start = SimTime(100, NS)
        assert clock.cycles_between(start, SimTime(109, NS)) == 0
        assert clock.cycles_between(start, SimTime(110, NS)) == 1
        assert clock.cycles_between(start, SimTime(125, NS)) == 2

    def test_clock_under_a_module_is_a_named_channel(self, sim):
        soc = Module(sim, "soc")
        clock = Clock(soc, "clk", SimTime(5, NS))
        assert isinstance(clock, Channel)
        assert clock.name == "soc.clk" and clock.sim is sim
        assert repr(clock) == "Clock('soc.clk', period=5 ns)"

    def test_clocked_wait_advances_by_whole_periods(self, sim, clock):
        def proc():
            yield Timeout(clock.cycles_fs(7))

        sim.spawn(proc())
        assert sim.run() == clock.cycles(7)
        assert clock.cycles_between(SimTime(0), sim.now) == 7


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

    def test_failed_try_acquire_is_not_a_contention(self, sim):
        mutex = Mutex(sim, "m")
        assert mutex.try_acquire()
        assert not mutex.try_acquire()
        assert mutex.acquisitions == 1
        assert mutex.contentions == 0

    def test_acquire_returns_the_mutex(self, sim):
        mutex = Mutex(sim, "m")
        held = []

        def proc():
            held.append((yield from mutex.acquire()))
            mutex.release()

        sim.spawn(proc())
        sim.run()
        assert held == [mutex]

    def test_release_to_a_queued_callback_keeps_the_lock_held(self, sim):
        """Between a release and the queued callback's take-over the lock
        stays held, so neither ``try_acquire`` nor ``idle`` sees it free."""
        mutex = Mutex(sim, "m")
        assert mutex.idle
        assert mutex.try_acquire()
        granted = []
        mutex.acquire_then(lambda: granted.append(sim.now_fs))
        assert not mutex.idle and mutex.contentions == 1
        mutex.release()
        assert mutex.locked and not mutex.idle
        assert not mutex.try_acquire()
        sim.run()
        assert granted == [0] and mutex.locked
        mutex.release()
        assert mutex.idle and mutex.acquisitions == 2

    def test_rewind_frees_the_lock_and_zeroes_the_statistics(self, sim):
        mutex = Mutex(sim, "m")
        assert mutex.try_acquire()
        mutex.acquire_then(lambda: None)
        mutex.rewind()
        assert mutex.idle and not mutex.locked
        assert mutex.acquisitions == 0 and mutex.contentions == 0
        # The dropped waiter never runs; the lock is free for the next one.
        sim.run()
        assert mutex.try_acquire() and mutex.acquisitions == 1

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

    def test_single_arrival_resumes_at_its_time(self, sim):
        countdown = Countdown(sim, "join")
        resumed = []

        def waiter():
            sim.schedule_callback(countdown.arrive, SimTime(4, NS))
            yield countdown.wait(1)
            resumed.append(sim.now_fs // NS)

        sim.spawn(waiter())
        sim.run()
        assert resumed == [4]

    def test_simultaneous_arrivals_resume_the_waiter_once(self, sim):
        countdown = Countdown(sim, "join")
        resumed = []

        def waiter():
            for _ in range(3):
                sim.schedule_callback(countdown.arrive, SimTime(2, NS))
            yield countdown.wait(3)
            resumed.append(sim.now_fs // NS)

        sim.spawn(waiter())
        sim.run()
        assert resumed == [2]

    def test_negative_count_rejected(self, sim):
        with pytest.raises(ValueError, match="at least one arrival"):
            Countdown(sim).wait(-1)

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
