"""The discrete-event scheduler.

The event store has two parts:

* a **deque fast lane** for activations at the timestamp being drained
  (delta cycles and zero-delay notifications join the running drain in O(1)
  with no comparisons at all),
* one **binary heap** of ``(time_fs, sequence, entry)`` tuples for every
  later activation.  The sequence number is unique, so tuple comparison
  never reaches the entry and runs entirely in C.

The drain pops every tuple at the next timestamp into the fast lane, so
simultaneous activations always run in exact FIFO-per-timestamp order, the
order of a plain ``(time, sequence)`` heap scheduler.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from types import MethodType
from typing import Callable, List, Optional, Union

from repro.kernel.event import Event
from repro.kernel.exceptions import DeadlockError, SchedulingError
from repro.kernel.process import Process
from repro.kernel.simtime import SimTime


class _QueueEntry:
    """An entry in the event store: the scheduled action and its value.

    Its time and FIFO order live in the heap tuple that carries it.
    """

    __slots__ = ("action", "value", "cancelled")

    def __init__(self, action, value):
        self.action = action
        self.value = value
        self.cancelled = False


class Simulator:
    """Event-driven simulation kernel.

    Three kinds of actions are scheduled: process resumptions, event
    notifications (the event fires with the entry's value) and plain
    callbacks.

    Cancelled entries are deleted lazily: :meth:`cancel` only marks the entry
    and the event store is compacted once cancelled entries outnumber live
    ones, so long-running campaigns do not accumulate dead objects.
    """

    #: Event-store size below which cancellation never triggers a compaction
    #: (the rebuild would cost more than it frees).
    _COMPACT_MIN_QUEUE = 64

    def __init__(self, name: str = "sim"):
        self.name = name
        #: Fast lane: activations at the timestamp currently being drained.
        self._lane = deque()
        self._lane_time = -1
        #: Every later activation, as (time_fs, sequence, entry) tuples.
        self._heap: List[tuple] = []
        self._sequence = 0
        self._now_fs = 0
        self._running = False
        self._failures = []
        self._pending_count = 0
        self._cancelled_count = 0
        #: Absolute ``until`` bound of the running :meth:`run` call, if any.
        self._limit_fs: Optional[int] = None
        #: Number of queue entries dispatched or leapt so far (for
        #: performance studies).  A leapt entry is one a model applied in
        #: closed form under :meth:`lookahead_fs` and credited through
        #: :meth:`credit_activations`, so a leap leaves the count as if
        #: every entry had been dispatched.
        self.dispatched_activations = 0
        #: The leapt entries among :attr:`dispatched_activations`, folded
        #: into both counts at once.  Kept for observability: it tells how
        #: much of a run the leaps carried (a leap that stops firing only
        #: shows as lost speed) without wrapping the queue to count pushes.
        self.credited_activations = 0
        #: Credited entries not yet folded into the counts (see run()).
        self._credited = 0

    # -- time ----------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time."""
        return SimTime(self._now_fs)

    @property
    def now_fs(self) -> int:
        """Current simulated time in femtoseconds (fast path for channels)."""
        return self._now_fs

    # -- scheduling ------------------------------------------------------------
    def _push(self, delay, action, value=None) -> _QueueEntry:
        # Hot path: the models' delays arrive as plain integer femtoseconds
        # (Timeout durations, clocked waits, delta cycles); SimTime delays
        # from API callers skip SimTime.coerce too.
        if type(delay) is int:
            if delay < 0:
                # Same error type/message as the SimTime constructor raises.
                raise ValueError("simulated time cannot be negative")
            delay_fs = delay
        elif type(delay) is SimTime:
            delay_fs = delay.femtoseconds
        else:
            delay_fs = SimTime.coerce(delay).femtoseconds
        time_fs = self._now_fs + delay_fs
        entry = _QueueEntry(action, value)
        self._pending_count += 1
        if time_fs == self._lane_time:
            # Delta activation at the timestamp being drained: join the
            # running drain through the fast lane (no heap, no comparisons).
            self._lane.append(entry)
        else:
            heapq.heappush(self._heap, (time_fs, self._sequence, entry))
        self._sequence += 1
        return entry

    def schedule_process(self, process: Process, delay=0, value=None) -> _QueueEntry:
        """Schedule *process* to resume after *delay*."""
        return self._push(delay, process, value)

    def schedule_callback(self, callback: Callable, delay=0) -> _QueueEntry:
        """Schedule a plain callable to run after *delay*."""
        if not callable(callback):
            raise SchedulingError("schedule_callback expects a callable")
        return self._push(delay, callback)

    def cancel(self, entry: _QueueEntry) -> bool:
        """Cancel a scheduled entry returned by one of the ``schedule_*``
        methods.

        Returns ``True`` if the entry was still pending.  The entry stays in
        the event store (lazy deletion) but releases its action and value;
        once cancelled entries outnumber live ones the store is compacted in
        one pass, so cancellation-heavy workloads stay O(live entries) in
        memory.
        """
        if entry.cancelled:
            return False
        entry.cancelled = True
        entry.action = None
        entry.value = None
        self._pending_count -= 1
        self._cancelled_count += 1
        entry_count = len(self._lane) + len(self._heap)
        if (entry_count >= self._COMPACT_MIN_QUEUE
                and self._cancelled_count * 2 > entry_count):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop cancelled entries from the lane and the heap in one pass.

        Both are mutated in place: the run() drain holds local aliases to
        them, and a cancellation from inside a dispatched action must not
        strand the running drain on stale containers.
        """
        lane = self._lane
        if lane:
            live = [entry for entry in lane if not entry.cancelled]
            lane.clear()
            lane.extend(live)
        heap = self._heap
        heap[:] = [item for item in heap if not item[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_count = 0

    @property
    def _queue(self) -> List[_QueueEntry]:
        """Flat view of every entry still in the event store (incl. lazily
        deleted ones), for introspection and the kernel edge-case tests."""
        return list(self._lane) + [entry for _, _, entry in sorted(self._heap)]

    def lookahead_fs(self) -> Union[int, float]:
        """Latest time (fs) up to which nothing but the running activation
        can act.

        A model may use it to apply, in closed form, work whose queue
        entries would all be dispatched no later than this time: no other
        entry can run in between to observe the difference.  It is ``-1``
        when the fast lane holds another entry, otherwise one less than the
        earliest time on the heap (``inf`` when nothing is pending), capped
        by the running ``run(until=...)`` bound.  Cancelled entries still
        count as pending, which only makes the answer more conservative.
        """
        if self._lane:
            return -1
        heap = self._heap
        horizon = heap[0][0] - 1 if heap else math.inf
        limit_fs = self._limit_fs
        if limit_fs is not None and limit_fs < horizon:
            return limit_fs
        return horizon

    def credit_activations(self, count: int) -> None:
        """Count *count* entries a model leapt under :meth:`lookahead_fs`
        as dispatched at the running timestamp.

        Called from inside an activation.  The credit is folded into
        :attr:`dispatched_activations` with the timestamp's own dispatches,
        so a reader sees it exactly when it would see the entries had they
        been dispatched at this timestamp.  :attr:`credited_activations`
        takes it at the same time.
        """
        self._credited += count

    def rewind(self) -> None:
        """Return an idle simulator to the state its constructor left.

        Time goes back to 0 and the sequence and dispatch counters
        restart, so the next run dispatches exactly what it would on a new
        simulator.  Raises :class:`SchedulingError` unless the simulator is
        idle: not running, with no entry (cancelled ones included) or
        unreported process failure left.
        """
        entry_count = len(self._lane) + len(self._heap)
        if self._running or entry_count or self._failures:
            raise SchedulingError(
                f"cannot rewind simulator {self.name!r}: it is not idle "
                f"({entry_count} entries in the event store)")
        self._lane.clear()
        self._lane_time = -1
        self._heap.clear()
        self._sequence = 0
        self._now_fs = 0
        self._pending_count = 0
        self._cancelled_count = 0
        self.dispatched_activations = 0
        self.credited_activations = 0
        self._credited = 0

    # -- processes -------------------------------------------------------------
    def spawn(self, generator, name: str = "") -> Process:
        """Create a process from *generator* and schedule its first activation."""
        process = Process(self, generator, name=name)
        self.schedule_process(process, 0)
        return process

    def event(self, name: str = "") -> Event:
        """Create an event attached to this simulator."""
        return Event(self, name=name)

    def report_process_failure(self, process: Process, exc: Exception) -> None:
        """Record an exception escaping a process and re-raise it at run()."""
        self._failures.append((process, exc))

    # -- execution ---------------------------------------------------------------
    def run(self, until: Optional[Union[SimTime, int]] = None) -> SimTime:
        """Run the simulation.

        Without *until* the simulation runs until the event queue drains.
        With *until* it runs up to and including that absolute time and raises
        :class:`DeadlockError` if asked to reach a time for which no activity
        is pending at all (cancelled entries are no activity), or
        :class:`SchedulingError` (leaving :attr:`now` unchanged) if that time
        is already in the past.
        """
        limit_fs = None if until is None else SimTime.coerce(until).femtoseconds
        if limit_fs is not None and limit_fs < self._now_fs:
            raise SchedulingError(
                f"cannot run until {SimTime(limit_fs)}: simulated time is "
                f"already {self.now}"
            )
        lane = self._lane
        heap = self._heap
        if limit_fs is not None and not self._pending_count:
            raise DeadlockError("nothing is scheduled; simulation cannot advance")
        self._running = True
        self._limit_fs = limit_fs
        # The drain below is the hottest loop of the whole stack, so the
        # store (and a few bound methods) are aliased into locals.
        # _compact() mutates the containers in place, which keeps these
        # aliases valid across compactions mid-drain.
        lane_popleft = lane.popleft
        lane_append = lane.append
        failures = self._failures
        process_class = Process
        event_class = Event
        method_class = MethodType
        heappop = heapq.heappop
        dispatched = 0
        try:
            while lane or heap:
                # Earliest pending timestamp (the fast lane is only
                # non-empty here when a previous run() aborted mid-drain
                # with an exception).
                if lane:
                    next_time = self._lane_time
                else:
                    next_time, _, entry = heap[0]
                    if entry.cancelled and (limit_fs is None
                                            or next_time <= limit_fs):
                        # A cancelled entry must not move simulated time.
                        heappop(heap)
                        self._cancelled_count -= 1
                        continue
                if limit_fs is not None and next_time > limit_fs:
                    self._now_fs = limit_fs
                    break
                self._now_fs = next_time
                # Pull every entry at this timestamp into the fast lane;
                # delta entries pushed during the drain join it there.
                while heap and heap[0][0] == next_time:
                    lane_append(heappop(heap)[2])
                self._lane_time = next_time
                # Drain the slot of activations at the current timestamp in
                # FIFO order.  The dispatch counter accumulates in a local
                # and is folded back in the finally block so that an
                # exception escaping an action does not lose the batch.
                while lane:
                    entry = lane_popleft()
                    if entry.cancelled:
                        self._cancelled_count -= 1
                        continue
                    self._pending_count -= 1
                    dispatched += 1
                    action = entry.action
                    value = entry.value
                    # Mark the entry consumed so a late cancel() (e.g. a
                    # timeout-vs-event race) is a no-op instead of corrupting
                    # the counters of an entry no longer in the store.
                    entry.cancelled = True
                    action_class = action.__class__
                    if action_class is process_class:
                        action.resume(value)
                    elif action_class is event_class:
                        action._fire(value)
                    elif action_class is method_class:
                        # Bound-method callbacks (channel holds, countdown
                        # arrivals) skip the isinstance fallbacks below.
                        action()
                    elif isinstance(action, process_class):
                        action.resume(value)
                    elif isinstance(action, event_class):
                        action._fire(value)
                    else:
                        action()
                    if failures:
                        self._raise_pending_failure()
                self._lane_time = -1
                # Fold the slot's dispatch count back per timestamp so that
                # instrumentation reading the counter mid-run sees progress;
                # the finally below only covers an exception mid-slot.
                credited = self._credited
                if credited:
                    self.credited_activations += credited
                    self._credited = 0
                self.dispatched_activations += dispatched + credited
                dispatched = 0
        finally:
            self.credited_activations += self._credited
            self.dispatched_activations += dispatched + self._credited
            self._credited = 0
            self._lane_time = self._lane_time if lane else -1
            self._running = False
            self._limit_fs = None
        return self.now

    def _raise_pending_failure(self) -> None:
        if self._failures:
            process, exc = self._failures.pop(0)
            raise RuntimeError(
                f"process {process.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc

    @property
    def pending_activations(self) -> int:
        """Number of not-yet-dispatched entries in the event store (O(1))."""
        return self._pending_count

    def __repr__(self):
        return (
            f"Simulator({self.name!r}, now={self.now}, "
            f"pending={self.pending_activations})"
        )
