"""The discrete-event scheduler.

The kernel uses a hybrid three-tier event store instead of a single binary
heap:

* a **deque fast lane** for activations at the current timestamp (delta
  cycles and zero-delay notifications join the running drain in O(1) with no
  comparisons at all),
* a **hashed timing wheel** for near-future activations: one bucket per
  exact timestamp, rotated by a min-heap of *integer* bucket times.  Pushing
  into an existing bucket is a dict hit plus a list append; the heap is only
  touched once per distinct timestamp, so clock-period-sized Timeouts — the
  dominant event class of the TLM models — cost O(1) amortized instead of
  O(log n) Python-level entry comparisons,
* a **far-future overflow heap** for entries beyond the wheel horizon, which
  keeps the bucket-time heap small when a model schedules sparse long-range
  events.  The horizon advances (and overflow entries cascade into buckets)
  only when the near store drains.

Determinism is bit-identical to the heap scheduler it replaced: entries carry
a global sequence number, buckets are appended to in sequence order, and the
overflow heap orders ties by sequence, so simultaneous activations always run
in exact FIFO-per-timestamp order.
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
    """An entry in the event store.

    Entries are ordered by time first and by insertion order second so that
    simultaneous activations run in a deterministic (FIFO) order.
    """

    __slots__ = ("time_fs", "sequence", "action", "value", "cancelled")

    def __init__(self, time_fs: int, sequence: int, action, value):
        self.time_fs = time_fs
        self.sequence = sequence
        self.action = action
        self.value = value
        self.cancelled = False

    def __lt__(self, other):
        if self.time_fs != other.time_fs:
            return self.time_fs < other.time_fs
        return self.sequence < other.sequence


class Simulator:
    """Event-driven simulation kernel.

    Three kinds of actions are scheduled: process resumptions, event
    notifications (the event fires with the entry's value) and plain
    callbacks.
    An *update phase* modelled after SystemC's evaluate/update delta cycle is
    run whenever all activations at the current timestamp have been processed.

    Cancelled entries are deleted lazily: :meth:`cancel` only marks the entry
    and the event store is compacted once cancelled entries outnumber live
    ones, so long-running campaigns do not accumulate dead objects.
    """

    #: Event-store size below which cancellation never triggers a compaction
    #: (the rebuild would cost more than it frees).
    _COMPACT_MIN_QUEUE = 64

    #: Width of the timing wheel's near-future window.  Entries scheduled
    #: beyond ``now + span`` overflow into the far-future heap and cascade
    #: into wheel buckets as the horizon advances.  2**44 fs ~ 17.6 ms of
    #: simulated time — generous for clock-period-sized delays.
    _WHEEL_SPAN_FS = 1 << 44

    def __init__(self, name: str = "sim"):
        self.name = name
        #: Fast lane: activations at the timestamp currently being drained.
        self._lane = deque()
        self._lane_time = -1
        #: Timing wheel: exact-timestamp buckets plus their rotation heap.
        self._buckets = {}
        self._bucket_times: List[int] = []
        #: Far-future overflow (beyond the wheel horizon).
        self._far: List[_QueueEntry] = []
        self._horizon = self._WHEEL_SPAN_FS
        #: Total entries across all three tiers, including cancelled ones.
        self._entry_count = 0
        self._sequence = 0
        self._now_fs = 0
        self._running = False
        self._update_requests = []
        self._failures = []
        self._pending_count = 0
        self._cancelled_count = 0
        self.trace_hooks: List[Callable] = []
        #: Absolute ``until`` bound of the running :meth:`run` call, if any.
        self._limit_fs: Optional[int] = None
        #: Number of queue entries dispatched or leapt so far (for
        #: performance studies).  A leapt entry is one a model applied in
        #: closed form under :meth:`lookahead_fs` and credited through
        #: :meth:`credit_activations`, so a leap leaves the count as if
        #: every entry had been dispatched.
        self.dispatched_activations = 0
        #: Credited entries not yet folded into the count (see run()).
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
        entry = _QueueEntry(time_fs, self._sequence, action, value)
        self._sequence += 1
        self._pending_count += 1
        self._entry_count += 1
        if time_fs == self._lane_time:
            # Delta activation at the timestamp being drained: join the
            # running drain through the fast lane (no heap, no comparisons).
            self._lane.append(entry)
        elif time_fs < self._horizon:
            buckets = self._buckets
            bucket = buckets.get(time_fs)
            if bucket is None:
                buckets[time_fs] = [entry]
                heapq.heappush(self._bucket_times, time_fs)
            else:
                bucket.append(entry)
        else:
            heapq.heappush(self._far, entry)
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
        if (self._entry_count >= self._COMPACT_MIN_QUEUE
                and self._cancelled_count * 2 > self._entry_count):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop cancelled entries from all tiers in one pass.

        The fast lane is filtered in place: ``run()`` drains it with
        ``popleft``, so a cancellation from inside a dispatched action must
        not strand the running drain on a stale deque.
        """
        # All three tiers are mutated in place: the run() drain holds local
        # aliases to them, and a cancellation from inside a dispatched action
        # must not strand the running drain on stale containers.
        lane = self._lane
        if lane:
            live = [entry for entry in lane if not entry.cancelled]
            lane.clear()
            lane.extend(live)
        buckets = self._buckets
        survivors = {}
        for time_fs, entries in buckets.items():
            live = [entry for entry in entries if not entry.cancelled]
            if live:
                survivors[time_fs] = live
        buckets.clear()
        buckets.update(survivors)
        self._bucket_times[:] = buckets
        heapq.heapify(self._bucket_times)
        self._far[:] = [entry for entry in self._far if not entry.cancelled]
        heapq.heapify(self._far)
        self._entry_count = (len(lane) + len(self._far)
                             + sum(len(entries) for entries in buckets.values()))
        self._cancelled_count = 0

    def _cascade_far(self) -> None:
        """Advance the wheel horizon and move matured overflow entries into
        buckets.  Called only when the lane and the wheel are empty, so the
        migrated entries (popped in (time, sequence) order) seed fresh
        buckets in FIFO order."""
        far = self._far
        self._horizon = far[0].time_fs + self._WHEEL_SPAN_FS
        buckets = self._buckets
        bucket_times = self._bucket_times
        horizon = self._horizon
        while far and far[0].time_fs < horizon:
            entry = heapq.heappop(far)
            bucket = buckets.get(entry.time_fs)
            if bucket is None:
                buckets[entry.time_fs] = [entry]
                heapq.heappush(bucket_times, entry.time_fs)
            else:
                bucket.append(entry)

    @property
    def _queue(self) -> List[_QueueEntry]:
        """Flat view of every entry still in the event store (incl. lazily
        deleted ones), for introspection and the kernel edge-case tests."""
        entries = list(self._lane)
        for time_fs in sorted(self._buckets):
            entries.extend(self._buckets[time_fs])
        entries.extend(sorted(self._far))
        return entries

    def lookahead_fs(self) -> Union[int, float]:
        """Latest time (fs) up to which nothing but the running activation
        can act.

        A model may use it to apply, in closed form, work whose queue
        entries would all be dispatched no later than this time: no other
        entry can run in between to observe the difference.  It is ``-1``
        when the fast lane holds another entry or an update is requested,
        otherwise one less than the earliest pending bucket or far-heap
        time (``inf`` when nothing is pending), capped by the running
        ``run(until=...)`` bound.  Cancelled entries still count as
        pending, which only makes the answer more conservative.
        """
        if self._lane or self._update_requests:
            return -1
        buckets = self._buckets
        bucket_times = self._bucket_times
        while bucket_times and bucket_times[0] not in buckets:
            heapq.heappop(bucket_times)  # stale: bucket already drained
        horizon = bucket_times[0] - 1 if bucket_times else math.inf
        if self._far and self._far[0].time_fs <= horizon:
            horizon = self._far[0].time_fs - 1
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
        been dispatched at this timestamp.
        """
        self._credited += count

    def rewind(self) -> None:
        """Return an idle simulator to the state its constructor left.

        Time goes back to 0, the sequence and dispatch counters restart,
        and the event store is emptied of the stale bucket times a drain
        leaves behind, so the next run dispatches exactly what it would
        on a new simulator.  Raises :class:`SchedulingError` unless the
        simulator is idle: not running, with no entry (cancelled ones
        included), update request or unreported process failure left.
        """
        if (self._running or self._entry_count or self._update_requests
                or self._failures):
            raise SchedulingError(
                f"cannot rewind simulator {self.name!r}: it is not idle "
                f"({self._entry_count} entries in the event store)")
        self._lane.clear()
        self._lane_time = -1
        self._buckets.clear()
        self._bucket_times.clear()
        self._far.clear()
        self._horizon = self._WHEEL_SPAN_FS
        self._sequence = 0
        self._now_fs = 0
        self._pending_count = 0
        self._cancelled_count = 0
        self.dispatched_activations = 0
        self._credited = 0

    def request_update(self, primitive) -> None:
        """Request that ``primitive.update()`` runs in the next update phase."""
        self._update_requests.append(primitive)

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
    def _run_update_phase(self) -> None:
        requests, self._update_requests = self._update_requests, []
        for primitive in requests:
            primitive.update()

    def run(self, until: Optional[Union[SimTime, int]] = None) -> SimTime:
        """Run the simulation.

        Without *until* the simulation runs until the event queue drains.
        With *until* it runs up to and including that absolute time and raises
        :class:`DeadlockError` if asked to reach a time for which no activity
        is pending at all, or :class:`SchedulingError` (leaving :attr:`now`
        unchanged) if that time is already in the past.
        """
        limit_fs = None if until is None else SimTime.coerce(until).femtoseconds
        if limit_fs is not None and limit_fs < self._now_fs:
            raise SchedulingError(
                f"cannot run until {SimTime(limit_fs)}: simulated time is "
                f"already {self.now}"
            )
        if (limit_fs is not None and not self._entry_count
                and not self._update_requests):
            raise DeadlockError("nothing is scheduled; simulation cannot advance")
        self._running = True
        self._limit_fs = limit_fs
        # The drain below is the hottest loop of the whole stack, so the
        # three tiers (and a few bound methods) are aliased into locals.
        # _compact() and _cascade_far() mutate the containers in place, which
        # keeps these aliases valid across compactions mid-drain.
        lane = self._lane
        lane_popleft = lane.popleft
        buckets = self._buckets
        bucket_times = self._bucket_times
        failures = self._failures
        process_class = Process
        event_class = Event
        method_class = MethodType
        heappop = heapq.heappop
        dispatched = 0
        try:
            while self._entry_count or self._update_requests:
                # Earliest pending timestamp across the three tiers (the fast
                # lane is only non-empty here when a previous run() aborted
                # mid-drain with an exception).
                if lane:
                    next_time = self._lane_time
                else:
                    next_time = None
                    while bucket_times:
                        time_fs = bucket_times[0]
                        if time_fs in buckets:
                            next_time = time_fs
                            break
                        heappop(bucket_times)  # stale: bucket already drained
                    if next_time is None:
                        if self._far:
                            self._cascade_far()
                            next_time = bucket_times[0]
                        else:
                            next_time = self._now_fs  # update requests only
                if limit_fs is not None and next_time > limit_fs:
                    self._now_fs = limit_fs
                    break
                self._now_fs = next_time
                # Pull the wheel bucket for this timestamp into the fast
                # lane; delta entries pushed during the drain join it there.
                bucket = buckets.pop(next_time, None)
                if bucket is not None:
                    lane.extend(bucket)
                self._lane_time = next_time
                # Evaluate phase: drain the slot of activations at the current
                # timestamp in FIFO order.  The dispatch counter accumulates
                # in a local and is folded back in the finally block so that
                # an exception escaping an action does not lose the batch.
                while lane:
                    entry = lane_popleft()
                    self._entry_count -= 1
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
                        # Bound-method callbacks (channel holds, clock
                        # edges, countdown arrivals) skip the isinstance
                        # fallbacks below.
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
                self.dispatched_activations += dispatched + self._credited
                self._credited = 0
                dispatched = 0
                # Update phase (may schedule new delta activations at now).
                if self._update_requests:
                    self._run_update_phase()
                    if failures:
                        self._raise_pending_failure()
        finally:
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
