"""Events and waitable condition objects.

Processes suspend themselves by ``yield``-ing one of the objects defined in
this module:

* :class:`Timeout` -- resume after a fixed amount of simulated time,
* :class:`Event` -- resume when the event is notified,
* :class:`AnyOf` / :class:`AllOf` -- composite waits on several events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from repro.kernel.exceptions import SchedulingError
from repro.kernel.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process
    from repro.kernel.simulator import Simulator


class Timeout:
    """A relative wait for a fixed duration of simulated time.

    The duration is kept as integer femtoseconds (:attr:`duration_fs`), the
    unit the scheduler queues in, so a clocked wait such as
    ``Timeout(clock.cycles_fs(n))`` builds no :class:`SimTime`;
    :attr:`duration` builds one on demand.
    """

    __slots__ = ("duration_fs",)

    def __init__(self, duration: Union[SimTime, int]):
        if type(duration) is int:
            if duration < 0:
                # Same error type/message as the SimTime constructor raises.
                raise ValueError("simulated time cannot be negative")
            self.duration_fs = duration
        elif type(duration) is SimTime:
            self.duration_fs = duration.femtoseconds
        else:
            self.duration_fs = SimTime.coerce(duration).femtoseconds

    @property
    def duration(self) -> SimTime:
        """The wait as a :class:`SimTime`."""
        return SimTime(self.duration_fs)

    def __repr__(self):
        return f"Timeout({self.duration})"


class Event:
    """A notifiable event, analogous to ``sc_event``.

    Processes wait on an event by yielding it; :meth:`notify` wakes every
    process that is waiting at the moment the notification matures.  A
    notification can be immediate (same timestamp, next delta) or delayed.
    """

    def __init__(self, sim: Optional["Simulator"] = None, name: str = ""):
        self.sim = sim
        self.name = name or f"event_{id(self):x}"
        self._waiters: List["Process"] = []
        self._callbacks = []
        #: Value passed to waiters by the most recent notification.
        self.last_value = None

    # -- registration ------------------------------------------------------
    def add_waiter(self, process: "Process") -> None:
        """Register *process* to be resumed on the next notification."""
        if self.sim is None:
            self.sim = process.sim
        self._waiters.append(process)

    def remove_waiter(self, process: "Process") -> None:
        """Remove *process* if it is registered (no-op otherwise)."""
        try:
            self._waiters.remove(process)
        except ValueError:
            pass

    def add_callback(self, callback) -> None:
        """Register a plain callable invoked (with the notification value)
        every time the event fires, until :meth:`remove_callback`."""
        self._callbacks.append(callback)

    def remove_callback(self, callback) -> None:
        """Unregister *callback* (no-op if it is not registered)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    # -- notification ------------------------------------------------------
    def notify(self, delay: Union[SimTime, int] = 0, value=None) -> None:
        """Notify the event after *delay* (default: next delta cycle)."""
        if self.sim is None:
            raise SchedulingError(
                f"event {self.name!r} cannot be notified: it is not attached "
                "to a simulator and has never been waited on"
            )
        # The event itself is the queue action: the scheduler calls
        # ``_fire(value)`` on it, so no closure is built per notification.
        self.sim._push(delay, self, value)

    def _fire(self, value) -> None:
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        push = self.sim._push
        for process in waiters:
            process.unsubscribe_all()
            push(0, process, value)
        if self._callbacks:
            # Iterate a copy: a callback may unregister itself.
            for callback in list(self._callbacks):
                callback(value)

    def _resume_waiters(self, value) -> None:
        """Resume the processes waiting on the event inside the running
        activation, instead of pushing their resumptions as a notification
        does (callbacks are not run).

        For a callback-driven model standing in for a process whose
        resumption would be the running activation: the waiter continues
        there, as that process would have, and no entry is added.
        """
        self.last_value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process.unsubscribe_all()
            process.resume(value)

    @property
    def waiter_count(self) -> int:
        """Number of processes currently waiting on the event."""
        return len(self._waiters)

    def __repr__(self):
        return f"Event({self.name!r}, waiters={len(self._waiters)})"


class _Composite:
    """Base class of :class:`AnyOf` and :class:`AllOf`."""

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        if not self.events:
            raise SchedulingError("composite wait requires at least one event")

    def __repr__(self):
        return f"{type(self).__name__}({self.events!r})"


class AnyOf(_Composite):
    """Wait until *any* of the given events has been notified."""


class AllOf(_Composite):
    """Wait until *all* of the given events have been notified."""
