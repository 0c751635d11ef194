"""Synchronisation primitives built on events."""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING

from repro.kernel.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.simulator import Simulator


class Mutex:
    """A FIFO-fair mutual-exclusion lock.

    Processes take it with the blocking :meth:`acquire` (``yield from``);
    callback-driven models take it with :meth:`acquire_then`.  Both kinds of
    acquirer wait in one FIFO queue, and ``release`` is immediate.  Used by
    channels to arbitrate exclusive resources such as the TAM or the ATE
    link.
    """

    def __init__(self, sim: "Simulator", name: str = "mutex"):
        self.sim = sim
        self.name = name
        #: Queued acquirers in FIFO order: a ticket :class:`Event` per
        #: blocked process, the callable itself per callback acquirer.
        self._waiters = deque()
        self.rewind()

    def acquire(self):
        """Blocking acquire; returns once the lock is held by the caller."""
        if self._locked or self._waiters:
            # Queue up; ownership is handed over directly by release().
            self.contentions += 1
            ticket = Event(self.sim, name=f"{self.name}.ticket")
            self._waiters.append(ticket)
            try:
                yield ticket
            except BaseException:
                # The process was killed (or interrupted) before it resumed
                # as the owner: give up its place, or pass on the ownership
                # already handed to it, so the lock cannot stay held by a
                # dead process.
                self._abandon(ticket)
                raise
        else:
            self._locked = True
        self.acquisitions += 1
        return self

    def acquire_then(self, callback) -> None:
        """Callback form of :meth:`acquire`: ``callback()`` runs holding the
        lock.

        A free lock is taken at once and *callback* runs in the caller's
        activation, as a process continues past an uncontended ``acquire``.
        Otherwise *callback* joins the waiter queue, and its hand-off costs
        the same two delta activations as a blocked process's: the ticket
        notification, then the resumption.
        """
        if self._locked or self._waiters:
            self.contentions += 1
            self._waiters.append(callback)
        else:
            self._locked = True
            self.acquisitions += 1
            callback()

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns ``True`` on success."""
        if self._locked or self._waiters:
            return False
        self._locked = True
        self.acquisitions += 1
        return True

    def release(self) -> None:
        """Release the lock and wake the next waiter (FIFO order).

        When waiters are queued, ownership is handed over directly (the lock
        stays held) so a late-arriving process cannot sneak in between the
        release and the waiter's resumption.
        """
        if not self._locked:
            raise RuntimeError(f"mutex {self.name!r} released while not held")
        if self._waiters:
            waiter = self._waiters.popleft()
            if waiter.__class__ is Event:
                waiter.notify(0)
            else:
                # A callback acquirer takes over as a woken process does:
                # the ticket notification, then the resumption, which
                # counts the acquisition and runs the callback.
                push = self.sim._push
                push(0, partial(push, 0, partial(self._take_over, waiter)))
        else:
            self._locked = False

    def _take_over(self, callback) -> None:
        self.acquisitions += 1
        callback()

    def _abandon(self, ticket: Event) -> None:
        try:
            self._waiters.remove(ticket)
        except ValueError:
            # release() already handed the lock to this ticket.
            self.release()

    def rewind(self) -> None:
        """Free the lock and zero the arbitration statistics: the state
        the constructor leaves."""
        self._locked = False
        self._waiters.clear()
        #: Total number of acquisitions (arbitration statistics).
        self.acquisitions = 0
        #: Number of acquisitions that had to wait.
        self.contentions = 0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def idle(self) -> bool:
        """``True`` when the lock is free and nobody waits for it."""
        return not self._locked and not self._waiters


class Countdown:
    """A reusable join of callback-driven activities for one process.

    ``yield countdown.wait(n)`` suspends the process until :meth:`arrive`
    has been called *n* times.  The last arrival resumes the process
    directly, so joining *n* activities costs the entries an ``AllOf`` over
    *n* events costs, without an event per activity or a closure per join.
    """

    def __init__(self, sim: "Simulator", name: str = "countdown"):
        self._done = Event(sim, name=name)
        self._pending = 0

    def wait(self, count: int) -> Event:
        """Arm the countdown for *count* arrivals; yield the result."""
        if count <= 0:
            raise ValueError("a countdown needs at least one arrival")
        if self._pending:
            raise RuntimeError("countdown re-armed before it completed")
        self._pending = count
        return self._done

    def arrive(self) -> None:
        """Count one arrival; the last one resumes the waiting process.

        An arrival with no wait pending raises ``RuntimeError`` and changes
        nothing, so the countdown can still be armed afterwards.
        """
        if not self._pending:
            raise RuntimeError("countdown arrival without a pending wait")
        self._pending -= 1
        if not self._pending:
            self._done._fire(None)


class Semaphore:
    """A counting semaphore with blocking ``acquire``."""

    def __init__(self, sim: "Simulator", initial: int, name: str = "semaphore"):
        if initial < 0:
            raise ValueError("initial semaphore count cannot be negative")
        self.sim = sim
        self.name = name
        self._count = initial
        self._released = Event(sim, name=f"{name}.released")

    def acquire(self):
        """Blocking acquire of one unit."""
        while self._count == 0:
            yield self._released
        self._count -= 1

    def release(self) -> None:
        self._count += 1
        self._released.notify(0)

    @property
    def available(self) -> int:
        return self._count
