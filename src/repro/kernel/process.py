"""Generator-coroutine simulation processes (the ``SC_THREAD`` substitute)."""

from __future__ import annotations

import types
from typing import TYPE_CHECKING, Optional

from repro.kernel.event import AllOf, AnyOf, Event, Timeout
from repro.kernel.exceptions import KernelError, ProcessKilled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.simulator import Simulator


class Process:
    """A simulation process wrapping a generator.

    The generator drives the process: every ``yield`` suspends it until the
    yielded condition (a :class:`~repro.kernel.event.Timeout`, an
    :class:`~repro.kernel.event.Event`, a composite, or another process to
    join) is satisfied.  The value sent back into the generator is the
    notification value of the event that woke the process (``None`` for
    timeouts).
    """

    def __init__(self, sim: "Simulator", generator, name: str = ""):
        if not isinstance(generator, types.GeneratorType):
            raise TypeError(
                "Process expects a generator object; got "
                f"{type(generator).__name__} (did you forget to call the "
                "generator function?)"
            )
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.result = None
        self.exception: Optional[BaseException] = None
        #: Event notified when the process terminates (used by joins).
        self.finished = Event(sim, name=f"{self.name}.finished")
        #: Events this process is currently registered with (for composite
        #: waits the process may be registered with several at once).
        self._subscriptions = []
        #: ``(event, callback)`` pairs of a pending :class:`AllOf` join.
        self._join = ()

    # -- subscription management -------------------------------------------
    def subscribe(self, event: Event) -> None:
        event.add_waiter(self)
        self._subscriptions.append(event)

    def unsubscribe_all(self) -> None:
        for event in self._subscriptions:
            event.remove_waiter(self)
        self._subscriptions = []

    # -- execution ----------------------------------------------------------
    def resume(self, value=None, exception: Optional[BaseException] = None) -> None:
        """Advance the generator until its next suspension point."""
        if not self.alive:
            return
        try:
            if exception is not None:
                condition = self.generator.throw(exception)
            else:
                condition = self.generator.send(value)
        except StopIteration as stop:
            self._terminate(result=stop.value)
            return
        except ProcessKilled:
            self._terminate(result=None)
            return
        except Exception as exc:  # surface model bugs to the kernel
            self.exception = exc
            self._terminate(result=None)
            self.sim.report_process_failure(self, exc)
            return
        # Hot path: Timeout waits and bare yields dominate every timed model,
        # so handle them inline and fall back to _suspend_on for the rest.
        if type(condition) is Timeout:
            self.sim._push(condition.duration_fs, self)
        elif condition is None:
            self.sim._push(0, self)
        else:
            self._suspend_on(condition)

    def _suspend_on(self, condition) -> None:
        if condition is None:
            # Bare ``yield`` waits for the next delta cycle.
            self.sim.schedule_process(self, 0)
        elif isinstance(condition, Timeout):
            self.sim.schedule_process(self, condition.duration_fs)
        elif isinstance(condition, Event):
            self.subscribe(condition)
        elif isinstance(condition, AnyOf):
            for event in condition.events:
                self.subscribe(event)
        elif isinstance(condition, AllOf):
            self._wait_all(condition)
        elif isinstance(condition, Process):
            if condition.alive:
                self.subscribe(condition.finished)
            else:
                self.sim.schedule_process(self, 0, condition.result)
        else:
            raise KernelError(
                f"process {self.name!r} yielded an unsupported object: "
                f"{condition!r}"
            )

    def _wait_all(self, condition: AllOf) -> None:
        pending = {id(event) for event in condition.events}

        def make_callback(event_id):
            def callback(_value):
                if not self.alive or event_id not in pending:
                    return
                pending.discard(event_id)
                if not pending:
                    self._drop_join()
                    self.sim.schedule_process(self, 0)

            return callback

        self._join = [(event, make_callback(id(event)))
                      for event in condition.events]
        for event, callback in self._join:
            event.add_callback(callback)

    def _drop_join(self) -> None:
        """Unregister the join's callbacks, so an event joined many times
        (or outliving this process) does not keep one per join."""
        for event, callback in self._join:
            event.remove_callback(callback)
        self._join = ()

    def _terminate(self, result) -> None:
        self.alive = False
        self.result = result
        self.unsubscribe_all()
        self._drop_join()
        self.finished.sim = self.finished.sim or self.sim
        self.finished.notify(0, value=result)

    def kill(self) -> None:
        """Terminate the process at its current suspension point."""
        if not self.alive:
            return
        self.unsubscribe_all()
        try:
            self.generator.close()
        except Exception:  # pragma: no cover - defensive
            pass
        self._terminate(result=None)

    def __repr__(self):
        state = "alive" if self.alive else "finished"
        return f"Process({self.name!r}, {state})"
