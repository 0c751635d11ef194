"""Clocks.

At transaction level, per-cycle clock events would defeat the purpose of the
abstraction, so :class:`Clock` exposes its period for cycle-cost arithmetic
and generates edge events lazily — an edge is only scheduled while at least
one process is waiting for it.

Cycle counts become time in two forms.  Models wait with
``Timeout(clock.cycles_fs(n))``: integer femtoseconds, the unit the
scheduler queues in, so a clocked wait builds no :class:`SimTime`.
``clock.cycles(n)`` returns a :class:`SimTime` for API edges such as
``run(until=...)``, results and reports.
"""

from __future__ import annotations

from typing import Union

from repro.kernel.channel import Channel
from repro.kernel.event import Event
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime
from repro.kernel.simulator import Simulator


class Clock(Channel):
    """A clock defined by its period.

    ``yield clock.posedge()`` suspends a process until the next rising edge.
    ``clock.cycles_fs(n)`` converts a cycle count into integer femtoseconds
    (``clock.cycles(n)`` into a :class:`SimTime`), which is how
    approximately-timed models account for time without paying for
    per-cycle events.
    """

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 period: Union[SimTime, int]):
        super().__init__(parent, name)
        self.period = SimTime.coerce(period)
        if self.period.femtoseconds <= 0:
            raise ValueError("clock period must be positive")
        self._period_fs = self.period.femtoseconds
        self._posedge_event = self.sim.event(f"{self.name}.posedge")
        self._edge_scheduled = False

    @classmethod
    def from_frequency(cls, parent, name: str, frequency_hz: float) -> "Clock":
        """Create a clock from a frequency in hertz."""
        if frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")
        period_fs = round(1e15 / frequency_hz)
        return cls(parent, name, SimTime(period_fs))

    @property
    def frequency_hz(self) -> float:
        return 1e15 / self.period.femtoseconds

    def cycles_fs(self, count: int) -> int:
        """Duration of *count* clock cycles in integer femtoseconds."""
        if count < 0:
            raise ValueError("cycle count cannot be negative")
        return count * self._period_fs

    def cycles(self, count: int) -> SimTime:
        """Duration of *count* clock cycles."""
        return SimTime(self.cycles_fs(count))

    def cycles_between(self, start: SimTime, end: SimTime) -> int:
        """Number of full clock cycles between two points in time."""
        return (end - start) // self.period

    def posedge(self) -> Event:
        """Event for the next rising edge (lazily scheduled)."""
        self._schedule_next_edge()
        return self._posedge_event

    def _schedule_next_edge(self) -> None:
        if self._edge_scheduled:
            return
        self._edge_scheduled = True
        period_fs = self._period_fs
        remainder = self.sim.now_fs % period_fs
        delay = period_fs - remainder if remainder else period_fs
        self.sim.schedule_callback(self._fire_edge, delay)

    def _fire_edge(self) -> None:
        self._edge_scheduled = False
        had_waiters = self._posedge_event.waiter_count > 0
        self._posedge_event.notify(0)
        if had_waiters:
            # Keep the edge train alive while there is interest.
            self._schedule_next_edge()

    def __repr__(self):
        return f"Clock({self.name!r}, period={self.period})"
