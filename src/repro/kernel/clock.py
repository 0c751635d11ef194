"""Clocks.

At transaction level, per-cycle clock events would defeat the purpose of the
abstraction, so :class:`Clock` only exposes its period for cycle-cost
arithmetic.

Cycle counts become time in two forms.  Models wait with
``Timeout(clock.cycles_fs(n))``: integer femtoseconds, the unit the
scheduler queues in, so a clocked wait builds no :class:`SimTime`.
``clock.cycles(n)`` returns a :class:`SimTime` for API edges such as
``run(until=...)``, results and reports.
"""

from __future__ import annotations

from typing import Union

from repro.kernel.channel import Channel
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime
from repro.kernel.simulator import Simulator


class Clock(Channel):
    """A clock defined by its period.

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

    def __repr__(self):
        return f"Clock({self.name!r}, period={self.period})"
