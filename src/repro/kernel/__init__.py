"""Event-driven transaction-level simulation kernel.

This package is the SystemC substitute used throughout the reproduction.  It
provides the small set of primitives the paper relies on:

* simulated time (:mod:`repro.kernel.simtime`),
* events and processes (:mod:`repro.kernel.event`, :mod:`repro.kernel.process`),
* the scheduler itself (:mod:`repro.kernel.simulator`),
* named hierarchical modules, channels and the interfaces they implement
  (:mod:`repro.kernel.module`, :mod:`repro.kernel.channel`,
  :mod:`repro.kernel.interface`),
* clocks for cycle-cost arithmetic and a FIFO-fair mutex
  (:mod:`repro.kernel.clock`, :mod:`repro.kernel.sync`),
* transaction tracing used by the monitors in :mod:`repro.dft`.

Blocking behaviour is expressed with generator coroutines: any method that can
consume simulated time is a generator and must be invoked with ``yield from``.
"""

from repro.kernel.exceptions import KernelError, ProcessKilled
from repro.kernel.simtime import (
    FS,
    MS,
    NS,
    PS,
    SEC,
    US,
    SimTime,
    cycles_to_time,
    time_to_cycles,
)
from repro.kernel.event import Event, Timeout, AnyOf, AllOf
from repro.kernel.process import Process
from repro.kernel.simulator import Simulator
from repro.kernel.interface import Interface
from repro.kernel.module import Module
from repro.kernel.channel import Channel
from repro.kernel.clock import Clock
from repro.kernel.sync import Mutex
from repro.kernel.tracing import TransactionRecord, TransactionTracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Clock",
    "Event",
    "FS",
    "Interface",
    "KernelError",
    "MS",
    "Module",
    "Mutex",
    "NS",
    "PS",
    "Process",
    "ProcessKilled",
    "SEC",
    "SimTime",
    "Simulator",
    "Timeout",
    "TransactionRecord",
    "TransactionTracer",
    "US",
    "cycles_to_time",
    "time_to_cycles",
]
