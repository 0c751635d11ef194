"""Test access mechanism (TAM) channels.

The TAM transfers test stimuli from a source to the core under test and test
responses from the core to a sink (paper, Section III-A).  Its TLM interface
consists of the three methods ``read``, ``write`` and ``write_read``; the
channel model adds the functional aspects the paper lists: bandwidth (bus
width and clock), latency (arbitration overhead), addressing (slave decode)
and arbitration (FIFO-fair exclusive access).

Two channel models are provided:

* :class:`TamChannel` -- a bus-style TAM (also used as the reused system bus
  of the case study and as dedicated test buses),
* :class:`AteLink` -- the channel between the automated test equipment and the
  external bus interface (EBI), typically much narrower than the on-chip TAM.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from repro.kernel.channel import Channel
from repro.kernel.clock import Clock
from repro.kernel.event import Timeout
from repro.kernel.interface import Interface
from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.kernel.sync import Mutex
from repro.kernel.tracing import TransactionTracer
from repro.dft.payload import TamCommand, TamPayload, TamResponse


class TamInterface(Interface):
    """The TAM interface of the paper's Figure 2 (``TAM_IF``)."""

    def read(self, payload):  # pragma: no cover - interface declaration
        raise NotImplementedError

    def write(self, payload):  # pragma: no cover - interface declaration
        raise NotImplementedError

    def write_read(self, payload):  # pragma: no cover - interface declaration
        raise NotImplementedError


class TamSlaveInterface(Interface):
    """Implemented by infrastructure blocks accessed via the TAM
    (test wrappers, decompressors, pattern sources, test controllers)."""

    def tam_access(self, payload):  # pragma: no cover - interface declaration
        raise NotImplementedError


class TamChannel(Channel, TamInterface):
    """Bus-style TAM channel with addressing, arbitration and accounting."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 width_bits: int, clock: Clock,
                 arbitration_overhead_cycles: int = 1,
                 tracer: Optional[TransactionTracer] = None):
        super().__init__(parent, name)
        if width_bits <= 0:
            raise ValueError("TAM width must be positive")
        if arbitration_overhead_cycles < 0:
            raise ValueError("arbitration overhead cannot be negative")
        self.width_bits = width_bits
        self.clock = clock
        self.arbitration_overhead_cycles = arbitration_overhead_cycles
        self.tracer = tracer if tracer is not None else TransactionTracer()
        self._mutex = Mutex(self.sim, name=f"{self.name}.arbiter")
        self._slaves: List[Tuple[int, int, object]] = []
        self.rewind()

    # -- topology ------------------------------------------------------------
    def bind_slave(self, slave, base_address: int, size: int) -> None:
        """Map *slave* into the TAM address space at [base, base+size)."""
        if size <= 0:
            raise ValueError("slave address range must have positive size")
        if not TamSlaveInterface.is_implemented_by(slave):
            raise TypeError(
                f"{type(slave).__name__} does not implement TamSlaveInterface"
            )
        for base, existing_size, existing in self._slaves:
            if base_address < base + existing_size and base < base_address + size:
                raise ValueError(
                    f"address range {base_address:#x}+{size:#x} overlaps slave "
                    f"{getattr(existing, 'name', existing)!r}"
                )
        self._slaves.append((base_address, size, slave))
        self._slaves.sort(key=lambda entry: entry[0])

    def decode(self, address: int):
        """Return ``(slave, offset)`` for *address* or ``(None, None)``."""
        for base, size, slave in self._slaves:
            if base <= address < base + size:
                return slave, address - base
        return None, None

    @property
    def slaves(self) -> List[object]:
        return [slave for _, _, slave in self._slaves]

    # -- timing helpers --------------------------------------------------------
    def transfer_cycles(self, bits: int) -> int:
        """Bus cycles needed to move *bits* of payload data."""
        if bits <= 0:
            return 0
        return math.ceil(bits / self.width_bits)

    def transaction_cycles(self, payload: TamPayload) -> int:
        """Total cycles a transaction occupies the TAM."""
        return self.arbitration_overhead_cycles + self.transfer_cycles(payload.total_bits)

    # -- low-level occupancy -----------------------------------------------------
    def occupy(self, initiator: str, busy_cycles: int, kind: str = "burst",
               address: Optional[int] = None, data_bits: int = 0,
               attributes: Optional[Dict[str, object]] = None):
        """Reserve the TAM for *busy_cycles* (blocking; ``yield from``).

        This is the primitive used by approximately-timed test flows that
        stream data over the TAM (external scan tests, processor-driven memory
        tests): the channel is held exactly for the cycles in which data beats
        occur, which makes the recorded transaction stream directly usable for
        TAM-utilization analysis.

        Returns ``None``; the transaction lands on the channel's tracer (when
        enabled) and in the aggregate channel counters.
        """
        if busy_cycles < 0:
            raise ValueError("busy_cycles cannot be negative")
        yield from self._mutex.acquire()
        start_fs = self.sim.now_fs
        try:
            if busy_cycles:
                yield Timeout(self.clock.cycles_fs(busy_cycles))
        finally:
            self._mutex.release()
        self._account(start_fs, self.sim.now_fs, busy_cycles, initiator, kind,
                      address, data_bits, attributes)

    def occupy_then(self, then, initiator: str, busy_cycles: int,
                    kind: str = "burst", address: Optional[int] = None,
                    data_bits: int = 0,
                    attributes: Optional[Dict[str, object]] = None) -> None:
        """Callback form of :meth:`occupy` for callback-driven models.

        Schedules the occupation as a delta activation and, once it is
        released and accounted, schedules ``then()`` as another; the
        channel sees exactly what a process running :meth:`occupy` would
        do to it, with no process behind it.
        """
        if busy_cycles < 0:
            raise ValueError("busy_cycles cannot be negative")
        _Hold(self, busy_cycles, then,
              (initiator, kind, address, data_bits, attributes))

    def _account(self, start_fs: int, end_fs: int, busy_cycles: int,
                 initiator: str, kind: str, address: Optional[int],
                 data_bits: int, attributes: Optional[Dict[str, object]],
                 count: int = 1, records: Optional[list] = None) -> None:
        """Counters and tracer record of one occupation over
        [*start_fs*, *end_fs*], or of a run of *count* like it.

        The counters advance *count* times.  With *records* given, the
        record goes there instead of to the tracer, for the caller to hand
        the run's records over in one
        :meth:`TransactionTracer.record_run_fs`.
        """
        self.transaction_count += count
        self.busy_cycles_total += count * busy_cycles
        self.bits_transferred += count * data_bits
        tracer = self.tracer
        if tracer.enabled:  # disabled tracing costs exactly this flag check
            attributes = dict(attributes or {}, busy_cycles=busy_cycles)
            if records is None:
                tracer.record_fs(self.name, kind, start_fs, end_fs,
                                 initiator, address, data_bits, attributes)
            else:
                records.append((self.name, kind, start_fs, end_fs,
                                initiator, address, data_bits, attributes))

    # -- TAM_IF implementation ---------------------------------------------------
    def transport(self, payload: TamPayload):
        """Arbitraded, timed transport of *payload* with slave delivery."""
        cycles = self.transaction_cycles(payload)
        yield from self.occupy(
            initiator=payload.initiator, busy_cycles=cycles,
            kind=payload.command.value, address=payload.address,
            data_bits=payload.total_bits, attributes=payload.attributes,
        )
        slave, offset = self.decode(payload.address)
        if slave is None:
            payload.complete(TamResponse.ADDRESS_ERROR)
            return payload
        payload.attributes.setdefault("offset", offset)
        slave.tam_access(payload)
        if payload.status is TamResponse.INCOMPLETE:
            payload.complete(TamResponse.OK)
        return payload

    def write(self, payload: TamPayload):
        """TAM_IF ``write``: transfer stimuli to the addressed slave."""
        if payload.command is not TamCommand.WRITE:
            payload.command = TamCommand.WRITE
        return (yield from self.transport(payload))

    def read(self, payload: TamPayload):
        """TAM_IF ``read``: transfer responses from the addressed slave."""
        if payload.command is not TamCommand.READ:
            payload.command = TamCommand.READ
        return (yield from self.transport(payload))

    def write_read(self, payload: TamPayload):
        """TAM_IF ``write_read``: combined scan-style access."""
        if payload.command is not TamCommand.WRITE_READ:
            payload.command = TamCommand.WRITE_READ
        return (yield from self.transport(payload))

    # -- statistics -----------------------------------------------------------------
    def rewind(self) -> None:
        """Zero the statistics and free the arbiter (the just-built
        state); the slave map stays."""
        self._mutex.rewind()
        #: Aggregate statistics.
        self.transaction_count = 0
        self.busy_cycles_total = 0
        self.bits_transferred = 0

    @property
    def contention_count(self) -> int:
        """Number of transactions that had to wait for the TAM."""
        return self._mutex.contentions

    def __repr__(self):
        return (
            f"TamChannel({self.name!r}, width={self.width_bits}, "
            f"transactions={self.transaction_count})"
        )


class AteLink(Channel):
    """The channel between the ATE and the external bus interface.

    Typically the bandwidth bottleneck for uncompressed external test: the
    link is narrow (a few pins) compared to the on-chip TAM.  The link is
    full-duplex: stimuli move towards the EBI while responses of the previous
    pattern move back, so a combined transfer is paced by the larger of the
    two directions.
    """

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 width_bits: int, clock: Clock,
                 tracer: Optional[TransactionTracer] = None):
        super().__init__(parent, name)
        if width_bits <= 0:
            raise ValueError("ATE link width must be positive")
        self.width_bits = width_bits
        self.clock = clock
        self.tracer = tracer if tracer is not None else TransactionTracer()
        self._mutex = Mutex(self.sim, name=f"{self.name}.arbiter")
        self.rewind()

    def rewind(self) -> None:
        """Zero the statistics and free the arbiter (the just-built
        state)."""
        self._mutex.rewind()
        self.transaction_count = 0
        self.busy_cycles_total = 0

    def transfer_cycles(self, stimulus_bits: int, response_bits: int = 0) -> int:
        """ATE cycles to move a stimulus/response pair over the link."""
        bits = max(stimulus_bits, response_bits)
        if bits <= 0:
            return 0
        return math.ceil(bits / self.width_bits)

    def transfer(self, initiator: str, stimulus_bits: int, response_bits: int = 0,
                 kind: str = "ate_transfer",
                 attributes: Optional[Dict[str, object]] = None):
        """Blocking transfer over the link (``yield from``).

        Returns ``None``; the transfer lands on the link's tracer (when
        enabled) and in the aggregate link counters.
        """
        cycles = self.transfer_cycles(stimulus_bits, response_bits)
        yield from self._mutex.acquire()
        start_fs = self.sim.now_fs
        try:
            if cycles:
                yield Timeout(self.clock.cycles_fs(cycles))
        finally:
            self._mutex.release()
        self._account(start_fs, self.sim.now_fs, cycles, initiator, kind,
                      max(stimulus_bits, response_bits), attributes)

    def transfer_then(self, then, initiator: str, stimulus_bits: int,
                      response_bits: int = 0, kind: str = "ate_transfer",
                      attributes: Optional[Dict[str, object]] = None) -> None:
        """Callback form of :meth:`transfer` (see
        :meth:`TamChannel.occupy_then`): the transfer runs as scheduled
        activations, then ``then()`` is scheduled."""
        cycles = self.transfer_cycles(stimulus_bits, response_bits)
        _Hold(self, cycles, then,
              (initiator, kind, max(stimulus_bits, response_bits), attributes))

    def _account(self, start_fs: int, end_fs: int, cycles: int,
                 initiator: str, kind: str, data_bits: int,
                 attributes: Optional[Dict[str, object]], count: int = 1,
                 records: Optional[list] = None) -> None:
        """Counters and tracer record of one transfer over
        [*start_fs*, *end_fs*], or of a run of *count* like it (see
        :meth:`TamChannel._account`)."""
        self.transaction_count += count
        self.busy_cycles_total += count * cycles
        tracer = self.tracer
        if tracer.enabled:  # disabled tracing costs exactly this flag check
            attributes = dict(attributes or {}, busy_cycles=cycles)
            if records is None:
                tracer.record_fs(self.name, kind, start_fs, end_fs,
                                 initiator, None, data_bits, attributes)
            else:
                records.append((self.name, kind, start_fs, end_fs,
                                initiator, None, data_bits, attributes))

    def __repr__(self):
        return f"AteLink({self.name!r}, width={self.width_bits})"


class _Hold:
    """One callback-driven hold of an arbitrated channel.

    The queue-action twin of the generator bodies of
    :meth:`TamChannel.occupy` and :meth:`AteLink.transfer`: take the
    channel's mutex, hold it for *busy_cycles*, release it, account through
    the channel's ``_account`` and schedule *then*.  It pushes one entry
    wherever a process running the generator form pushes one (its spawn,
    the mutex hand-off, its ``Timeout`` and its ``finished`` notification),
    in the same order, so a model may switch between the two forms without
    moving a single activation.
    """

    __slots__ = ("channel", "busy_cycles", "then", "record", "start_fs")

    def __init__(self, channel, busy_cycles: int, then, record: tuple):
        self.channel = channel
        self.busy_cycles = busy_cycles
        self.then = then
        #: The channel's ``_account`` arguments after the start and cycles.
        self.record = record
        channel.sim._push(0, self._start)

    def _start(self) -> None:
        self.channel._mutex.acquire_then(self._granted)

    def _granted(self) -> None:
        channel = self.channel
        self.start_fs = channel.sim.now_fs
        if self.busy_cycles:
            channel.sim._push(channel.clock.cycles_fs(self.busy_cycles),
                              self._expired)
        else:
            self._expired()

    def _expired(self) -> None:
        channel = self.channel
        channel._mutex.release()
        channel._account(self.start_fs, channel.sim.now_fs, self.busy_cycles,
                         *self.record)
        channel.sim._push(0, self.then)
