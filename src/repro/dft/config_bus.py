"""The configuration scan bus / ring.

Test wrappers, decompressors and the external bus interface are configured
through a dedicated serial scan ring (paper, Figures 3 and 4).  Writing one
instruction requires shifting through the whole ring, so the configuration
cost grows with the number of connected blocks — an effect the TLM captures
because it matters when schedules switch test modes frequently.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Union

from repro.kernel.channel import Channel
from repro.kernel.clock import Clock
from repro.kernel.event import Timeout
from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.kernel.sync import Mutex
from repro.kernel.tracing import TransactionTracer


class ConfigurableRegister:
    """A register sitting on the configuration scan ring (e.g. a WIR)."""

    def __init__(self, name: str, width_bits: int,
                 on_update: Optional[Callable[[int], None]] = None,
                 reset_value: int = 0):
        if width_bits <= 0:
            raise ValueError("register width must be positive")
        self.name = name
        self.width_bits = width_bits
        self.reset_value = reset_value & self.mask
        self.value = self.reset_value
        self._on_update = on_update

    @property
    def mask(self) -> int:
        return (1 << self.width_bits) - 1

    def update(self, value: int) -> None:
        self.value = value & self.mask
        if self._on_update is not None:
            self._on_update(self.value)

    def rewind(self) -> None:
        """Load the reset value through :meth:`update`, so the owner's
        decoded state (a wrapper's mode, a bypass or enable flag) returns
        to what the reset value selects: the state it was built in."""
        self.update(self.reset_value)

    def __repr__(self):
        return f"ConfigurableRegister({self.name!r}, width={self.width_bits}, value={self.value:#x})"


#: Default capture/update protocol cycles per configuration, paid once per
#: shift regardless of the ring's serial width.
DEFAULT_PROTOCOL_OVERHEAD_CYCLES = 4


class ConfigurationScanBus(Channel):
    """Serial configuration scan ring connecting all configurable registers."""

    def __init__(self, parent: Union[Simulator, Module], name: str, clock: Clock,
                 protocol_overhead_cycles: int = DEFAULT_PROTOCOL_OVERHEAD_CYCLES,
                 tracer: Optional[TransactionTracer] = None,
                 serial_width_bits: int = 1):
        super().__init__(parent, name)
        if serial_width_bits < 1:
            raise ValueError("serial width must be at least one bit")
        self.clock = clock
        self.protocol_overhead_cycles = protocol_overhead_cycles
        #: Bits shifted through the ring per cycle (wrapper serial port
        #: width).  The classic IEEE 1500 WSI/WSO ring is 1 bit wide; wider
        #: serial ports shift a full configuration proportionally faster.
        self.serial_width_bits = serial_width_bits
        self.tracer = tracer if tracer is not None else TransactionTracer()
        self._registers: Dict[str, ConfigurableRegister] = {}
        self._order: List[str] = []
        self._mutex = Mutex(self.sim, name=f"{self.name}.arbiter")
        self.rewind()

    # -- ring construction ---------------------------------------------------
    def register(self, config_register: ConfigurableRegister) -> None:
        """Insert *config_register* into the scan ring."""
        if config_register.name in self._registers:
            raise ValueError(
                f"register {config_register.name!r} is already on the ring"
            )
        self._registers[config_register.name] = config_register
        self._order.append(config_register.name)

    @property
    def ring_length_bits(self) -> int:
        """Total shift length of the ring (sum of all register widths)."""
        return sum(reg.width_bits for reg in self._registers.values())

    def rewind(self) -> None:
        """Free the arbiter and zero the statistics (the just-built state).
        The registers stay on the ring; each owner rewinds its own."""
        self._mutex.rewind()
        self.configuration_count = 0
        self.busy_cycles_total = 0

    @property
    def registers(self) -> List[ConfigurableRegister]:
        return [self._registers[name] for name in self._order]

    def lookup(self, name: str) -> ConfigurableRegister:
        try:
            return self._registers[name]
        except KeyError:
            raise KeyError(f"no register named {name!r} on the configuration ring")

    # -- timed configuration --------------------------------------------------
    def configuration_cycles(self) -> int:
        """Cycles to shift one full configuration through the ring."""
        shift_cycles = math.ceil(self.ring_length_bits / self.serial_width_bits)
        return shift_cycles + self.protocol_overhead_cycles

    def configure(self, target_name: str, value: int, initiator: str = ""):
        """Shift a new value into *target_name* (blocking; ``yield from``).

        Shifting is serial through the entire ring, so the cost is independent
        of which register is targeted; all other registers are rewritten with
        their current values.
        """
        register = self.lookup(target_name)
        cycles = self.configuration_cycles()
        yield from self._mutex.acquire()
        start_fs = self.sim.now_fs
        try:
            yield Timeout(self.clock.cycles_fs(cycles))
        finally:
            self._mutex.release()
        register.update(value)
        self.configuration_count += 1
        self.busy_cycles_total += cycles
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_fs(
                self.name, "configure", start_fs, self.sim.now_fs,
                initiator=initiator, data_bits=self.ring_length_bits,
                attributes={"target": target_name, "value": value,
                            "busy_cycles": cycles},
            )
        return register.value

    def configure_many(self, assignments: Dict[str, int], initiator: str = ""):
        """Configure several registers with a single shift through the ring."""
        for name in assignments:
            self.lookup(name)
        cycles = self.configuration_cycles()
        yield from self._mutex.acquire()
        start_fs = self.sim.now_fs
        try:
            yield Timeout(self.clock.cycles_fs(cycles))
        finally:
            self._mutex.release()
        for name, value in assignments.items():
            self._registers[name].update(value)
        self.configuration_count += 1
        self.busy_cycles_total += cycles
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_fs(
                self.name, "configure_many", start_fs,
                self.sim.now_fs, initiator=initiator,
                data_bits=self.ring_length_bits,
                attributes={"targets": sorted(assignments),
                            "busy_cycles": cycles},
            )

    def __repr__(self):
        return (
            f"ConfigurationScanBus({self.name!r}, registers={len(self._registers)}, "
            f"ring_bits={self.ring_length_bits})"
        )
