"""The system bus of the JPEG SoC, reused as TAM.

The paper's case study reuses the functional system bus as the test access
mechanism.  :class:`SystemBus` therefore *is* a :class:`~repro.dft.tam.TamChannel`
(same arbitration, addressing and accounting) and additionally offers the
memory-mapped functional transfers the mission-mode cores use.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.kernel.module import Module
from repro.kernel.simulator import Simulator
from repro.dft.payload import TamCommand, TamPayload, TamResponse
from repro.dft.tam import TamChannel


class SystemBus(TamChannel):
    """Shared system bus that doubles as the SoC's TAM."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 width_bits: int, clock, arbitration_overhead_cycles: int = 1,
                 tracer=None):
        super().__init__(parent, name, width_bits, clock,
                         arbitration_overhead_cycles=arbitration_overhead_cycles,
                         tracer=tracer)

    def rewind(self) -> None:
        super().rewind()
        self.functional_reads = 0
        self.functional_writes = 0

    # -- functional transfers -----------------------------------------------------
    def functional_write(self, initiator: str, address: int, data,
                         data_bits: Optional[int] = None):
        """Memory-mapped write of *data* to *address* (blocking; ``yield from``)."""
        bits = data_bits if data_bits is not None else self._estimate_bits(data)
        payload = TamPayload(
            command=TamCommand.WRITE, address=address, data_bits=bits,
            data=data, initiator=initiator,
            attributes={"functional": True},
        )
        result = yield from self.transport(payload)
        self.functional_writes += 1
        if result.status is not TamResponse.OK:
            raise RuntimeError(
                f"functional write to {address:#x} failed: {result.status.value}"
            )
        return result

    def functional_read(self, initiator: str, address: int, bits: int):
        """Memory-mapped read of *bits* from *address* (blocking; ``yield from``).

        Returns the payload's ``response_data`` as provided by the slave.
        """
        payload = TamPayload(
            command=TamCommand.READ, address=address, data_bits=0,
            response_bits=bits, initiator=initiator,
            attributes={"functional": True},
        )
        result = yield from self.transport(payload)
        self.functional_reads += 1
        if result.status is not TamResponse.OK:
            raise RuntimeError(
                f"functional read from {address:#x} failed: {result.status.value}"
            )
        return result.response_data

    # -- helpers ----------------------------------------------------------------------
    def _estimate_bits(self, data) -> int:
        """Estimate the payload volume of *data* for timing purposes."""
        if data is None:
            return self.width_bits
        if hasattr(data, "nbytes"):
            return int(data.nbytes) * 8
        if isinstance(data, (bytes, bytearray)):
            return len(data) * 8
        if isinstance(data, int):
            return max(self.width_bits, data.bit_length())
        if isinstance(data, (list, tuple)):
            return max(self.width_bits, len(data) * self.width_bits)
        if isinstance(data, dict):
            return max(self.width_bits, 64)
        return self.width_bits

    def word_transfer_cycles(self, words: int) -> int:
        """Cycles for a burst of *words* bus-word transfers."""
        return self.arbitration_overhead_cycles + max(0, words)

    def __repr__(self):
        return (
            f"SystemBus({self.name!r}, width={self.width_bits}, "
            f"transactions={self.transaction_count})"
        )
