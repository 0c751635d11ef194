"""Fault-injectable memory array model."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.memory.faults import MemoryFault


class MemoryArray:
    """A word-addressable memory with optional injected faults.

    The array is stored sparsely (only written words occupy space) so a
    1 MByte array can be modeled without allocating a megabyte per instance.
    Reads of never-written words return the *background* value.
    """

    def __init__(self, words: int, word_bits: int = 8, background: int = 0):
        if words <= 0:
            raise ValueError("memory size must be positive")
        if word_bits <= 0:
            raise ValueError("word width must be positive")
        self.words = words
        self.word_bits = word_bits
        self.word_mask = (1 << word_bits) - 1
        self.background = background & self.word_mask
        self.rewind()

    # -- fault management -------------------------------------------------------
    def inject_fault(self, fault: MemoryFault) -> None:
        """Attach a fault model to the array."""
        fault.validate(self)
        self._faults.append(fault)

    def clear_faults(self) -> None:
        self._faults.clear()

    @property
    def faults(self) -> List[MemoryFault]:
        return list(self._faults)

    # -- access ----------------------------------------------------------------------
    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.words:
            raise IndexError(
                f"address {address:#x} outside memory of {self.words} words"
            )

    def raw_read(self, address: int) -> int:
        """Read the stored value without fault effects (used by fault models)."""
        return self._contents.get(address, self.background)

    def raw_write(self, address: int, value: int) -> None:
        """Write the stored value without fault effects (used by fault models)."""
        self._contents[address] = value & self.word_mask

    # read/write are the march-test inner loop: the bounds check and the
    # raw access are inlined (same effect as _check_address/raw_read/
    # raw_write, which only the failure path and the fault models call).
    def read(self, address: int) -> int:
        """Functional read, including the effect of injected faults."""
        if not 0 <= address < self.words:
            self._check_address(address)
        self.read_count += 1
        value = self._contents.get(address, self.background)
        for fault in self._faults:
            value = fault.on_read(self, address, value)
        return value & self.word_mask

    def write(self, address: int, value: int) -> None:
        """Functional write, including the effect of injected faults."""
        if not 0 <= address < self.words:
            self._check_address(address)
        self.write_count += 1
        value &= self.word_mask
        for fault in self._faults:
            value = fault.on_write(self, address, value)
        self._contents[address] = value & self.word_mask
        for fault in self._faults:
            fault.after_write(self, address, value)

    # -- bulk helpers --------------------------------------------------------------
    def fill(self, value: int) -> None:
        """Set every word to *value* (bypasses fault effects)."""
        self.background = value & self.word_mask
        self._contents = {}

    def load(self, data: Iterable[int], base_address: int = 0) -> None:
        """Load a block of words starting at *base_address* (no fault effects)."""
        for offset, value in enumerate(data):
            address = base_address + offset
            self._check_address(address)
            self.raw_write(address, value)

    def dump(self, base_address: int, length: int) -> List[int]:
        """Read a block of words without fault effects."""
        self._check_address(base_address)
        self._check_address(base_address + length - 1)
        return [self.raw_read(base_address + offset) for offset in range(length)]

    def reset_counters(self) -> None:
        #: Operation counters (useful to validate march-test lengths).
        self.read_count = 0
        self.write_count = 0

    def rewind(self) -> None:
        """Return to the just-built array: never written, no faults,
        counters zeroed."""
        self._contents: Dict[int, int] = {}
        self._faults: List[MemoryFault] = []
        self.reset_counters()

    def __len__(self) -> int:
        return self.words

    def __repr__(self):
        return (
            f"MemoryArray(words={self.words}, word_bits={self.word_bits}, "
            f"faults={len(self._faults)})"
        )
