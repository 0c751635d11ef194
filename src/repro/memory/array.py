"""Fault-injectable memory array model."""

from __future__ import annotations

from itertools import cycle
from typing import Dict, Iterable, List, Optional, Tuple

from repro.memory.faults import MemoryFault


class MemoryArray:
    """A word-addressable memory with optional injected faults.

    The array is stored sparsely (only written words occupy space) so a
    1 MByte array can be modeled without allocating a megabyte per instance.
    A word resolves through three layers: an explicit entry of the sparse
    dict, else the *strided layer*, else the *background* value.  The
    strided layer ``(stride, values)`` gives every address ``a`` with
    ``a % stride == 0`` the value ``values[(a // stride) % len(values)]``;
    it is what a fault-free march element or pattern leaves behind over the
    cells it visits, set in O(1) instead of one dict entry per cell.
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
        self._materialise()
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

    def _unwritten(self, address: int) -> int:
        """The value of a word without a dict entry: layer, else background."""
        layer = self._layer
        if layer is not None and not address % self._stride:
            return layer[address // self._stride % len(layer)]
        return self.background

    def raw_read(self, address: int) -> int:
        """Read the stored value without fault effects (used by fault models)."""
        value = self._contents.get(address)
        return self._unwritten(address) if value is None else value

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
        value = self._contents.get(address)
        if value is None:
            value = self._unwritten(address)
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

    # -- strided layer -------------------------------------------------------------
    def _materialise(self) -> None:
        """Write the strided layer out as dict entries (explicit entries
        keep precedence) and drop it; the contents do not change."""
        if self._layer is None:
            return
        cells = dict(zip(range(0, self.words, self._stride),
                         cycle(self._layer)))
        cells.update(self._contents)
        self._contents = cells
        self._layer = None

    def _set_layer(self, stride: int, values: Tuple[int, ...]) -> None:
        """Store ``values[(a // stride) % len(values)]`` (already masked) at
        every address ``a`` on *stride*, replacing whatever those cells
        held; every other cell keeps its value."""
        if self._layer is not None and self._stride != stride:
            self._materialise()
        if self._contents:
            self._contents = {address: value
                              for address, value in self._contents.items()
                              if address % stride}
        self._stride = stride
        self._layer = values

    def _stride_holds(self, stride: int, value: int) -> bool:
        """True if every address on *stride* provably holds *value*, in
        O(1 + dict entries).  False means "not proven", not "differs"."""
        layer = self._layer
        if layer is None:
            if self.background != value:
                return False
        elif self._stride != stride or any(
                held != value for held in layer[:-(-self.words // stride)]):
            return False
        return all(held == value for address, held in self._contents.items()
                   if not address % stride)

    # -- bulk helpers --------------------------------------------------------------
    def fill(self, value: int) -> None:
        """Set every word to *value* (bypasses fault effects)."""
        self.background = value & self.word_mask
        self._contents = {}
        self._layer = None

    def load(self, data: Iterable[int], base_address: int = 0) -> None:
        """Load a block of words starting at *base_address* (no fault effects).

        The whole block is range-checked before any word is written, so a
        refused load changes nothing.
        """
        values = list(data)
        if not values:
            return
        self._check_address(base_address)
        self._check_address(base_address + len(values) - 1)
        mask = self.word_mask
        self._contents.update(zip(range(base_address, base_address + len(values)),
                                  (value & mask for value in values)))

    def dump(self, base_address: int, length: int) -> List[int]:
        """Read a block of words without fault effects."""
        if length < 0:
            raise ValueError(f"dump length must be non-negative, got {length}")
        self._check_address(base_address)
        if not length:
            return []
        self._check_address(base_address + length - 1)
        return [self.raw_read(address)
                for address in range(base_address, base_address + length)]

    def reset_counters(self) -> None:
        #: Operation counters (useful to validate march-test lengths).
        self.read_count = 0
        self.write_count = 0

    def rewind(self) -> None:
        """Return to the just-built array: never written, no faults,
        counters zeroed."""
        self._contents: Dict[int, int] = {}
        self._stride = 1
        self._layer: Optional[Tuple[int, ...]] = None
        self._faults: List[MemoryFault] = []
        self.reset_counters()

    def __len__(self) -> int:
        return self.words

    def __repr__(self):
        return (
            f"MemoryArray(words={self.words}, word_bits={self.word_bits}, "
            f"faults={len(self._faults)})"
        )
