"""March tests and data-background pattern tests.

A march test is a sequence of *march elements*; each element walks over all
addresses in a fixed order and applies a short sequence of read/write
operations per address.  The classic algorithms used in the paper's case study
(MATS+ plus "pattern tests") and several others are provided, together with a
runner that applies them to a :class:`~repro.memory.array.MemoryArray` and
reports detected failures and the exact operation count (from which the test
length in cycles is derived).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class AddressOrder(enum.Enum):
    """Address order of a march element."""

    UP = "up"          # ascending addresses
    DOWN = "down"      # descending addresses
    ANY = "any"        # order irrelevant (implemented as ascending)


@dataclass(frozen=True)
class MarchOperation:
    """A single read or write within a march element.

    ``kind`` is ``"r"`` or ``"w"``; ``value`` is the data background index
    (0 -> background, 1 -> inverted background).
    """

    kind: str
    value: int

    def __post_init__(self):
        if self.kind not in ("r", "w"):
            raise ValueError("march operation kind must be 'r' or 'w'")
        if self.value not in (0, 1):
            raise ValueError("march operation value must be 0 or 1")

    def __str__(self):
        return f"{self.kind}{self.value}"


_ORDERS = {order.value: order for order in AddressOrder}
_TOKENS = frozenset({"r0", "r1", "w0", "w1"})


@dataclass(frozen=True)
class MarchElement:
    """One element of a march test: an address order plus operations."""

    order: AddressOrder
    operations: Tuple[MarchOperation, ...]

    @classmethod
    def parse(cls, text: str) -> "MarchElement":
        """Parse e.g. ``"up(r0,w1)"`` or ``"down(r1,w0,r0)"``.

        Raises :class:`ValueError` for anything else: an unknown order, a
        missing parenthesis, or an operation token that is not exactly
        ``[rw][01]``.
        """
        text = text.strip()
        order_name, open_paren, body = text.partition("(")
        order = _ORDERS.get(order_name.strip().lower())
        if order is None or not open_paren or not body.endswith(")"):
            raise ValueError(f"malformed march element {text!r}")
        tokens = [token.strip() for token in body[:-1].split(",")]
        if not _TOKENS.issuperset(tokens):
            raise ValueError(f"malformed march operations in {text!r}")
        return cls(order=order, operations=tuple(
            MarchOperation(token[0], int(token[1])) for token in tokens))

    @property
    def operation_count(self) -> int:
        return len(self.operations)

    def __str__(self):
        symbol = {"up": "⇑", "down": "⇓", "any": "⇕"}[self.order.value]
        ops = ",".join(str(op) for op in self.operations)
        return f"{symbol}({ops})"


@dataclass(frozen=True)
class MarchTest:
    """A complete march algorithm."""

    name: str
    elements: Tuple[MarchElement, ...]

    @classmethod
    def from_notation(cls, name: str, elements: Sequence[str]) -> "MarchTest":
        return cls(name=name, elements=tuple(MarchElement.parse(e) for e in elements))

    @property
    def operations_per_cell(self) -> int:
        """Total operations applied to each cell (the "xN" complexity factor)."""
        return sum(element.operation_count for element in self.elements)

    def operation_count(self, words: int) -> int:
        """Total number of memory operations for an array of *words* cells."""
        return self.operations_per_cell * words

    def __str__(self):
        return f"{self.name}: " + " ".join(str(e) for e in self.elements)


# -- classic algorithms ---------------------------------------------------------------

MATS = MarchTest.from_notation("MATS", ["any(w0)", "any(r0,w1)", "any(r1)"])
MATS_PLUS = MarchTest.from_notation(
    "MATS+", ["any(w0)", "up(r0,w1)", "down(r1,w0)"]
)
MATS_PLUS_PLUS = MarchTest.from_notation(
    "MATS++", ["any(w0)", "up(r0,w1)", "down(r1,w0,r0)"]
)
MARCH_X = MarchTest.from_notation(
    "MARCH X", ["any(w0)", "up(r0,w1)", "down(r1,w0)", "any(r0)"]
)
MARCH_Y = MarchTest.from_notation(
    "MARCH Y", ["any(w0)", "up(r0,w1,r1)", "down(r1,w0,r0)", "any(r0)"]
)
MARCH_C_MINUS = MarchTest.from_notation(
    "MARCH C-",
    ["any(w0)", "up(r0,w1)", "up(r1,w0)", "down(r0,w1)", "down(r1,w0)", "any(r0)"],
)

#: Data backgrounds used by the checkerboard pattern test.
CHECKERBOARD = ("checkerboard", "inverse checkerboard")


@dataclass
class MarchTestResult:
    """Outcome of running a march test against a memory array."""

    test_name: str
    words: int
    operations: int
    failures: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Reads and writes actually issued (cross-check against ``operations``).
    reads: int = 0
    writes: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failing_addresses(self) -> List[int]:
        return sorted({address for address, _, _ in self.failures})


def _addresses(words: int, order: AddressOrder, stride: int = 1):
    """Addresses visited by one march element.

    With a *stride* the same subsampled address set must be visited by
    ascending and descending elements, so the descending walk starts at the
    highest multiple of the stride rather than at ``words - 1``.
    """
    if order is AddressOrder.DOWN:
        highest = ((words - 1) // stride) * stride
        return range(highest, -1, -stride)
    return range(0, words, stride)


def _apply_fault_free(memory, element: MarchElement, data,
                      addresses: range) -> Optional[Tuple[int, int]]:
    """Apply *element* in closed form when that provably equals the
    per-address walk, and return the (reads, writes) it issued; return
    ``None``, having changed nothing, otherwise.

    On an array without injected faults every cell is independent, so an
    element none of whose reads can mismatch reduces to its operation counts
    plus its last write.  No read can mismatch when every read before the
    first write expects the one value all visited cells hold now, and every
    later read expects the value written just before it.  The check costs
    O(1 + dict entries) (:meth:`MemoryArray._stride_holds`), and the last
    write becomes the array's strided layer.
    """
    if memory._faults:
        return None
    reads = writes = 0
    pre_write_reads = set()
    last_write = None
    for operation in element.operations:
        value = data[operation.value]
        if operation.kind == "w":
            writes += 1
            last_write = value
        else:
            reads += 1
            if last_write is None:
                pre_write_reads.add(value)
            elif value != last_write:
                return None
    if len(pre_write_reads) > 1:
        return None
    stride = abs(addresses.step)
    if pre_write_reads and not memory._stride_holds(stride,
                                                    *pre_write_reads):
        return None
    count = len(addresses)
    memory.read_count += reads * count
    memory.write_count += writes * count
    if last_write is not None:
        memory._set_layer(stride, (last_write,))
    return reads * count, writes * count


def run_march_test(memory, march: MarchTest, background: int = 0,
                   stride: int = 1,
                   max_failures: Optional[int] = None) -> MarchTestResult:
    """Run *march* against *memory* and collect mismatching reads.

    *background* is the all-zero data value (value index 0); value index 1 is
    its bitwise complement.  *stride* subsamples the address space, which the
    TLM models use to keep simulations of megabyte arrays fast while
    preserving the operation-per-cell structure (the reported operation count
    is always the full-array count).

    Elements that cannot fail on a fault-free array are applied in closed
    form by :func:`_apply_fault_free`; every other element, and every
    element on a faulted array, takes the per-address walk below.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    data = {0: background & memory.word_mask,
            1: ~background & memory.word_mask}
    result = MarchTestResult(
        test_name=march.name,
        words=memory.words,
        operations=march.operation_count(memory.words),
    )
    for element in march.elements:
        addresses = _addresses(memory.words, element.order, stride)
        counts = _apply_fault_free(memory, element, data, addresses)
        if counts is not None:
            result.reads += counts[0]
            result.writes += counts[1]
            continue
        memory._materialise()
        for address in addresses:
            for operation in element.operations:
                expected = data[operation.value]
                if operation.kind == "w":
                    memory.write(address, expected)
                    result.writes += 1
                else:
                    observed = memory.read(address)
                    result.reads += 1
                    if observed != expected:
                        if max_failures is None or len(result.failures) < max_failures:
                            result.failures.append((address, expected, observed))
    return result


def run_pattern_test(memory, patterns: Sequence[int] = (0x55, 0xAA),
                     stride: int = 1,
                     max_failures: Optional[int] = None) -> MarchTestResult:
    """Run a data-background (checkerboard style) pattern test.

    Each pattern is written to every cell and read back; alternating cells get
    the inverted pattern so that neighbouring cells hold opposite data, the
    classic checkerboard background.  On an array without injected faults
    no read can mismatch, so each pattern becomes the array's strided layer
    and only the operations are counted.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    result = MarchTestResult(
        test_name="PATTERN",
        words=memory.words,
        operations=2 * len(patterns) * memory.words,
    )
    for pattern in patterns:
        pattern &= memory.word_mask
        inverse = ~pattern & memory.word_mask
        addresses = range(0, memory.words, stride)
        if not memory._faults:
            # An odd stride alternates the parity of the visited addresses.
            memory._set_layer(stride, (pattern, inverse) if stride % 2
                              else (pattern,))
            count = len(addresses)
            memory.write_count += count
            memory.read_count += count
            result.writes += count
            result.reads += count
            continue
        for address in addresses:
            value = pattern if address % 2 == 0 else inverse
            memory.write(address, value)
            result.writes += 1
        for address in addresses:
            expected = pattern if address % 2 == 0 else inverse
            observed = memory.read(address)
            result.reads += 1
            if observed != expected:
                if max_failures is None or len(result.failures) < max_failures:
                    result.failures.append((address, expected, observed))
    return result
