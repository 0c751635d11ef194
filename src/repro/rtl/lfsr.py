"""Bit-level LFSR and MISR primitives.

These are the structures behind the BIST pattern sources and response
compactors of the paper: a pseudo-random pattern generator (LFSR) feeding the
scan chains and a multiple-input signature register (MISR) compacting the
responses into a signature word.

Both registers are linear maps over GF(2), which the module exploits for
*leap-ahead* stepping: the feedback bit after ``i`` steps is the parity of
``state & F_i`` for a precomputed mask ``F_i`` (``F_0`` is the tap mask and
``F_{i+1} = (F_i >> 1) ^ (tap_mask if F_i & 1 else 0)``), and eight steps at
a time are resolved through per-byte XOR tables.  ``next_word``/``leap``
therefore advance 8 bits per handful of C-level table lookups instead of
looping per bit in Python, while producing bit-identical sequences to
repeated :meth:`LFSR.step` calls (pinned by the differential property
tests).

The same linearity folds runs of consecutive response words in closed form
(:meth:`MISR.compact_range`).  With ``L`` the zero-input shift, folding the
aligned block of words ``base | t`` (``t < 2**k``, low ``k`` bits of
``base`` zero) maps a state ``s`` to ``L^(2^k)·s ^ P_k·base ^ C_k``, where
``P_k = sum(L^j for j < 2^k)`` and ``C_k`` is a constant.  Doubling a block
gives ``P_{k+1} = (L^(2^k) + I)·P_k`` and
``C_{k+1} = (L^(2^k) + I)·C_k ^ P_k·2^k`` from ``P_0 = I`` and ``C_0 = 0``,
so any range splits into at most about ``2·log2(n)`` aligned blocks.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

#: Primitive characteristic polynomials (tap positions, 1-based from the LSB)
#: for common register widths.  Taken from standard LFSR tap tables.
STANDARD_POLYNOMIALS: Dict[int, Sequence[int]] = {
    8: (8, 6, 5, 4),
    16: (16, 15, 13, 4),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
    48: (48, 47, 21, 20),
    64: (64, 63, 61, 60),
}

#: Bit-reversal table for one byte (used to fold a leapt output chunk back
#: into the low bits of the register state).
_REV8 = tuple(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _resolve_taps(kind: str, width: int, taps) -> tuple:
    """Validated tap positions of a *kind* register (standard polynomial
    when *taps* is None)."""
    if width <= 0:
        raise ValueError(f"{kind} width must be positive")
    if taps is None:
        if width not in STANDARD_POLYNOMIALS:
            raise ValueError(
                f"no standard polynomial for width {width}; pass taps="
            )
        taps = STANDARD_POLYNOMIALS[width]
    if any(tap < 1 or tap > width for tap in taps):
        raise ValueError("tap positions must be within 1..width")
    return tuple(taps)


@functools.lru_cache(maxsize=512)
def _feedback_masks(width: int, taps: Sequence[int], count: int) -> tuple:
    """Masks ``F_0 .. F_{count-1}``: the feedback bit produced on step ``i``
    (counted from the current state) is ``parity(state & F_i)``."""
    tap_mask = 0
    for tap in taps:
        tap_mask |= 1 << (tap - 1)
    masks = []
    mask = tap_mask
    for _ in range(count):
        masks.append(mask)
        mask = (mask >> 1) ^ (tap_mask if mask & 1 else 0)
    return tuple(masks)


@functools.lru_cache(maxsize=64)
def _chunk_tables(width: int, taps: Sequence[int]) -> tuple:
    """Per-byte XOR tables resolving eight steps at once.

    ``tables[b][v]`` is the 8-bit output chunk (step-``i`` feedback at bit
    ``i``) contributed by value ``v`` of state byte ``b``; the chunks of all
    state bytes XOR together.  Only built for ``width >= 8``.
    """
    masks = _feedback_masks(width, taps, 8)
    byte_count = (width + 7) // 8
    tables = []
    for byte_index in range(byte_count):
        shift = 8 * byte_index
        byte_masks = [(mask >> shift) & 0xFF for mask in masks]
        table = []
        for value in range(256):
            chunk = 0
            for bit, byte_mask in enumerate(byte_masks):
                chunk |= ((value & byte_mask).bit_count() & 1) << bit
            table.append(chunk)
        tables.append(tuple(table))
    return tuple(tables)


def _apply(columns: tuple, vector: int) -> int:
    """GF(2) matrix (one int per column) times *vector*; reads only the low
    ``len(columns)`` bits of *vector*, so words need no masking."""
    result = 0
    for column in columns:
        if not vector:
            break
        if vector & 1:
            result ^= column
        vector >>= 1
    return result


@functools.lru_cache(maxsize=1024)
def _fold_matrices(width: int, tap_mask: int, level: int) -> tuple:
    """``(L^(2^level), P_level, C_level)`` of the MISR block fold (see the
    module docstring); matrices as ``width`` column ints."""
    if level == 0:
        mask = (1 << width) - 1
        shift = tuple(((2 << bit) & mask) | ((tap_mask >> bit) & 1)
                      for bit in range(width))
        return shift, tuple(1 << bit for bit in range(width)), 0
    shift, sums, constant = _fold_matrices(width, tap_mask, level - 1)
    shift_plus_identity = tuple(column ^ (1 << bit)
                                for bit, column in enumerate(shift))
    return (tuple(_apply(shift, column) for column in shift),
            tuple(_apply(shift_plus_identity, column) for column in sums),
            _apply(shift_plus_identity, constant)
            ^ _apply(sums, 1 << (level - 1)))


class _LinearRegister:
    """Shared leap-ahead machinery of :class:`LFSR` and :class:`MISR`.

    Registers of width >= 8 advance eight steps per table lookup round;
    narrower (custom-tap) registers fall back to mask-recurrence stepping,
    which is still branch-free per bit but remains O(count).
    """

    width: int
    taps: tuple
    state: int
    _tap_mask: int

    def _advance(self, count: int) -> int:
        """Advance the register by *count* zero-input steps; returns the
        produced feedback bits as an integer (step ``i``'s bit at position
        ``i``).  Bit-identical to *count* single steps."""
        if count < 0:
            raise ValueError("cannot leap a negative number of steps")
        if count == 0:
            return 0
        width = self.width
        state = self.state
        mask = (1 << width) - 1
        word = 0
        produced = 0
        if width >= 8:
            tables = _chunk_tables(width, self.taps)
            rev8 = _REV8
            while count - produced >= 8:
                chunk = 0
                value = state
                for table in tables:
                    chunk ^= table[value & 0xFF]
                    value >>= 8
                word |= chunk << produced
                state = ((state << 8) | rev8[chunk]) & mask
                produced += 8
        remainder = count - produced
        if remainder:
            # The chunk loop above leaves remainder < 8 for width >= 8;
            # narrower registers take this path for the whole count, so the
            # masks are generated on the fly (O(1) memory) instead of
            # materializing an O(count) cached tuple.
            tap_mask = self._tap_mask
            feedback_mask = tap_mask
            tail = 0
            for bit in range(remainder):
                tail |= ((state & feedback_mask).bit_count() & 1) << bit
                feedback_mask = ((feedback_mask >> 1)
                                 ^ (tap_mask if feedback_mask & 1 else 0))
            word |= tail << produced
            # Fold the produced bits into the state: after ``r`` steps the
            # low ``r`` bits hold the outputs newest-first.
            low = 0
            for bit in range(min(remainder, width)):
                low |= ((tail >> (remainder - 1 - bit)) & 1) << bit
            state = ((state << remainder) | low) & mask
        self.state = state
        return word


class LFSR(_LinearRegister):
    """A Fibonacci linear-feedback shift register."""

    def __init__(self, width: int, seed: int = 1,
                 taps: Sequence[int] = None):
        self.taps = _resolve_taps("LFSR", width, taps)
        if seed % (1 << width) == 0:
            raise ValueError("LFSR seed must be non-zero modulo 2**width")
        self.width = width
        self._tap_mask = _feedback_masks(width, self.taps, 1)[0]
        self.state = seed & ((1 << width) - 1)

    def step(self) -> int:
        """Advance by one clock; returns the new least-significant bit."""
        feedback = (self.state & self._tap_mask).bit_count() & 1
        self.state = ((self.state << 1) | feedback) & ((1 << self.width) - 1)
        return feedback

    def leap(self, steps: int) -> int:
        """Advance by *steps* clocks at once; returns the new state.

        Equivalent to calling :meth:`step` *steps* times (table-driven, so
        large pattern counts do not loop per bit in Python).
        """
        self._advance(steps)
        return self.state

    def next_word(self, bits: int) -> int:
        """Produce *bits* pseudo-random bits as an integer (LSB first)."""
        return self._advance(bits)

    def next_pattern(self, bits: int) -> List[int]:
        """Produce *bits* pseudo-random bits as a list of 0/1 values."""
        word = self._advance(bits)
        return [(word >> position) & 1 for position in range(bits)]


class MISR(_LinearRegister):
    """A multiple-input signature register compacting response words.

    Runs of consecutive words passed to :meth:`compact_range` are folded
    lazily: the register only records the pending range, extends it while
    further calls continue it, and folds it in closed form the next time the
    register is used otherwise (any other compaction, :meth:`leap`, or a
    read of :attr:`state`/:attr:`signature`).  Assigning :attr:`state`
    discards a pending range, as the per-word fold would have been
    overwritten too.
    """

    def __init__(self, width: int, seed: int = 0,
                 taps: Sequence[int] = None):
        self.taps = _resolve_taps("MISR", width, taps)
        self.width = width
        self._tap_mask = _feedback_masks(width, self.taps, 1)[0]
        self._word_mask = (1 << width) - 1
        self._pending = None
        self._state = seed & self._word_mask

    @property
    def state(self) -> int:
        if self._pending is not None:
            self._fold_pending()
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._pending = None
        self._state = value

    def compact(self, word: int, count: int = 1) -> int:
        """Fold one response word into the signature, *count* times over;
        returns the new state."""
        tap_mask = self._tap_mask
        word_mask = self._word_mask
        word &= word_mask
        state = self.state
        for _ in range(count):
            state = (((state << 1) | ((state & tap_mask).bit_count() & 1))
                     & word_mask) ^ word
        self._state = state
        return state

    def compact_sequence(self, words) -> int:
        """Fold a sequence of response words; returns the final signature."""
        tap_mask = self._tap_mask
        word_mask = self._word_mask
        state = self.state
        for word in words:
            state = (((state << 1) | ((state & tap_mask).bit_count() & 1))
                     & word_mask) ^ (word & word_mask)
        self.state = state
        return state

    def compact_range(self, start: int, stop: int) -> None:
        """Fold the words ``start, start + 1, ..., stop - 1``.

        Bit-identical to :meth:`compact` called once per word.  The fold is
        deferred (see the class docstring), so a run of calls that continue
        each other costs one closed-form fold of O(width · log(n)) steps.
        """
        if stop <= start:
            return
        pending = self._pending
        if pending is not None:
            if pending[1] == start:
                self._pending = (pending[0], stop)
                return
            self._fold_pending()
        self._pending = (start, stop)

    def _fold_pending(self) -> None:
        position, stop = self._pending
        self._pending = None
        width = self.width
        tap_mask = self._tap_mask
        state = self._state
        while position < stop:
            # The largest aligned block starting at ``position`` that fits.
            level = (stop - position).bit_length() - 1
            if position:
                level = min(level, (position & -position).bit_length() - 1)
            shift, sums, constant = _fold_matrices(width, tap_mask, level)
            state = _apply(shift, state) ^ _apply(sums, position) ^ constant
            position += 1 << level
        self._state = state

    def leap(self, steps: int) -> int:
        """Advance by *steps* zero-input shifts at once; returns the state.

        Equivalent to ``compact(0)`` called *steps* times (idle cycles
        between response bursts no longer loop per bit in Python).
        """
        self._advance(steps)
        return self.state

    @property
    def signature(self) -> int:
        return self.state
