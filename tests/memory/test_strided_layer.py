"""Differential tests of the memory array's strided layer.

A fault-free march element or pattern leaves its values as a strided layer
instead of one dict entry per visited cell.  Each test drives two arrays
through the same sequence: one takes the layer path, the other carries a
fault that changes nothing and so takes the per-address walk.  Results,
counters and the whole array's contents must be equal after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    MARCH_C_MINUS,
    MATS_PLUS,
    MemoryArray,
    MemoryFault,
    StuckAtCellFault,
    TransitionFault,
    run_march_test,
    run_pattern_test,
)
from repro.memory.march import MarchTest


class _TransparentFault(MemoryFault):
    """A fault that changes nothing: it forces the per-address walk."""


class Pair:
    """A layer-path array and a walk-path reference, driven in lockstep."""

    def __init__(self, words, word_bits=8, background=0):
        self.fast = MemoryArray(words, word_bits, background)
        self.reference = MemoryArray(words, word_bits, background)
        self.reference.inject_fault(_TransparentFault())

    def _rearm(self):
        if not any(isinstance(fault, _TransparentFault)
                   for fault in self.reference.faults):
            self.reference.inject_fault(_TransparentFault())

    def march(self, march, **kwargs):
        return self._both(run_march_test, march, **kwargs)

    def pattern(self, **kwargs):
        return self._both(run_pattern_test, **kwargs)

    def _both(self, runner, *args, **kwargs):
        results = [runner(memory, *args, **kwargs)
                   for memory in (self.fast, self.reference)]
        assert results[0] == results[1]
        self.check()
        return results[0]

    def each(self, method, *args):
        for memory in (self.fast, self.reference):
            getattr(memory, method)(*args)
        if method in ("rewind", "clear_faults"):
            self._rearm()
        self.check()

    def inject(self, make_fault):
        for memory in (self.fast, self.reference):
            memory.inject_fault(make_fault())
        self.check()

    def check(self):
        fast, reference = self.fast, self.reference
        assert (fast.read_count, fast.write_count) == \
            (reference.read_count, reference.write_count)
        assert fast.dump(0, fast.words) == reference.dump(0, reference.words)
        for address in range(fast.words):
            assert fast.raw_read(address) == reference.raw_read(address)


class TestLayerEdgeCases:
    def test_raw_write_and_load_into_layered_cells(self):
        pair = Pair(words=64)
        pair.march(MATS_PLUS, stride=3)
        assert pair.fast._layer is not None
        pair.each("raw_write", 3, 0x5A)
        pair.each("load", [1, 2, 3, 4], 5)  # 6 lies on the stride
        # Explicit entries override the layer: the next r0 read must fail.
        result = pair.march(MarchTest.from_notation("R", ["up(r0,w1)"]),
                            stride=3)
        assert sorted(result.failing_addresses) == [3, 6]
        # A fresh element overwrites every visited cell, entries included.
        pair.march(MarchTest.from_notation("W", ["down(w1)", "up(r1)"]),
                   stride=3)
        assert pair.fast.raw_read(3) == 0xFF and pair.fast.raw_read(5) == 1

    def test_fault_injected_after_a_layer_then_a_faulted_march(self):
        pair = Pair(words=50)
        pair.pattern(stride=7)
        pair.inject(lambda: StuckAtCellFault(address=14, bit=3, value=1))
        assert pair.fast._layer is None
        result = pair.march(MARCH_C_MINUS, stride=7)
        assert result.failing_addresses == [14]
        pair.inject(lambda: TransitionFault(address=21, bit=0, rising=True))
        result = pair.pattern(stride=7)
        assert not result.passed

    def test_fill_and_rewind_over_a_layer(self):
        pair = Pair(words=40, background=0x0F)
        pair.march(MATS_PLUS, stride=4)
        pair.each("fill", 0x33)
        assert pair.fast._layer is None
        pair.march(MarchTest.from_notation("R", ["up(r0)"]), background=0x33,
                   stride=4)
        pair.pattern(patterns=(0x0F,), stride=5)
        pair.each("rewind")
        pair.march(MATS_PLUS, stride=5)

    def test_two_strides_in_a_row(self):
        pair = Pair(words=100)
        pair.march(MATS_PLUS, stride=3)
        pair.march(MATS_PLUS, stride=5)     # a write-only first element
        pair.pattern(stride=4)
        # The cells the stride-4 pattern did not visit still hold MATS+'s
        # last write, so an r0 at stride 2 mixes layers; it must still
        # agree with the walk (here: every cell the pattern wrote fails).
        result = pair.march(MarchTest.from_notation("R", ["up(r0,w1)"]),
                            stride=2)
        assert result.failing_addresses == list(range(0, 100, 4))
        result = pair.march(MarchTest.from_notation("R", ["up(r1,w0)"]),
                            stride=6)
        assert result.passed

    @pytest.mark.parametrize("words", [1, 3, 4, 40])
    def test_read_against_a_checkerboard_layer(self, words):
        # An odd stride alternates pattern and inverse; a read expecting
        # the pattern fails on every other visited cell.  On a one- or
        # two-cell stride only the pattern half is visited, and it passes.
        pair = Pair(words=words)
        pair.pattern(patterns=(0x55,), stride=3)
        result = pair.march(MarchTest.from_notation("R", ["up(r0,w1)"]),
                            background=0x55, stride=3)
        assert result.failing_addresses == list(range(3, words, 6))

    @pytest.mark.parametrize("words,stride", [(100, 7), (64, 5), (10, 3),
                                              (5, 9), (1, 2)])
    def test_descending_elements_at_strides_not_dividing_words(self, words,
                                                               stride):
        pair = Pair(words=words)
        march = MarchTest.from_notation(
            "DOWN", ["down(w1)", "down(r1,w0)", "up(r0,w1)", "down(r1,w0,r0)"])
        result = pair.march(march, stride=stride)
        assert result.passed
        pair.pattern(stride=stride)
        result = pair.march(MarchTest.from_notation(
            "R", ["down(r1,w0)", "up(r0)"]), stride=stride)
        # The checkerboard holds no all-ones word.
        assert result.failing_addresses == list(range(0, words, stride))


_NOTATION = st.builds(
    lambda order, ops: f"{order}({','.join(ops)})",
    st.sampled_from(["up", "down", "any"]),
    st.lists(st.sampled_from(["r0", "r1", "w0", "w1"]), min_size=1,
             max_size=4),
)


@st.composite
def _steps(draw, words, word_bits):
    mask = (1 << word_bits) - 1
    address = st.integers(0, words - 1)
    # Few distinct values and strides per sequence, so later steps often
    # meet the layer of an earlier one at its own stride, holding (or
    # half-holding) the value they expect.
    value = st.sampled_from(draw(st.lists(st.integers(0, mask), min_size=1,
                                          max_size=3)))
    stride = st.sampled_from(draw(st.lists(
        st.integers(1, 6) | st.integers(1, 2 * words + 1),
        min_size=1, max_size=3)))
    march = st.tuples(st.just("march"), st.lists(_NOTATION, min_size=1,
                                                 max_size=4),
                      value, stride)
    pattern = st.tuples(st.just("pattern"), st.lists(value, min_size=1,
                                                     max_size=2), stride)
    # Validation steps weigh most, for the same reason.
    steps = st.one_of(
        march, march, march, pattern, pattern,
        st.tuples(st.just("raw_write"), address, value),
        st.tuples(st.just("load"), address,
                  st.lists(value, min_size=1, max_size=4)),
        st.tuples(st.just("fill"), value),
        st.tuples(st.just("rewind")),
        st.tuples(st.just("inject"), address, st.integers(0, word_bits - 1),
                  st.integers(0, 1)),
        st.tuples(st.just("clear_faults")),
    )
    return draw(st.lists(steps, min_size=1, max_size=8))


class TestLayerDifferential:
    @given(data=st.data(), words=st.integers(1, 40),
           word_bits=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_random_sequences_match_the_walk(self, data, words, word_bits):
        pair = Pair(words, word_bits,
                    background=data.draw(st.integers(0, 255)))
        for step in data.draw(_steps(words, word_bits)):
            kind = step[0]
            if kind == "march":
                _, notation, background, stride = step
                pair.march(MarchTest.from_notation("RANDOM", notation),
                           background=background, stride=stride,
                           max_failures=3)
            elif kind == "pattern":
                pair.pattern(patterns=step[1], stride=step[2])
            elif kind == "load":
                base, values = step[1], step[2][:words - step[1]]
                pair.each("load", values, base)
            elif kind == "inject":
                _, address, bit, stuck = step
                pair.inject(lambda: StuckAtCellFault(address, bit, stuck))
            else:
                pair.each(kind, *step[1:])


class TestLoadAndDumpEdges:
    def test_refused_load_changes_nothing(self):
        memory = MemoryArray(words=8)
        with pytest.raises(IndexError):
            memory.load([1] * 10)
        assert memory.dump(0, 8) == [0] * 8
        with pytest.raises(IndexError):
            memory.load([1, 2], base_address=-1)
        assert memory.dump(0, 8) == [0] * 8

    def test_refused_load_leaves_a_layer_intact(self):
        memory = MemoryArray(words=8)
        run_pattern_test(memory, patterns=(0x0F,), stride=3)
        before = memory.dump(0, 8)
        with pytest.raises(IndexError):
            memory.load([0xFF] * 4, base_address=6)
        assert memory.dump(0, 8) == before

    def test_load_masks_and_overrides_the_layer(self):
        memory = MemoryArray(words=8, word_bits=4)
        run_pattern_test(memory, patterns=(0x5,), stride=2)
        memory.load([0x1F, 0x12], base_address=4)
        assert memory.dump(0, 8) == [5, 0, 5, 0, 0xF, 0x2, 5, 0]

    def test_empty_dump(self):
        memory = MemoryArray(words=8)
        assert memory.dump(0, 0) == []
        assert memory.dump(7, 0) == []
        with pytest.raises(IndexError):
            memory.dump(8, 0)

    def test_negative_dump_length_rejected(self):
        memory = MemoryArray(words=8)
        with pytest.raises(ValueError):
            memory.dump(3, -2)
