"""Unit tests for march tests and pattern tests."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    CouplingFault,
    MATS,
    MATS_PLUS,
    MATS_PLUS_PLUS,
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MemoryArray,
    MemoryFault,
    StuckAtCellFault,
    TransitionFault,
    run_march_test,
    run_pattern_test,
)
from repro.memory.march import AddressOrder, MarchElement, MarchOperation, MarchTest


class TestMarchNotation:
    def test_parse_element(self):
        element = MarchElement.parse("up(r0,w1)")
        assert element.order is AddressOrder.UP
        assert [str(op) for op in element.operations] == ["r0", "w1"]

    def test_parse_down_and_any(self):
        assert MarchElement.parse("down(r1,w0,r0)").order is AddressOrder.DOWN
        assert MarchElement.parse("any(w0)").order is AddressOrder.ANY

    @pytest.mark.parametrize("text", [
        "up(r10)", "up()", "up(r0,,w1)", "sideways(r0)", "up(x0)", "up(r0",
        "up(r0)w1", "(r0)", "up(R0)", "up(r 0)", "up r0",
    ])
    def test_malformed_notation_rejected(self, text):
        with pytest.raises(ValueError, match="malformed march"):
            MarchElement.parse(text)

    def test_parse_tolerates_spaces_and_order_case(self):
        element = MarchElement.parse(" Down ( r1 , w0 ) ")
        assert element.order is AddressOrder.DOWN
        assert [str(op) for op in element.operations] == ["r1", "w0"]

    def test_operation_validation(self):
        with pytest.raises(ValueError):
            MarchOperation("x", 0)
        with pytest.raises(ValueError):
            MarchOperation("r", 2)

    def test_known_algorithm_complexities(self):
        # Classic complexity figures: MATS 4N, MATS+ 5N, MATS++ 6N,
        # MARCH X 6N, MARCH Y 8N, MARCH C- 10N.
        assert MATS.operations_per_cell == 4
        assert MATS_PLUS.operations_per_cell == 5
        assert MATS_PLUS_PLUS.operations_per_cell == 6
        assert MARCH_X.operations_per_cell == 6
        assert MARCH_Y.operations_per_cell == 8
        assert MARCH_C_MINUS.operations_per_cell == 10

    def test_operation_count_scales_with_words(self):
        assert MATS_PLUS.operation_count(1 << 20) == 5 * (1 << 20)

    def test_str_contains_arrows(self):
        text = str(MATS_PLUS)
        assert "MATS+" in text
        assert "⇑" in text and "⇓" in text


class TestRunMarchTest:
    def test_fault_free_memory_passes(self):
        memory = MemoryArray(words=256)
        result = run_march_test(memory, MATS_PLUS)
        assert result.passed
        assert result.operations == 5 * 256
        assert result.reads + result.writes == result.operations

    def test_detects_stuck_at_cell_fault(self):
        memory = MemoryArray(words=128)
        memory.inject_fault(StuckAtCellFault(address=37, bit=0, value=1))
        result = run_march_test(memory, MATS_PLUS)
        assert not result.passed
        assert 37 in result.failing_addresses

    def test_detects_transition_fault(self):
        memory = MemoryArray(words=128)
        memory.inject_fault(TransitionFault(address=9, bit=0, rising=True))
        result = run_march_test(memory, MATS_PLUS)
        assert not result.passed
        assert 9 in result.failing_addresses

    def test_march_c_minus_detects_coupling_fault(self):
        memory = MemoryArray(words=64)
        memory.inject_fault(CouplingFault(aggressor=10, victim=20, bit=0,
                                          trigger_value=1, forced_value=1))
        result = run_march_test(memory, MARCH_C_MINUS)
        assert not result.passed

    def test_mats_plus_misses_falling_transition_fault(self):
        """MATS+ (5N) never reads a cell after its final w0, so a falling
        (1 -> 0) transition fault escapes it; MARCH C- (10N) catches it."""
        def build():
            memory = MemoryArray(words=64)
            memory.inject_fault(TransitionFault(address=13, bit=0, rising=False))
            return memory

        weak = run_march_test(build(), MATS_PLUS)
        strong = run_march_test(build(), MARCH_C_MINUS)
        assert not strong.passed
        assert weak.passed

    def test_stride_subsampling(self):
        memory = MemoryArray(words=1024)
        result = run_march_test(memory, MATS_PLUS, stride=16)
        # Reported operation count is for the full array ...
        assert result.operations == 5 * 1024
        # ... but only the subsampled cells were actually accessed.
        assert memory.read_count + memory.write_count == 5 * (1024 // 16)

    def test_max_failures_caps_list(self):
        memory = MemoryArray(words=64)
        for address in range(32):
            memory.inject_fault(StuckAtCellFault(address=address, bit=0, value=1))
        result = run_march_test(memory, MATS_PLUS, max_failures=5)
        assert len(result.failures) == 5
        assert not result.passed

    def test_invalid_stride(self):
        memory = MemoryArray(words=16)
        with pytest.raises(ValueError):
            run_march_test(memory, MATS_PLUS, stride=0)


class TestRunPatternTest:
    def test_fault_free_memory_passes(self):
        memory = MemoryArray(words=128)
        result = run_pattern_test(memory)
        assert result.passed
        assert result.operations == 2 * 2 * 128

    def test_detects_stuck_at_fault(self):
        memory = MemoryArray(words=128)
        memory.inject_fault(StuckAtCellFault(address=64, bit=2, value=1))
        result = run_pattern_test(memory)
        assert not result.passed

    def test_checkerboard_backgrounds_alternate(self):
        memory = MemoryArray(words=16)
        run_pattern_test(memory, patterns=(0x55,))
        assert memory.raw_read(0) == 0x55
        assert memory.raw_read(1) == 0xAA

    def test_invalid_stride(self):
        memory = MemoryArray(words=16)
        with pytest.raises(ValueError):
            run_pattern_test(memory, stride=0)


class TestCustomMarch:
    def test_from_notation(self):
        march = MarchTest.from_notation("CUSTOM", ["any(w1)", "up(r1,w0)", "down(r0)"])
        assert march.operations_per_cell == 4
        memory = MemoryArray(words=32)
        result = run_march_test(memory, march, background=0)
        assert result.passed


class _TransparentFault(MemoryFault):
    """A fault that changes nothing.  Injecting it forces the per-address
    walk, which is the reference for the fault-free op-major path."""


_ELEMENTS = st.builds(
    lambda order, ops: f"{order}({','.join(ops)})",
    st.sampled_from(["up", "down", "any"]),
    st.lists(st.sampled_from(["r0", "r1", "w0", "w1"]), min_size=1, max_size=4)
    | st.sampled_from([["w1", "r0"], ["r0", "r1"], ["r0", "w1", "r1"]]),
)


def _faults(words, word_bits):
    """A random real fault of the array's geometry."""
    address = st.integers(0, words - 1)
    bit = st.integers(0, word_bits - 1)
    one = st.integers(0, 1)
    faults = [st.builds(StuckAtCellFault, address, bit, one),
              st.builds(TransitionFault, address, bit, st.booleans())]
    if words > 1:
        faults.append(st.builds(
            lambda pair, b, trigger, forced: CouplingFault(
                pair[0], pair[1], b, trigger, forced),
            st.lists(address, min_size=2, max_size=2, unique=True),
            bit, one, one))
    return st.one_of(faults)


@st.composite
def _memories(draw):
    """A data background plus two identical arrays whose prior contents may
    make reads fail (mostly the background or its inverse, so pre-write
    reads match for some elements and not others); the second array
    carries the transparent fault.

    The prior contents may include a strided layer (a pattern test run on
    both arrays first, explicit writes on top of it) and real faults,
    injected into both arrays alike.
    """
    words = draw(st.integers(1, 48))
    word_bits = draw(st.integers(1, 8))
    mask = (1 << word_bits) - 1
    background = draw(st.integers(0, 255))
    data = st.sampled_from([background & mask, ~background & mask])
    initial = draw(data | st.integers(0, mask))
    layer = draw(st.none() | st.tuples(
        st.lists(data | st.integers(0, mask), min_size=1, max_size=2),
        st.integers(1, 8) | st.integers(1, 60)))
    prior = draw(st.dictionaries(st.integers(0, words - 1),
                                 data | st.integers(0, mask), max_size=words))
    faults = draw(st.lists(_faults(words, word_bits), max_size=2)
                  | st.just([]))
    arrays = []
    for index in range(2):
        memory = MemoryArray(words=words, word_bits=word_bits,
                             background=initial)
        if index:
            memory.inject_fault(_TransparentFault())
        if layer is not None:
            run_pattern_test(memory, patterns=layer[0], stride=layer[1])
        for address, value in prior.items():
            memory.raw_write(address, value)
        for fault in faults:
            # A copy each, so the two arrays never share a fault instance.
            memory.inject_fault(copy.copy(fault))
        arrays.append(memory)
    return background, arrays


def _state(memory, result):
    return (result, memory.read_count, memory.write_count,
            memory.dump(0, memory.words))


class TestFaultFreeOpMajor:
    """The closed-form fault-free path must match the per-address walk in
    every observable: result, counters and the whole array's contents."""

    @given(memories=_memories(),
           elements=st.lists(_ELEMENTS, min_size=1, max_size=5),
           stride=st.integers(1, 8) | st.integers(1, 60),
           max_failures=st.none() | st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_march_matches_per_address_walk(self, memories, elements, stride,
                                            max_failures):
        background, arrays = memories
        march = MarchTest.from_notation("RANDOM", elements)
        fast, reference = arrays
        results = [run_march_test(memory, march, background=background,
                                  stride=stride, max_failures=max_failures)
                   for memory in arrays]
        assert _state(fast, results[0]) == _state(reference, results[1])

    @given(memories=_memories(),
           patterns=st.lists(st.integers(0, 511), min_size=1, max_size=3),
           stride=st.integers(1, 8) | st.integers(1, 60),
           max_failures=st.none() | st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_pattern_matches_per_address_walk(self, memories, patterns,
                                              stride, max_failures):
        _, arrays = memories
        results = [run_pattern_test(memory, patterns=patterns, stride=stride,
                                    max_failures=max_failures)
                   for memory in arrays]
        assert _state(arrays[0], results[0]) == _state(arrays[1], results[1])

    @pytest.mark.parametrize("notation", ["any(r0,r1)", "up(r1,r0,w1)"])
    def test_cells_holding_both_read_values_fail_like_the_walk(self,
                                                               notation):
        # Each cell matches one of the two pre-write reads, so the set of
        # held values equals the set of expected ones, yet every cell fails.
        march = MarchTest.from_notation("MIXED", [notation])
        arrays = [MemoryArray(words=4, background=0xFF) for _ in range(2)]
        arrays[1].inject_fault(_TransparentFault())
        for memory in arrays:
            memory.raw_write(0, 0x00)
            memory.raw_write(2, 0x00)
        results = [run_march_test(memory, march) for memory in arrays]
        assert len(results[0].failures) == 4
        assert _state(arrays[0], results[0]) == _state(arrays[1], results[1])

    def test_fault_free_validation_never_walks_addresses(self):
        memory = MemoryArray(words=1 << 20)
        memory.write = memory.read = None  # the walk would fail loudly
        result = run_march_test(memory, MARCH_C_MINUS, stride=257)
        assert result.passed
        assert result.reads + result.writes == 10 * len(range(0, 1 << 20, 257))
        run_pattern_test(memory, stride=257)
        # Not one dict entry per visited cell: the last pattern is a layer.
        assert memory._contents == {}
        assert memory.dump(0, 3) == [0xAA, 0, 0]
        assert memory.dump(257, 2) == [0x55, 0]
