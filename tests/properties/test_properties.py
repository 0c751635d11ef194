"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import NS, SimTime, TransactionRecord, TransactionTracer
from repro.memory import MATS, MATS_PLUS, MARCH_C_MINUS, MemoryArray, run_march_test
from repro.rtl import LFSR, MISR, ScanConfiguration
from repro.soc.jpeg import (
    HuffmanCodec,
    LUMINANCE_TABLE,
    dct_2d,
    dequantize_block,
    from_zigzag,
    idct_2d,
    quality_scaled_table,
    quantize_block,
    run_length_decode,
    run_length_encode,
    to_zigzag,
)

MARCHES = [MATS, MATS_PLUS, MARCH_C_MINUS]


class TestSimTimeProperties:
    @given(a=st.integers(0, 10**15), b=st.integers(0, 10**15),
           c=st.integers(0, 10**15))
    def test_addition_is_associative_and_commutative(self, a, b, c):
        ta, tb, tc = SimTime(a), SimTime(b), SimTime(c)
        assert (ta + tb) + tc == ta + (tb + tc)
        assert ta + tb == tb + ta

    @given(a=st.integers(0, 10**15), b=st.integers(0, 10**15))
    def test_ordering_consistent_with_femtoseconds(self, a, b):
        assert (SimTime(a) < SimTime(b)) == (a < b)
        assert (SimTime(a) == SimTime(b)) == (a == b)

    @given(cycles=st.integers(0, 10**6), period_ns=st.integers(1, 100))
    def test_cycle_roundtrip(self, cycles, period_ns):
        from repro.kernel import cycles_to_time, time_to_cycles

        period = SimTime(period_ns, NS)
        assert time_to_cycles(cycles_to_time(cycles, period), period) == cycles


class TestLfsrMisrProperties:
    @given(seed=st.integers(1, (1 << 16) - 1), steps=st.integers(1, 200))
    def test_lfsr_deterministic_and_never_zero(self, seed, steps):
        first = LFSR(16, seed=seed)
        second = LFSR(16, seed=seed)
        for _ in range(steps):
            assert first.step() == second.step()
            assert first.state != 0

    @given(words=st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=64))
    def test_misr_signature_deterministic(self, words):
        assert MISR(32).compact_sequence(words) == MISR(32).compact_sequence(words)

    @given(words=st.lists(st.integers(0, (1 << 32) - 1), min_size=2, max_size=64),
           position=st.integers(0, 63), flip=st.integers(1, (1 << 32) - 1))
    def test_misr_detects_single_word_corruption(self, words, position, flip):
        position %= len(words)
        corrupted = list(words)
        corrupted[position] ^= flip
        assert MISR(32).compact_sequence(words) != \
            MISR(32).compact_sequence(corrupted)


class TestScanConfigurationProperties:
    @given(chains=st.integers(1, 64), cells_per_chain=st.integers(1, 500),
           extra=st.integers(0, 63))
    def test_describe_preserves_cells_and_balance(self, chains, cells_per_chain,
                                                  extra):
        total = chains * cells_per_chain + (extra % chains if chains > 1 else 0)
        config = ScanConfiguration.describe("core", chains, total)
        assert config.total_cells == total
        lengths = config.chain_lengths
        assert max(lengths) - min(lengths) <= 1
        assert config.max_chain_length == max(lengths)


class TestMemoryProperties:
    @given(operations=st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
        min_size=1, max_size=200))
    def test_last_write_wins(self, operations):
        memory = MemoryArray(words=256, word_bits=8)
        last = {}
        for address, value in operations:
            memory.write(address, value)
            last[address] = value
        for address, value in last.items():
            assert memory.read(address) == value

    @given(words=st.integers(8, 2048),
           march_index=st.integers(0, len(MARCHES) - 1),
           background=st.integers(0, 255))
    @settings(max_examples=30, deadline=None)
    def test_fault_free_memory_passes_any_march(self, words, march_index,
                                                background):
        march = MARCHES[march_index]
        memory = MemoryArray(words=words, word_bits=8)
        result = run_march_test(memory, march, background=background)
        assert result.passed
        assert result.operations == march.operations_per_cell * words
        assert result.reads + result.writes == result.operations

    @given(words=st.integers(64, 1024), stride=st.integers(1, 17))
    @settings(max_examples=20, deadline=None)
    def test_stride_never_creates_false_failures(self, words, stride):
        memory = MemoryArray(words=words, word_bits=8)
        result = run_march_test(memory, MATS_PLUS, stride=stride)
        assert result.passed


class TestJpegProperties:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_zigzag_rle_roundtrip(self, data):
        values = data.draw(st.lists(st.integers(-255, 255), min_size=64,
                                    max_size=64))
        block = from_zigzag(values)
        assert to_zigzag(block) == values
        assert run_length_decode(run_length_encode(values)) == values

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_huffman_roundtrip(self, data):
        symbols = data.draw(st.lists(st.integers(-10, 10), min_size=1,
                                     max_size=200))
        codec = HuffmanCodec.from_symbols(symbols)
        assert codec.decode(codec.encode(symbols)) == symbols
        # Prefix-freedom of the generated code table.
        codes = sorted(codec.code_table.values(), key=len)
        for i, short in enumerate(codes):
            for long in codes[i + 1:]:
                assert not long.startswith(short) or long == short

    @given(seed=st.integers(0, 2**31 - 1), quality=st.integers(1, 100))
    @settings(max_examples=25, deadline=None)
    def test_dct_quantization_error_bounded(self, seed, quality):
        rng = np.random.default_rng(seed)
        block = rng.uniform(-128, 127, size=(8, 8))
        table = quality_scaled_table(LUMINANCE_TABLE, quality)
        quantized = quantize_block(dct_2d(block), table)
        restored = idct_2d(dequantize_block(quantized, table))
        # Quantization error per coefficient is at most table/2; after the
        # inverse transform the worst-case spatial error is bounded by the
        # sum of coefficient errors scaled by the orthonormal basis.
        assert np.max(np.abs(restored - block)) <= np.sum(table / 2)


class TestKernelProperties:
    @given(intervals=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(1, 100)),
        min_size=1, max_size=40))
    def test_utilization_is_a_fraction(self, intervals):
        tracer = TransactionTracer()
        for start, duration in intervals:
            tracer.record(TransactionRecord(
                channel="tam", kind="t", start=SimTime(start, NS),
                end=SimTime(start + duration, NS),
            ))
        window_start = SimTime(0)
        window_end = SimTime(1200, NS)
        utilization = tracer.utilization("tam", window_start, window_end)
        assert 0.0 <= utilization <= 1.0
        busy = tracer.total_busy_time("tam")
        assert busy <= SimTime(1100, NS)
