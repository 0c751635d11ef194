"""Property-based tests for LFSR sequence periodicity and the
decompressor/compactor volume round-trips (hypothesis-driven)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import Simulator
from repro.rtl.lfsr import LFSR, MISR, STANDARD_POLYNOMIALS
from repro.dft.compression import Compactor, Decompressor


def _state_period(width: int, seed: int) -> int:
    """Number of steps until the LFSR state first recurs."""
    lfsr = LFSR(width, seed=seed)
    initial = lfsr.state
    steps = 0
    while True:
        lfsr.step()
        steps += 1
        if lfsr.state == initial:
            return steps
        if steps > (1 << width):  # pragma: no cover - defensive bound
            pytest.fail("LFSR state never recurred")


class TestLfsrPeriodicity:
    @given(seed=st.integers(1, (1 << 8) - 1))
    @settings(max_examples=20, deadline=None)
    def test_width8_is_maximal_length_from_any_seed(self, seed):
        # The standard width-8 polynomial is primitive: every non-zero seed
        # lies on the single cycle of length 2^8 - 1.
        assert _state_period(8, seed) == (1 << 8) - 1

    def test_width16_is_maximal_length(self):
        assert _state_period(16, 1) == (1 << 16) - 1

    @given(width=st.sampled_from(sorted(STANDARD_POLYNOMIALS)),
           seed=st.integers(1, (1 << 8) - 1),
           steps=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_sequences_are_deterministic_and_never_reach_zero(self, width, seed,
                                                              steps):
        first = LFSR(width, seed=seed)
        second = LFSR(width, seed=seed)
        for _ in range(steps):
            assert first.step() == second.step()
            assert first.state == second.state
            assert first.state != 0

    @given(seed=st.integers(1, (1 << 16) - 1), bits=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_word_generation_matches_bit_stream(self, seed, bits):
        by_word = LFSR(16, seed=seed).next_word(bits)
        stream = LFSR(16, seed=seed)
        expected = 0
        for position in range(bits):
            expected |= stream.step() << position
        assert by_word == expected


class TestLeapAhead:
    @given(width=st.sampled_from(sorted(STANDARD_POLYNOMIALS)),
           seed=st.integers(1, (1 << 16) - 1),
           steps=st.integers(0, 400))
    @settings(max_examples=80, deadline=None)
    def test_leap_equals_k_single_steps(self, width, seed, steps):
        # The LFSR keeps only the low `width` bits; a seed that is zero
        # modulo 2**width (e.g. 256 for an 8-bit register) has no state to
        # shift and is rejected by the constructor — fold the drawn seed
        # into the non-zero residues instead of discarding the example.
        seed = seed % ((1 << width) - 1) + 1
        leapt = LFSR(width, seed=seed)
        stepped = LFSR(width, seed=seed)
        leapt.leap(steps)
        for _ in range(steps):
            stepped.step()
        assert leapt.state == stepped.state

    @given(seed=st.integers(1, (1 << 13) - 1),
           steps=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_leap_equals_k_single_steps_for_custom_taps(self, seed, steps):
        taps = (13, 4, 3, 1)
        leapt = LFSR(13, seed=seed, taps=taps)
        stepped = LFSR(13, seed=seed, taps=taps)
        leapt.leap(steps)
        for _ in range(steps):
            stepped.step()
        assert leapt.state == stepped.state

    @given(seed=st.integers(1, (1 << 16) - 1),
           split=st.integers(0, 120), total=st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_leap_composes(self, seed, split, total):
        # leap(a); leap(b) == leap(a + b)
        composed = LFSR(16, seed=seed)
        composed.leap(split)
        composed.leap(total)
        direct = LFSR(16, seed=seed)
        direct.leap(split + total)
        assert composed.state == direct.state

    @given(seed=st.integers(0, (1 << 32) - 1), steps=st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_misr_leap_equals_zero_compactions(self, seed, steps):
        leapt = MISR(32, seed=seed)
        stepped = MISR(32, seed=seed)
        leapt.leap(steps)
        for _ in range(steps):
            stepped.compact(0)
        assert leapt.signature == stepped.signature

    def test_leap_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            LFSR(16, seed=1).leap(-1)


#: Standard registers plus narrow custom-tap ones (the 3/5/11-bit widths
#: take the per-bit leap path and wrap their words within a few hundred).
_MISR_SHAPES = ([(width, None) for width in sorted(STANDARD_POLYNOMIALS)]
                + [(3, (3, 2)), (5, (5, 3)), (11, (11, 9))])

_MISR_OPERATIONS = st.one_of(
    # (kind, continues the last range, gap to a new start, length)
    st.tuples(st.just("range"), st.booleans(),
              st.integers(-300, 1 << 66), st.integers(0, 300)),
    st.tuples(st.just("compact"), st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("sequence"),
              st.lists(st.integers(0, (1 << 64) - 1), max_size=5)),
    st.tuples(st.just("leap"), st.integers(0, 40)),
    st.tuples(st.just("read_state")),
    st.tuples(st.just("read_signature")),
    st.tuples(st.just("write_state"), st.integers(0, (1 << 64) - 1)),
)


class TestMisrCompactRange:
    @given(shape=st.sampled_from(_MISR_SHAPES),
           seed=st.integers(0, (1 << 64) - 1),
           start_below_top=st.booleans(), start=st.integers(0, 300),
           operations=st.lists(_MISR_OPERATIONS, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_compact_range_equals_per_word_compact(self, shape, seed,
                                                   start_below_top, start,
                                                   operations):
        width, taps = shape
        folded = MISR(width, seed=seed, taps=taps)
        reference = MISR(width, seed=seed, taps=taps)
        # Starts just below 2**width make the words wrap past the mask.
        cursor = (1 << width) - start if start_below_top else start
        for operation in operations:
            kind = operation[0]
            if kind == "range":
                _, continues, gap, length = operation
                if not continues:
                    cursor += gap
                folded.compact_range(cursor, cursor + length)
                for word in range(cursor, cursor + length):
                    reference.compact(word)
                cursor += length
            elif kind == "compact":
                assert folded.compact(operation[1]) == \
                    reference.compact(operation[1])
            elif kind == "sequence":
                assert folded.compact_sequence(operation[1]) == \
                    reference.compact_sequence(operation[1])
            elif kind == "leap":
                assert folded.leap(operation[1]) == \
                    reference.leap(operation[1])
            elif kind == "read_state":
                assert folded.state == reference.state
            elif kind == "read_signature":
                assert folded.signature == reference.signature
            else:
                folded.state = reference.state = \
                    operation[1] & ((1 << width) - 1)
        assert folded.signature == reference.signature


class TestMisrCompactRepeat:
    @given(shape=st.sampled_from(_MISR_SHAPES),
           seed=st.integers(0, (1 << 64) - 1),
           pending=st.integers(0, 40),
           word=st.integers(0, (1 << 66) - 1),
           count=st.integers(0, 300))
    @settings(max_examples=150, deadline=None)
    def test_repeat_equals_count_calls(self, shape, seed, pending, word,
                                       count):
        width, taps = shape
        repeated = MISR(width, seed=seed, taps=taps)
        reference = MISR(width, seed=seed, taps=taps)
        # A pending range must be folded first, as compact(word) would.
        repeated.compact_range(5, 5 + pending)
        reference.compact_range(5, 5 + pending)
        for _ in range(count):
            reference.compact(word)
        assert repeated.compact(word, count) == reference.state
        assert repeated.signature == reference.signature


class TestAdaptorRepeat:
    @given(compressed_bits=st.integers(0, 5000),
           patterns=st.integers(0, 64),
           ratio=st.floats(1.0, 100.0, allow_nan=False,
                           allow_infinity=False),
           active=st.booleans(), count=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_expand_count_equals_count_calls(self, compressed_bits,
                                             patterns, ratio, active,
                                             count):
        sim = Simulator()
        repeated = Decompressor(sim, "a", compression_ratio=ratio)
        reference = Decompressor(sim, "b", compression_ratio=ratio)
        if active:
            repeated.activate()
            reference.activate()
        expanded = [reference.expand(compressed_bits, patterns=patterns)
                    for _ in range(count)]
        # Each expansion is rounded on its own, not the run's total.
        assert repeated.expand(compressed_bits, patterns=patterns,
                               count=count) == expanded[-1]
        assert ((repeated.compressed_bits_in, repeated.expanded_bits_out,
                 repeated.patterns_expanded)
                == (reference.compressed_bits_in,
                    reference.expanded_bits_out,
                    reference.patterns_expanded))

    @given(response_bits=st.integers(0, 5000),
           ratio=st.floats(1.0, 100.0, allow_nan=False,
                           allow_infinity=False),
           active=st.booleans(), count=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_compact_count_equals_count_calls(self, response_bits, ratio,
                                              active, count):
        sim = Simulator()
        repeated = Compactor(sim, "a", compaction_ratio=ratio)
        reference = Compactor(sim, "b", compaction_ratio=ratio)
        if active:
            repeated.activate()
            reference.activate()
        outgoing = [reference.compact(response_bits) for _ in range(count)]
        assert repeated.compact(response_bits, count=count) == outgoing[-1]
        assert ((repeated.response_bits_in, repeated.compacted_bits_out,
                 repeated.signature)
                == (reference.response_bits_in,
                    reference.compacted_bits_out, reference.signature))


class TestCompressionRoundTrip:
    @given(expanded_bits=st.integers(1, 10**6),
           ratio=st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_expand_of_compressed_volume_covers_the_original(self, expanded_bits,
                                                             ratio):
        decompressor = Decompressor(Simulator(), "dec", compression_ratio=ratio)
        decompressor.activate()
        compressed = decompressor.compressed_bits(expanded_bits)
        assert 1 <= compressed <= expanded_bits
        # Shipping the compressed volume through the decompressor recovers at
        # least the original stimulus volume (never silently drops bits).
        assert decompressor.expand(compressed) >= expanded_bits

    @given(expanded_bits=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_bypass_is_the_identity(self, expanded_bits):
        decompressor = Decompressor(Simulator(), "dec", compression_ratio=50.0)
        assert decompressor.bypass
        assert decompressor.compressed_bits(expanded_bits) == expanded_bits
        assert decompressor.expand(expanded_bits) == expanded_bits

    @given(response_bits=st.integers(1, 10**6),
           ratio=st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_compaction_never_exceeds_input_volume(self, response_bits, ratio):
        compactor = Compactor(Simulator(), "cmp", compaction_ratio=ratio)
        compactor.activate()
        outgoing = compactor.compact(response_bits)
        assert 1 <= outgoing <= response_bits

    @given(tokens=st.lists(st.integers(0, (1 << 32) - 1), min_size=1,
                           max_size=64),
           width=st.sampled_from((8, 16, 32)))
    @settings(max_examples=40, deadline=None)
    def test_compactor_signature_roundtrip_is_deterministic(self, tokens, width):
        first = Compactor(Simulator(), "a", compaction_ratio=10.0,
                          signature_width=width)
        second = Compactor(Simulator(), "b", compaction_ratio=10.0,
                           signature_width=width)
        for compactor in (first, second):
            compactor.activate()
            for token in tokens:
                compactor.compact(1, token=token)
        assert first.signature == second.signature
        # ...and equals folding the same tokens directly through a MISR.
        assert first.signature == MISR(width, seed=0).compact_sequence(tokens)

    @given(seeds=st.integers(1, (1 << 16) - 1),
           patterns=st.integers(1, 32),
           stimulus_bits=st.integers(1, 4096),
           ratio=st.integers(1, 100))
    @settings(max_examples=40, deadline=None)
    def test_volume_accounting_accumulates_exactly(self, seeds, patterns,
                                                   stimulus_bits, ratio):
        decompressor = Decompressor(Simulator(), "dec",
                                    compression_ratio=float(ratio))
        decompressor.activate()
        total_in = 0
        total_out = 0
        for index in range(patterns):
            compressed = decompressor.compressed_bits(stimulus_bits, index)
            total_in += compressed
            total_out += decompressor.expand(compressed, pattern_index=index)
        assert decompressor.compressed_bits_in == total_in
        assert decompressor.expanded_bits_out == total_out
        assert decompressor.patterns_expanded == patterns
