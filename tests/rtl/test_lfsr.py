"""Unit tests for the LFSR and MISR primitives."""

import time

import pytest

from repro.rtl.lfsr import LFSR, MISR, STANDARD_POLYNOMIALS


class TestLfsr:
    def test_standard_polynomial_lookup(self):
        for width in (8, 16, 32):
            lfsr = LFSR(width, seed=1)
            assert lfsr.width == width
            assert lfsr.taps == tuple(STANDARD_POLYNOMIALS[width])

    def test_unknown_width_needs_taps(self):
        with pytest.raises(ValueError):
            LFSR(13, seed=1)
        lfsr = LFSR(13, seed=1, taps=(13, 4, 3, 1))
        assert lfsr.width == 13

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(16, seed=0)
        with pytest.raises(ValueError):
            LFSR(8, seed=256)  # 256 mod 2**8 == 0

    def test_invalid_taps_rejected(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=1, taps=(9,))
        with pytest.raises(ValueError):
            LFSR(8, seed=1, taps=(0,))

    @pytest.mark.parametrize("taps", [(9,), (0,), (8, 6, 9)])
    def test_misr_rejects_the_same_invalid_taps(self, taps):
        # A tap outside 1..width never reads a state bit (feedback stuck at
        # 0) or shifts by a negative count; both registers refuse it alike.
        with pytest.raises(ValueError, match="within 1..width"):
            MISR(8, taps=taps)
        with pytest.raises(ValueError, match="within 1..width"):
            LFSR(8, seed=1, taps=taps)

    def test_sequence_is_deterministic(self):
        first = LFSR(16, seed=0xACE1)
        second = LFSR(16, seed=0xACE1)
        assert [first.step() for _ in range(64)] == [second.step() for _ in range(64)]

    def test_state_never_sticks_at_zero(self):
        lfsr = LFSR(8, seed=1)
        states = {lfsr.state}
        for _ in range(255):
            lfsr.step()
            states.add(lfsr.state)
        assert 0 not in states

    def test_maximal_length_for_primitive_polynomial(self):
        """The width-8 standard polynomial is primitive: period 2**8 - 1."""
        lfsr = LFSR(8, seed=1)
        initial = lfsr.state
        period = 0
        for _ in range(1 << 9):
            lfsr.step()
            period += 1
            if lfsr.state == initial:
                break
        assert period == (1 << 8) - 1

    def test_next_word_bit_count(self):
        lfsr = LFSR(32, seed=5)
        word = lfsr.next_word(20)
        assert 0 <= word < (1 << 20)

    def test_next_pattern_length_and_values(self):
        lfsr = LFSR(16, seed=3)
        pattern = lfsr.next_pattern(40)
        assert len(pattern) == 40
        assert set(pattern) <= {0, 1}

    def test_randomness_is_roughly_balanced(self):
        lfsr = LFSR(32, seed=0xDEADBEEF)
        bits = lfsr.next_pattern(4000)
        ones = sum(bits)
        assert 1700 < ones < 2300


class TestMisr:
    def test_signature_depends_on_order(self):
        first = MISR(32)
        second = MISR(32)
        first.compact_sequence([1, 2, 3])
        second.compact_sequence([3, 2, 1])
        assert first.signature != second.signature

    def test_signature_is_deterministic(self):
        first = MISR(32)
        second = MISR(32)
        data = list(range(100))
        assert first.compact_sequence(data) == second.compact_sequence(data)

    def test_signature_detects_single_corruption(self):
        good = MISR(32)
        bad = MISR(32)
        data = list(range(64))
        corrupted = list(data)
        corrupted[17] ^= 0x4
        assert good.compact_sequence(data) != bad.compact_sequence(corrupted)

    def test_signature_width_mask(self):
        misr = MISR(16)
        misr.compact_sequence(range(1000))
        assert 0 <= misr.signature < (1 << 16)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MISR(0)
        with pytest.raises(ValueError):
            MISR(7)


class TestMisrCompactRange:
    def test_folds_like_one_compact_per_word(self):
        folded = MISR(32, seed=0x1234)
        reference = MISR(32, seed=0x1234)
        folded.compact_range(7, 1000)
        for word in range(7, 1000):
            reference.compact(word)
        assert folded.signature == reference.signature

    def test_empty_range_is_a_no_op(self):
        misr = MISR(16, seed=5)
        misr.compact_range(10, 10)
        misr.compact_range(10, 3)
        assert misr.signature == 5

    def test_assigning_state_discards_the_pending_range(self):
        misr = MISR(16)
        misr.compact_range(1, 100)
        misr.state = 0x42
        assert misr.signature == 0x42

    def test_fold_is_logarithmic_in_the_range_length(self):
        # A per-word loop over 2**30 words takes minutes; the closed form
        # touches about 2 * 30 aligned blocks.
        misr = MISR(64)
        began = time.perf_counter()
        misr.compact_range(0, 1 << 30)
        signature = misr.signature
        assert time.perf_counter() - began < 1.0
        # Another block decomposition of the same words agrees: reading the
        # signature folds the first part on its own.
        split = MISR(64)
        split.compact_range(0, (1 << 29) + 12345)
        assert split.signature != signature
        split.compact_range((1 << 29) + 12345, 1 << 30)
        assert split.signature == signature
