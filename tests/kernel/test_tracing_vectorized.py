"""Differential tests of the vectorized interval queries in the tracer.

``total_busy_time``, ``busy_fs_in_window`` and ``utilization_profile`` run
over merged intervals with binary-search probes; these tests pin them to a
scalar python reference over randomized interval soups, and cover the
cache-invalidation edge (append after query).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import SimTime
from repro.kernel.tracing import TransactionTracer, _merged_busy_fs


def _reference_busy_in_window(intervals, window_start, window_end):
    clipped = [(max(start, window_start), min(end, window_end))
               for start, end in intervals
               if start < window_end and end > window_start]
    return _merged_busy_fs(clipped)


def _random_tracer(rng, count):
    tracer = TransactionTracer()
    intervals = []
    for _ in range(count):
        start = rng.randrange(0, 10_000)
        end = start + rng.randrange(1, 2_000)
        tracer.record_fs("tam", "burst", start, end)
        intervals.append((start, end))
        if rng.random() < 0.3:  # a second channel the queries must ignore
            tracer.record_fs("other", "burst", start + 1, end + 7)
    return tracer, intervals


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 60))
def test_busy_queries_match_scalar_reference(seed, count):
    rng = random.Random(seed)
    tracer, intervals = _random_tracer(rng, count)
    assert tracer.total_busy_time("tam").femtoseconds == \
        _merged_busy_fs(intervals)
    for _ in range(8):
        window_start = rng.randrange(0, 14_000)
        window_end = window_start + rng.randrange(0, 6_000)
        assert tracer.busy_fs_in_window("tam", window_start, window_end) == \
            _reference_busy_in_window(intervals, window_start, window_end)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 60),
       st.integers(1, 3_000))
def test_profile_matches_per_window_busy_queries(seed, count, window_fs):
    rng = random.Random(seed)
    tracer, intervals = _random_tracer(rng, count)
    profile = tracer.utilization_profile("tam", SimTime(window_fs))
    lo, hi = tracer.bounds_fs("tam")
    expected = []
    position = lo
    while position < hi:
        stop = min(position + window_fs, hi)
        expected.append(
            _reference_busy_in_window(intervals, position, stop)
            / (stop - position))
        position = stop
    assert profile == pytest.approx(expected)


class TestMergedCache:
    def test_append_after_query_invalidates_the_cache(self):
        tracer = TransactionTracer()
        tracer.record_fs("tam", "burst", 0, 100)
        assert tracer.total_busy_time("tam").femtoseconds == 100
        tracer.record_fs("tam", "burst", 500, 600)
        assert tracer.total_busy_time("tam").femtoseconds == 200
        assert tracer.busy_fs_in_window("tam", 450, 650) == 100

    def test_clear_drops_the_cache(self):
        tracer = TransactionTracer()
        tracer.record_fs("tam", "burst", 0, 100)
        assert tracer.total_busy_time("tam").femtoseconds == 100
        tracer.clear()
        assert tracer.total_busy_time("tam").femtoseconds == 0

    def test_queries_are_per_channel(self):
        tracer = TransactionTracer()
        tracer.record_fs("a", "burst", 0, 100)
        tracer.record_fs("b", "burst", 0, 50)
        assert tracer.total_busy_time("a").femtoseconds == 100
        assert tracer.total_busy_time("b").femtoseconds == 50

    def test_empty_channel(self):
        tracer = TransactionTracer()
        assert tracer.total_busy_time("tam").femtoseconds == 0
        assert tracer.busy_fs_in_window("tam", 0, 1_000) == 0
        assert tracer.utilization_profile("tam", SimTime(10)) == []

    def test_window_end_before_start_rejected(self):
        tracer = TransactionTracer()
        with pytest.raises(ValueError):
            tracer.busy_fs_in_window("tam", 10, 5)
