"""Differential test of the row reduction: plain Python against numpy.

A row's TAM utilization figures come from the tracer's merged busy
intervals, which are merged and windowed in Python lists with
:mod:`bisect`.  They must give the very floats the numpy form the
reduction started from gives: a float that differs in its last bit changes
the artifact.  That form is copied below as the reference; hypothesis
drives overlapping, touching and zero-length intervals, ranges of many
windows, and start/end bounds that clip intervals, through both.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft.monitor import TamUtilizationMonitor
from repro.kernel import SimTime, Simulator
from repro.kernel.clock import Clock
from repro.kernel.tracing import TransactionTracer


class ReferenceTracer(TransactionTracer):
    """The tracer with the numpy reduction (and the scan for its bounds)
    it had before the Python form."""

    __slots__ = ()

    def bounds_fs(self, channel):
        starts = self._starts_fs
        ends = self._ends_fs
        lo = hi = None
        for index, name in enumerate(self._channels):
            if name != channel:
                continue
            start, end = starts[index], ends[index]
            if lo is None or start < lo:
                lo = start
            if hi is None or end > hi:
                hi = end
        if lo is None:
            return None
        return lo, hi

    def _channel_merged(self, channel):
        count = len(self._channels)
        cached = self._merged_cache.get(channel)
        if cached is not None and cached[0] == count:
            return cached[1], cached[2], cached[3]
        indices = self._channel_indices(channel)
        starts = np.asarray([self._starts_fs[i] for i in indices],
                            dtype=np.int64)
        ends = np.asarray([self._ends_fs[i] for i in indices], dtype=np.int64)
        if len(starts):
            order = np.lexsort((ends, starts))
            starts, ends = starts[order], ends[order]
            running = np.maximum.accumulate(ends)
            breaks = np.empty(len(starts), dtype=bool)
            breaks[0] = True
            breaks[1:] = starts[1:] > running[:-1]
            merged_starts = starts[breaks]
            last = np.append(np.flatnonzero(breaks)[1:] - 1, len(starts) - 1)
            merged_ends = running[last]
        else:
            merged_starts = starts
            merged_ends = ends
        prefix = np.concatenate(
            ([0], np.cumsum(merged_ends - merged_starts)))
        self._merged_cache[channel] = (count, merged_starts, merged_ends,
                                       prefix)
        return merged_starts, merged_ends, prefix

    def busy_fs_in_window(self, channel, window_start_fs, window_end_fs):
        if window_end_fs < window_start_fs:
            raise ValueError("window end precedes window start")
        starts, ends, prefix = self._channel_merged(channel)
        lo = int(np.searchsorted(ends, window_start_fs, side="right"))
        hi = int(np.searchsorted(starts, window_end_fs, side="left"))
        if lo >= hi:
            return 0
        busy = int(prefix[hi] - prefix[lo])
        busy -= max(0, window_start_fs - int(starts[lo]))
        busy -= max(0, int(ends[hi - 1]) - window_end_fs)
        return busy

    def utilization_profile(self, channel, window, start=None, end=None):
        bounds = self.bounds_fs(channel)
        if bounds is None:
            return []
        start_fs = bounds[0] if start is None else SimTime.coerce(start).femtoseconds
        end_fs = bounds[1] if end is None else SimTime.coerce(end).femtoseconds
        window_fs = window.femtoseconds
        if window_fs <= 0:
            raise ValueError("window must be a positive duration")
        if end_fs <= start_fs:
            return []
        starts, ends, prefix = self._channel_merged(channel)
        window_count = -((start_fs - end_fs) // window_fs)
        lows = start_fs + window_fs * np.arange(window_count, dtype=np.int64)
        highs = np.minimum(lows + window_fs, end_fs)
        lo = np.searchsorted(ends, lows, side="right")
        hi = np.searchsorted(starts, highs, side="left")
        occupied = lo < hi
        lo_safe = np.minimum(lo, max(len(starts) - 1, 0))
        hi_safe = np.maximum(hi, 1)
        busy = np.where(
            occupied,
            prefix[hi] - prefix[lo]
            - np.maximum(0, lows - starts[lo_safe])
            - np.maximum(0, ends[hi_safe - 1] - highs),
            0)
        return (busy / (highs - lows)).tolist()


def bits(values):
    """The exact IEEE-754 bit patterns of a float or a list of floats."""
    if isinstance(values, list):
        return [bits(value) for value in values]
    return struct.pack("<d", values)


#: One interval relative to the previous one: ``(gap, length)``.  A
#: negative gap overlaps it, a zero gap touches it, a zero length is an
#: empty transaction.
STEPS = st.tuples(st.integers(-400, 400),
                  st.sampled_from([0, 0, 1, 7, 100, 333, 1000, 5000]))


@st.composite
def traces(draw):
    origin = draw(st.sampled_from([0, 10**6, 2**52 - 2**20]))
    intervals = []
    cursor = origin
    for gap, length in draw(st.lists(STEPS, max_size=40)):
        start = max(origin, cursor + gap)
        intervals.append((start, start + length))
        cursor = max(cursor, start + length)
    return intervals


@settings(max_examples=300, deadline=None)
@given(intervals=traces(),
       window_cycles=st.sampled_from([1, 3, 64, 250, 1000, 10**6]),
       clip=st.tuples(st.integers(-50, 3000), st.integers(-3000, 50)),
       bounded=st.booleans())
def test_python_reduction_gives_the_reference_floats(
        intervals, window_cycles, clip, bounded):
    sim = Simulator()
    clock = Clock(sim, "clk", SimTime(1))  # one cycle per femtosecond
    tracer, reference = TransactionTracer(), ReferenceTracer()
    for start, end in intervals:
        for each in (tracer, reference):
            each.record_fs("tam", "burst", start, end)
            each.record_fs("other", "burst", start + 1, end + 9)
    monitor = TamUtilizationMonitor(tracer, "tam", clock)
    expected = TamUtilizationMonitor(reference, "tam", clock)
    start = end = None
    if bounded and intervals:
        # Bounds inside or around the trace, clipping its intervals.
        low = min(start for start, _ in intervals)
        high = max(end for _, end in intervals)
        start = SimTime(max(0, low + clip[0]))
        end = SimTime(max(0, high + clip[1]))
    for query in ("peak_utilization", "utilization_profile"):
        got = getattr(monitor, query)(window_cycles, start=start, end=end)
        want = getattr(expected, query)(window_cycles, start=start, end=end)
        assert bits(got) == bits(want), query
    assert bits(monitor.average_utilization(start=start, end=end)) == \
        bits(expected.average_utilization(start=start, end=end))
    assert tracer.total_busy_time("tam") == reference.total_busy_time("tam")
    assert tracer.bounds_fs("tam") == reference.bounds_fs("tam")
