"""Transaction recording.

The monitors in :mod:`repro.dft` derive TAM utilization and power profiles
from the transaction stream, which is exactly the simulation-based evaluation
of schedules the paper advocates.  The tracer is deliberately generic: any
channel can record the begin/end of a transaction together with free-form
attributes.

Storage is *columnar*: one flat list per field, with timestamps kept as
plain integer femtoseconds.  The channel hot paths append scalars through
:meth:`TransactionTracer.record_fs` without building any per-transaction
object; :class:`TransactionRecord` views (with :class:`SimTime` endpoints)
are materialized lazily when a query or test asks for them.  Interval
queries (busy time, utilization) run directly over the integer columns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.kernel.simtime import SimTime


@dataclass
class TransactionRecord:
    """A completed transaction on some channel (materialized view)."""

    channel: str
    kind: str
    start: SimTime
    end: SimTime
    initiator: str = ""
    address: Optional[int] = None
    data_bits: int = 0
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> SimTime:
        return self.end - self.start

    def overlaps(self, start: SimTime, end: SimTime) -> bool:
        """True if the transaction overlaps the half-open window [start, end)."""
        return self.start < end and self.end > start


def _merged_busy_fs(intervals: List[Tuple[int, int]]) -> int:
    """Total covered length of possibly-overlapping ``(start, end)`` pairs."""
    busy = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                busy += current_end - current_start
            current_start, current_end = start, end
        else:
            if end > current_end:
                current_end = end
    if current_end is not None:
        busy += current_end - current_start
    return busy


def _merged(starts_fs: List[int], ends_fs: List[int], channels: List[str],
            channel: str) -> Tuple[List[int], List[int], List[int]]:
    """The body of :meth:`TransactionTracer._channel_merged`."""
    pairs = sorted((start, end) for start, end, name
                   in zip(starts_fs, ends_fs, channels) if name == channel)
    starts: List[int] = []
    ends: List[int] = []
    prefix = [0]
    if not pairs:
        return starts, ends, prefix
    busy = 0
    current_start, current_end = pairs[0]
    for start, end in pairs:
        if start > current_end:
            starts.append(current_start)
            ends.append(current_end)
            busy += current_end - current_start
            prefix.append(busy)
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    starts.append(current_start)
    ends.append(current_end)
    prefix.append(busy + current_end - current_start)
    return starts, ends, prefix


def _busy_before(starts: List[int], ends: List[int], prefix: List[int],
                 time_fs: int) -> int:
    """Busy length of the merged intervals before *time_fs*.

    The intervals starting before *time_fs* count in full, less the part
    of the last one that runs past it (only the last can, as the intervals
    are disjoint and sorted).  A window's busy length is the difference of
    this at its two ends.
    """
    index = bisect_left(starts, time_fs)
    if index and ends[index - 1] > time_fs:
        return prefix[index] - (ends[index - 1] - time_fs)
    return prefix[index]


class TransactionTracer:
    """Collects transaction data during a simulation (columnar storage)."""

    __slots__ = ("enabled", "_channels", "_kinds", "_starts_fs", "_ends_fs",
                 "_initiators", "_addresses", "_data_bits", "_attributes",
                 "_merged_cache")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._channels: List[str] = []
        self._kinds: List[str] = []
        self._starts_fs: List[int] = []
        self._ends_fs: List[int] = []
        self._initiators: List[str] = []
        self._addresses: List[Optional[int]] = []
        self._data_bits: List[int] = []
        self._attributes: List[Optional[Dict[str, object]]] = []
        # channel -> (record count at build, merged starts, merged ends,
        # busy-length prefix sums); rebuilt when the record count moves.
        self._merged_cache: Dict[str, Tuple[int, List[int], List[int],
                                            List[int]]] = {}

    # -- recording ----------------------------------------------------------
    def record_fs(self, channel: str, kind: str, start_fs: int, end_fs: int,
                  initiator: str = "", address: Optional[int] = None,
                  data_bits: int = 0,
                  attributes: Optional[Dict[str, object]] = None) -> None:
        """Append one transaction from integer-femtosecond endpoints.

        This is the channel hot path: callers are expected to have checked
        :attr:`enabled` already (so a disabled tracer costs a single flag
        check at the call site), but the method stays safe to call either
        way.
        """
        if not self.enabled:
            return
        self._channels.append(channel)
        self._kinds.append(kind)
        self._starts_fs.append(start_fs)
        self._ends_fs.append(end_fs)
        self._initiators.append(initiator)
        self._addresses.append(address)
        self._data_bits.append(data_bits)
        self._attributes.append(attributes)

    def record_run_fs(self, count: int, period_fs: int,
                      records: List[tuple]) -> None:
        """Append *count* rounds of *records* in one call.

        Each record is a tuple of :meth:`record_fs`'s arguments with an
        attributes dict; round ``i`` repeats them in order, shifted by
        ``i * period_fs``, so two channels sharing this tracer interleave
        as they would record one burst after another.  Every appended
        record gets its own copy of its attributes.
        """
        if not self.enabled:
            return
        (channels, kinds, starts_fs, ends_fs, initiators, addresses,
         data_bits, attributes) = zip(*records)
        offsets = (range(0, count * period_fs, period_fs) if period_fs
                   else (0,) * count)
        self._channels.extend(channels * count)
        self._kinds.extend(kinds * count)
        self._starts_fs.extend([offset + start for offset in offsets
                                for start in starts_fs])
        self._ends_fs.extend([offset + end for offset in offsets
                              for end in ends_fs])
        self._initiators.extend(initiators * count)
        self._addresses.extend(addresses * count)
        self._data_bits.extend(data_bits * count)
        self._attributes.extend([values.copy() for _ in offsets
                                 for values in attributes])

    def record(self, record: TransactionRecord) -> None:
        """Append a pre-built :class:`TransactionRecord` (compatibility API)."""
        if self.enabled:
            self.record_fs(
                record.channel, record.kind,
                record.start.femtoseconds, record.end.femtoseconds,
                initiator=record.initiator, address=record.address,
                data_bits=record.data_bits, attributes=record.attributes,
            )

    def clear(self) -> None:
        for column in (self._channels, self._kinds, self._starts_fs,
                       self._ends_fs, self._initiators, self._addresses,
                       self._data_bits, self._attributes):
            column.clear()
        self._merged_cache.clear()

    # -- materialization ----------------------------------------------------
    def _materialize(self, index: int) -> TransactionRecord:
        attributes = self._attributes[index]
        return TransactionRecord(
            channel=self._channels[index], kind=self._kinds[index],
            start=SimTime(self._starts_fs[index]),
            end=SimTime(self._ends_fs[index]),
            initiator=self._initiators[index],
            address=self._addresses[index],
            data_bits=self._data_bits[index],
            attributes=attributes if attributes is not None else {},
        )

    @property
    def records(self) -> List[TransactionRecord]:
        """All transactions as lazily materialized records."""
        return [self._materialize(index) for index in range(len(self._channels))]

    def _channel_indices(self, channel: str) -> List[int]:
        return [index for index, name in enumerate(self._channels)
                if name == channel]

    # -- queries ------------------------------------------------------------
    def for_channel(self, channel: str) -> List[TransactionRecord]:
        return [self._materialize(index)
                for index in self._channel_indices(channel)]

    def channels(self) -> List[str]:
        return sorted(set(self._channels))

    def bounds_fs(self, channel: str) -> Optional[Tuple[int, int]]:
        """(min start, max end) of *channel* in femtoseconds, or None."""
        starts, ends, _ = self._channel_merged(channel)
        if not starts:
            return None
        return starts[0], ends[-1]

    def data_bits_total(self, channel: str) -> int:
        """Total payload bits recorded for *channel*."""
        bits = self._data_bits
        return sum(bits[index] for index in self._channel_indices(channel))

    def _channel_merged(self, channel: str
                        ) -> Tuple[List[int], List[int], List[int]]:
        """Disjoint sorted busy intervals of *channel* plus prefix sums.

        Returns ``(starts, ends, prefix)`` where the intervals are merged
        (overlapping and touching transactions coalesced) and ``prefix[i]``
        is the total busy length of the first ``i`` intervals, so the busy
        length before any time is one binary search plus one clip
        (:func:`_busy_before`).  Plain lists: a row's trace holds tens of
        records, where numpy's fixed cost per call would dominate.  Cached
        per channel; the tracer is append-only, so a changed record count
        is the only invalidation.
        """
        count = len(self._channels)
        cached = self._merged_cache.get(channel)
        if cached is not None and cached[0] == count:
            return cached[1], cached[2], cached[3]
        merged = _merged(self._starts_fs, self._ends_fs, self._channels,
                         channel)
        self._merged_cache[channel] = (count, *merged)
        return merged

    def total_busy_time(self, channel: str) -> SimTime:
        """Total busy duration of *channel*, merging overlapping transactions."""
        _, _, prefix = self._channel_merged(channel)
        return SimTime(prefix[-1])

    def busy_fs_in_window(self, channel: str, window_start_fs: int,
                          window_end_fs: int) -> int:
        """Busy femtoseconds of *channel* clipped to [start, end)."""
        if window_end_fs < window_start_fs:
            raise ValueError("window end precedes window start")
        starts, ends, prefix = self._channel_merged(channel)
        return (_busy_before(starts, ends, prefix, window_end_fs)
                - _busy_before(starts, ends, prefix, window_start_fs))

    def utilization(self, channel: str, window_start: SimTime,
                    window_end: SimTime) -> float:
        """Fraction of the window during which *channel* was busy."""
        window_start_fs = SimTime.coerce(window_start).femtoseconds
        window_end_fs = SimTime.coerce(window_end).femtoseconds
        window = window_end_fs - window_start_fs
        if window == 0:
            return 0.0
        return self.busy_fs_in_window(channel, window_start_fs,
                                      window_end_fs) / window

    def utilization_profile(self, channel: str, window: SimTime,
                            start: Optional[SimTime] = None,
                            end: Optional[SimTime] = None) -> List[float]:
        """Utilization per fixed-size window across [start, end).

        Used to compute the *peak* TAM utilization of Table I: the peak is the
        maximum over the per-window utilizations.
        """
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
        # One binary search per window boundary: each boundary's busy-before
        # length serves the window that ends there and the one that starts
        # there.  _busy_before is inlined, as a call per boundary made Table
        # I's 277-window profile take about 1.5x as long.
        profile = []
        low = start_fs
        busy_low = _busy_before(starts, ends, prefix, low)
        index = 0
        while low < end_fs:
            high = low + window_fs
            if high > end_fs:
                high = end_fs
            index = bisect_left(starts, high, index)
            busy_high = prefix[index]
            if index and ends[index - 1] > high:
                busy_high -= ends[index - 1] - high
            profile.append((busy_high - busy_low) / (high - low))
            low, busy_low = high, busy_high
        return profile

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[TransactionRecord]:
        return iter(self.records)
