"""Differential tests: the kernel's scheduler against a model.

The kernel's event store (a deque fast lane for the running timestamp plus
one heap for later ones) must dispatch the exact same (time, FIFO-order)
sequence as a plain binary-heap scheduler and end at the same simulated
time.  These tests drive both the kernel and a minimal reference heap with
hypothesis-generated scripts of schedules and cancellations — including
``until`` boundaries and entries at very distant times — and require
identical dispatch logs.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.kernel import NS, SimTime, Simulator, Timeout


class ReferenceScheduler:
    """The textbook model: one binary heap, (time, sequence) ordered."""

    def __init__(self):
        self._heap = []
        self._sequence = 0
        self.now_fs = 0
        self.log = []
        self.entries = []

    def schedule(self, time_fs, tag):
        entry = [time_fs, self._sequence, tag, False]
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        self.entries.append(entry)
        return entry

    def cancel(self, entry):
        entry[3] = True

    def run(self, until_fs=None):
        while self._heap:
            time_fs = self._heap[0][0]
            if until_fs is not None and time_fs > until_fs:
                self.now_fs = until_fs
                return
            entry = heapq.heappop(self._heap)
            if entry[3]:
                continue
            self.now_fs = time_fs
            self.log.append((time_fs, entry[2]))
        if until_fs is not None:
            self.now_fs = max(self.now_fs, until_fs)


#: One scripted operation: (delay_fs, cancel_index_or_None).
#: Delays span the delta fast lane (0), near clock-period-sized times and
#: very distant ones (2**44 to 2**45 fs, about 17.6 to 35.2 ms).
_DELAYS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1_000, max_value=1_000_000),
    st.integers(min_value=(1 << 44), max_value=(1 << 45)),
)


@st.composite
def schedules(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    operations = []
    for index in range(count):
        delay = draw(_DELAYS)
        cancel = None
        if index and draw(st.booleans()) and draw(st.booleans()):
            cancel = draw(st.integers(min_value=0, max_value=index - 1))
        operations.append((delay, cancel))
    return operations


@settings(max_examples=120, deadline=None)
@given(operations=schedules())
def test_dispatch_sequence_matches_reference_heap(operations):
    sim = Simulator("diff")
    reference = ReferenceScheduler()
    kernel_log = []

    kernel_entries = []
    for index, (delay, cancel) in enumerate(operations):
        entry = sim.schedule_callback(
            (lambda i=index: kernel_log.append((sim.now_fs, i))), delay)
        kernel_entries.append(entry)
        reference.schedule(delay, index)
        if cancel is not None:
            was_pending = not reference.entries[cancel][3]
            assert sim.cancel(kernel_entries[cancel]) == was_pending
            reference.cancel(reference.entries[cancel])

    sim.run()
    reference.run()
    assert kernel_log == reference.log
    # A cancelled entry never moves simulated time.
    assert sim.now_fs == reference.now_fs


@settings(max_examples=60, deadline=None)
@given(operations=schedules(),
       until_fs=st.integers(min_value=0, max_value=2_000_000))
def test_until_boundary_matches_reference_heap(operations, until_fs):
    sim = Simulator("diff_until")
    reference = ReferenceScheduler()
    kernel_log = []

    for index, (delay, cancel) in enumerate(operations):
        sim.schedule_callback(
            (lambda i=index: kernel_log.append((sim.now_fs, i))), delay)
        reference.schedule(delay, index)

    sim.run(until=SimTime(until_fs))
    reference.run(until_fs=until_fs)
    assert kernel_log == reference.log
    # The kernel stops exactly at the boundary while work is still pending,
    # or at the last dispatched slot once the store drained early.
    if kernel_log:
        assert kernel_log[-1][0] <= until_fs
        assert sim.now_fs in (until_fs, kernel_log[-1][0])
    else:
        # Nothing matured before the limit: time still advances to it.
        assert sim.now_fs == until_fs
    # Resuming without a limit drains the remainder in reference order.
    if sim.pending_activations:
        sim.run()
        reference.run()
        assert kernel_log == reference.log
        assert sim.now_fs == reference.now_fs


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=30)),
    min_size=1, max_size=25))
def test_timeout_processes_match_reference_order(delays):
    """Process resumptions (Timeout waits) follow the same global order."""
    sim = Simulator("diff_procs")
    reference = ReferenceScheduler()
    kernel_log = []

    def proc(index, delay):
        yield Timeout(SimTime(delay, NS))
        kernel_log.append((sim.now_fs, index))

    for index, delay in enumerate(delays):
        sim.spawn(proc(index, delay), name=f"p{index}")
        # The spawn activation itself dispatches at t=0 before the Timeout.
        reference.schedule(delay * NS, index)

    sim.run()
    reference.run()
    assert kernel_log == reference.log


def test_same_time_collisions_at_large_times_dispatch_in_order():
    """Entries at very distant, colliding times dispatch in exact (time,
    seq) order."""
    sim = Simulator("collisions")
    span = 1 << 44
    log = []
    # Interleave near, far and very-far entries, with same-time collisions
    # at large times.
    times = [span + 5, 10, span + 5, 3 * span, 10, span + 5, 2 * span + 7]
    for index, time_fs in enumerate(times):
        sim.schedule_callback(lambda t=time_fs, i=index: log.append((t, i)),
                              time_fs)
    sim.run()
    expected = sorted(((t, i) for i, t in enumerate(times)),
                      key=lambda pair: (pair[0], pair[1]))
    assert log == expected
    assert sim.pending_activations == 0
