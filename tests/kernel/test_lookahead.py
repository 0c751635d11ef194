"""The kernel's lookahead query.

``Simulator.lookahead_fs`` tells the running activation up to which time
nothing else can act, so a model may apply work whose entries would all be
dispatched by then in closed form.  Each case below plants one kind of
pending work and reads the answer from inside an activation.
"""

import math


def lookahead_at(sim, time_fs):
    """Schedule a callback at *time_fs* that records the lookahead it sees."""
    seen = []
    sim.schedule_callback(lambda: seen.append(sim.lookahead_fs()), time_fs)
    return seen


def test_nothing_pending_is_unbounded(sim):
    seen = lookahead_at(sim, 10)
    sim.run()
    assert seen == [math.inf]


def test_next_bucket_bounds_the_answer(sim):
    seen = lookahead_at(sim, 10)
    sim.schedule_callback(lambda: None, 25)
    sim.run()
    assert seen == [24]


def test_another_entry_in_the_lane_leaves_no_room(sim):
    seen = lookahead_at(sim, 10)
    sim.schedule_callback(lambda: None, 10)
    sim.run()
    assert seen == [-1]


def test_a_delta_entry_pushed_by_the_activation_itself_counts(sim):
    seen = []

    def action():
        sim.schedule_callback(lambda: None, 0)
        seen.append(sim.lookahead_fs())

    sim.schedule_callback(action, 10)
    sim.run()
    assert seen == [-1]


def test_a_drained_timestamp_does_not_bound_the_answer(sim):
    # Earlier timestamps, the running one included, have been drained:
    # only the next pending entry bounds the answer.
    seen = []
    sim.schedule_callback(lambda: None, 5)
    sim.schedule_callback(lambda: seen.append(sim.lookahead_fs()), 10)
    sim.schedule_callback(lambda: None, 40)
    sim.run()
    assert seen == [39]


#: A distance far beyond any clock period (2**44 fs, about 17.6 ms).
FAR_FS = (1 << 44) + 1000


def test_a_very_distant_entry_bounds_the_answer(sim):
    seen = lookahead_at(sim, 10)
    sim.schedule_callback(lambda: None, FAR_FS)
    sim.run()
    assert seen == [FAR_FS - 1]


def test_the_earliest_pending_entry_wins(sim):
    seen = lookahead_at(sim, 10)
    sim.schedule_callback(lambda: None, FAR_FS)
    sim.schedule_callback(lambda: None, 30)
    sim.run()
    assert seen == [29]


def test_the_until_bound_caps_the_answer(sim):
    seen = lookahead_at(sim, 10)
    sim.schedule_callback(lambda: None, 100)
    sim.run(until=50)
    assert seen == [50]
    # The bound belongs to that run() call only.
    seen_after = lookahead_at(sim, 10)
    sim.run()
    assert seen_after == [99]


def test_a_pending_entry_before_until_still_wins(sim):
    seen = lookahead_at(sim, 10)
    sim.schedule_callback(lambda: None, 30)
    sim.run(until=50)
    assert seen == [29]


def test_a_cancelled_entry_still_counts_as_pending(sim):
    seen = lookahead_at(sim, 10)
    entry = sim.schedule_callback(lambda: None, 30)
    sim.schedule_callback(lambda: None, 60)
    sim.cancel(entry)
    sim.run()
    assert seen == [29]


def test_credited_activations_count_as_dispatched(sim):
    sim.schedule_callback(lambda: sim.credit_activations(7), 10)
    sim.run()
    assert sim.dispatched_activations == 1 + 7
