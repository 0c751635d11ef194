"""Differential test: EBI bursts against the process-based burst.

``ExternalBusInterface.stream_patterns`` leaps uncontended burst trains in
closed form and runs every other burst's three stages as scheduled
callbacks.  :func:`reference_stream_patterns` below keeps the process-based
form both replaced: one process per channel stage (``AteLink.transfer``
and ``TamChannel.occupy``), a delayed event for the shift stage and an
``AllOf`` join.  Every observable of a run (tracer records, channel and
arbiter counters, returned stats, dispatched activations and the time)
must be identical, under contention from plain processes and from a second
stream, at every activation of an observer process, and at a
``run(until=...)`` stop.  With a wrapper, a decompressor and a compactor
per stream, their counters and MISR signatures must agree as well.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import (AteLink, Compactor, Decompressor, ExternalBusInterface,
                       ExternalTestTiming, TamChannel)
from repro.dft import tam as tam_module
from repro.dft.ctl import CoreTestDescription, generate_wrapper
from repro.kernel import NS, AllOf, Clock, SimTime, Simulator, Timeout
from repro.kernel.tracing import TransactionTracer


def reference_stream_patterns(ebi, initiator, address, patterns, timing,
                              burst_patterns=None, wrapper=None,
                              decompressor=None, compactor=None):
    """The process-based burst loop of ``stream_patterns``, updating the
    wrapper, decompressor and compactor (when given) once per burst."""
    sim, tam, ate_link = ebi.sim, ebi.tam, ebi.ate_link
    burst_size = burst_patterns or ebi.buffer_patterns
    clock = tam.clock
    remaining = patterns
    stats = {"patterns": 0, "bursts": 0, "ate_cycles": 0,
             "tam_busy_cycles": 0, "shift_cycles": 0}
    while remaining > 0:
        burst = min(burst_size, remaining)
        ate_bits = burst * timing.ate_bits_per_pattern
        ate_response_bits = burst * timing.ate_response_bits_per_pattern
        tam_bits = burst * timing.tam_bits_per_pattern
        shift_cycles = burst * timing.shift_cycles_per_pattern
        tam_cycles = (tam.transfer_cycles(tam_bits)
                      + tam.arbitration_overhead_cycles)
        ate_process = sim.spawn(
            ate_link.transfer(
                initiator=initiator, stimulus_bits=ate_bits,
                response_bits=ate_response_bits, kind="pattern_burst",
                attributes={"patterns": burst},
            ),
            name=f"{ebi.name}.ate_burst",
        )
        tam_process = sim.spawn(
            tam.occupy(
                initiator=initiator, busy_cycles=tam_cycles,
                kind="pattern_burst", address=address, data_bits=tam_bits,
                attributes={"patterns": burst},
            ),
            name=f"{ebi.name}.tam_burst",
        )
        shift_done = sim.event(f"{ebi.name}.shift_done")
        shift_done.notify(clock.cycles(shift_cycles))
        yield AllOf([ate_process.finished, tam_process.finished, shift_done])

        if decompressor is not None and not decompressor.bypass:
            decompressor.expand(burst * timing.ate_bits_per_pattern,
                                patterns=burst)
        elif wrapper is not None:
            wrapper.apply_external_patterns(burst)
        if compactor is not None:
            compactor.compact(burst * (wrapper.response_bits_per_pattern()
                                       if wrapper else 0))
        stats["patterns"] += burst
        stats["bursts"] += 1
        stats["ate_cycles"] += ate_link.transfer_cycles(ate_bits,
                                                        ate_response_bits)
        stats["tam_busy_cycles"] += tam_cycles
        stats["shift_cycles"] += shift_cycles
        ebi.patterns_streamed += burst
        ebi.bursts_streamed += 1
        remaining -= burst
    return stats


def build_model(sim, index, spec):
    """Stream *index*'s ``(wrapper, decompressor, compactor)`` from a
    :data:`models_strategy` draw (each may be None)."""
    (chains, cells, with_wrapper, compression_ratio, decompressor_active,
     compaction_ratio, compactor_active) = spec
    wrapper = None
    if with_wrapper:
        wrapper = generate_wrapper(sim, CoreTestDescription.describe(
            f"core{index}", chain_count=chains, scan_cells=cells))
    decompressor = compactor = None
    if compression_ratio is not None:
        decompressor = Decompressor(sim, f"dec{index}", compression_ratio,
                                    target_wrapper=wrapper)
        if decompressor_active:
            decompressor.activate()
    if compaction_ratio is not None:
        compactor = Compactor(sim, f"cmp{index}", compaction_ratio)
        if compactor_active:
            compactor.activate()
    return wrapper, decompressor, compactor


def model_state(model):
    """Every counter and signature of a stream's wrapper, decompressor and
    compactor."""
    wrapper, decompressor, compactor = model
    state = []
    if wrapper is not None:
        state.append((wrapper.patterns_applied,
                      wrapper.external_patterns_applied,
                      wrapper.stimulus_bits_received,
                      wrapper.response_bits_produced, wrapper.signature))
    if decompressor is not None:
        state.append((decompressor.compressed_bits_in,
                      decompressor.expanded_bits_out,
                      decompressor.patterns_expanded))
    if compactor is not None:
        state.append((compactor.response_bits_in,
                      compactor.compacted_bits_out, compactor.signature))
    return tuple(state)


def run_world(streams, contenders, tam_width, ate_width, overhead, tracing,
              reference, until_cycles=None, models=None,
              separate_tracers=False):
    """Run *streams* and *contenders* on a fresh platform; every observable
    the two burst forms must agree on.

    With *models*, stream ``i`` drives the wrapper, decompressor and
    compactor built from ``models[i]`` (cycled when shorter), and their
    state is observed too.  With *separate_tracers* the ATE link records
    on a tracer of its own.

    A ``"tick"`` contender touches no channel: it only wakes up and
    snapshots the observables.  With *until_cycles* the run first stops
    there; the result is then the pair of observables at the stop and
    after a final ``run()``.
    """
    sim = Simulator("burst")
    clock = Clock(sim, "clk", SimTime(10, NS))
    tracer = TransactionTracer(enabled=tracing)
    tam = TamChannel(sim, "tam", width_bits=tam_width, clock=clock,
                     arbitration_overhead_cycles=overhead, tracer=tracer)
    ate_tracer = (TransactionTracer(enabled=tracing) if separate_tracers
                  else tracer)
    ate_link = AteLink(sim, "ate_link", width_bits=ate_width, clock=clock,
                       tracer=ate_tracer)
    ebi = ExternalBusInterface(sim, "ebi", ate_link=ate_link, tam=tam,
                               buffer_patterns=8)
    ebi.enable()
    results = []
    stream_models = ([build_model(sim, index, models[index % len(models)])
                      for index in range(len(streams))] if models else [])

    def counters():
        return (
            (tam.transaction_count, tam.busy_cycles_total,
             tam.bits_transferred, tam._mutex.acquisitions,
             tam._mutex.contentions, tam._mutex.locked),
            (ate_link.transaction_count, ate_link.busy_cycles_total,
             ate_link._mutex.acquisitions,
             ate_link._mutex.contentions, ate_link._mutex.locked),
            (ebi.patterns_streamed, ebi.bursts_streamed),
        ) + tuple(model_state(model) for model in stream_models)

    def stream(index, start_cycles, patterns, timing, burst_patterns):
        yield Timeout(clock.cycles(start_cycles))
        wrapper, decompressor, compactor = (
            stream_models[index] if stream_models else (None, None, None))
        if reference:
            body = reference_stream_patterns(
                ebi, f"s{index}", 0x1000, patterns, timing, burst_patterns,
                wrapper, decompressor, compactor)
        else:
            body = ebi.stream_patterns(
                f"s{index}", 0x1000, patterns, timing, wrapper=wrapper,
                decompressor=decompressor, compactor=compactor,
                burst_patterns=burst_patterns)
        stats = yield from body
        results.append((index, sim.now_fs, sim.dispatched_activations, stats))

    def contender(index, channel, start_cycles, hold_cycles, repeats, gap):
        yield Timeout(clock.cycles(start_cycles))
        for _ in range(repeats):
            if channel == "tick":
                yield Timeout(clock.cycles(hold_cycles))
                results.append((f"t{index}", sim.now_fs,
                                sim.dispatched_activations, len(tracer),
                                counters()))
            elif channel == "tam":
                yield from tam.occupy(f"c{index}", hold_cycles, kind="other",
                                      data_bits=hold_cycles)
            else:
                yield from ate_link.transfer(f"c{index}",
                                             hold_cycles * ate_width)
            results.append((f"c{index}", sim.now_fs))
            yield Timeout(clock.cycles(gap))

    for index, spec in enumerate(streams):
        sim.spawn(stream(index, *spec))
    for index, spec in enumerate(contenders):
        sim.spawn(contender(index, *spec))

    def observables():
        tam_counters, ate_counters, ebi_counters, *model_states = counters()
        return {
            "records": tracer.records,
            "results": list(results),
            "tam": tam_counters,
            "ate_link": ate_counters,
            "ebi": ebi_counters,
            "models": model_states,
            "ate_records": ate_tracer.records if separate_tracers else None,
            "dispatched_activations": sim.dispatched_activations,
            "now_fs": sim.now_fs,
        }

    if until_cycles is None:
        sim.run()
        return observables()
    sim.run(until=clock.cycles(until_cycles))
    stop = observables()
    sim.run()
    return stop, observables()


def count_holds():
    """Patch context counting the channel holds created (general path)."""
    created = []
    hold_init = tam_module._Hold.__init__

    def counting_init(self, *args):
        created.append(None)
        hold_init(self, *args)

    return created, mock.patch.object(tam_module._Hold, "__init__",
                                      counting_init)


timings = st.builds(
    ExternalTestTiming,
    ate_bits_per_pattern=st.integers(0, 200),
    ate_response_bits_per_pattern=st.integers(0, 200),
    tam_bits_per_pattern=st.integers(0, 200),
    shift_cycles_per_pattern=st.integers(0, 40),
)
streams_strategy = st.lists(
    st.tuples(st.integers(0, 60),                      # start cycle
              st.integers(1, 40),                      # patterns
              timings,
              st.one_of(st.none(), st.integers(1, 12))),  # burst size
    min_size=1, max_size=2,
)
contenders_strategy = st.lists(
    st.tuples(st.sampled_from(["tam", "ate"]),
              st.integers(0, 200),                     # start cycle
              st.integers(0, 30),                      # hold cycles
              st.integers(1, 5),                       # repeats
              st.integers(0, 20)),                     # gap cycles
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(streams=streams_strategy, contenders=contenders_strategy,
       tam_width=st.integers(1, 64), ate_width=st.integers(1, 16),
       overhead=st.integers(0, 2), tracing=st.booleans())
def test_callback_stages_match_process_reference(streams, contenders,
                                                 tam_width, ate_width,
                                                 overhead, tracing):
    world = dict(streams=streams, contenders=contenders, tam_width=tam_width,
                 ate_width=ate_width, overhead=overhead, tracing=tracing)
    assert (run_world(**world, reference=False)
            == run_world(**world, reference=True))


def test_zero_cycle_stages_match_process_reference():
    """All three stages take no time: every entry lands on one timestamp."""
    timing = ExternalTestTiming(0, 0, 0, 0)
    world = dict(streams=[(0, 20, timing, 4), (0, 9, timing, None)],
                 contenders=[("tam", 0, 0, 3, 0), ("ate", 0, 0, 2, 0)],
                 tam_width=8, ate_width=4, overhead=0, tracing=True)
    new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    assert new["now_fs"] == 0


def test_contended_stages_match_process_reference():
    """Two streams and a process per channel queue on both arbiters."""
    timing = ExternalTestTiming(64, 16, 96, 5)
    world = dict(streams=[(0, 30, timing, 4), (3, 17, timing, None)],
                 contenders=[("tam", 1, 20, 4, 3), ("ate", 2, 10, 3, 1)],
                 tam_width=8, ate_width=4, overhead=1, tracing=True)
    new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    assert new["tam"][4] > 0 and new["ate_link"][3] > 0


# -- the closed-form leap ------------------------------------------------------------

single_stream = st.tuples(st.integers(0, 60), st.integers(1, 40), timings,
                          st.one_of(st.none(), st.integers(1, 12)))
# Observers and channel users whose wake-ups fall inside the streams' bursts,
# so foreign entries split leapt trains (or land exactly on a burst's end).
foreign_strategy = st.lists(
    st.tuples(st.sampled_from(["tick", "tick", "tam", "ate"]),
              st.integers(0, 300),                     # start cycle
              st.integers(0, 30),                      # hold cycles
              st.integers(1, 6),                       # repeats
              st.integers(0, 40)),                     # gap cycles
    min_size=1, max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(stream=single_stream, tam_width=st.integers(1, 64),
       ate_width=st.integers(1, 16), overhead=st.integers(0, 2),
       tracing=st.booleans())
def test_lone_stream_is_leapt_and_matches_reference(stream, tam_width,
                                                    ate_width, overhead,
                                                    tracing):
    world = dict(streams=[stream], contenders=[], tam_width=tam_width,
                 ate_width=ate_width, overhead=overhead, tracing=tracing)
    holds, patch = count_holds()
    with patch:
        new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    # Nothing else is pending while it streams: every burst is leapt.
    assert holds == []


@settings(max_examples=150, deadline=None)
@given(streams=streams_strategy, contenders=foreign_strategy,
       tam_width=st.integers(1, 64), ate_width=st.integers(1, 16),
       overhead=st.integers(0, 2), tracing=st.booleans())
def test_foreign_entries_inside_a_train_match_reference(streams, contenders,
                                                        tam_width, ate_width,
                                                        overhead, tracing):
    world = dict(streams=streams, contenders=contenders, tam_width=tam_width,
                 ate_width=ate_width, overhead=overhead, tracing=tracing)
    assert (run_world(**world, reference=False)
            == run_world(**world, reference=True))


@pytest.mark.parametrize("tracing", [False, True])
@settings(max_examples=100, deadline=None)
@given(streams=streams_strategy,
       contenders=st.one_of(st.just([]), foreign_strategy),
       tam_width=st.integers(1, 64), ate_width=st.integers(1, 16),
       overhead=st.integers(0, 2), until_cycles=st.integers(0, 600))
def test_run_until_inside_a_stream_matches_reference(tracing, streams,
                                                     contenders, tam_width,
                                                     ate_width, overhead,
                                                     until_cycles):
    world = dict(streams=streams, contenders=contenders, tam_width=tam_width,
                 ate_width=ate_width, overhead=overhead, tracing=tracing,
                 until_cycles=until_cycles)
    assert (run_world(**world, reference=False)
            == run_world(**world, reference=True))


def test_an_observer_splits_a_train():
    """One wake-up inside a 10-burst stream: the burst it falls into runs
    on the general path, the others are leapt."""
    timing = ExternalTestTiming(16, 16, 64, 3)
    world = dict(streams=[(0, 40, timing, 4)],
                 contenders=[("tick", 0, 47, 1, 0)],
                 tam_width=16, ate_width=4, overhead=1, tracing=True)
    holds, patch = count_holds()
    with patch:
        new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    assert 0 < len(holds) < 2 * new["ebi"][1]


def test_observer_at_a_burst_end_sees_it_unfinished():
    """An observer waking exactly when the second 17-cycle burst ends runs
    before that burst's last stages, so the train must stop one burst
    earlier."""
    timing = ExternalTestTiming(16, 16, 64, 3)
    world = dict(streams=[(0, 40, timing, 4)],
                 contenders=[("tick", 0, 34, 1, 0)],
                 tam_width=16, ate_width=4, overhead=1, tracing=True)
    new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    # It sees the first burst's records and the second's ATE record only.
    assert new["results"][0][1] == 34 * 10 * NS
    assert new["results"][0][3] == 3


def test_equal_stage_times_record_ate_first():
    """ATE and TAM stages of equal length: the ATE record comes first."""
    timing = ExternalTestTiming(8, 0, 8, 0)
    world = dict(streams=[(0, 12, timing, 4)], contenders=[],
                 tam_width=16, ate_width=8, overhead=2, tracing=True)
    new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    assert [record.channel for record in new["records"][:2]] == [
        "ate_link", "tam"]
    assert new["records"][0].end == new["records"][1].end


def test_foreign_entry_in_the_lane_blocks_the_leap():
    """An observer waking at the stream's start runs before any of its
    bursts' stages, as on the general path."""
    timing = ExternalTestTiming(16, 16, 64, 3)
    world = dict(streams=[(5, 20, timing, 4)],
                 contenders=[("tick", 0, 5, 3, 0)],
                 tam_width=16, ate_width=4, overhead=1, tracing=True)
    new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)


# -- runs of identical bursts: the model state they update at once ---------------

models_strategy = st.lists(
    st.tuples(st.integers(1, 8),                       # scan chains
              st.integers(8, 500),                     # scan cells
              st.booleans(),                           # with a wrapper
              # Fractional ratios make each burst's expansion round.
              st.one_of(st.none(), st.sampled_from([1.0, 2.5, 3.3, 7.7]),
                        st.floats(1.0, 60.0)),         # decompression
              st.booleans(),                           # decompressor active
              st.one_of(st.none(), st.floats(1.0, 40.0)),  # compaction
              st.booleans()),                          # compactor active
    min_size=1, max_size=2,
)


@settings(max_examples=100, deadline=None)
@given(streams=streams_strategy, contenders=foreign_strategy,
       models=models_strategy, tam_width=st.integers(1, 64),
       ate_width=st.integers(1, 16), overhead=st.integers(0, 2),
       tracing=st.booleans(), separate_tracers=st.booleans())
def test_model_updates_inside_a_train_match_reference(
        streams, contenders, models, tam_width, ate_width, overhead, tracing,
        separate_tracers):
    world = dict(streams=streams, contenders=contenders, models=models,
                 tam_width=tam_width, ate_width=ate_width, overhead=overhead,
                 tracing=tracing, separate_tracers=separate_tracers)
    assert (run_world(**world, reference=False)
            == run_world(**world, reference=True))


@settings(max_examples=80, deadline=None)
@given(streams=streams_strategy, contenders=contenders_strategy,
       models=models_strategy, tam_width=st.integers(1, 64),
       ate_width=st.integers(1, 16), overhead=st.integers(0, 2),
       separate_tracers=st.booleans())
def test_model_updates_under_contention_match_reference(
        streams, contenders, models, tam_width, ate_width, overhead,
        separate_tracers):
    world = dict(streams=streams, contenders=contenders, models=models,
                 tam_width=tam_width, ate_width=ate_width, overhead=overhead,
                 tracing=True, separate_tracers=separate_tracers)
    assert (run_world(**world, reference=False)
            == run_world(**world, reference=True))


@settings(max_examples=80, deadline=None)
@given(streams=streams_strategy,
       contenders=st.one_of(st.just([]), foreign_strategy),
       models=models_strategy, tam_width=st.integers(1, 64),
       ate_width=st.integers(1, 16), overhead=st.integers(0, 2),
       until_cycles=st.integers(0, 600), separate_tracers=st.booleans())
def test_model_updates_at_a_run_until_stop_match_reference(
        streams, contenders, models, tam_width, ate_width, overhead,
        until_cycles, separate_tracers):
    world = dict(streams=streams, contenders=contenders, models=models,
                 tam_width=tam_width, ate_width=ate_width, overhead=overhead,
                 tracing=True, until_cycles=until_cycles,
                 separate_tracers=separate_tracers)
    assert (run_world(**world, reference=False)
            == run_world(**world, reference=True))


def test_a_lone_stream_leaps_in_runs():
    """38 patterns in bursts of 4: one run of nine full bursts and a run of
    one for the trailing 2 patterns, with every model update of the ten
    bursts (2.5x expansion rounds on each burst: 4 * 5 bits -> 50)."""
    timing = ExternalTestTiming(5, 3, 40, 2)
    model = (4, 100, True, 2.5, True, 3.0, True)
    world = dict(streams=[(0, 38, timing, 4)], contenders=[],
                 models=[model], tam_width=16, ate_width=4, overhead=1,
                 tracing=True)
    holds, patch = count_holds()
    with patch, mock.patch.object(
            ExternalBusInterface, "_burst_done",
            autospec=True,
            side_effect=ExternalBusInterface._burst_done) as burst_done:
        new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    assert holds == []
    assert [call.args[-1] for call in burst_done.call_args_list] == [9, 1]
    decompressor_state = new["models"][0][1]
    assert decompressor_state == (9 * 20 + 10, 9 * 50 + 25, 38)


def test_zero_cycle_runs_with_models_match_reference():
    """Runs that take no time accumulate their end-of-train entries."""
    timing = ExternalTestTiming(0, 0, 0, 0)
    model = (2, 30, True, 3.3, True, 2.0, True)
    world = dict(streams=[(0, 21, timing, 4), (0, 9, timing, None)],
                 contenders=[("tick", 0, 0, 2, 0)], models=[model],
                 tam_width=8, ate_width=4, overhead=0, tracing=True)
    new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    assert new["now_fs"] == 0
