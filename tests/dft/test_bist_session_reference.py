"""Differential test: logic-BIST sessions against the engine-process form.

``AutomatedTestEquipment._run_logic_bist`` applies a session and all of its
status polls in closed form when the TAM is idle and nothing else can act
before the poll loop would exit.  Every other session runs as a
``_PolledSession``: the BIST engine's chunk chain and the poll loop as
scheduled callbacks, whose timer leaps a poll read when nothing else can
act before the read ends.  :func:`reference_run_logic_bist` and
:func:`reference_engine` below keep the form both replaced, verbatim: the
engine process running the controller's chunk loop and the ATE's poll loop
around it.  Every observable of a run (tracer records, TAM and arbiter
counters, the controller's session records, the activity log, the wrapper's
signature and counters, the polls counted, the dispatched activations and
the time) must be identical, under contention, at every activation of an
observer process, and at a ``run(until=...)`` stop.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft import (
    AteLink,
    ConfigurationScanBus,
    CoreTestDescription,
    ExternalBusInterface,
    TamChannel,
    TamPayload,
    generate_wrapper,
)
from repro.dft.payload import TamResponse
from repro.dft.ate import (AutomatedTestEquipment, TestArchitecture,
                           _PolledSession)
from repro.dft.controller import TestController as OnChipTestController
from repro.dft.monitor import ActivityLog
from repro.dft.wrapper import WrapperMode
from repro.kernel import NS, AnyOf, Clock, SimTime, Simulator, Timeout
from repro.kernel.tracing import TransactionTracer
from repro.schedule.model import TestKind, TestTask

CONTROLLER_ADDRESS = 0x8000
#: Where the controller sits when another slave answers status reads.
MOVED_CONTROLLER_ADDRESS = 0x9000
#: A status address no slave decodes.
UNMAPPED_ADDRESS = 0xF000


class RecordingSlave:
    """A status slave that records every read delivered to it, and when."""

    def __init__(self, sim):
        self.sim = sim
        self.reads = []

    def tam_access(self, payload):
        self.reads.append((self.sim.now_fs, self.sim.dispatched_activations,
                           payload.command, payload.address,
                           payload.response_bits, payload.initiator,
                           dict(payload.attributes)))
        return payload.complete(TamResponse.OK)


def reference_engine(controller, session, wrapper, pattern_count, chunks=50,
                     power=1.0):
    """The controller's logic-BIST chunk loop as an engine process runs it."""
    if not controller.enabled:
        raise RuntimeError(f"test controller {controller.name!r} is not enabled")
    if pattern_count <= 0:
        raise ValueError("pattern_count must be positive")
    clock = controller.tam.clock
    cycles_per_pattern = wrapper.shift_cycles_per_pattern(compressed=False)
    status = {"kind": "logic_bist", "core": wrapper.description.core_name,
              "patterns_total": pattern_count, "patterns_done": 0,
              "done": False}
    controller.sessions[session] = status
    start_time = controller.sim.now
    chunk_size = max(1, math.ceil(pattern_count / max(1, chunks)))
    applied = 0
    while applied < pattern_count:
        chunk = min(chunk_size, pattern_count - applied)
        yield Timeout(clock.cycles_fs(chunk * cycles_per_pattern))
        wrapper.apply_bist_patterns(chunk)
        applied += chunk
        status["patterns_done"] = applied
    status["done"] = True
    status["signature"] = wrapper.signature
    status["cycles"] = clock.cycles_between(start_time, controller.sim.now)
    controller.activity_log.record_fs(wrapper.description.core_name,
                                      "logic_bist", start_time.femtoseconds,
                                      controller.sim.now_fs, power)
    return status


def reference_run_logic_bist(ate, task):
    """The ATE's logic-BIST task: an engine process and a TAM poll loop."""
    architecture = ate.architecture
    wrapper = architecture.wrapper_for(task.core)
    clock = architecture.tam.clock
    yield from architecture.config_bus.configure(
        wrapper.wir_register.name,
        wrapper.wir.encode(WrapperMode.INTEST_BIST),
        initiator=ate.name,
    )
    start_payload = TamPayload.write(
        architecture.address_of(task.core), data_bits=32,
        data={"command": "start_bist", "patterns": task.pattern_count},
    )
    start_payload.initiator = ate.name
    yield from architecture.tam.write(start_payload)

    session = f"{task.name}@{task.core}"
    bist_process = ate.sim.spawn(
        reference_engine(architecture.controller, session, wrapper,
                         task.pattern_count, power=task.power),
        name=f"{ate.name}.{task.name}.bist",
    )
    total_cycles = task.pattern_count * wrapper.shift_cycles_per_pattern()
    poll_cycles = max(1, round(total_cycles * ate.status_poll_fraction))
    polls = 0
    controller_address = architecture.addresses.get(
        "test_controller", architecture.address_of(task.core)
    )
    while bist_process.alive:
        timer = ate.sim.event(f"{ate.name}.{task.name}.poll")
        timer.notify(clock.cycles_fs(poll_cycles))
        yield AnyOf([timer, bist_process.finished])
        if not bist_process.alive:
            break
        poll_payload = TamPayload.read(
            controller_address,
            response_bits=architecture.controller.status_poll_bits,
            session=session,
        )
        poll_payload.initiator = f"{ate.name}.{task.name}"
        yield from architecture.tam.read(poll_payload)
        polls += 1

    signature_payload = TamPayload.read(
        architecture.address_of(task.core), response_bits=64, session=session,
    )
    signature_payload.initiator = f"{ate.name}.{task.name}"
    yield from architecture.tam.read(signature_payload)
    return {
        "patterns_applied": task.pattern_count,
        "signature": wrapper.signature,
        "session": session,
        "status_polls": polls,
    }


def run_world(sessions, contenders, tam_width, overhead, poll_bits, tracing,
              reference, until_cycles=None, status_slave="controller"):
    """Run logic-BIST *sessions* and *contenders* on a fresh platform;
    every observable the two session forms must agree on.

    A session is ``(start cycle, patterns, chain length, poll fraction)``
    on its own core, ATE and task.  A ``"tick"`` contender touches nothing:
    it only wakes up and snapshots the observables; a ``"tam"`` one holds
    the TAM.  With *until_cycles* the run first stops there; the result is
    then the pair of observables at the stop and after a final ``run()``.
    *status_slave* is what answers the status reads: the ``"controller"``,
    a ``"recorder"`` (:class:`RecordingSlave`) mapped at the controller's
    address, each session's core ``"wrapper"`` (no controller address is
    mapped) or ``"none"`` (the controller address is unmapped).
    """
    sim = Simulator("bist")
    clock = Clock(sim, "clk", SimTime(10, NS))
    tracer = TransactionTracer(enabled=tracing)
    log = ActivityLog()
    tam = TamChannel(sim, "tam", width_bits=tam_width, clock=clock,
                     arbitration_overhead_cycles=overhead, tracer=tracer)
    ate_link = AteLink(sim, "ate_link", width_bits=8, clock=clock,
                       tracer=tracer)
    config_bus = ConfigurationScanBus(sim, "config_bus", clock=clock,
                                      tracer=tracer)
    controller = OnChipTestController(sim, "test_controller", tam=tam,
                                      activity_log=log,
                                      status_poll_bits=poll_bits)
    controller.enable()
    recorder = RecordingSlave(sim)
    if status_slave == "recorder":
        tam.bind_slave(controller, MOVED_CONTROLLER_ADDRESS, 0x100)
        tam.bind_slave(recorder, CONTROLLER_ADDRESS, 0x100)
    else:
        tam.bind_slave(controller, CONTROLLER_ADDRESS, 0x100)
    wrappers, tasks = {}, []
    addresses = {
        "controller": {"test_controller": CONTROLLER_ADDRESS},
        "recorder": {"test_controller": CONTROLLER_ADDRESS},
        "wrapper": {},
        "none": {"test_controller": UNMAPPED_ADDRESS},
    }[status_slave]
    for index, (_, patterns, chain_length, _) in enumerate(sessions):
        core = f"core{index}"
        description = CoreTestDescription.describe(
            core, chain_count=2, scan_cells=2 * chain_length,
            has_logic_bist=True)
        wrappers[core] = generate_wrapper(sim, description,
                                          config_bus=config_bus)
        addresses[core] = 0x1000 * (index + 1)
        tam.bind_slave(wrappers[core], addresses[core], 0x1000)
        tasks.append(TestTask(name=f"bist{index}", kind=TestKind.LOGIC_BIST,
                              core=core, pattern_count=patterns,
                              power=1.0 + index))
    architecture = TestArchitecture(
        tam=tam, ate_link=ate_link,
        ebi=ExternalBusInterface(sim, "ebi", ate_link=ate_link, tam=tam),
        config_bus=config_bus, controller=controller, wrappers=wrappers,
        addresses=addresses, activity_log=log)
    results = []

    def counters():
        return (tam.transaction_count, tam.busy_cycles_total,
                tam.bits_transferred, tam._mutex.acquisitions,
                tam._mutex.contentions, tam._mutex.locked)

    ates = [AutomatedTestEquipment(sim, f"ate{index}", architecture,
                                   status_poll_fraction=fraction)
            for index, (_, _, _, fraction) in enumerate(sessions)]

    def session_flow(index, start_cycles):
        ate = ates[index]
        yield Timeout(clock.cycles(start_cycles))
        task = tasks[index]
        if reference:
            details = yield from reference_run_logic_bist(ate, task)
        else:
            details = yield from ate._run_logic_bist(task)
        results.append((index, sim.now_fs, sim.dispatched_activations,
                        details))

    def contender(index, kind, start_cycles, hold_cycles, repeats, gap):
        yield Timeout(clock.cycles(start_cycles))
        for _ in range(repeats):
            if kind == "tick":
                yield Timeout(clock.cycles(hold_cycles))
                results.append((f"t{index}", sim.now_fs,
                                sim.dispatched_activations, len(tracer),
                                counters(), len(log.records)))
            else:
                yield from tam.occupy(f"c{index}", hold_cycles, kind="other",
                                      data_bits=hold_cycles)
                results.append((f"c{index}", sim.now_fs))
            yield Timeout(clock.cycles(gap))

    for index, (start_cycles, _, _, _) in enumerate(sessions):
        sim.spawn(session_flow(index, start_cycles))
    for index, spec in enumerate(contenders):
        sim.spawn(contender(index, *spec))

    def observables():
        return {
            "records": tracer.records,
            "results": list(results),
            "tam": counters(),
            "sessions": [(name, list(status.items()))
                         for name, status in controller.sessions.items()],
            "activity": log.records,
            "deliveries": list(recorder.reads),
            "wrappers": [(wrapper.signature, wrapper.patterns_applied,
                          wrapper.bist_patterns_applied,
                          wrapper.response_bits_produced)
                         for wrapper in wrappers.values()],
            "dispatched_activations": sim.dispatched_activations,
            "pending_activations": sim.pending_activations,
            "now_fs": sim.now_fs,
        }

    if until_cycles is None:
        sim.run()
        return observables()
    sim.run(until=clock.cycles(until_cycles))
    stop = observables()
    sim.run()
    return stop, observables()


def count_polled():
    """Patch context listing the sessions run as a ``_PolledSession``
    (``"<ate>.<task>"``)."""
    polled = []
    init = _PolledSession.__init__

    def recording_init(self, ate, task, *args):
        polled.append(f"{ate.name}.{task.name}")
        init(self, ate, task, *args)

    return polled, mock.patch.object(_PolledSession, "__init__",
                                     recording_init)


def record_credits():
    """Patch context listing ``(now_fs, count)`` per credit."""
    credits = []
    credit_activations = Simulator.credit_activations

    def recording_credit(self, count):
        credits.append((self.now_fs, count))
        credit_activations(self, count)

    return credits, mock.patch.object(Simulator, "credit_activations",
                                      recording_credit)


def assert_matches_reference(**world):
    polled, patch = count_polled()
    with patch:
        new = run_world(**world, reference=False)
    assert new == run_world(**world, reference=True)
    return new, polled


session_strategy = st.tuples(
    st.integers(0, 40),                                   # start cycle
    st.integers(1, 200),                                  # patterns
    st.integers(1, 12),                                   # chain length
    st.one_of(st.floats(0.01, 1.0), st.just(1.0)))        # poll fraction
contenders_strategy = st.lists(
    st.tuples(st.sampled_from(["tick", "tick", "tam"]),
              st.integers(0, 2000),                       # start cycle
              st.integers(0, 40),                         # hold cycles
              st.integers(1, 5),                          # repeats
              st.integers(0, 300)),                       # gap cycles
    max_size=3,
)
platform = dict(tam_width=st.sampled_from([8, 16, 32, 64]),
                overhead=st.integers(0, 2),
                poll_bits=st.sampled_from([0, 8, 32, 64]),
                tracing=st.booleans())


@settings(max_examples=120, deadline=None)
@given(session=session_strategy, **platform)
def test_lone_session_matches_reference(session, tam_width, overhead,
                                        poll_bits, tracing):
    _, polled = assert_matches_reference(
        sessions=[session], contenders=[], tam_width=tam_width,
        overhead=overhead, poll_bits=poll_bits, tracing=tracing)
    # Alone, a session is polled only for a status read that takes no
    # cycles, or for a poll timer or read end on the engine's end.
    _, patterns, chain_length, fraction = session
    session_cycles = patterns * (chain_length + 1)
    poll_cycles = max(1, round(session_cycles * fraction))
    read_cycles = overhead + -(-poll_bits // tam_width)
    fires = range(poll_cycles, session_cycles + 1, poll_cycles + read_cycles)
    leapt = read_cycles > 0 and not any(
        session_cycles in (fire, fire + read_cycles) for fire in fires)
    assert polled == ([] if leapt else ["ate0.bist0"])


@settings(max_examples=150, deadline=None)
@given(sessions=st.lists(session_strategy, min_size=1, max_size=3),
       contenders=contenders_strategy, **platform)
def test_contended_sessions_match_reference(sessions, contenders, tam_width,
                                            overhead, poll_bits, tracing):
    assert_matches_reference(sessions=sessions, contenders=contenders,
                             tam_width=tam_width, overhead=overhead,
                             poll_bits=poll_bits, tracing=tracing)


@pytest.mark.parametrize("tracing", [False, True])
@settings(max_examples=100, deadline=None)
@given(sessions=st.lists(session_strategy, min_size=1, max_size=2),
       contenders=st.one_of(st.just([]), contenders_strategy),
       tam_width=platform["tam_width"], overhead=platform["overhead"],
       until_cycles=st.integers(0, 3000))
def test_run_until_inside_a_session_matches_reference(tracing, sessions,
                                                      contenders, tam_width,
                                                      overhead, until_cycles):
    assert_matches_reference(sessions=sessions, contenders=contenders,
                             tam_width=tam_width, overhead=overhead,
                             poll_bits=32, tracing=tracing,
                             until_cycles=until_cycles)


# -- which sessions are leapt ---------------------------------------------------------
# Core chain length 9: 10 cycles per pattern.  TAM 32 bits wide with one
# arbitration cycle: a 32-bit status poll reads for 2 cycles.

def leapt_session_start(settings_):
    """The cycle a lone session's engine starts at (from its activity
    record)."""
    start = run_world(**settings_, reference=False)["activity"][0].start
    return start // SimTime(10, NS)


def world(sessions, contenders=(), **platform_overrides):
    settings_ = dict(sessions=sessions, contenders=list(contenders),
                     tam_width=32, overhead=1, poll_bits=32, tracing=True)
    settings_.update(platform_overrides)
    return settings_


def test_uncontended_session_is_leapt():
    """100 patterns of 10 cycles, a poll every 50: 19 polls, all leapt
    with the session."""
    new, polled = assert_matches_reference(**world([(3, 100, 9, 0.05)]))
    assert polled == []
    assert new["results"][-1][3]["status_polls"] == 19
    assert new["activity"][0].end - new["activity"][0].start == SimTime(
        1000 * 10, NS)


def test_read_in_flight_at_the_end_is_leapt():
    """A poll every 75 cycles reads for 2: the 13th read spans the engine's
    end, and the loop exits when it ends, one cycle after the session."""
    new, polled = assert_matches_reference(**world([(0, 100, 9, 0.075)]))
    assert polled == []
    assert new["results"][-1][3]["status_polls"] == 13


def test_timer_on_the_session_end_falls_back():
    """Poll fraction 1.0: the first timer fires exactly when the engine
    ends, so the session is polled."""
    new, polled = assert_matches_reference(**world([(0, 100, 9, 1.0)]))
    assert polled == ["ate0.bist0"]
    assert new["results"][-1][3]["status_polls"] == 0


def test_read_ending_on_the_session_end_falls_back():
    """A poll every 98 cycles reads for 2: it ends exactly at cycle 1000."""
    new, polled = assert_matches_reference(**world([(0, 100, 9, 0.098)]))
    assert polled == ["ate0.bist0"]
    assert new["results"][-1][3]["status_polls"] == 10


def test_pending_timer_outlives_the_session():
    """The poll timer pending when the engine ends still fires as an
    entry: a run stopped just after it sees the same activation count."""
    settings_ = world([(0, 100, 9, 0.3)])
    new, polled = assert_matches_reference(**settings_)
    assert polled == []
    assert new["results"][-1][3]["status_polls"] == 3
    # Timers at 300, 602 and 904 into the session; the fourth is pending
    # at 1208, after the session's end at 1000.
    start = leapt_session_start(settings_)
    for offset in (1000, 1001, 1207, 1208, 1209):
        assert_matches_reference(**settings_, until_cycles=start + offset)


def test_observer_inside_the_session_falls_back():
    """A wake-up anywhere before the poll loop's exit keeps the session
    polled."""
    new, polled = assert_matches_reference(
        **world([(0, 100, 9, 0.05)], contenders=[("tick", 0, 500, 1, 0)]))
    assert polled == ["ate0.bist0"]
    assert new["results"][0][1] == 500 * 10 * NS


@pytest.mark.parametrize("fraction, exit_offset", [(0.05, 1000),
                                                   (0.075, 1001)])
def test_observer_at_the_exit_falls_back(fraction, exit_offset):
    """A wake-up exactly when the poll loop exits (at the engine's end, or
    at the end of the read in flight then) must run before the loop's last
    entries; one cycle later it no longer keeps the session polled."""
    sessions = [(0, 100, 9, fraction)]
    exit_cycles = leapt_session_start(world(sessions)) + exit_offset
    _, polled = assert_matches_reference(
        **world(sessions, contenders=[("tick", 0, exit_cycles, 1, 0)]))
    assert polled == ["ate0.bist0"]
    _, polled = assert_matches_reference(
        **world(sessions, contenders=[("tick", 0, exit_cycles + 1, 1, 0)]))
    assert polled == []


def test_contending_tam_process_falls_back_then_leaps():
    """A TAM holder keeps the first session polled; the second session
    starts after it and is leapt."""
    new, polled = assert_matches_reference(
        **world([(0, 100, 9, 0.05), (2000, 50, 9, 0.05)],
                contenders=[("tam", 100, 30, 3, 50)]))
    assert polled == ["ate0.bist0"]
    assert new["tam"][4] > 0


def test_concurrent_sessions_fall_back():
    """Two sessions overlapping in time each see the other's entries."""
    _, polled = assert_matches_reference(
        **world([(0, 100, 9, 0.05), (10, 100, 9, 0.05)]))
    assert polled == ["ate0.bist0", "ate1.bist1"]


def test_zero_cycle_status_read_falls_back():
    """A status read that takes no cycles is never leapt, neither with its
    session nor on its own."""
    credits, patch = record_credits()
    with patch:
        new, polled = assert_matches_reference(
            **world([(0, 20, 9, 0.05)], overhead=0, poll_bits=0))
    assert polled == ["ate0.bist0"]
    assert new["results"][-1][3]["status_polls"] == 19
    assert credits == []


@pytest.mark.parametrize("fraction, polls, final", [(0.05, 19, 3),
                                                     (0.075, 13, 1)])
def test_credit_is_split_at_the_exit(fraction, polls, final):
    """100 patterns run in 50 chunks.  The entries before the exit are
    credited at the session's start, the rest at the exit, where the leap's
    own resumption stands for one: the last chunk, the engine's finished
    notification and the wake-up (no read in flight), or the read's end."""
    credits, patch = record_credits()
    settings_ = world([(0, 100, 9, fraction)])
    with patch:
        new, polled = assert_matches_reference(**settings_)
    assert polled == []
    start = new["activity"][0].start.femtoseconds
    exit_fs = new["activity"][0].end.femtoseconds + (final == 1) * 10 * NS
    credit = 50 + 2 + 3 * polls + (final == 3)
    assert credits == [(start, credit - final), (exit_fs, final - 1)]


def test_busy_tam_is_not_leapt():
    """With the TAM held, polls would contend: no closed form."""
    leaps = []
    leap = AutomatedTestEquipment._leap_logic_bist

    def leap_with_busy_tam(self, *args):
        mutex = self.architecture.tam._mutex
        assert mutex.try_acquire()
        try:
            leaps.append(leap(self, *args))
        finally:
            mutex.release()
            mutex.acquisitions -= 1  # the probe's hold is not the run's
        return leaps[-1]

    with mock.patch.object(AutomatedTestEquipment, "_leap_logic_bist",
                           leap_with_busy_tam):
        _, polled = assert_matches_reference(**world([(0, 100, 9, 0.05)]))
    assert leaps == [None]
    assert polled == ["ate0.bist0"]


# -- which poll reads of a polled session are leapt --------------------------------
# A polled session's timer leaps its read when the loop waits, the engine
# runs, the TAM is idle and nothing else is pending before the read ends.
# The session's own chunks end every 20 cycles, so a timer 1 or 2 cycles
# before a chunk's end is not leapt either.

def leapt_polls(credits, start):
    """The session cycles of the timers that leapt their read."""
    assert all(count == 2 for _, count in credits)
    return [now_fs // (10 * NS) - start for now_fs, _ in credits]


def test_poll_reads_are_leapt_between_foreign_entries():
    """An observer at cycle 500 keeps the session polled.  Every timer
    but those 1 or 2 cycles before a chunk's end leaps its read, the
    observer still sees the activation count of the reference."""
    sessions = [(0, 100, 9, 0.05)]
    start = leapt_session_start(world(sessions))
    credits, patch = record_credits()
    with patch:
        new, polled = assert_matches_reference(
            **world(sessions, contenders=[("tick", start + 500, 0, 1, 0)]))
    assert polled == ["ate0.bist0"]
    assert new["results"][-1][3]["status_polls"] == 19
    timers = [50 + 52 * k for k in range(19)]
    blocked = [t for t in timers if t % 20 in (18, 19) or 498 <= t < 500]
    assert blocked == [258, 518, 778]
    assert leapt_polls(credits, start) == [t for t in timers
                                           if t not in blocked]


@pytest.mark.parametrize("offset, leapt", [(52, False), (53, True)])
def test_read_ending_on_a_foreign_entry_is_not_leapt(offset, leapt):
    """The first read runs from cycle 50 to 52 of the session.  An observer
    waking exactly at 52 must run before the read's end, so that read is
    not leapt; an observer at 53 no longer stops it."""
    sessions = [(0, 100, 9, 0.05)]
    start = leapt_session_start(world(sessions))
    credits, patch = record_credits()
    with patch:
        _, polled = assert_matches_reference(
            **world(sessions, contenders=[("tick", start + offset, 0, 1, 0)]))
    assert polled == ["ate0.bist0"]
    assert (50 in leapt_polls(credits, start)) is leapt


def test_foreign_tam_holder_at_the_timer_is_not_leapt():
    """A TAM process holds the bus from cycle 40 to 55 of the session.  The
    timer at 50 sees nothing else pending before the read would end at 52,
    but the read has to wait for the bus: it is not leapt, and it reads
    from 55 to 57 after the hand-off."""
    sessions = [(0, 100, 9, 0.05)]
    start = leapt_session_start(world(sessions))
    credits, patch = record_credits()
    with patch:
        new, polled = assert_matches_reference(
            **world(sessions, contenders=[("tam", start + 40, 15, 1, 0)]))
    assert polled == ["ate0.bist0"]
    leapt = leapt_polls(credits, start)
    assert 50 not in leapt and 107 in leapt  # the next timer: 57 + 50
    assert new["tam"][4] == 1  # the poll's contention
    reads = [record for record in new["records"]
             if record.kind == "read" and record.address == CONTROLLER_ADDRESS]
    assert reads[0].start == SimTime((start + 55) * 10, NS)


def test_timer_on_the_last_chunk():
    """A poll every 165 cycles puts the sixth timer exactly on the engine's
    end at 1000: the session is polled, its reads leapt but the one at 499
    (a chunk ends at 500), and the last timer wakes the loop to exit."""
    sessions = [(0, 100, 9, 0.165)]
    start = leapt_session_start(world([(0, 100, 9, 0.05)]))
    credits, patch = record_credits()
    with patch:
        new, polled = assert_matches_reference(**world(sessions))
    assert polled == ["ate0.bist0"]
    assert new["results"][-1][3]["status_polls"] == 5
    assert leapt_polls(credits, start) == [165, 332, 666, 833]


@pytest.mark.parametrize("status_slave", ["wrapper", "recorder", "none"])
def test_status_slave_other_than_the_controller(status_slave):
    """Each poll is delivered to a status slave other than the controller
    (or, at an unmapped address, to none): every session runs polled, and
    no session and no read is leapt, contended or not."""
    credits, patch = record_credits()
    with patch:
        new, polled = assert_matches_reference(
            **world([(0, 100, 9, 0.05), (10, 60, 5, 0.1)],
                    contenders=[("tam", 100, 30, 3, 50)]),
            status_slave=status_slave)
        alone, alone_polled = assert_matches_reference(
            **world([(0, 100, 9, 0.05)]), status_slave=status_slave)
    assert polled == ["ate0.bist0", "ate1.bist1"]
    assert alone_polled == ["ate0.bist0"]
    assert credits == []
    polls = [result[3]["status_polls"] for result in new["results"]
             if isinstance(result[0], int)]
    assert min(polls) > 0
    if status_slave == "recorder":
        reads = new["deliveries"]
        assert len(reads) == sum(polls)
        assert {(initiator, attributes["session"], attributes["offset"])
                for *_, initiator, attributes in reads} == {
            ("ate0.bist0", "bist0@core0", 0), ("ate1.bist1", "bist1@core1", 0)}
        assert len(alone["deliveries"]) == 19
    else:
        assert new["deliveries"] == []


@settings(max_examples=60, deadline=None)
@given(sessions=st.lists(session_strategy, min_size=1, max_size=3),
       contenders=contenders_strategy,
       status_slave=st.sampled_from(["wrapper", "recorder", "none"]),
       **platform)
def test_foreign_status_slave_matches_reference(sessions, contenders,
                                                status_slave, tam_width,
                                                overhead, poll_bits, tracing):
    assert_matches_reference(sessions=sessions, contenders=contenders,
                             tam_width=tam_width, overhead=overhead,
                             poll_bits=poll_bits, tracing=tracing,
                             status_slave=status_slave)
