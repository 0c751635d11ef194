"""Automated test equipment (ATE) model and virtual test programs.

The ATE configures the test infrastructure, initiates individual tests,
supplies test stimuli, evaluates test responses and executes the overall test
flow (paper, Section III-E).  During exploration the ATE is modeled by its
functional behaviour; for validation, the same model executes a *test
program* — an explicit instruction list — which is the virtual-ATE use case
the paper refers to.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from repro.kernel.channel import Channel
from repro.kernel.event import AllOf, Event, Timeout
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime
from repro.kernel.simulator import Simulator
from repro.schedule.model import TestKind, TestSchedule, TestTask
from repro.dft.compression import Compactor, Decompressor
from repro.dft.config_bus import ConfigurationScanBus
from repro.dft.controller import LogicBistEngine, TestController
from repro.dft.ebi import ExternalBusInterface, ExternalTestTiming
from repro.dft.monitor import ActivityLog
from repro.dft.payload import TamPayload
from repro.dft.tam import AteLink, TamChannel
from repro.dft.wrapper import TestWrapper, WrapperMode


@dataclass
class TestArchitecture:
    """Handles to every test infrastructure block the ATE interacts with."""

    __test__ = False  # a model class, not a pytest test class

    tam: TamChannel
    ate_link: AteLink
    ebi: ExternalBusInterface
    config_bus: ConfigurationScanBus
    controller: TestController
    wrappers: Dict[str, TestWrapper] = field(default_factory=dict)
    decompressors: Dict[str, Decompressor] = field(default_factory=dict)
    compactors: Dict[str, Compactor] = field(default_factory=dict)
    memory_cores: Dict[str, object] = field(default_factory=dict)
    processor_cores: Dict[str, object] = field(default_factory=dict)
    #: TAM base address of each wrapped core / infrastructure block.
    addresses: Dict[str, int] = field(default_factory=dict)
    activity_log: ActivityLog = field(default_factory=ActivityLog)

    def wrapper_for(self, core: str) -> TestWrapper:
        try:
            return self.wrappers[core]
        except KeyError:
            raise KeyError(f"no test wrapper registered for core {core!r}")

    def address_of(self, core: str) -> int:
        return self.addresses.get(core, 0)


class StepKind(enum.Enum):
    """Instruction kinds of the virtual ATE test program."""

    CONFIGURE = "configure"
    RUN_TASK = "run_task"
    BARRIER = "barrier"
    WAIT_CYCLES = "wait_cycles"
    READ_STATUS = "read_status"


@dataclass
class TestProgramStep:
    """One instruction of a virtual ATE test program."""

    __test__ = False  # a model class, not a pytest test class

    kind: StepKind
    task: Optional[str] = None
    target: Optional[str] = None
    value: int = 0
    cycles: int = 0
    comment: str = ""


@dataclass
class TestProgram:
    """A virtual ATE test program (ordered list of instructions)."""

    __test__ = False  # a model class, not a pytest test class

    name: str
    steps: List[TestProgramStep] = field(default_factory=list)

    @classmethod
    def from_schedule(cls, schedule: TestSchedule,
                      tasks: Mapping[str, TestTask]) -> "TestProgram":
        """Compile a test schedule into an explicit test program.

        Every phase becomes a group of ``RUN_TASK`` instructions terminated by
        a ``BARRIER`` — the ATE starts the phase's tests concurrently and
        waits for all of them before moving on, which is exactly the schedule
        semantics assumed by the coarse scheduler.
        """
        schedule.validate(dict(tasks))
        steps: List[TestProgramStep] = []
        for phase_index, phase in enumerate(schedule.phases):
            for task_name in phase:
                steps.append(TestProgramStep(
                    kind=StepKind.RUN_TASK, task=task_name,
                    comment=f"phase {phase_index}",
                ))
            steps.append(TestProgramStep(
                kind=StepKind.BARRIER, comment=f"end of phase {phase_index}",
            ))
        return cls(name=f"{schedule.name}_program", steps=steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class TaskExecutionResult:
    """Simulation outcome of a single test task."""

    task_name: str
    core: str
    kind: TestKind
    start: SimTime
    end: SimTime
    cycles: int
    patterns_applied: int = 0
    signature: Optional[int] = None
    signature_ok: Optional[bool] = None
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> SimTime:
        return self.end - self.start


@dataclass
class ScheduleExecutionResult:
    """Simulation outcome of a complete schedule / test program."""

    name: str
    start: SimTime
    end: SimTime
    cycles: int
    task_results: Dict[str, TaskExecutionResult] = field(default_factory=dict)

    @property
    def duration(self) -> SimTime:
        return self.end - self.start

    @property
    def all_signatures_ok(self) -> bool:
        return all(result.signature_ok is not False
                   for result in self.task_results.values())


class AutomatedTestEquipment(Channel):
    """The ATE: executes test programs against the SoC's test architecture."""

    def __init__(self, parent: Union[Simulator, Module], name: str,
                 architecture: TestArchitecture,
                 status_poll_fraction: float = 0.05,
                 burst_patterns: int = 64,
                 vector_memory_words: int = 0,
                 reload_cycles: int = 25_000):
        super().__init__(parent, name)
        if not 0.0 < status_poll_fraction <= 1.0:
            raise ValueError("status_poll_fraction must be in (0, 1]")
        if burst_patterns < 1:
            raise ValueError(
                f"burst_patterns must be at least 1, got {burst_patterns}")
        if vector_memory_words < 0:
            raise ValueError("vector_memory_words cannot be negative")
        if reload_cycles < 0:
            raise ValueError("reload_cycles cannot be negative")
        self.architecture = architecture
        self.status_poll_fraction = status_poll_fraction
        self.burst_patterns = burst_patterns
        #: Stimulus vector memory behind the ATE link, in link words (one
        #: word = one ATE-link cycle).  0 models an unlimited buffer; a
        #: finite memory forces a workstation reload every time a test's
        #: stimuli exhaust it, stalling the stream for :attr:`reload_cycles`.
        self.vector_memory_words = vector_memory_words
        self.reload_cycles = reload_cycles
        self.rewind()

    def rewind(self) -> None:
        """Zero the execution statistics (the just-built state)."""
        self.vector_memory_reloads = 0
        self.programs_executed = 0

    # -- program execution ------------------------------------------------------------
    def execute_schedule(self, schedule: TestSchedule,
                         tasks: Mapping[str, TestTask]):
        """Execute *schedule* (blocking; ``yield from``); returns the result."""
        program = TestProgram.from_schedule(schedule, tasks)
        result = yield from self.run_program(program, tasks,
                                             result_name=schedule.name)
        return result

    def run_program(self, program: TestProgram, tasks: Mapping[str, TestTask],
                    result_name: Optional[str] = None):
        """Execute a virtual ATE test program (blocking; ``yield from``)."""
        architecture = self.architecture
        clock = architecture.tam.clock
        start_time = self.sim.now
        result = ScheduleExecutionResult(
            name=result_name or program.name, start=start_time, end=start_time,
            cycles=0,
        )
        outstanding = []

        # Bring up the infrastructure: the test controller is enabled once at
        # the start of the test program via the configuration scan bus.
        yield from architecture.config_bus.configure(
            architecture.controller.config_register.name, 1, initiator=self.name,
        )

        for step in program.steps:
            if step.kind is StepKind.RUN_TASK:
                task = tasks[step.task]
                process = self.sim.spawn(
                    self._execute_task(task, result),
                    name=f"{self.name}.{task.name}",
                )
                outstanding.append(process)
            elif step.kind is StepKind.BARRIER:
                if outstanding:
                    pending = [p.finished for p in outstanding if p.alive]
                    if pending:
                        yield AllOf(pending)
                    outstanding = []
            elif step.kind is StepKind.CONFIGURE:
                yield from architecture.config_bus.configure(
                    step.target, step.value, initiator=self.name,
                )
            elif step.kind is StepKind.WAIT_CYCLES:
                yield Timeout(clock.cycles_fs(step.cycles))
            elif step.kind is StepKind.READ_STATUS:
                payload = TamPayload.read(
                    architecture.addresses.get("test_controller", 0),
                    response_bits=architecture.controller.status_poll_bits,
                    session=step.target,
                )
                payload.initiator = self.name
                yield from architecture.tam.read(payload)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unsupported program step: {step.kind!r}")

        if outstanding:
            pending = [p.finished for p in outstanding if p.alive]
            if pending:
                yield AllOf(pending)

        end_time = self.sim.now
        result.end = end_time
        result.cycles = clock.cycles_between(start_time, end_time)
        self.programs_executed += 1
        return result

    # -- per-task execution -----------------------------------------------------------
    def _execute_task(self, task: TestTask, result: ScheduleExecutionResult):
        dispatch = {
            TestKind.LOGIC_BIST: self._run_logic_bist,
            TestKind.EXTERNAL_SCAN: self._run_external_scan,
            TestKind.EXTERNAL_SCAN_COMPRESSED: self._run_external_scan,
            TestKind.MEMORY_BIST_CONTROLLER: self._run_memory_bist,
            TestKind.MEMORY_MARCH_PROCESSOR: self._run_memory_march,
        }
        try:
            handler = dispatch[task.kind]
        except KeyError:
            raise ValueError(f"the ATE cannot execute test kind {task.kind!r}")
        start = self.sim.now
        details = yield from handler(task)
        end = self.sim.now
        clock = self.architecture.tam.clock
        task_result = TaskExecutionResult(
            task_name=task.name, core=task.core, kind=task.kind,
            start=start, end=end, cycles=clock.cycles_between(start, end),
            patterns_applied=int(details.pop("patterns_applied", 0)),
            signature=details.pop("signature", None),
            details=details,
        )
        expected = task.attributes.get("expected_signature")
        if expected is not None and task_result.signature is not None:
            task_result.signature_ok = (task_result.signature == expected)
        result.task_results[task.name] = task_result
        return task_result

    # -- logic BIST (tests 1 and 4) ---------------------------------------------------------
    def _run_logic_bist(self, task: TestTask):
        architecture = self.architecture
        wrapper = architecture.wrapper_for(task.core)
        yield from architecture.config_bus.configure(
            wrapper.wir_register.name,
            wrapper.wir.encode(WrapperMode.INTEST_BIST),
            initiator=self.name,
        )
        start_payload = TamPayload.write(
            architecture.address_of(task.core), data_bits=32,
            data={"command": "start_bist", "patterns": task.pattern_count},
        )
        start_payload.initiator = self.name
        yield from architecture.tam.write(start_payload)

        session = f"{task.name}@{task.core}"
        total_cycles = task.pattern_count * wrapper.shift_cycles_per_pattern()
        poll_cycles = max(1, round(total_cycles * self.status_poll_fraction))
        controller = architecture.controller
        controller_address = architecture.addresses.get(
            "test_controller", architecture.address_of(task.core)
        )
        slave, offset = architecture.tam.decode(controller_address)
        probe = TamPayload.read(controller_address,
                                response_bits=controller.status_poll_bits,
                                session=session)
        leap = None
        if slave is controller:
            leap = self._leap_logic_bist(task, wrapper, session, poll_cycles,
                                         probe)
        if leap is None:
            polls = yield _PolledSession(self, task, wrapper, session,
                                         poll_cycles, probe, slave,
                                         offset).done
        else:
            polls, exit_fs, credit, final = leap
            # The entries before the exit are folded with this timestamp,
            # the rest with the exit's, where this Timeout's resumption
            # stands for one of them.
            sim = self.sim
            sim.credit_activations(credit - final)
            yield Timeout(exit_fs - sim.now_fs)
            sim.credit_activations(final - 1)

        signature_payload = TamPayload.read(
            architecture.address_of(task.core), response_bits=64, session=session,
        )
        signature_payload.initiator = f"{self.name}.{task.name}"
        yield from architecture.tam.read(signature_payload)
        return {
            "patterns_applied": task.pattern_count,
            "signature": wrapper.signature,
            "session": session,
            "status_polls": polls,
        }

    def _leap_logic_bist(self, task: TestTask, wrapper: TestWrapper,
                         session: str, poll_cycles: int,
                         probe: TamPayload) -> Optional[tuple]:
        """Apply the session and its status polls in closed form, if
        nothing else can act before its poll loop would exit.

        That loop exits when the engine ends (at ``end_fs``) or, with a poll
        read in flight then, when that read ends.  With the TAM idle and
        :meth:`Simulator.lookahead_fs` at or beyond the exit, the session
        record and patterns, and every poll (accounted through
        ``TamChannel._account`` as :meth:`TamChannel.occupy` accounts it),
        are applied at once; a poll timer still pending at the exit is
        pushed as the real entry it is.  A timer firing or a read ending
        exactly at ``end_fs`` would interleave with the engine's last
        entries, so such a session, like a contended one, is not leapt.
        *probe* is a status read of the controller, which the caller has
        decoded at its address.

        Returns ``None`` or ``(polls, exit_fs, credit, final)``: the
        entries leapt, ``final`` of them at the exit.
        """
        architecture = self.architecture
        tam = architecture.tam
        controller = architecture.controller
        sim = self.sim
        pattern_count = task.pattern_count
        if not (tam._mutex.idle and controller.enabled and pattern_count > 0
                and wrapper.description.has_logic_bist):
            return None
        _, chunk_count, cycles_per_pattern = controller.logic_bist_chunks(
            wrapper, pattern_count)
        horizon_fs = sim.lookahead_fs()
        start_fs = sim.now_fs
        cycles_fs = tam.clock.cycles_fs
        end_fs = start_fs + cycles_fs(pattern_count * cycles_per_pattern)
        if end_fs == start_fs or horizon_fs < end_fs:
            return None
        read_cycles = tam.transaction_cycles(probe)
        if not read_cycles:
            return None
        read_fs = cycles_fs(read_cycles)
        poll_fs = cycles_fs(poll_cycles)
        fires = []
        timer_fs = start_fs + poll_fs
        while timer_fs < end_fs:
            fires.append(timer_fs)
            read_end_fs = timer_fs + read_fs
            if read_end_fs >= end_fs:
                if read_end_fs == end_fs:
                    return None
                exit_fs, timer_fs = read_end_fs, None
                break
            timer_fs = read_end_fs + poll_fs
        else:
            if timer_fs == end_fs:
                return None
            exit_fs = end_fs
        if exit_fs > horizon_fs:
            return None

        controller.leap_logic_bist(session, wrapper, pattern_count, start_fs,
                                   end_fs, task.power)
        tam._mutex.acquisitions += len(fires)
        initiator = f"{self.name}.{task.name}"
        kind, bits = probe.command.value, probe.total_bits
        for fire_fs in fires:
            tam._account(fire_fs, fire_fs + read_fs, read_cycles, initiator,
                         kind, probe.address, bits, probe.attributes)
        # The engine's spawn, chunks and finished notification; per poll
        # its timer, the wake-up and the read's end.  With no read in
        # flight the loop exits on the wake-up by the engine's end, next to
        # its last chunk and finished notification.
        credit = chunk_count + 2 + 3 * len(fires)
        if timer_fs is None:
            return len(fires), exit_fs, credit, 1
        sim.event(f"{self.name}.{task.name}.poll").notify(
            timer_fs - start_fs)
        return len(fires), exit_fs, credit + 1, 3

    # -- external scan tests (tests 2, 3 and 5) -----------------------------------------------
    def _run_external_scan(self, task: TestTask):
        architecture = self.architecture
        wrapper = architecture.wrapper_for(task.core)
        compressed = task.kind is TestKind.EXTERNAL_SCAN_COMPRESSED
        decompressor = architecture.decompressors.get(task.core) if compressed else None
        compactor = architecture.compactors.get(task.core)

        mode = WrapperMode.INTEST_COMPRESSED if compressed else WrapperMode.INTEST_SCAN
        yield from architecture.config_bus.configure(
            wrapper.wir_register.name, wrapper.wir.encode(mode),
            initiator=self.name,
        )
        if decompressor is not None:
            yield from architecture.config_bus.configure(
                decompressor.config_register.name, Decompressor.MODE_ACTIVE,
                initiator=self.name,
            )
        if compactor is not None:
            yield from architecture.config_bus.configure(
                compactor.config_register.name, Compactor.MODE_ACTIVE,
                initiator=self.name,
            )
        yield from architecture.config_bus.configure(
            architecture.ebi.config_register.name, 1, initiator=self.name,
        )

        stimulus_bits = wrapper.stimulus_bits_per_pattern()
        response_bits = wrapper.response_bits_per_pattern()
        if compressed:
            ratio = task.compression_ratio
            ate_bits = max(1, math.ceil(stimulus_bits / ratio))
            tam_bits = ate_bits + stimulus_bits
            shift = wrapper.external_shift_cycles_per_pattern(compressed=True)
        else:
            ate_bits = stimulus_bits
            tam_bits = stimulus_bits
            shift = wrapper.external_shift_cycles_per_pattern(compressed=False)
        if compactor is not None:
            ate_response_bits = compactor.misr.width
        else:
            ate_response_bits = response_bits

        timing = ExternalTestTiming(
            ate_bits_per_pattern=ate_bits,
            ate_response_bits_per_pattern=ate_response_bits,
            tam_bits_per_pattern=tam_bits,
            shift_cycles_per_pattern=shift,
        )
        # A finite ATE vector memory holds only so many stimulus words; the
        # stream stalls for a workstation reload whenever a test's stimuli
        # exhaust the buffer.  0 = unlimited (classic behaviour).
        capacity_patterns = task.pattern_count
        if self.vector_memory_words:
            link = architecture.ate_link
            words_per_pattern = max(1, link.transfer_cycles(ate_bits))
            capacity_patterns = max(
                1, self.vector_memory_words // words_per_pattern)
        clock = architecture.tam.clock
        stats = None
        remaining = task.pattern_count
        reloads = 0
        while remaining > 0:
            chunk = min(remaining, capacity_patterns)
            if stats is not None:
                # Not the first chunk: the vector memory must be refilled
                # before streaming resumes.
                yield Timeout(clock.cycles_fs(self.reload_cycles))
                reloads += 1
                self.vector_memory_reloads += 1
            chunk_start_fs = self.sim.now_fs
            chunk_stats = yield from architecture.ebi.stream_patterns(
                initiator=f"{self.name}.{task.name}",
                address=architecture.address_of(task.core),
                patterns=chunk,
                timing=timing,
                wrapper=wrapper,
                decompressor=decompressor,
                compactor=compactor,
                burst_patterns=self.burst_patterns,
            )
            # One activity interval per streamed chunk (cold path; record_fs
            # handles the disabled case itself): the core draws test power
            # only while patterns actually stream — a reload stall leaves it
            # idle, so stalls must not inflate the power metrics.
            architecture.activity_log.record_fs(
                task.core, task.kind.value, chunk_start_fs, self.sim.now_fs,
                task.power)
            if stats is None:
                stats = chunk_stats
            else:
                for key, value in chunk_stats.items():
                    stats[key] += value
            remaining -= chunk
        stats["vector_memory_reloads"] = reloads
        return {
            "patterns_applied": stats["patterns"],
            "signature": compactor.signature if compactor is not None else wrapper.signature,
            "stream_stats": stats,
        }

    # -- controller-driven memory BIST (test 6) ------------------------------------------------
    def _run_memory_bist(self, task: TestTask):
        architecture = self.architecture
        memory_core = architecture.memory_cores[task.core]
        yield from architecture.config_bus.configure(
            architecture.controller.config_register.name, 1, initiator=self.name,
        )
        session = f"{task.name}@{task.core}"
        status = yield from architecture.controller.run_memory_bist(
            session, memory_core, task.march,
            pattern_backgrounds=task.pattern_backgrounds,
            power=task.power,
        )
        return {
            "patterns_applied": 0,
            "operations": status["operations_done"],
            "failures": status["failures"],
            "march_passed": status["failures"] == 0,
        }

    # -- processor-driven memory march (test 7) --------------------------------------------------
    def _run_memory_march(self, task: TestTask):
        architecture = self.architecture
        processor_name = task.attributes.get("processor_core", "processor")
        processor = architecture.processor_cores[processor_name]
        memory_core = architecture.memory_cores[task.core]
        command = TamPayload.write(
            architecture.address_of(processor_name), data_bits=64,
            data={"command": "run_memory_march", "target": task.core},
        )
        command.initiator = self.name
        yield from architecture.tam.write(command)
        start_fs = self.sim.now_fs
        status = yield from processor.run_memory_march(
            memory_core, task.march,
            pattern_backgrounds=task.pattern_backgrounds,
        )
        architecture.activity_log.record_fs(
            task.core, task.kind.value, start_fs, self.sim.now_fs, task.power)
        return {
            "patterns_applied": 0,
            "operations": status["operations"],
            "failures": status["failures"],
            "march_passed": status["failures"] == 0,
        }


class _PolledSession(LogicBistEngine):
    """A logic-BIST session and the ATE task's status polls as scheduled
    callbacks.

    The session runs on the engine's chunk chain (:class:`LogicBistEngine`)
    while the task polls its status over the TAM until the engine ends,
    with no engine process and no event, ``AnyOf``, payload or generator
    per poll.  It pushes one entry wherever an engine process with a poll
    loop around it pushes one, in the same order:

    * the engine's spawn, chunks and ``finished`` notification are the
      engine's start, chunk and :meth:`_ended` entries;
    * a poll timer is :meth:`_timer`, and the ``AnyOf`` wake-up by the
      timer or by the engine's end is :meth:`_wake` at delay 0;
    * the read takes the TAM through :meth:`Mutex.acquire_then`: at once
      when it is free, after its two hand-off entries when contended;
    * the read's ``Timeout`` is :meth:`_read_end`, which releases and
      accounts the TAM with the arguments :meth:`TamChannel.occupy`
      passes and then delivers the read as :meth:`TamChannel.transport`
      does.

    A timer outlived by the engine's end stays a real entry that does
    nothing.  The loop exits in the wake-up or read-end activation, which
    stands for the task process's resumption: :attr:`done` resumes the
    process in place, so the exit adds no entry.

    The controller answers every poll with a copy of the status record
    nobody keeps, and a read of an address no slave decodes has no effect,
    so neither is delivered.  With the controller as the status slave, a
    timer that fires while the loop waits, the engine runs, the TAM is
    idle and :meth:`Simulator.lookahead_fs` reaches the read's end leaps
    the read: nothing else can act before it ends, so its acquisition,
    accounting and poll count are applied at once, the wake-up and the
    read's end are credited as dispatched, and the next timer is pushed
    ``read + poll`` ahead, as the read's end would push it.  A read that
    takes no cycles is never leapt.
    """

    __slots__ = ("tam", "probe", "slave", "offset", "leaps", "poll_fs",
                 "read_cycles", "read_fs", "record", "polls", "waiting",
                 "read_start_fs", "done")

    def __init__(self, ate: AutomatedTestEquipment, task: TestTask,
                 wrapper: TestWrapper, session: str, poll_cycles: int,
                 probe: TamPayload, slave, offset: Optional[int]):
        architecture = ate.architecture
        controller = architecture.controller
        super().__init__(controller, session, wrapper, task.pattern_count,
                         task.power)
        tam = self.tam = architecture.tam
        self.probe = probe
        #: The slave each poll is delivered to at *offset*, or ``None``.
        self.slave = None if slave is controller else slave
        self.offset = offset
        self.poll_fs = tam.clock.cycles_fs(poll_cycles)
        self.read_cycles = tam.transaction_cycles(probe)
        self.read_fs = tam.clock.cycles_fs(self.read_cycles)
        self.leaps = slave is controller and self.read_cycles > 0
        #: The poll reads' ``TamChannel._account`` arguments after the
        #: start, end and cycles.
        self.record = (f"{ate.name}.{task.name}", probe.command.value,
                       probe.address, probe.total_bits, probe.attributes)
        self.polls = 0
        self.waiting = True
        #: Resumes the task process with the poll count at the loop's exit.
        self.done = Event(self.sim, f"{ate.name}.{task.name}.polled")
        self.sim._push(self.poll_fs, self._timer)

    def _timer(self) -> None:
        if not self.waiting:
            return  # outlived by the engine's end
        sim = self.sim
        mutex = self.tam._mutex
        now_fs = sim.now_fs
        read_fs = self.read_fs
        if (self.leaps and self.running and mutex.idle
                and sim.lookahead_fs() >= now_fs + read_fs):
            mutex.acquisitions += 1
            self.tam._account(now_fs, now_fs + read_fs, self.read_cycles,
                              *self.record)
            self.polls += 1
            sim.credit_activations(2)
            sim._push(read_fs + self.poll_fs, self._timer)
            return
        self.waiting = False
        sim._push(0, self._wake)

    def _ended(self) -> None:
        if self.waiting:
            self.waiting = False
            self.sim._push(0, self._wake)

    def _wake(self) -> None:
        if self.running:
            self.tam._mutex.acquire_then(self._read)
        else:
            self.done._resume_waiters(self.polls)

    def _read(self) -> None:
        self.read_start_fs = self.sim.now_fs
        if self.read_cycles:
            self.sim._push(self.read_fs, self._read_end)
        else:
            self._read_end()

    def _read_end(self) -> None:
        tam = self.tam
        tam._mutex.release()
        tam._account(self.read_start_fs, self.sim.now_fs, self.read_cycles,
                     *self.record)
        if self.slave is not None:
            probe = self.probe
            payload = TamPayload.read(probe.address, probe.response_bits,
                                      **probe.attributes)
            payload.initiator = self.record[0]
            payload.attributes["offset"] = self.offset
            self.slave.tam_access(payload)
        self.polls += 1
        if self.running:
            self.waiting = True
            self.sim._push(self.poll_fs, self._timer)
        else:
            self.done._resume_waiters(self.polls)
