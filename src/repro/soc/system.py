"""The complete SoC TLMs including test infrastructure (Figure 4).

:class:`JpegSocTlm` assembles the functional cores, the system bus reused as
TAM, and the full test infrastructure (test wrappers, decompressor/compactor,
EBI, test controller, configuration scan bus, ATE).  The same model instance
supports both mission-mode simulation (JPEG encoding) and test-mode simulation
(executing a complete test schedule), which is the central claim of the paper.

:class:`GeneratedSocTlm` assembles the same test infrastructure around an
arbitrary set of (typically synthetic) cores described by
:class:`~repro.dft.ctl.CoreTestDescription` objects.  It is the vehicle for
design-space exploration campaigns beyond the paper's single case study:
scenario generators (:mod:`repro.explore.scenarios`) produce core sets and
schedules, and every scenario becomes one ``GeneratedSocTlm`` instance.
Both models share the test-mode harness in :class:`SocTlmBase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.kernel.clock import Clock
from repro.kernel.simtime import NS, SimTime
from repro.kernel.simulator import Simulator
from repro.kernel.tracing import TransactionTracer
from repro.dft.ate import (
    AutomatedTestEquipment,
    ScheduleExecutionResult,
    TestArchitecture,
)
from repro.dft.compression import Compactor, Decompressor
from repro.dft.config_bus import ConfigurationScanBus
from repro.dft.controller import TestController
from repro.dft.ctl import CoreTestDescription, generate_wrapper
from repro.dft.ebi import ExternalBusInterface
from repro.dft.monitor import ActivityLog, PowerMonitor, TamUtilizationMonitor
from repro.dft.tam import AteLink
from repro.schedule.model import TestSchedule, TestTask
from repro.soc.bus import SystemBus
from repro.soc.cores import ColorConversionCore, DctCore, MemoryCore, ProcessorCore
from repro.soc.jpeg.encoder import EncodedImage
from repro.soc.testplan import (
    ADDRESS_MAP,
    ADDRESS_WINDOW,
    COLOR_CONVERSION,
    DCT,
    MEMORY,
    MEMORY_WORD_BITS,
    MEMORY_WORDS,
    PROCESSOR,
    build_core_descriptions,
    build_test_schedules,
    build_test_tasks,
)


@dataclass
class SocConfiguration:
    """Tunable parameters of the SoC and its test infrastructure."""

    tam_width_bits: int = 32
    ate_width_bits: int = 16
    clock_period: SimTime = field(default_factory=lambda: SimTime(10, NS))
    memory_words: int = MEMORY_WORDS
    memory_word_bits: int = MEMORY_WORD_BITS
    compression_ratio: float = 50.0
    burst_patterns: int = 64
    peak_window_cycles: int = 1_000_000
    status_poll_fraction: float = 0.05
    jpeg_quality: int = 75
    with_validation_netlists: bool = False
    #: Width of every wrapper's parallel port (WPI/WPO) towards the TAM in
    #: bits.  0 keeps the historical maximum-parallelism assumption (one lane
    #: per scan chain); a narrower port serializes lanes and stretches the
    #: external-scan shift time.
    wrapper_parallel_width_bits: int = 0
    #: Width of the wrapper serial port / configuration scan ring in bits
    #: (how many ring bits shift per cycle).  1 is the classic single-bit
    #: WSI/WSO ring.
    wrapper_serial_width_bits: int = 1
    #: ATE stimulus vector memory in ATE-link words.  0 models an unlimited
    #: buffer; a finite memory stalls external tests for
    #: :attr:`ate_reload_cycles` whenever their stimuli exhaust it.
    ate_vector_memory_words: int = 0
    #: Stall cycles per workstation reload of the ATE vector memory.
    ate_reload_cycles: int = 25_000
    #: Exploration fast path: ``False`` builds the transaction tracer and
    #: activity log disabled, so every channel append reduces to one flag
    #: check and no trace data is retained.  Simulated behaviour (test
    #: length, activations) is untouched; the trace-derived metrics (TAM
    #: utilization, power profile) read as zero.  Campaign workers opt in
    #: via a ``("tracing_enabled", False)`` scenario config override when
    #: the search objectives do not need the trace-derived columns.
    tracing_enabled: bool = True


@dataclass
class TestRunMetrics:
    """The Table-I row produced by simulating one test schedule."""

    __test__ = False  # a model class, not a pytest test class

    schedule_name: str
    test_length_cycles: int
    peak_tam_utilization: float
    avg_tam_utilization: float
    peak_power: float
    avg_power: float
    cpu_seconds: float = 0.0
    simulated_activations: int = 0
    execution: Optional[ScheduleExecutionResult] = None
    #: False when a ``horizon_cycles`` run was abandoned at the horizon; the
    #: metric fields then hold partial lower bounds (``execution`` is None).
    completed: bool = True

    @property
    def test_length_mcycles(self) -> float:
        return self.test_length_cycles / 1e6

    def as_row(self) -> Dict[str, object]:
        return {
            "scenario": self.schedule_name,
            "peak_tam_utilization": self.peak_tam_utilization,
            "avg_tam_utilization": self.avg_tam_utilization,
            "test_length_mcycles": self.test_length_mcycles,
            "cpu_seconds": self.cpu_seconds,
        }


class SocTlmBase:
    """Shared simulation harness of the SoC TLMs.

    Subclasses assemble a platform (bus/TAM, wrappers, ATE, ...) on top of the
    kernel objects created by :meth:`_init_platform` and provide the default
    task and schedule registries; the test-mode execution flow and the
    monitors are identical for every SoC model.
    """

    def _init_platform(self, name: str, config: SocConfiguration) -> None:
        self.config = config
        self.sim = Simulator(name)
        self.clock = Clock(self.sim, "clk", config.clock_period)
        self.tracer = TransactionTracer(enabled=config.tracing_enabled)
        self.activity_log = ActivityLog(enabled=config.tracing_enabled)

    def _init_monitors(self) -> None:
        self.tam_monitor = TamUtilizationMonitor(self.tracer, self.bus.name,
                                                 self.clock)
        self.power_monitor = PowerMonitor(self.activity_log)

    # -- lifetime -----------------------------------------------------------------
    def rewind(self) -> None:
        """Return the SoC to the state its constructor left, at time 0.

        The simulator is rewound (it raises unless idle, so a run stopped
        at a horizon cannot be rewound), the tracer and activity log are
        emptied, and every component gets back its just-built register and
        WIR values, MISR and EBI state and statistics counters.  A rewound
        SoC is indistinguishable from a freshly built one, so a campaign
        builds one SoC per scenario and rewinds it between that scenario's
        rows instead of building it again.
        """
        self.sim.rewind()
        self.tracer.clear()
        self.activity_log.clear()
        for component in self._components():
            component.rewind()

    def _components(self) -> list:
        """Every stateful block of the platform, each exactly once."""
        architecture = self.architecture
        return [
            architecture.tam, architecture.ate_link, architecture.ebi,
            architecture.config_bus, architecture.controller, self.ate,
            *architecture.wrappers.values(),
            *architecture.decompressors.values(),
            *dict.fromkeys(architecture.compactors.values()),
            *architecture.memory_cores.values(),
            *architecture.processor_cores.values(),
        ]

    # -- task/schedule registries (overridden by subclasses) --------------------
    def _default_tasks(self) -> Mapping[str, TestTask]:
        raise NotImplementedError

    def _resolve_schedule(self, name: str) -> TestSchedule:
        raise NotImplementedError

    # -- test mode ----------------------------------------------------------------
    def run_test_schedule(self, schedule: Union[str, TestSchedule],
                          tasks: Optional[Mapping[str, TestTask]] = None,
                          horizon_cycles: Optional[int] = None) -> TestRunMetrics:
        """Simulate the execution of a complete test schedule.

        Returns the :class:`TestRunMetrics` corresponding to one row of the
        paper's Table I (CPU time is filled in by the experiment runner).

        ``horizon_cycles`` bounds the simulated makespan (the racing hook of
        the adaptive search): when the schedule has not finished within the
        horizon the run is abandoned and the metrics come back with
        ``completed=False``, every field a *lower bound* of the full run —
        the test length is at least the horizon, and monitors only ever grow.
        A schedule that finishes inside the horizon drains its trailing
        events and produces metrics identical to an unbounded run.
        """
        if tasks is None:
            tasks = self._default_tasks()
        if isinstance(schedule, str):
            schedule = self._resolve_schedule(schedule)
        schedule.validate(dict(tasks))

        start = self.sim.now
        activations_before = self.sim.dispatched_activations
        holder = {}

        def test_flow():
            result = yield from self.ate.execute_schedule(schedule, tasks)
            holder["result"] = result

        self.sim.spawn(test_flow(), name=f"ate_{schedule.name}")
        if horizon_cycles is None:
            self.sim.run()
        else:
            self.sim.run(until=start + self.clock.cycles(horizon_cycles))
            if "result" in holder:
                # Finished inside the horizon: drain the trailing events so
                # the metrics match the unbounded path exactly.
                self.sim.run()
        end = self.sim.now
        completed = "result" in holder
        execution: Optional[ScheduleExecutionResult] = holder.get("result")

        peak = self.tam_monitor.peak_utilization(
            window_cycles=self.config.peak_window_cycles, start=start, end=end,
        )
        average = self.tam_monitor.average_utilization(start=start, end=end)
        return TestRunMetrics(
            schedule_name=schedule.name,
            test_length_cycles=(execution.cycles if completed
                                else self.clock.cycles_between(start, end)),
            peak_tam_utilization=peak,
            avg_tam_utilization=average,
            peak_power=self.power_monitor.peak_power(),
            avg_power=self.power_monitor.average_power(),
            simulated_activations=(self.sim.dispatched_activations
                                   - activations_before),
            execution=execution,
            completed=completed,
        )

    # -- convenience ------------------------------------------------------------
    def wrapper(self, core_name: str):
        return self.wrappers[core_name]


class JpegSocTlm(SocTlmBase):
    """Approximately-timed TLM of the bus-based JPEG encoder SoC."""

    def __init__(self, config: Optional[SocConfiguration] = None):
        config = config or SocConfiguration()
        self._init_platform("jpeg_soc", config)

        # -- functional platform -------------------------------------------------
        self.bus = SystemBus(self.sim, "system_bus",
                             width_bits=config.tam_width_bits, clock=self.clock,
                             tracer=self.tracer)
        self.memory = MemoryCore(self.sim, MEMORY, words=config.memory_words,
                                 word_bits=config.memory_word_bits,
                                 base_address=ADDRESS_MAP[MEMORY])
        self.processor = ProcessorCore(self.sim, PROCESSOR, bus=self.bus)
        self.color_conversion = ColorConversionCore(self.sim, COLOR_CONVERSION)
        self.dct = DctCore(self.sim, DCT, quality=config.jpeg_quality)

        # -- test infrastructure (gray blocks of Figure 4) ------------------------------
        self.descriptions = build_core_descriptions(
            with_validation_netlists=config.with_validation_netlists
        )
        self.config_bus = ConfigurationScanBus(
            self.sim, "config_scan_bus", clock=self.clock, tracer=self.tracer,
            serial_width_bits=config.wrapper_serial_width_bits)
        self.ate_link = AteLink(self.sim, "ate_link",
                                width_bits=config.ate_width_bits,
                                clock=self.clock, tracer=self.tracer)

        cores = {
            PROCESSOR: self.processor,
            COLOR_CONVERSION: self.color_conversion,
            DCT: self.dct,
            MEMORY: self.memory,
        }
        self.wrappers = {}
        for core_name, core in cores.items():
            wrapper = generate_wrapper(
                self.sim, self.descriptions[core_name], core=core,
                config_bus=self.config_bus, tracer=self.tracer,
                parallel_width_bits=config.wrapper_parallel_width_bits,
            )
            self.wrappers[core_name] = wrapper
            self.bus.bind_slave(wrapper, ADDRESS_MAP[core_name], ADDRESS_WINDOW)

        self.decompressor = Decompressor(
            self.sim, "decompressor",
            compression_ratio=config.compression_ratio,
            target_wrapper=self.wrappers[PROCESSOR],
            internal_chain_count=self.descriptions[PROCESSOR].internal_chain_count,
        )
        self.compactor = Compactor(self.sim, "compactor", compaction_ratio=1000.0)
        self.config_bus.register(self.decompressor.config_register)
        self.config_bus.register(self.compactor.config_register)
        self.bus.bind_slave(self.decompressor, ADDRESS_MAP["decompressor"],
                            ADDRESS_WINDOW)
        self.bus.bind_slave(self.compactor, ADDRESS_MAP["compactor"],
                            ADDRESS_WINDOW)

        self.controller = TestController(self.sim, "test_controller",
                                         tam=self.bus,
                                         activity_log=self.activity_log)
        self.config_bus.register(self.controller.config_register)
        self.bus.bind_slave(self.controller, ADDRESS_MAP["test_controller"],
                            ADDRESS_WINDOW)

        self.ebi = ExternalBusInterface(self.sim, "ebi", ate_link=self.ate_link,
                                        tam=self.bus,
                                        buffer_patterns=config.burst_patterns)
        self.config_bus.register(self.ebi.config_register)

        self.architecture = TestArchitecture(
            tam=self.bus, ate_link=self.ate_link, ebi=self.ebi,
            config_bus=self.config_bus, controller=self.controller,
            wrappers=dict(self.wrappers),
            decompressors={PROCESSOR: self.decompressor},
            compactors={PROCESSOR: self.compactor, DCT: self.compactor,
                        COLOR_CONVERSION: self.compactor},
            memory_cores={MEMORY: self.memory},
            processor_cores={PROCESSOR: self.processor},
            addresses=dict(ADDRESS_MAP),
            activity_log=self.activity_log,
        )
        self.ate = AutomatedTestEquipment(
            self.sim, "ate", architecture=self.architecture,
            status_poll_fraction=config.status_poll_fraction,
            burst_patterns=config.burst_patterns,
            vector_memory_words=config.ate_vector_memory_words,
            reload_cycles=config.ate_reload_cycles,
        )

        self._init_monitors()

    def _components(self) -> list:
        # The mission-mode accelerators sit outside the test architecture.
        return super()._components() + [self.color_conversion, self.dct]

    # -- task/schedule registries ---------------------------------------------------
    def _default_tasks(self) -> Mapping[str, TestTask]:
        return build_test_tasks()

    def _resolve_schedule(self, name: str) -> TestSchedule:
        return build_test_schedules()[name]

    # -- mission mode ------------------------------------------------------------------------
    def run_functional_encode(self, image: np.ndarray,
                              quality: Optional[int] = None):
        """Encode *image* through the SoC (TLM simulation of mission mode).

        Returns ``(encoded_image, cycles)`` where *encoded_image* is the
        :class:`EncodedImage` produced by the processor and *cycles* the
        number of simulated clock cycles the encoding took.
        """
        quality = quality if quality is not None else self.config.jpeg_quality
        self.dct.set_quality(quality)
        start = self.sim.now
        holder = {}

        def mission():
            encoded = yield from self.processor.encode_image(
                image,
                memory_address=ADDRESS_MAP[MEMORY],
                colorconv_address=ADDRESS_MAP[COLOR_CONVERSION],
                dct_address=ADDRESS_MAP[DCT],
                quality=quality,
            )
            holder["encoded"] = encoded

        self.sim.spawn(mission(), name="mission_encode")
        self.sim.run()
        cycles = self.clock.cycles_between(start, self.sim.now)
        encoded: EncodedImage = holder["encoded"]
        return encoded, cycles

    def __repr__(self):
        return f"JpegSocTlm(clock={self.clock.period}, tam_width={self.bus.width_bits})"


class GeneratedSocTlm(SocTlmBase):
    """Test-infrastructure TLM generated around an arbitrary set of cores.

    The model wires the same gray blocks of Figure 4 — bus/TAM, configuration
    scan bus, ATE link, EBI, test controller, per-core wrappers, decompressors
    and a shared compactor — around cores that exist only as
    :class:`~repro.dft.ctl.CoreTestDescription` objects (plus optional
    embedded memories).  That is exactly the paper's generation claim turned
    into a scenario engine: a campaign can instantiate hundreds of SoC
    variants without any hand-written model code.

    *descriptions* maps core names to their CTL descriptions; cores whose
    description carries an ``internal_chain_count`` get a dedicated
    decompressor driven at ``config.compression_ratio``.  *memory_words* maps
    additional embedded-memory core names to their word counts; those cores
    are testable with :class:`~repro.schedule.model.TestKind.MEMORY_BIST_CONTROLLER`
    tasks.  *tasks* and *schedules* seed the default registries used when
    :meth:`run_test_schedule` is called with names instead of objects.
    """

    #: Address window reserved for every TAM slave.
    ADDRESS_WINDOW = 0x0100_0000
    #: Base address of the first allocated slave window.
    ADDRESS_BASE = 0x1000_0000

    def __init__(self, config: Optional[SocConfiguration] = None,
                 descriptions: Optional[Mapping[str, CoreTestDescription]] = None,
                 memory_words: Optional[Mapping[str, int]] = None,
                 tasks: Optional[Mapping[str, TestTask]] = None,
                 schedules: Optional[Mapping[str, TestSchedule]] = None,
                 name: str = "generated_soc"):
        config = config or SocConfiguration()
        self._init_platform(name, config)
        self.descriptions = dict(descriptions or {})
        self.tasks = dict(tasks or {})
        self.schedules = dict(schedules or {})
        memory_words = dict(memory_words or {})

        self.bus = SystemBus(self.sim, "system_bus",
                             width_bits=config.tam_width_bits, clock=self.clock,
                             tracer=self.tracer)
        self.config_bus = ConfigurationScanBus(
            self.sim, "config_scan_bus", clock=self.clock, tracer=self.tracer,
            serial_width_bits=config.wrapper_serial_width_bits)
        self.ate_link = AteLink(self.sim, "ate_link",
                                width_bits=config.ate_width_bits,
                                clock=self.clock, tracer=self.tracer)

        addresses: Dict[str, int] = {}
        next_address = self.ADDRESS_BASE

        def allocate(slave_name: str, slave=None) -> int:
            nonlocal next_address
            address = next_address
            addresses[slave_name] = address
            if slave is not None:
                self.bus.bind_slave(slave, address, self.ADDRESS_WINDOW)
            next_address += self.ADDRESS_WINDOW
            return address

        self.wrappers = {}
        for core_name, description in self.descriptions.items():
            wrapper = generate_wrapper(
                self.sim, description, core=None,
                config_bus=self.config_bus, tracer=self.tracer,
                parallel_width_bits=config.wrapper_parallel_width_bits)
            self.wrappers[core_name] = wrapper
            allocate(core_name, wrapper)

        self.decompressors = {}
        for core_name, description in self.descriptions.items():
            if not description.internal_chain_count:
                continue
            decompressor = Decompressor(
                self.sim, f"{core_name}_decompressor",
                compression_ratio=config.compression_ratio,
                target_wrapper=self.wrappers[core_name],
                internal_chain_count=description.internal_chain_count,
            )
            self.config_bus.register(decompressor.config_register)
            allocate(decompressor.name, decompressor)
            self.decompressors[core_name] = decompressor

        self.compactor = Compactor(self.sim, "compactor",
                                   compaction_ratio=1000.0)
        self.config_bus.register(self.compactor.config_register)
        allocate("compactor", self.compactor)

        self.memory_cores = {}
        for core_name, words in memory_words.items():
            if core_name not in addresses:
                allocate(core_name)
            memory = MemoryCore(self.sim, core_name, words=int(words),
                                word_bits=config.memory_word_bits,
                                base_address=addresses[core_name])
            self.memory_cores[core_name] = memory

        self.controller = TestController(self.sim, "test_controller",
                                         tam=self.bus,
                                         activity_log=self.activity_log)
        self.config_bus.register(self.controller.config_register)
        allocate("test_controller", self.controller)

        self.ebi = ExternalBusInterface(self.sim, "ebi", ate_link=self.ate_link,
                                        tam=self.bus,
                                        buffer_patterns=config.burst_patterns)
        self.config_bus.register(self.ebi.config_register)

        self.architecture = TestArchitecture(
            tam=self.bus, ate_link=self.ate_link, ebi=self.ebi,
            config_bus=self.config_bus, controller=self.controller,
            wrappers=dict(self.wrappers),
            decompressors=dict(self.decompressors),
            compactors={core: self.compactor for core in self.wrappers},
            memory_cores=dict(self.memory_cores),
            processor_cores={},
            addresses=addresses,
            activity_log=self.activity_log,
        )
        self.ate = AutomatedTestEquipment(
            self.sim, "ate", architecture=self.architecture,
            status_poll_fraction=config.status_poll_fraction,
            burst_patterns=config.burst_patterns,
            vector_memory_words=config.ate_vector_memory_words,
            reload_cycles=config.ate_reload_cycles,
        )
        self._init_monitors()

    # -- task/schedule registries ---------------------------------------------------
    def _default_tasks(self) -> Mapping[str, TestTask]:
        if not self.tasks:
            raise ValueError(f"{self.sim.name}: no tasks registered")
        return dict(self.tasks)

    def _resolve_schedule(self, name: str) -> TestSchedule:
        return self.schedules[name]

    def __repr__(self):
        return (f"GeneratedSocTlm({self.sim.name!r}, cores={len(self.wrappers)}, "
                f"tam_width={self.bus.width_bits})")
