"""Unit tests for the EBI streaming model and the on-chip test controller."""

import pytest

from repro.kernel import SimTime
from repro.dft import (
    AteLink,
    Compactor,
    CoreTestDescription,
    Decompressor,
    ExternalBusInterface,
    ExternalTestTiming,
    TamChannel,
    TamPayload,
    generate_wrapper,
)
from repro.dft.controller import LogicBistEngine
from repro.dft.controller import TestController as OnChipTestController
from repro.dft.monitor import ActivityLog
from repro.dft.wrapper import WrapperMode
from repro.memory.march import MATS_PLUS
from repro.soc.cores import MemoryCore


@pytest.fixture
def platform(sim, clock, tracer):
    """A minimal TAM + ATE link + EBI + wrapped core platform."""
    tam = TamChannel(sim, "tam", width_bits=32, clock=clock, tracer=tracer)
    ate_link = AteLink(sim, "ate_link", width_bits=16, clock=clock, tracer=tracer)
    description = CoreTestDescription.describe(
        "core", chain_count=8, scan_cells=8 * 100, has_logic_bist=True,
        internal_chain_count=16,
    )
    wrapper = generate_wrapper(sim, description, tracer=tracer)
    tam.bind_slave(wrapper, 0x1000, 0x1000)
    ebi = ExternalBusInterface(sim, "ebi", ate_link=ate_link, tam=tam,
                               buffer_patterns=16)
    return {"tam": tam, "ate_link": ate_link, "wrapper": wrapper, "ebi": ebi,
            "description": description}


class TestExternalTestTiming:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ExternalTestTiming(ate_bits_per_pattern=-1,
                               ate_response_bits_per_pattern=0,
                               tam_bits_per_pattern=0,
                               shift_cycles_per_pattern=0)


class TestEbiStreaming:
    def stream(self, sim, platform, patterns, timing, **kwargs):
        holder = {}

        def flow():
            platform["wrapper"].set_mode(WrapperMode.INTEST_SCAN)
            platform["ebi"].enable()
            stats = yield from platform["ebi"].stream_patterns(
                initiator="test", address=0x1000, patterns=patterns,
                timing=timing, wrapper=platform["wrapper"], **kwargs,
            )
            holder["stats"] = stats

        sim.spawn(flow())
        sim.run()
        return holder["stats"]

    def test_requires_enabled_ebi(self, sim, platform):
        timing = ExternalTestTiming(800, 32, 800, 101)

        def flow():
            yield from platform["ebi"].stream_patterns(
                initiator="t", address=0x1000, patterns=4, timing=timing,
            )

        sim.spawn(flow())
        with pytest.raises(Exception):
            sim.run()

    def test_pattern_accounting(self, sim, platform):
        timing = ExternalTestTiming(800, 32, 800, 101)
        stats = self.stream(sim, platform, 50, timing)
        assert stats["patterns"] == 50
        assert stats["bursts"] == 4  # 16 + 16 + 16 + 2
        assert platform["wrapper"].patterns_applied == 50
        assert platform["ebi"].patterns_streamed == 50

    def test_period_governed_by_slowest_stage_shift(self, sim, platform, clock):
        # Shift (101 cycles/pattern) is slower than the ATE link (800/16=50)
        # and the TAM (800/32=25), so the total time tracks the shift stage.
        timing = ExternalTestTiming(800, 32, 800, 101)
        self.stream(sim, platform, 32, timing)
        cycles = clock.cycles_between(SimTime(0), sim.now)
        assert 32 * 101 <= cycles <= 32 * 101 + 64

    def test_period_governed_by_ate_link_when_uncompressed(self, sim, platform,
                                                            clock):
        # ATE link: 1600/16 = 100 cycles/pattern dominates shift (51) and TAM (50).
        timing = ExternalTestTiming(1600, 32, 1600, 51)
        self.stream(sim, platform, 32, timing)
        cycles = clock.cycles_between(SimTime(0), sim.now)
        assert 32 * 100 <= cycles <= 32 * 100 + 64

    def test_tam_utilization_reflects_tam_share(self, sim, platform, tracer, clock):
        timing = ExternalTestTiming(1600, 32, 1600, 51)
        self.stream(sim, platform, 32, timing)
        busy = tracer.total_busy_time("tam")
        total = sim.now - SimTime(0)
        utilization = busy.femtoseconds / total.femtoseconds
        assert 0.4 < utilization < 0.65

    def test_decompressor_path_applies_patterns_via_decompressor(self, sim, platform):
        wrapper = platform["wrapper"]
        decompressor = Decompressor(sim, "dec", compression_ratio=50.0,
                                    target_wrapper=wrapper,
                                    internal_chain_count=16)
        decompressor.activate()
        timing = ExternalTestTiming(16, 32, 16 + 800, 51)
        stats = self.stream(sim, platform, 20, timing, decompressor=decompressor)
        assert stats["patterns"] == 20
        assert decompressor.patterns_expanded == 20
        assert wrapper.patterns_applied == 20

    def test_compactor_collects_signature(self, sim, platform):
        compactor = Compactor(sim, "cmp", compaction_ratio=1000.0)
        compactor.activate()
        timing = ExternalTestTiming(800, 32, 800, 101)
        self.stream(sim, platform, 10, timing, compactor=compactor)
        assert compactor.response_bits_in == 10 * 800
        assert compactor.signature != 0

    @pytest.mark.parametrize("size", [0, -4])
    def test_burst_size_below_one_rejected(self, sim, platform, size):
        with pytest.raises(ValueError, match="buffer_patterns"):
            ExternalBusInterface(sim, "ebi2", ate_link=platform["ate_link"],
                                 tam=platform["tam"], buffer_patterns=size)
        timing = ExternalTestTiming(800, 32, 800, 101)
        with pytest.raises(RuntimeError, match="burst_patterns"):
            self.stream(sim, platform, 10, timing, burst_patterns=size)

    def test_invalid_pattern_count(self, sim, platform):
        timing = ExternalTestTiming(800, 32, 800, 101)
        # The error is raised inside the streaming process and surfaces as the
        # kernel's wrapped process-failure exception.
        with pytest.raises(RuntimeError, match="pattern count must be positive"):
            self.stream(sim, platform, 0, timing)


class TestTestController:
    def test_requires_enable(self, sim, clock):
        tam = TamChannel(sim, "tam", width_bits=32, clock=clock)
        controller = OnChipTestController(sim, "ctrl", tam=tam)
        description = CoreTestDescription.describe("core", chain_count=4,
                                                    scan_cells=64,
                                                    has_logic_bist=True)
        wrapper = generate_wrapper(sim, description)
        # The engine refuses in the constructing activation and schedules
        # nothing, so the process starting it fails, not the run.
        with pytest.raises(RuntimeError, match="'ctrl' is not enabled"):
            LogicBistEngine(controller, "s", wrapper, 100)
        assert sim.pending_activations == 0
        controller.enable()
        with pytest.raises(ValueError, match="pattern_count must be positive"):
            LogicBistEngine(controller, "s", wrapper, 0)
        assert sim.pending_activations == 0
        assert controller.sessions == {}

    def test_core_without_logic_bist_is_refused(self, sim, clock):
        tam = TamChannel(sim, "tam", width_bits=32, clock=clock)
        controller = OnChipTestController(sim, "ctrl", tam=tam)
        controller.enable()
        description = CoreTestDescription.describe("core", chain_count=4,
                                                    scan_cells=64,
                                                    has_logic_bist=False)
        wrapper = generate_wrapper(sim, description)
        with pytest.raises(ValueError,
                           match="core 'core' has no logic BIST"):
            LogicBistEngine(controller, "s", wrapper, 100)
        assert sim.pending_activations == 0
        assert controller.sessions == {}

    def test_logic_bist_duration_and_accounting(self, sim, clock):
        tam = TamChannel(sim, "tam", width_bits=32, clock=clock)
        log = ActivityLog()
        controller = OnChipTestController(sim, "ctrl", tam=tam, activity_log=log)
        controller.enable()
        description = CoreTestDescription.describe("core", chain_count=4,
                                                    scan_cells=4 * 50,
                                                    has_logic_bist=True)
        wrapper = generate_wrapper(sim, description)
        engine = LogicBistEngine(controller, "bist", wrapper, 1000, power=2.0)
        assert engine.running
        sim.run()
        assert not engine.running
        status = engine.status
        assert status is controller.sessions["bist"]
        assert status["done"]
        assert status["patterns_done"] == 1000
        assert wrapper.bist_patterns_applied == 1000
        # 1000 patterns x (50 + 1) cycles.
        assert status["cycles"] == 1000 * 51
        assert sim.now == clock.cycles(1000 * 51)
        assert len(log.records) == 1
        assert log.records[0].power == 2.0

    def test_status_visible_via_tam_access(self, sim, clock):
        tam = TamChannel(sim, "tam", width_bits=32, clock=clock)
        controller = OnChipTestController(sim, "ctrl", tam=tam)
        controller.enable()
        description = CoreTestDescription.describe("core", chain_count=2,
                                                    scan_cells=8,
                                                    has_logic_bist=True)
        wrapper = generate_wrapper(sim, description)
        LogicBistEngine(controller, "session_a", wrapper, 10)
        sim.run()
        payload = TamPayload.read(0, response_bits=32, session="session_a")
        controller.tam_access(payload)
        assert payload.response_data["done"]
        all_payload = TamPayload.read(0, response_bits=32)
        controller.tam_access(all_payload)
        assert "session_a" in all_payload.response_data

    def test_memory_bist_operations_and_tam_usage(self, sim, clock, tracer):
        tam = TamChannel(sim, "tam", width_bits=32, clock=clock, tracer=tracer)
        controller = OnChipTestController(sim, "ctrl", tam=tam)
        controller.enable()
        memory_core = MemoryCore(sim, "mem", words=4096, word_bits=8)
        holder = {}

        def flow():
            status = yield from controller.run_memory_bist(
                "mbist", memory_core, MATS_PLUS, pattern_backgrounds=2,
                validation_stride=17,
            )
            holder["status"] = status

        sim.spawn(flow())
        sim.run()
        status = holder["status"]
        expected_operations = 5 * 4096 + 2 * 2 * 4096
        assert status["operations_done"] == expected_operations
        assert status["done"]
        assert status["failures"] == 0
        # The march runs at about one operation per cycle over the TAM.
        assert status["cycles"] == pytest.approx(expected_operations * 1.15, rel=0.05)
        busy = tracer.total_busy_time("tam")
        assert busy.femtoseconds > 0

    def test_memory_bist_detects_injected_fault(self, sim, clock):
        from repro.memory import StuckAtCellFault

        tam = TamChannel(sim, "tam", width_bits=32, clock=clock)
        controller = OnChipTestController(sim, "ctrl", tam=tam)
        controller.enable()
        memory_core = MemoryCore(sim, "mem", words=1024, word_bits=8)
        memory_core.array.inject_fault(StuckAtCellFault(address=0, bit=0, value=1))
        holder = {}

        def flow():
            status = yield from controller.run_memory_bist(
                "mbist", memory_core, MATS_PLUS, validation_stride=1,
            )
            holder["status"] = status

        sim.spawn(flow())
        sim.run()
        assert holder["status"]["failures"] > 0

    def test_invalid_busy_fraction(self, sim, clock):
        tam = TamChannel(sim, "tam", width_bits=32, clock=clock)
        controller = OnChipTestController(sim, "ctrl", tam=tam)
        controller.enable()
        memory_core = MemoryCore(sim, "mem", words=64)

        def flow():
            yield from controller.run_memory_bist("m", memory_core, MATS_PLUS,
                                                  busy_fraction=1.5)

        sim.spawn(flow())
        with pytest.raises(Exception):
            sim.run()
