"""Unit tests for the configuration scan bus, CTL descriptions and wrappers."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel import NS, SimTime, Simulator
from repro.dft import (
    ConfigurationScanBus,
    ConfigurableRegister,
    CoreTestDescription,
    TamCommand,
    TamPayload,
    TamResponse,
    WrapperMode,
    generate_wrapper,
)
from repro.dft.tam import TamSlaveInterface
from repro.rtl.lfsr import MISR


class TestConfigurableRegister:
    def test_update_masks_and_notifies(self):
        seen = []
        register = ConfigurableRegister("r", width_bits=4, on_update=seen.append)
        register.update(0x1F)
        assert register.value == 0xF
        assert seen == [0xF]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            ConfigurableRegister("r", width_bits=0)


class TestConfigurationScanBus:
    def test_ring_length_is_sum_of_widths(self, sim, clock):
        bus = ConfigurationScanBus(sim, "cfg", clock=clock)
        bus.register(ConfigurableRegister("a", 8))
        bus.register(ConfigurableRegister("b", 4))
        assert bus.ring_length_bits == 12
        assert bus.configuration_cycles() == 12 + bus.protocol_overhead_cycles

    def test_duplicate_register_rejected(self, sim, clock):
        bus = ConfigurationScanBus(sim, "cfg", clock=clock)
        bus.register(ConfigurableRegister("a", 8))
        with pytest.raises(ValueError):
            bus.register(ConfigurableRegister("a", 8))

    def test_configure_sets_value_and_takes_ring_time(self, sim, clock, tracer):
        bus = ConfigurationScanBus(sim, "cfg", clock=clock,
                                   protocol_overhead_cycles=4, tracer=tracer)
        register = ConfigurableRegister("wir", 8)
        bus.register(register)

        def ate():
            yield from bus.configure("wir", 0x2A, initiator="ate")

        sim.spawn(ate())
        end = sim.run()
        assert register.value == 0x2A
        assert end == SimTime((8 + 4) * 10, NS)
        assert tracer.records[0].kind == "configure"

    def test_configure_unknown_target_raises(self, sim, clock):
        bus = ConfigurationScanBus(sim, "cfg", clock=clock)

        def ate():
            yield from bus.configure("missing", 1)

        sim.spawn(ate())
        with pytest.raises(Exception):
            sim.run()

    def test_configure_many_single_shift(self, sim, clock):
        bus = ConfigurationScanBus(sim, "cfg", clock=clock)
        first = ConfigurableRegister("a", 8)
        second = ConfigurableRegister("b", 8)
        bus.register(first)
        bus.register(second)

        def ate():
            yield from bus.configure_many({"a": 1, "b": 2})

        sim.spawn(ate())
        sim.run()
        assert (first.value, second.value) == (1, 2)
        assert bus.configuration_count == 1


class TestCoreTestDescription:
    def test_describe_volumes(self):
        description = CoreTestDescription.describe("cpu", chain_count=32,
                                                    scan_cells=32 * 1450)
        assert description.scan_cells == 46_400
        assert description.chain_count == 32
        assert description.stimulus_bits_per_pattern() == 46_400
        assert description.response_bits_per_pattern() == 46_400

    def test_shift_cycles_uncompressed(self):
        description = CoreTestDescription.describe("cpu", chain_count=32,
                                                    scan_cells=32 * 1450)
        assert description.shift_cycles_per_pattern() == 1451

    def test_shift_cycles_compressed_uses_internal_chains(self):
        description = CoreTestDescription.describe(
            "cpu", chain_count=32, scan_cells=32 * 1450, internal_chain_count=64,
        )
        assert description.shift_cycles_per_pattern(compressed=True) == 726
        # Without internal chains the compressed view falls back to the
        # external chain length.
        plain = CoreTestDescription.describe("cpu", chain_count=32,
                                             scan_cells=32 * 1450)
        assert plain.shift_cycles_per_pattern(compressed=True) == 1451

    def test_bist_cycles_requires_bist(self):
        description = CoreTestDescription.describe("dct", chain_count=8,
                                                    scan_cells=8 * 1300)
        with pytest.raises(ValueError):
            description.bist_cycles(10)
        bist = CoreTestDescription.describe("cpu", chain_count=4, scan_cells=16,
                                            has_logic_bist=True)
        assert bist.bist_cycles(10) == 10 * (4 + 1)

    def test_attach_synthetic_validation(self):
        description = CoreTestDescription.describe("cpu", chain_count=8,
                                                    scan_cells=800)
        description.attach_synthetic_validation(flip_flops=64, gates=320, seed=2,
                                                chain_count=4)
        assert description.validation_netlist is not None
        assert description.validation_netlist.flip_flop_count == 64
        assert description.validation_scan_config.chain_count == 4
        assert description.notes


class TestWrapperParallelPort:
    def make_wrapper(self, sim, parallel_width_bits, chain_lengths=(25, 25, 25, 25)):
        from repro.rtl.scan import ScanConfiguration

        description = CoreTestDescription(
            core_name="demo",
            scan_config=ScanConfiguration(core_name="demo",
                                          chain_lengths=chain_lengths),
        )
        return generate_wrapper(sim, description,
                                parallel_width_bits=parallel_width_bits)

    def test_unconstrained_port_matches_description(self, sim):
        wrapper = self.make_wrapper(sim, parallel_width_bits=0)
        assert wrapper.scan_lanes == 4
        assert (wrapper.external_shift_cycles_per_pattern()
                == wrapper.description.shift_cycles_per_pattern() == 26)

    def test_narrow_port_serializes_whole_chains(self, sim):
        wrapper = self.make_wrapper(sim, parallel_width_bits=2)
        assert wrapper.scan_lanes == 2
        # Two whole 25-cell chains per lane: 2*25 + 1 capture.
        assert wrapper.external_shift_cycles_per_pattern() == 51

    def test_lanes_concatenate_whole_chains_not_fractions(self, sim):
        # 4 chains on 3 lanes still puts two whole chains on one lane, so a
        # 3-bit port is exactly as slow as a 2-bit port — ceil(100/3)+1 = 35
        # (fractional chain splitting) would be non-physical.
        three = self.make_wrapper(sim, parallel_width_bits=3)
        two = self.make_wrapper(sim, parallel_width_bits=2)
        assert (three.external_shift_cycles_per_pattern()
                == two.external_shift_cycles_per_pattern() == 51)

    def test_narrow_port_never_beats_unbalanced_chains(self, sim):
        # Longest chain 40: the unconstrained shift is 41 cycles; any
        # narrower port must be at least as slow.
        wrapper = self.make_wrapper(sim, parallel_width_bits=3,
                                    chain_lengths=(40, 20, 20, 20))
        assert (wrapper.external_shift_cycles_per_pattern()
                >= 41 == self.make_wrapper(
                    sim, parallel_width_bits=0,
                    chain_lengths=(40, 20, 20, 20),
                ).external_shift_cycles_per_pattern())

    def test_estimator_shares_the_lane_model(self, sim):
        from repro.schedule.estimator import PlatformParameters, TestTimeEstimator

        wrapper = self.make_wrapper(sim, parallel_width_bits=3)
        estimator = TestTimeEstimator(
            {"demo": wrapper.description},
            PlatformParameters(wrapper_parallel_width_bits=3),
        )
        assert (estimator._external_shift_cycles(wrapper.description)
                == wrapper.external_shift_cycles_per_pattern())

    def test_compressed_shift_ignores_the_port(self, sim):
        description = CoreTestDescription.describe(
            "demo", chain_count=4, scan_cells=100, internal_chain_count=16)
        wrapper = generate_wrapper(sim, description, parallel_width_bits=1)
        assert (wrapper.external_shift_cycles_per_pattern(compressed=True)
                == description.shift_cycles_per_pattern(compressed=True))

    def test_compressed_without_decompressor_sees_the_port(self, sim):
        # No internal chains -> no decompressor: a compressed task shifts
        # like plain external scan, so the lane constraint applies and the
        # estimator agrees with the TLM.
        from repro.schedule.estimator import PlatformParameters, TestTimeEstimator
        from repro.schedule.model import TestKind, TestTask

        wrapper = self.make_wrapper(sim, parallel_width_bits=2)
        assert (wrapper.external_shift_cycles_per_pattern(compressed=True)
                == wrapper.external_shift_cycles_per_pattern(compressed=False))
        estimator = TestTimeEstimator(
            {"demo": wrapper.description},
            PlatformParameters(wrapper_parallel_width_bits=2),
        )
        task = TestTask(name="t", kind=TestKind.EXTERNAL_SCAN_COMPRESSED,
                        core="demo", pattern_count=8, compression_ratio=10.0)
        # The per-pattern bound is the lane-constrained shift (51 cycles).
        assert estimator.estimate_task_cycles(task) >= 8 * 51

    def test_negative_width_rejected(self, sim):
        with pytest.raises(ValueError):
            self.make_wrapper(sim, parallel_width_bits=-1)


class TestTestWrapper:
    @pytest.fixture
    def wrapper(self, sim):
        description = CoreTestDescription.describe(
            "demo", chain_count=8, scan_cells=8 * 100, has_logic_bist=True,
            internal_chain_count=16,
        )
        return generate_wrapper(sim, description)

    def test_generate_wrapper_registers_on_config_bus(self, sim, clock):
        description = CoreTestDescription.describe("demo", chain_count=4,
                                                    scan_cells=64)
        config_bus = ConfigurationScanBus(sim, "cfg", clock=clock)
        wrapper = generate_wrapper(sim, description, config_bus=config_bus)
        assert wrapper.wir_register in config_bus.registers

    def test_wrapper_is_tam_slave(self, wrapper):
        assert TamSlaveInterface.is_implemented_by(wrapper)

    def test_default_mode_is_functional(self, wrapper):
        assert wrapper.mode is WrapperMode.FUNCTIONAL

    def test_wir_update_switches_mode(self, wrapper):
        wrapper.wir_register.update(WrapperMode.INTEST_SCAN.value)
        assert wrapper.mode is WrapperMode.INTEST_SCAN
        assert wrapper.mode.is_test_mode

    def test_wir_decode_of_invalid_value_falls_back_to_functional(self, wrapper):
        wrapper.wir_register.update(0x7F)
        assert wrapper.mode is WrapperMode.FUNCTIONAL

    def test_functional_mode_forwards_to_core(self, sim):
        class FakeCore:
            def __init__(self):
                self.payloads = []

            def functional_access(self, payload):
                self.payloads.append(payload)
                return payload.complete(TamResponse.OK)

        core = FakeCore()
        description = CoreTestDescription.describe("demo", chain_count=2,
                                                    scan_cells=16)
        wrapper = generate_wrapper(sim, description, core=core)
        payload = TamPayload.write(0, data_bits=8)
        wrapper.tam_access(payload)
        assert core.payloads == [payload]
        assert wrapper.functional_accesses == 1

    def test_test_mode_accounts_patterns_and_signature(self, wrapper):
        wrapper.set_mode(WrapperMode.INTEST_SCAN)
        payload = TamPayload.write_read(0, data_bits=800, patterns=1)
        wrapper.tam_access(payload)
        assert wrapper.patterns_applied == 1
        assert wrapper.external_patterns_applied == 1
        assert wrapper.stimulus_bits_received == 800
        assert payload.response_data == wrapper.signature
        assert payload.status is TamResponse.OK

    def test_bist_mode_reports_status_on_read(self, wrapper):
        wrapper.set_mode(WrapperMode.INTEST_BIST)
        wrapper.apply_bist_patterns(100)
        payload = TamPayload.read(0, response_bits=64)
        wrapper.tam_access(payload)
        assert payload.response_data["patterns_applied"] == 100

    def test_apply_bist_requires_bist_capable_core(self, sim):
        description = CoreTestDescription.describe("dct", chain_count=2,
                                                    scan_cells=16)
        wrapper = generate_wrapper(sim, description)
        with pytest.raises(ValueError):
            wrapper.apply_bist_patterns(5)

    @given(bursts=st.lists(st.tuples(st.booleans(), st.integers(0, 300)),
                           max_size=12))
    def test_signature_matches_per_word_misr_loop(self, bursts):
        # Reference: one MISR.compact per pattern, folding the running
        # external/BIST pattern number, in application order.
        description = CoreTestDescription.describe(
            "demo", chain_count=2, scan_cells=16, has_logic_bist=True)
        wrapper = generate_wrapper(Simulator("misr"), description)
        reference = MISR(wrapper.misr.width, seed=0)
        applied = {True: 0, False: 0}
        for bist, count in bursts:
            if bist:
                wrapper.apply_bist_patterns(count)
            else:
                wrapper.apply_external_patterns(count)
            for _ in range(count):
                applied[bist] += 1
                reference.compact(applied[bist])
            assert wrapper.signature == reference.signature
        assert wrapper.bist_patterns_applied == applied[True]
        assert wrapper.external_patterns_applied == applied[False]

    def test_bursts_coalesce_into_one_fold_read_at_the_end(self, sim):
        # Many bursts, signature read once: the bursts continue each other,
        # so the MISR holds a single pending range until the read.
        description = CoreTestDescription.describe(
            "demo", chain_count=2, scan_cells=16, has_logic_bist=True)
        wrapper = generate_wrapper(sim, description)
        reference = MISR(wrapper.misr.width, seed=0)
        bursts = [(index * 37) % 131 + 1 for index in range(200)]
        for count in bursts:
            wrapper.apply_bist_patterns(count)
        total = sum(bursts)
        assert wrapper.misr._pending == (1, total + 1)
        for word in range(1, total + 1):
            reference.compact(word)
        assert wrapper.signature == reference.signature
        assert wrapper.misr._pending is None

    def test_reset_statistics_drops_a_pending_fold(self, sim):
        description = CoreTestDescription.describe("demo", chain_count=2,
                                                    scan_cells=16)
        reset = generate_wrapper(sim, description)
        fresh = generate_wrapper(sim, description)
        reset.apply_external_patterns(40)  # pending, never read
        reset.reset_statistics()
        reset.apply_external_patterns(5)
        fresh.apply_external_patterns(5)
        assert reset.signature == fresh.signature

    def test_signature_is_deterministic_and_order_sensitive(self, sim):
        description = CoreTestDescription.describe("demo", chain_count=2,
                                                    scan_cells=16)
        first = generate_wrapper(sim, description)
        second = generate_wrapper(sim, description)
        first.apply_external_patterns(10)
        second.apply_external_patterns(10)
        assert first.signature == second.signature
        second.apply_external_patterns(1)
        assert first.signature != second.signature

    def test_shift_cycles_delegate_to_description(self, wrapper):
        assert wrapper.shift_cycles_per_pattern() == 101
        assert wrapper.shift_cycles_per_pattern(compressed=True) == 51

    def test_untimed_tam_if_view(self, wrapper):
        wrapper.set_mode(WrapperMode.INTEST_SCAN)
        wrapper.write(TamPayload.write(0, data_bits=800, patterns=1))
        wrapper.write_read(TamPayload.write_read(0, data_bits=800, patterns=1))
        response = wrapper.read(TamPayload.read(0, response_bits=32))
        assert wrapper.patterns_applied == 2
        assert response.status is TamResponse.OK

    def test_reset_statistics(self, wrapper):
        wrapper.set_mode(WrapperMode.INTEST_SCAN)
        wrapper.apply_external_patterns(5)
        wrapper.reset_statistics()
        assert wrapper.patterns_applied == 0
        assert wrapper.signature == 0

    def test_validate_patterns_requires_netlist(self, wrapper):
        with pytest.raises(ValueError):
            wrapper.validate_patterns(pattern_count=8)

    def test_validate_patterns_with_netlist(self, sim):
        description = CoreTestDescription.describe(
            "demo", chain_count=4, scan_cells=64, has_logic_bist=True,
        ).attach_synthetic_validation(flip_flops=48, gates=240, seed=5,
                                      chain_count=4)
        wrapper = generate_wrapper(sim, description)
        coverage = wrapper.validate_patterns(pattern_count=64, fault_sample=80)
        assert 0.0 < coverage <= 1.0
