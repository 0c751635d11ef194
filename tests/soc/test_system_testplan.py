"""Unit tests for the assembled JPEG SoC and the paper's test plan."""

import numpy as np
import pytest

from repro.dft.tam import TamSlaveInterface
from repro.schedule import TestKind
from repro.soc import (
    GeneratedSocTlm,
    JpegSocTlm,
    SocConfiguration,
    build_core_descriptions,
    build_platform_parameters,
    build_test_schedules,
    build_test_tasks,
)
from repro.soc.jpeg import JpegEncoder
from repro.soc.testplan import (
    ADDRESS_MAP,
    COLOR_CONVERSION,
    DCT,
    MEMORY,
    MEMORY_WORDS,
    PROCESSOR,
)


class TestTestplanDefinitions:
    def test_seven_sequences_defined(self, paper_tasks):
        assert len(paper_tasks) == 7
        sequences = {task.attributes["paper_sequence"]
                     for task in paper_tasks.values()}
        assert sequences == set(range(1, 8))

    def test_paper_pattern_counts(self, paper_tasks):
        assert paper_tasks["t1_processor_bist"].pattern_count == 100_000
        assert paper_tasks["t2_processor_external"].pattern_count == 20_000
        assert paper_tasks["t3_processor_compressed"].pattern_count == 20_000
        assert paper_tasks["t3_processor_compressed"].compression_ratio == 50.0
        assert paper_tasks["t4_colorconv_bist"].pattern_count == 10_000
        assert paper_tasks["t5_dct_external"].pattern_count == 10_000

    def test_memory_is_one_megabyte(self):
        assert MEMORY_WORDS == 1 << 20

    def test_four_schedules_matching_paper_structure(self, paper_schedules,
                                                     paper_tasks):
        assert len(paper_schedules) == 4
        assert paper_schedules["schedule_1"].is_sequential
        assert paper_schedules["schedule_2"].is_sequential
        assert paper_schedules["schedule_3"].phases[0] == \
            ["t1_processor_bist", "t5_dct_external"]
        assert paper_schedules["schedule_4"].phases[1] == \
            ["t3_processor_compressed", "t4_colorconv_bist", "t6_memory_bist"]
        for schedule in paper_schedules.values():
            schedule.validate(paper_tasks)

    def test_core_descriptions_match_paper(self, core_descriptions):
        assert core_descriptions[PROCESSOR].chain_count == 32
        assert core_descriptions[PROCESSOR].has_logic_bist
        assert core_descriptions[DCT].chain_count == 8
        assert not core_descriptions[DCT].has_logic_bist
        assert core_descriptions[COLOR_CONVERSION].has_logic_bist

    def test_descriptions_with_validation_netlists(self):
        descriptions = build_core_descriptions(with_validation_netlists=True)
        assert descriptions[PROCESSOR].validation_netlist is not None
        assert descriptions[DCT].validation_netlist is not None

    def test_platform_parameters(self):
        platform = build_platform_parameters()
        assert platform.tam_width_bits == 32
        assert platform.ate_width_bits == 16
        assert platform.clock_mhz == 100.0

    def test_address_map_is_disjoint(self):
        addresses = sorted(ADDRESS_MAP.values())
        assert len(set(addresses)) == len(addresses)


@pytest.mark.parametrize("soc_class", [JpegSocTlm, GeneratedSocTlm])
@pytest.mark.parametrize("size", [0, -4])
def test_burst_size_below_one_is_refused_at_construction(soc_class, size):
    # A zero burst never finishes its stream; a negative one failed deep in
    # the kernel.  Both are refused before anything is simulated.
    with pytest.raises(ValueError, match="must be at least 1"):
        soc_class(SocConfiguration(burst_patterns=size))


class TestJpegSocAssembly:
    @pytest.fixture(scope="class")
    def soc(self):
        return JpegSocTlm(SocConfiguration(memory_words=4096))

    def test_wrappers_for_all_cores(self, soc):
        assert set(soc.wrappers) == {PROCESSOR, COLOR_CONVERSION, DCT, MEMORY}
        for wrapper in soc.wrappers.values():
            assert TamSlaveInterface.is_implemented_by(wrapper)

    def test_bus_slave_decode(self, soc):
        slave, offset = soc.bus.decode(ADDRESS_MAP[DCT] + 0x20)
        assert slave is soc.wrappers[DCT]
        assert offset == 0x20

    def test_config_ring_contains_all_infrastructure(self, soc):
        names = {register.name for register in soc.config_bus.registers}
        assert any("wrapper.wir" in name for name in names)
        assert "decompressor.config" in names
        assert "compactor.config" in names
        assert "test_controller.config" in names
        assert "ebi.config" in names

    def test_architecture_handles(self, soc):
        architecture = soc.architecture
        assert architecture.wrapper_for(PROCESSOR) is soc.wrappers[PROCESSOR]
        assert architecture.address_of(MEMORY) == ADDRESS_MAP[MEMORY]
        with pytest.raises(KeyError):
            architecture.wrapper_for("unknown")

    def test_decompressor_targets_processor_wrapper(self, soc):
        assert soc.decompressor.target_wrapper is soc.wrappers[PROCESSOR]
        assert soc.decompressor.compression_ratio == 50.0


class TestFunctionalMode:
    def test_encode_matches_software_reference(self, test_image):
        soc = JpegSocTlm(SocConfiguration(memory_words=65_536))
        encoded, cycles = soc.run_functional_encode(test_image, quality=75)
        reference = JpegEncoder(quality=75).encode(test_image)
        assert encoded.bitstream == reference.bitstream
        assert cycles > 0
        assert soc.dct.blocks_processed == 12  # 4 blocks x 3 channels
        assert soc.bus.functional_reads > 0
        assert soc.bus.functional_writes > 0

    def test_encode_at_different_quality(self, test_image):
        soc = JpegSocTlm(SocConfiguration(memory_words=65_536))
        encoded, _ = soc.run_functional_encode(test_image, quality=40)
        reference = JpegEncoder(quality=40).encode(test_image)
        assert encoded.bitstream == reference.bitstream


class TestTestMode:
    def test_small_schedule_metrics_consistency(self, test_image):
        from repro.schedule.model import TestSchedule, TestTask

        soc = JpegSocTlm(SocConfiguration(memory_words=8192))
        tasks = {
            "bist": TestTask(name="bist", kind=TestKind.LOGIC_BIST,
                             core=COLOR_CONVERSION, pattern_count=500, power=1.0),
            "ext": TestTask(name="ext", kind=TestKind.EXTERNAL_SCAN, core=DCT,
                            pattern_count=32, power=1.5),
        }
        schedule = TestSchedule(name="mini", phases=[["bist", "ext"]])
        metrics = soc.run_test_schedule(schedule, tasks)
        assert metrics.test_length_cycles > 0
        assert 0.0 <= metrics.avg_tam_utilization <= metrics.peak_tam_utilization <= 1.0
        assert metrics.peak_power >= 1.5
        assert metrics.simulated_activations > 0
        assert set(metrics.execution.task_results) == {"bist", "ext"}
        row = metrics.as_row()
        assert row["scenario"] == "mini"
        assert row["test_length_mcycles"] == pytest.approx(
            metrics.test_length_cycles / 1e6)

    def test_functional_then_test_mode_on_same_model(self, test_image):
        """The same model instance supports mission mode followed by test mode."""
        from repro.schedule.model import TestSchedule, TestTask

        soc = JpegSocTlm(SocConfiguration(memory_words=65_536))
        encoded, _ = soc.run_functional_encode(test_image)
        assert encoded.compressed_bits > 0
        tasks = {"bist": TestTask(name="bist", kind=TestKind.LOGIC_BIST,
                                  core=COLOR_CONVERSION, pattern_count=100,
                                  power=1.0)}
        schedule = TestSchedule.sequential("after_mission", ["bist"])
        metrics = soc.run_test_schedule(schedule, tasks)
        assert metrics.test_length_cycles > 0
        assert soc.wrappers[COLOR_CONVERSION].bist_patterns_applied == 100
