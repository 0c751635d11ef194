"""Unit tests for the ATE model and virtual test programs.

The ATE is exercised on the full JPEG SoC model (its natural habitat) but with
drastically reduced pattern counts so every test stays fast.
"""

import pytest

from repro.dft.ate import (
    AutomatedTestEquipment,
    StepKind,
    TestProgram,
    TestProgramStep,
)
from repro.memory.march import MATS
from repro.schedule.model import TestKind, TestSchedule, TestTask
from repro.soc import JpegSocTlm, SocConfiguration
from repro.soc.testplan import COLOR_CONVERSION, DCT, MEMORY, PROCESSOR


@pytest.fixture
def small_tasks():
    """Down-scaled versions of the paper's seven test sequences."""
    return {
        "bist_proc": TestTask(name="bist_proc", kind=TestKind.LOGIC_BIST,
                              core=PROCESSOR, pattern_count=200, power=3.0),
        "ext_proc": TestTask(name="ext_proc", kind=TestKind.EXTERNAL_SCAN,
                             core=PROCESSOR, pattern_count=64, power=2.5),
        "cmp_proc": TestTask(name="cmp_proc",
                             kind=TestKind.EXTERNAL_SCAN_COMPRESSED,
                             core=PROCESSOR, pattern_count=64,
                             compression_ratio=50.0, power=2.5),
        "bist_cc": TestTask(name="bist_cc", kind=TestKind.LOGIC_BIST,
                            core=COLOR_CONVERSION, pattern_count=100, power=1.0),
        "ext_dct": TestTask(name="ext_dct", kind=TestKind.EXTERNAL_SCAN,
                            core=DCT, pattern_count=64, power=1.5),
        "mem_ctrl": TestTask(name="mem_ctrl",
                             kind=TestKind.MEMORY_BIST_CONTROLLER, core=MEMORY,
                             march=MATS, power=1.5),
        "mem_proc": TestTask(name="mem_proc",
                             kind=TestKind.MEMORY_MARCH_PROCESSOR, core=MEMORY,
                             march=MATS, power=2.0,
                             attributes={"processor_core": PROCESSOR}),
    }


@pytest.fixture
def small_soc():
    """A JPEG SoC with a small embedded memory so memory tests are quick."""
    return JpegSocTlm(SocConfiguration(memory_words=16_384, burst_patterns=16))


class TestTestProgram:
    def test_from_schedule_structure(self, small_tasks):
        schedule = TestSchedule(name="demo", phases=[
            ["bist_proc", "ext_dct"], ["mem_ctrl"],
        ])
        program = TestProgram.from_schedule(schedule, small_tasks)
        kinds = [step.kind for step in program.steps]
        assert kinds == [StepKind.RUN_TASK, StepKind.RUN_TASK, StepKind.BARRIER,
                         StepKind.RUN_TASK, StepKind.BARRIER]
        assert len(program) == 5

    def test_from_schedule_validates(self, small_tasks):
        bad = TestSchedule(name="bad", phases=[["missing_task"]])
        with pytest.raises(ValueError):
            TestProgram.from_schedule(bad, small_tasks)


@pytest.mark.parametrize("size", [0, -4])
def test_ate_burst_size_below_one_rejected(small_soc, size):
    with pytest.raises(ValueError, match="burst_patterns"):
        AutomatedTestEquipment(small_soc.sim, "ate2",
                               architecture=small_soc.architecture,
                               burst_patterns=size)


class TestAteExecution:
    def run(self, soc, schedule, tasks):
        return soc.run_test_schedule(schedule, tasks)

    def test_logic_bist_task(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("bist_only", ["bist_proc"])
        metrics = self.run(small_soc, schedule, small_tasks)
        result = metrics.execution.task_results["bist_proc"]
        assert result.patterns_applied == 200
        assert small_soc.wrappers[PROCESSOR].bist_patterns_applied == 200
        assert result.signature == small_soc.wrappers[PROCESSOR].signature
        assert result.details["status_polls"] > 0
        # 200 patterns x 1451 cycles dominate the task duration.
        assert result.cycles >= 200 * 1451

    def test_external_scan_task(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("ext_only", ["ext_dct"])
        metrics = self.run(small_soc, schedule, small_tasks)
        result = metrics.execution.task_results["ext_dct"]
        assert result.patterns_applied == 64
        assert small_soc.wrappers[DCT].external_patterns_applied == 64
        # ATE-limited: 10 400 bits / 16 bits per cycle = 650 cycles/pattern,
        # slower than the 1301-cycle shift, so the shift dominates.
        assert result.cycles >= 64 * 1301

    def test_compressed_scan_task_uses_decompressor(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("cmp_only", ["cmp_proc"])
        metrics = self.run(small_soc, schedule, small_tasks)
        result = metrics.execution.task_results["cmp_proc"]
        assert result.patterns_applied == 64
        assert small_soc.decompressor.patterns_expanded == 64
        assert not small_soc.decompressor.bypass
        assert small_soc.wrappers[PROCESSOR].patterns_applied == 64
        # Compressed test is far shorter per pattern than the uncompressed one.
        assert result.cycles < 64 * 2900

    def test_memory_bist_controller_task(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("mem_only", ["mem_ctrl"])
        metrics = self.run(small_soc, schedule, small_tasks)
        result = metrics.execution.task_results["mem_ctrl"]
        words = small_soc.memory.array.words
        assert result.details["operations"] == 4 * words + 4 * words
        assert result.details["march_passed"]

    def test_memory_march_processor_task(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("mem_proc_only", ["mem_proc"])
        metrics = self.run(small_soc, schedule, small_tasks)
        result = metrics.execution.task_results["mem_proc"]
        assert result.details["march_passed"]
        assert result.details["operations"] == 8 * small_soc.memory.array.words

    def test_processor_march_slower_than_controller(self, small_tasks):
        controller_soc = JpegSocTlm(SocConfiguration(memory_words=16_384))
        processor_soc = JpegSocTlm(SocConfiguration(memory_words=16_384))
        ctrl = controller_soc.run_test_schedule(
            TestSchedule.sequential("a", ["mem_ctrl"]), small_tasks)
        proc = processor_soc.run_test_schedule(
            TestSchedule.sequential("b", ["mem_proc"]), small_tasks)
        assert proc.test_length_cycles > 3 * ctrl.test_length_cycles

    def test_concurrent_phase_is_max_not_sum(self, small_soc, small_tasks):
        concurrent = TestSchedule(name="conc", phases=[["bist_proc", "ext_dct"]])
        metrics = self.run(small_soc, concurrent, small_tasks)
        bist = metrics.execution.task_results["bist_proc"]
        ext = metrics.execution.task_results["ext_dct"]
        total = metrics.test_length_cycles
        assert total < bist.cycles + ext.cycles
        assert total >= max(bist.cycles, ext.cycles)

    def test_sequential_schedule_sums_task_times(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("seq", ["bist_cc", "ext_dct"])
        metrics = self.run(small_soc, schedule, small_tasks)
        task_cycle_sum = sum(r.cycles for r in metrics.execution.task_results.values())
        assert metrics.test_length_cycles >= task_cycle_sum

    def test_signature_check_against_expectation(self, small_tasks):
        soc = JpegSocTlm(SocConfiguration(memory_words=16_384))
        reference = soc.run_test_schedule(
            TestSchedule.sequential("ref", ["bist_cc"]), small_tasks)
        expected = reference.execution.task_results["bist_cc"].signature

        checked_task = TestTask(
            name="bist_cc", kind=TestKind.LOGIC_BIST, core=COLOR_CONVERSION,
            pattern_count=100, power=1.0,
            attributes={"expected_signature": expected},
        )
        soc_ok = JpegSocTlm(SocConfiguration(memory_words=16_384))
        good = soc_ok.run_test_schedule(
            TestSchedule.sequential("chk", ["bist_cc"]), {"bist_cc": checked_task})
        assert good.execution.task_results["bist_cc"].signature_ok is True
        assert good.execution.all_signatures_ok

        wrong_task = TestTask(
            name="bist_cc", kind=TestKind.LOGIC_BIST, core=COLOR_CONVERSION,
            pattern_count=100, power=1.0,
            attributes={"expected_signature": expected ^ 0x1},
        )
        soc_bad = JpegSocTlm(SocConfiguration(memory_words=16_384))
        bad = soc_bad.run_test_schedule(
            TestSchedule.sequential("chk", ["bist_cc"]), {"bist_cc": wrong_task})
        assert bad.execution.task_results["bist_cc"].signature_ok is False
        assert not bad.execution.all_signatures_ok

    def test_unknown_kind_rejected(self, small_soc):
        functional = TestTask(name="f", kind=TestKind.FUNCTIONAL, core=PROCESSOR)
        schedule = TestSchedule.sequential("f_only", ["f"])
        with pytest.raises(Exception):
            small_soc.run_test_schedule(schedule, {"f": functional})

    def test_activity_log_populated(self, small_soc, small_tasks):
        schedule = TestSchedule.sequential("two", ["bist_cc", "ext_dct"])
        self.run(small_soc, schedule, small_tasks)
        cores = small_soc.activity_log.cores()
        assert COLOR_CONVERSION in cores
        assert DCT in cores
