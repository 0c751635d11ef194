"""Unit tests for estimation, power modeling, scheduling and validation."""

import pytest

from repro.memory.march import MATS_PLUS
from repro.schedule import (
    PlatformParameters,
    PowerModel,
    TestKind,
    TestSchedule,
    TestTask,
    TestTimeEstimator,
    greedy_concurrent_schedule,
    schedule_makespan_estimate,
    sequential_schedule,
    validate_schedule,
)
from repro.schedule.scheduler import (
    binpack_power_schedule,
    compare_schedules,
    local_search_schedule,
)
from repro.soc import build_core_descriptions, build_test_tasks
from repro.soc.testplan import MEMORY, MEMORY_WORDS


@pytest.fixture
def platform():
    return PlatformParameters()


@pytest.fixture
def estimator(core_descriptions, platform):
    return TestTimeEstimator(core_descriptions, platform,
                             memory_words={MEMORY: MEMORY_WORDS})


class TestPlatformParameters:
    def test_cycles_to_seconds(self, platform):
        assert platform.cycles_to_seconds(100_000_000) == pytest.approx(1.0)


class TestTaskEstimates:
    def test_logic_bist_estimate(self, estimator, paper_tasks):
        cycles = estimator.estimate_task_cycles(paper_tasks["t1_processor_bist"])
        assert cycles == pytest.approx(100_000 * 1451, rel=0.01)

    def test_external_scan_is_ate_limited(self, estimator, paper_tasks):
        cycles = estimator.estimate_task_cycles(paper_tasks["t2_processor_external"])
        assert cycles == pytest.approx(20_000 * 2900, rel=0.01)

    def test_compressed_scan_is_tam_limited(self, estimator, paper_tasks):
        cycles = estimator.estimate_task_cycles(paper_tasks["t3_processor_compressed"])
        per_pattern = cycles / 20_000
        assert 1400 < per_pattern < 1600

    def test_memory_controller_vs_processor(self, estimator, paper_tasks):
        controller = estimator.estimate_task_cycles(paper_tasks["t6_memory_bist"])
        processor = estimator.estimate_task_cycles(
            paper_tasks["t7_memory_march_processor"])
        assert processor > 4 * controller

    def test_functional_task_uses_attribute(self, estimator):
        task = TestTask(name="f", kind=TestKind.FUNCTIONAL, core="processor",
                        attributes={"functional_cycles": 12345})
        assert estimator.estimate_task_cycles(task) >= 12345

    def test_unknown_core_rejected(self, estimator):
        task = TestTask(name="x", kind=TestKind.LOGIC_BIST, core="nope",
                        pattern_count=10)
        with pytest.raises(KeyError):
            estimator.estimate_task_cycles(task)

    def test_unknown_memory_rejected(self, core_descriptions, platform):
        estimator = TestTimeEstimator(core_descriptions, platform)
        task = TestTask(name="m", kind=TestKind.MEMORY_BIST_CONTROLLER,
                        core=MEMORY, march=MATS_PLUS)
        with pytest.raises(KeyError):
            estimator.estimate_task_cycles(task)

    def test_estimate_all(self, estimator, paper_tasks):
        estimates = estimator.estimate_all(paper_tasks)
        assert set(estimates) == set(paper_tasks)
        assert all(value > 0 for value in estimates.values())


class TestScheduleEstimates:
    def test_schedule_ordering_matches_paper(self, estimator, paper_tasks,
                                             paper_schedules):
        estimates = {
            name: estimator.estimate_schedule_cycles(schedule, paper_tasks)
            for name, schedule in paper_schedules.items()
        }
        assert estimates["schedule_4"] < estimates["schedule_2"] \
            < estimates["schedule_3"] < estimates["schedule_1"]

    def test_estimate_in_seconds(self, estimator, paper_tasks, paper_schedules):
        seconds = estimator.estimate_schedule_seconds(
            paper_schedules["schedule_4"], paper_tasks)
        assert 1.0 < seconds < 3.0


class TestPowerModel:
    def test_phase_power_sums_active_tasks(self, paper_tasks):
        model = PowerModel(budget=10.0, static_power=0.5)
        power = model.phase_power(["t1_processor_bist", "t5_dct_external"],
                                  paper_tasks)
        assert power == pytest.approx(0.5 + 3.0 + 1.5)

    def test_idle_power_of_inactive_cores(self, paper_tasks):
        model = PowerModel(budget=10.0, idle_power={"memory": 0.2, "dct": 0.1})
        power = model.phase_power(["t5_dct_external"], paper_tasks)
        assert power == pytest.approx(1.5 + 0.2)

    def test_budget_check_and_violations(self, paper_tasks, paper_schedules):
        tight = PowerModel(budget=3.5)
        violations = tight.validate_schedule(paper_schedules["schedule_4"],
                                             paper_tasks)
        assert violations  # concurrent phase draws more than 3.5
        generous = PowerModel(budget=100.0)
        assert generous.validate_schedule(paper_schedules["schedule_4"],
                                          paper_tasks) == []

    def test_schedule_peak_power(self, paper_tasks, paper_schedules):
        model = PowerModel()
        sequential_peak = model.schedule_peak_power(paper_schedules["schedule_1"],
                                                    paper_tasks)
        concurrent_peak = model.schedule_peak_power(paper_schedules["schedule_4"],
                                                    paper_tasks)
        assert concurrent_peak > sequential_peak


class TestSchedulers:
    def test_sequential_schedule_builder(self, paper_tasks):
        schedule = sequential_schedule("seq", paper_tasks)
        assert schedule.is_sequential
        assert len(schedule.task_names) == len(paper_tasks)

    def test_sequential_schedule_unknown_task(self, paper_tasks):
        with pytest.raises(KeyError):
            sequential_schedule("seq", paper_tasks, order=["nope"])

    def test_greedy_respects_conflicts_and_budget(self, estimator, paper_tasks):
        estimates = estimator.estimate_all(paper_tasks)
        power_model = PowerModel(budget=6.0)
        schedule = greedy_concurrent_schedule("greedy", paper_tasks, estimates,
                                              power_model=power_model)
        schedule.validate(dict(paper_tasks))
        for phase in schedule.phases:
            assert power_model.phase_fits_budget(phase, paper_tasks)
        assert set(schedule.task_names) == set(paper_tasks)

    def test_greedy_beats_sequential_estimate(self, estimator, paper_tasks):
        estimates = estimator.estimate_all(paper_tasks)
        greedy = greedy_concurrent_schedule("greedy", paper_tasks, estimates,
                                            power_model=PowerModel(budget=8.0))
        sequential = sequential_schedule("seq", paper_tasks)
        assert schedule_makespan_estimate(greedy, estimates) < \
            schedule_makespan_estimate(sequential, estimates)

    def test_greedy_max_concurrency(self, estimator, paper_tasks):
        estimates = estimator.estimate_all(paper_tasks)
        schedule = greedy_concurrent_schedule("greedy", paper_tasks, estimates,
                                              max_concurrency=1)
        assert schedule.is_sequential

    @pytest.mark.parametrize("builder", [greedy_concurrent_schedule,
                                         binpack_power_schedule,
                                         local_search_schedule])
    @pytest.mark.parametrize("max_concurrency", [0, -1])
    def test_max_concurrency_below_one_is_rejected(self, builder,
                                                   max_concurrency):
        # 0 used to mean "no phase may grow" here while the strategy layer
        # documents it as unlimited; only None means unlimited now.
        tasks = {name: TestTask(name=name, kind=TestKind.LOGIC_BIST,
                                core=name, pattern_count=4)
                 for name in ("a", "b", "c")}
        estimates = {"a": 3, "b": 2, "c": 1}
        with pytest.raises(ValueError, match="max_concurrency"):
            builder("s", tasks, estimates, max_concurrency=max_concurrency)
        unlimited = builder("s", tasks, estimates, max_concurrency=None)
        assert unlimited.phase_count == 1

    @pytest.mark.parametrize("spec", ["greedy:max_concurrency=0",
                                      "binpack:max_concurrency=0",
                                      "anneal:max_concurrency=0"])
    def test_strategy_max_concurrency_zero_is_unlimited(self, spec):
        from repro.schedule.strategies import build_strategy_schedule

        tasks = {name: TestTask(name=name, kind=TestKind.LOGIC_BIST,
                                core=name, pattern_count=4)
                 for name in ("a", "b", "c")}
        schedule = build_strategy_schedule(spec, tasks,
                                           {"a": 3, "b": 2, "c": 1})
        assert schedule.phase_count == 1

    def test_greedy_requires_estimates_for_all_tasks(self, paper_tasks):
        with pytest.raises(KeyError):
            greedy_concurrent_schedule("greedy", paper_tasks, {})

    def test_compare_schedules(self, estimator, paper_tasks, paper_schedules):
        estimates = estimator.estimate_all(paper_tasks)
        comparison = compare_schedules(list(paper_schedules.values()), estimates)
        assert set(comparison) == set(paper_schedules)


class TestValidation:
    def test_accurate_estimate_passes(self, estimator, paper_tasks, paper_schedules):
        schedule = paper_schedules["schedule_1"]
        estimated = estimator.estimate_schedule_cycles(schedule, paper_tasks)
        report = validate_schedule(schedule, paper_tasks, estimator,
                                   simulated_cycles=round(estimated * 1.02))
        assert report.estimate_is_accurate
        assert report.passed
        assert abs(report.deviation) < 0.05

    def test_inaccurate_estimate_fails(self, estimator, paper_tasks, paper_schedules):
        schedule = paper_schedules["schedule_1"]
        estimated = estimator.estimate_schedule_cycles(schedule, paper_tasks)
        report = validate_schedule(schedule, paper_tasks, estimator,
                                   simulated_cycles=round(estimated * 2.0))
        assert not report.estimate_is_accurate
        assert not report.passed

    def test_power_violation_reported(self, estimator, paper_tasks, paper_schedules):
        schedule = paper_schedules["schedule_4"]
        estimated = estimator.estimate_schedule_cycles(schedule, paper_tasks)
        report = validate_schedule(schedule, paper_tasks, estimator,
                                   simulated_cycles=estimated,
                                   power_model=PowerModel(budget=3.0),
                                   simulated_peak_power=5.0)
        assert report.power_violations
        assert not report.passed

    def test_summary_mentions_key_figures(self, estimator, paper_tasks,
                                          paper_schedules):
        schedule = paper_schedules["schedule_2"]
        estimated = estimator.estimate_schedule_cycles(schedule, paper_tasks)
        report = validate_schedule(schedule, paper_tasks, estimator,
                                   simulated_cycles=estimated,
                                   simulated_peak_tam_utilization=0.67,
                                   simulated_avg_tam_utilization=0.58)
        text = report.summary()
        assert "schedule_2" in text
        assert "67%" in text
        assert "58%" in text
