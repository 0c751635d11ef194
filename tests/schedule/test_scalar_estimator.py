"""Independent checks of the scalar test-time estimator.

The reload branches are pinned to cycle counts worked out by hand, and
hypothesis-generated platforms and task sets (every test kind, every
bandwidth-limited regime and the ATE vector-memory reload branch) check
that the schedule makespan is the phase-max sum over ``estimate_all``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dft.ctl import CoreTestDescription
from repro.memory.march import MARCH_C_MINUS, MATS_PLUS
from repro.schedule import (
    PlatformParameters,
    TestKind,
    TestSchedule,
    TestTask,
    TestTimeEstimator,
    schedule_makespan_estimate,
)

_MARCHES = (MATS_PLUS, MARCH_C_MINUS)


@st.composite
def platforms(draw):
    """Platforms spanning the estimator's branch space, including finite
    ATE vector memories (the reload-stall branch) and narrow wrapper
    parallel ports."""
    return PlatformParameters(
        tam_width_bits=draw(st.sampled_from([8, 16, 32, 64])),
        ate_width_bits=draw(st.sampled_from([1, 8, 16, 32])),
        tam_overhead_cycles=draw(st.integers(min_value=0, max_value=4)),
        configuration_cycles=draw(st.integers(min_value=0, max_value=128)),
        setup_transactions=draw(st.integers(min_value=0, max_value=8)),
        wrapper_parallel_width_bits=draw(st.sampled_from([0, 1, 2, 8, 64])),
        ate_vector_memory_words=draw(st.sampled_from([0, 64, 1000, 100_000])),
        ate_reload_cycles=draw(st.integers(min_value=0, max_value=50_000)),
        controller_cycles_per_memory_op=draw(st.floats(
            min_value=0.5, max_value=8.0, allow_nan=False)),
        processor_cycles_per_memory_op=draw(st.floats(
            min_value=0.5, max_value=8.0, allow_nan=False)),
    )


@st.composite
def scenario_tasks(draw):
    """(descriptions, memory_words, tasks) with one task per test kind
    drawn for a handful of random cores."""
    descriptions = {}
    memory_words = {}
    tasks = {}
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        core = f"core{index}"
        chain_count = draw(st.integers(min_value=1, max_value=48))
        cells = draw(st.integers(min_value=chain_count, max_value=60_000))
        internal = draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=256)))
        descriptions[core] = CoreTestDescription.describe(
            core, chain_count, cells, internal_chain_count=internal,
            has_logic_bist=True)
        memory_words[core] = draw(st.integers(min_value=1, max_value=65_536))
        kind = draw(st.sampled_from(list(TestKind)))
        name = f"t{index}"
        if kind in (TestKind.LOGIC_BIST, TestKind.EXTERNAL_SCAN,
                    TestKind.EXTERNAL_SCAN_COMPRESSED):
            tasks[name] = TestTask(
                name=name, kind=kind, core=core,
                pattern_count=draw(st.integers(min_value=1, max_value=5000)),
                compression_ratio=(draw(st.floats(
                    min_value=1.0, max_value=200.0, allow_nan=False))
                    if kind is TestKind.EXTERNAL_SCAN_COMPRESSED else 1.0))
        elif kind in (TestKind.MEMORY_BIST_CONTROLLER,
                      TestKind.MEMORY_MARCH_PROCESSOR):
            tasks[name] = TestTask(
                name=name, kind=kind, core=core,
                march=draw(st.sampled_from(_MARCHES)),
                pattern_backgrounds=draw(st.integers(min_value=0,
                                                     max_value=4)))
        else:
            tasks[name] = TestTask(
                name=name, kind=kind, core=core,
                attributes={"functional_cycles": draw(
                    st.integers(min_value=0, max_value=10**7))})
    return descriptions, memory_words, tasks


def _first_fit_phases(tasks):
    """The drawn tasks as concurrent as their resource conflicts allow:
    each joins the first phase it conflicts with nothing in."""
    phases = []
    for name, task in tasks.items():
        for phase in phases:
            if not any(task.conflicts_with(tasks[other]) for other in phase):
                phase.append(name)
                break
        else:
            phases.append([name])
    return phases


@settings(max_examples=60, deadline=None)
@given(platforms(), scenario_tasks())
def test_schedule_cycles_are_the_phase_max_sum_of_estimate_all(platform,
                                                               scenario):
    descriptions, memory_words, tasks = scenario
    estimator = TestTimeEstimator(descriptions, platform,
                                  memory_words=memory_words)
    estimates = estimator.estimate_all(tasks)
    for schedule in (TestSchedule.sequential("seq", list(tasks)),
                     TestSchedule(name="conc",
                                  phases=_first_fit_phases(tasks))):
        assert (estimator.estimate_schedule_cycles(schedule, tasks)
                == schedule_makespan_estimate(schedule, estimates))


@settings(max_examples=30, deadline=None)
@given(platforms(), scenario_tasks())
def test_schedule_cycles_validate_the_schedule(platform, scenario):
    """A one-phase schedule is accepted exactly when no two of its tasks
    share a resource; otherwise the estimate refuses it."""
    descriptions, memory_words, tasks = scenario
    estimator = TestTimeEstimator(descriptions, platform,
                                  memory_words=memory_words)
    schedule = TestSchedule(name="all", phases=[list(tasks)])
    if len(_first_fit_phases(tasks)) == 1:
        assert estimator.estimate_schedule_cycles(schedule, tasks) == max(
            estimator.estimate_all(tasks).values())
    else:
        with pytest.raises(ValueError, match="conflicting tasks"):
            estimator.estimate_schedule_cycles(schedule, tasks)


def _reload_platform():
    # 400-bit patterns over a 16-bit link: 25 ATE words per pattern, so a
    # 100-word vector memory holds 4 patterns -> ceil(10/4)-1 = 2 reloads.
    return PlatformParameters(ate_width_bits=16,
                              ate_vector_memory_words=100,
                              ate_reload_cycles=7_000)


class TestReloadBranch:
    """The ATE vector-memory reload stalls, pinned by construction."""

    def setup_method(self):
        self.platform = _reload_platform()
        self.descriptions = {
            "c": CoreTestDescription.describe("c", 4, 400,
                                              internal_chain_count=16)}
        self.estimator = TestTimeEstimator(self.descriptions, self.platform)
        self.task = TestTask(name="x", kind=TestKind.EXTERNAL_SCAN, core="c",
                             pattern_count=10)

    def test_scalar_counts_two_reloads(self):
        without = TestTimeEstimator(
            self.descriptions,
            PlatformParameters(ate_width_bits=16))
        delta = (self.estimator.estimate_task_cycles(self.task)
                 - without.estimate_task_cycles(self.task))
        assert delta == 2 * 7_000

    def test_external_scan_reload_cycles(self):
        # 400 cells in 4 chains of 100: 101 shift cycles per pattern beat
        # ceil(400/16) = 25 ATE words and ceil(400/32) + 1 = 14 TAM cycles.
        # 100 // 25 = 4 patterns per vector-memory load, so 10 patterns
        # need ceil(10/4) - 1 = 2 reloads of 7 000 stall cycles.  Overhead
        # is 64 configuration cycles + 4 setup transactions x 1 = 68:
        # 10 * 101 + 2 * 7 000 + 68 = 15 078.
        assert self.estimator.estimate_task_cycles(self.task) == 15_078

    def test_compressed_reload_uses_compressed_ate_words(self):
        # 400 bits at ratio 50 compress to 8: ceil(8/16) = 1 ATE word and
        # ceil((400 + 8)/32) + 2 = 15 TAM cycles per pattern, beaten by
        # the 16 internal chains' ceil(400/16) + 1 = 26 shift cycles.  One
        # ATE word per pattern fits 100 patterns per load, so 500 patterns
        # need ceil(500/100) - 1 = 4 reloads of 7 000 stall cycles:
        # 500 * 26 + 4 * 7 000 + 68 = 41 068.
        task = TestTask(name="x", kind=TestKind.EXTERNAL_SCAN_COMPRESSED,
                        core="c", pattern_count=500, compression_ratio=50.0)
        assert self.estimator.estimate_task_cycles(task) == 41_068


class TestPlatformValidation:
    """Regression: a zero or negative clock silently produced inf/negative
    seconds from cycles_to_seconds instead of failing at construction."""

    @pytest.mark.parametrize("clock", [0.0, -100.0])
    def test_non_positive_clock_rejected(self, clock):
        with pytest.raises(ValueError, match="clock_mhz"):
            PlatformParameters(clock_mhz=clock)

    def test_positive_clock_accepted(self):
        assert PlatformParameters(clock_mhz=50.0).cycles_to_seconds(
            50_000_000) == pytest.approx(1.0)
