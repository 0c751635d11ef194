"""Golden ATE task signatures and activation counts of the paper's
schedules and of a generated scenario.

No campaign artifact column carries MISR signatures, so the row checks of
the benchmarks cannot see a change in signature folding.  These constants
were recorded with the per-pattern MISR fold (one ``compact`` per pattern
number); any other fold must reproduce them bit for bit.

``simulated_activations`` is an artifact column: it counts the entries the
scheduler dispatched, so a kernel change that adds, drops or merges queue
entries moves it even when every simulated time stays the same.  The
counts below were recorded while the simulator still retained every
process and notified events through one closure per notification.
"""

import pytest

from repro.explore.scenarios import ScenarioSpec, build_scenario
from repro.soc.system import JpegSocTlm
from repro.soc.testplan import build_test_schedules, build_test_tasks

_PROCESSOR_BIST = 4173377371
_COLORCONV_BIST = 2510248636

#: Memory tasks return no signature (their result is the march verdict).
TABLE1_SIGNATURES = {
    "schedule_1": {
        "t1_processor_bist": _PROCESSOR_BIST,
        "t2_processor_external": 1997327018,
        "t4_colorconv_bist": _COLORCONV_BIST,
        "t5_dct_external": 2326756775,
        "t7_memory_march_processor": None,
    },
    "schedule_2": {
        "t1_processor_bist": _PROCESSOR_BIST,
        "t3_processor_compressed": 1997327018,
        "t4_colorconv_bist": _COLORCONV_BIST,
        "t5_dct_external": 2326756775,
        "t6_memory_bist": None,
    },
    "schedule_3": {
        "t1_processor_bist": _PROCESSOR_BIST,
        "t2_processor_external": 556528855,
        "t4_colorconv_bist": _COLORCONV_BIST,
        "t5_dct_external": 2045715618,
        "t7_memory_march_processor": None,
    },
    "schedule_4": {
        "t1_processor_bist": _PROCESSOR_BIST,
        "t3_processor_compressed": 556528855,
        "t4_colorconv_bist": _COLORCONV_BIST,
        "t5_dct_external": 2045715618,
        "t6_memory_bist": None,
    },
}

#: ``ScenarioSpec(name="g", core_count=2, patterns_per_core=48, seed=11)``
#: under ``greedy``.  The scan tasks read the shared compactor.
GENERATED_SIGNATURES = {
    "t_core0_bist": 1931254081,
    "t_core0_compressed": 229888,
    "t_core0_scan": 49152,
    "t_core1_bist": 1931254081,
    "t_core1_compressed": 468224,
    "t_core1_scan": 106752,
}


TABLE1_ACTIVATIONS = {"schedule_1": 4269, "schedule_2": 4142,
                      "schedule_3": 4278, "schedule_4": 4401}

GENERATED_ACTIVATIONS = 292


def _signatures(metrics):
    return {name: result.signature
            for name, result in metrics.execution.task_results.items()}


@pytest.mark.parametrize("schedule_name", sorted(TABLE1_SIGNATURES))
def test_table1_task_signatures(schedule_name):
    metrics = JpegSocTlm().run_test_schedule(
        build_test_schedules()[schedule_name], build_test_tasks())
    assert _signatures(metrics) == TABLE1_SIGNATURES[schedule_name]


def test_generated_scenario_task_signatures():
    scenario = build_scenario(ScenarioSpec(name="g", core_count=2,
                                           patterns_per_core=48, seed=11))
    metrics = scenario.build_soc().run_test_schedule(
        scenario.schedule_for("greedy"), scenario.tasks)
    assert _signatures(metrics) == GENERATED_SIGNATURES


@pytest.mark.parametrize("schedule_name", sorted(TABLE1_ACTIVATIONS))
def test_table1_activation_counts(schedule_name):
    metrics = JpegSocTlm().run_test_schedule(
        build_test_schedules()[schedule_name], build_test_tasks())
    assert metrics.simulated_activations == TABLE1_ACTIVATIONS[schedule_name]


def test_generated_scenario_activation_count():
    scenario = build_scenario(ScenarioSpec(name="g", core_count=2,
                                           patterns_per_core=48, seed=11))
    metrics = scenario.build_soc().run_test_schedule(
        scenario.schedule_for("greedy"), scenario.tasks)
    assert metrics.simulated_activations == GENERATED_ACTIVATIONS
