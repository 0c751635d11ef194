"""Golden ATE task signatures of the paper's schedules and of a generated
scenario.

No campaign artifact column carries MISR signatures, so the row checks of
the benchmarks cannot see a change in signature folding.  These constants
were recorded with the per-pattern MISR fold (one ``compact`` per pattern
number); any other fold must reproduce them bit for bit.
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
