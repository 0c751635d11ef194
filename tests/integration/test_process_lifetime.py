"""Finished simulation work is freed by reference counting alone.

A schedule run spawns a process per test task and streams hundreds of EBI
bursts, leapt in closed form or run as scheduled callbacks.  Nothing may
keep the finished processes, their generators, their ``finished`` events or
the burst-stage objects (channel holds, per-call joins) alive once they are
done: not the simulator, and not a reference cycle that only the cyclic
garbage collector could break.
"""

import gc
import weakref

from repro.dft import tam as tam_module
from repro.kernel.simulator import Simulator
from repro.kernel.sync import Countdown
from repro.schedule import model
from repro.soc.system import JpegSocTlm
from repro.soc.testplan import build_test_schedules, build_test_tasks


def _burst_stage_objects():
    return [obj for obj in gc.get_objects()
            if type(obj) in (tam_module._Hold, Countdown)]


def test_schedule_run_leaves_no_process_alive(monkeypatch):
    spawned = []
    spawn = Simulator.spawn

    def recording_spawn(self, generator, name=""):
        process = spawn(self, generator, name)
        spawned.append(weakref.ref(process))
        return process

    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    schedule = build_test_schedules()["schedule_1"]
    tasks = build_test_tasks()
    soc = JpegSocTlm()
    gc.collect()
    before = len(_burst_stage_objects())
    gc.disable()
    try:
        metrics = soc.run_test_schedule(schedule, tasks)
        alive = [ref() for ref in spawned if ref() is not None]
        surviving_stages = len(_burst_stage_objects()) - before
    finally:
        gc.enable()
    assert metrics.execution.task_results
    # One test-flow process, one process per task and one BIST engine per
    # logic-BIST task; burst stages spawn none.
    task_names = list(metrics.execution.task_results)
    bist_tasks = [name for name in task_names
                  if tasks[name].kind is model.TestKind.LOGIC_BIST]
    assert len(spawned) == 1 + len(task_names) + len(bist_tasks)
    assert alive == []
    # The run streamed hundreds of bursts (uncontended ones are leapt in
    # closed form, the rest run as channel holds) ...
    assert soc.ebi.bursts_streamed > 400
    # ... and no channel hold, nor a per-call join, outlives the run.
    assert surviving_stages == 0
