"""Finished simulation work is freed by reference counting alone.

A schedule run spawns a process per test task (and a BIST engine per
logic-BIST session it cannot leap) and streams hundreds of EBI bursts,
leapt in closed form or run as scheduled callbacks.  Nothing may keep the
finished processes, their generators, their ``finished`` events or the
burst-stage objects (channel holds, per-call joins) alive once they are
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


def run_schedule_1(monkeypatch):
    """Run schedule_1 recording every spawned process; returns the task
    names, the logic-BIST ones, the spawns, the processes still alive, the
    bursts streamed and the burst-stage objects that outlive the run."""
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
    task_names = list(metrics.execution.task_results)
    bist_tasks = [name for name in task_names
                  if tasks[name].kind is model.TestKind.LOGIC_BIST]
    assert len(bist_tasks) == 2
    return (task_names, bist_tasks, spawned, alive, soc.ebi.bursts_streamed,
            surviving_stages)


def test_schedule_run_leaves_no_process_alive(monkeypatch):
    task_names, _, spawned, alive, bursts, surviving_stages = run_schedule_1(
        monkeypatch)
    # One test-flow process and one process per task.  Both logic-BIST
    # sessions are leapt in closed form, so no BIST engine is spawned, and
    # burst stages spawn none.
    assert len(spawned) == 1 + len(task_names)
    assert alive == []
    # The run streamed hundreds of bursts (uncontended ones are leapt in
    # closed form, the rest run as channel holds) ...
    assert bursts > 400
    # ... and no channel hold, nor a per-call join, outlives the run.
    assert surviving_stages == 0


def test_contended_schedule_run_leaves_no_process_alive(monkeypatch):
    """With a foreign entry always pending, :meth:`Simulator.lookahead_fs`
    allows no leap: every logic-BIST session spawns its engine and every
    burst runs as channel holds, and all of them are freed too."""
    monkeypatch.setattr(Simulator, "lookahead_fs", lambda self: -1)
    task_names, bist_tasks, spawned, alive, bursts, surviving_stages = (
        run_schedule_1(monkeypatch))
    assert len(spawned) == 1 + len(task_names) + len(bist_tasks)
    assert alive == []
    assert bursts > 400
    assert surviving_stages == 0
