"""Finished simulation work is freed by reference counting alone.

A schedule run spawns a process per test task, runs each logic-BIST
session it cannot leap as a polled session of scheduled callbacks, and
streams hundreds of EBI bursts, leapt in closed form or run as scheduled
callbacks.  Nothing may keep the finished processes, their generators,
their ``finished`` events, the polled sessions or the burst-stage objects
(channel holds, per-call joins) alive once they are done: not the
simulator, and not a reference cycle that only the cyclic garbage
collector could break.
"""

import gc
import weakref

from repro.dft import tam as tam_module
from repro.dft.ate import _PolledSession
from repro.kernel.simulator import Simulator
from repro.kernel.sync import Countdown
from repro.schedule import model
from repro.soc.system import JpegSocTlm
from repro.soc.testplan import build_test_schedules, build_test_tasks


def _callback_objects():
    return [obj for obj in gc.get_objects()
            if type(obj) in (tam_module._Hold, Countdown, _PolledSession)]


def run_schedule_1(monkeypatch):
    """Run schedule_1 recording every spawned process and polled session;
    returns the task names, the logic-BIST ones, the spawns, the polled
    sessions, the processes still alive, the bursts streamed and the
    callback objects (polled sessions, burst stages) that outlive the
    run."""
    spawned, polled = [], []
    spawn = Simulator.spawn
    polled_init = _PolledSession.__init__

    def recording_spawn(self, generator, name=""):
        process = spawn(self, generator, name)
        spawned.append(weakref.ref(process))
        return process

    def recording_polled_init(self, *args):
        polled_init(self, *args)
        polled.append(self.session)

    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    monkeypatch.setattr(_PolledSession, "__init__", recording_polled_init)
    schedule = build_test_schedules()["schedule_1"]
    tasks = build_test_tasks()
    soc = JpegSocTlm()
    gc.collect()
    before = len(_callback_objects())
    gc.disable()
    try:
        metrics = soc.run_test_schedule(schedule, tasks)
        alive = [ref() for ref in spawned if ref() is not None]
        surviving = len(_callback_objects()) - before
    finally:
        gc.enable()
    assert metrics.execution.task_results
    task_names = list(metrics.execution.task_results)
    bist_tasks = [name for name in task_names
                  if tasks[name].kind is model.TestKind.LOGIC_BIST]
    assert len(bist_tasks) == 2
    return (task_names, bist_tasks, spawned, polled, alive,
            soc.ebi.bursts_streamed, surviving)


def test_schedule_run_leaves_no_process_alive(monkeypatch):
    task_names, _, spawned, polled, alive, bursts, surviving = (
        run_schedule_1(monkeypatch))
    # One test-flow process and one process per task.  Both logic-BIST
    # sessions are leapt in closed form, so none is polled, and burst
    # stages spawn no process.
    assert len(spawned) == 1 + len(task_names)
    assert polled == []
    assert alive == []
    # The run streamed hundreds of bursts (uncontended ones are leapt in
    # closed form, the rest run as channel holds) ...
    assert bursts > 400
    # ... and no channel hold, nor a per-call join, outlives the run.
    assert surviving == 0


def test_contended_schedule_run_leaves_no_process_alive(monkeypatch):
    """With a foreign entry always pending, :meth:`Simulator.lookahead_fs`
    allows no leap: every logic-BIST session runs polled and every burst
    runs as channel holds, and all of them are freed too."""
    monkeypatch.setattr(Simulator, "lookahead_fs", lambda self: -1)
    task_names, bist_tasks, spawned, polled, alive, bursts, surviving = (
        run_schedule_1(monkeypatch))
    assert len(spawned) == 1 + len(task_names)
    assert len(polled) == len(bist_tasks)
    assert alive == []
    assert bursts > 400
    assert surviving == 0
