"""Finished simulation processes are freed by reference counting alone.

A schedule run spawns hundreds of short-lived processes (mostly EBI burst
stages).  Nothing may keep them, their generators or their ``finished``
events alive once they have terminated: not the simulator, and not a
reference cycle that only the cyclic garbage collector could break.
"""

import gc
import weakref

from repro.kernel.simulator import Simulator
from repro.soc.system import JpegSocTlm
from repro.soc.testplan import build_test_schedules, build_test_tasks


def test_schedule_run_leaves_no_process_alive(monkeypatch):
    spawned = []
    spawn = Simulator.spawn

    def recording_spawn(self, generator, name=""):
        process = spawn(self, generator, name)
        spawned.append(weakref.ref(process))
        return process

    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    soc = JpegSocTlm()
    gc.collect()
    gc.disable()
    try:
        metrics = soc.run_test_schedule(build_test_schedules()["schedule_1"],
                                        build_test_tasks())
        alive = [ref() for ref in spawned if ref() is not None]
    finally:
        gc.enable()
    assert metrics.execution.task_results
    assert len(spawned) > 500
    assert alive == []
