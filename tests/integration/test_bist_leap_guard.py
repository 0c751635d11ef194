"""Pinned guard on the closed-form logic-BIST session.

``AutomatedTestEquipment`` leaps an uncontended logic-BIST session with all
of its status polls instead of spawning a BIST engine process.  The leap
only changes speed, so a change that silently loses it would pass every
equality test.  This test pins how many engines a fixed small sweep grid
spawns, counted by wrapping :meth:`Simulator.spawn`, and checks that its
rows are those of the same grid with the leap switched off.
"""

from unittest import mock

from repro.dft.ate import AutomatedTestEquipment
from repro.explore.campaign import Campaign, clear_scenario_cache
from repro.explore.scenarios import ScenarioGrid, ScenarioSpec
from repro.kernel.simulator import Simulator

#: 18 rows holding 24 logic-BIST sessions, 10 of which are uncontended.
SESSIONS = 24
ENGINES = 14


def run_grid():
    """Rows, logic-BIST sessions and engine spawns of the fixed grid."""
    base = ScenarioSpec(name="base", patterns_per_core=48, seed=7,
                        schedules=("sequential", "greedy", "binpack"))
    specs = ScenarioGrid({"core_count": [1, 2, 3], "tam_width_bits": [16, 32]},
                         base=base, name_prefix="guard").specs()
    engines, sessions = [], []
    spawn = Simulator.spawn
    run_logic_bist = AutomatedTestEquipment._run_logic_bist

    def counting_spawn(self, generator, name=""):
        if name.endswith(".bist"):
            engines.append(name)
        return spawn(self, generator, name)

    def counting_run_logic_bist(self, task):
        sessions.append(task.name)
        return run_logic_bist(self, task)

    clear_scenario_cache()
    with mock.patch.object(Simulator, "spawn", counting_spawn), \
            mock.patch.object(AutomatedTestEquipment, "_run_logic_bist",
                              counting_run_logic_bist):
        rows = Campaign(specs).run(workers=1).rows(deterministic=True)
    clear_scenario_cache()
    return rows, len(sessions), len(engines)


def test_uncontended_sessions_spawn_no_engine():
    rows, sessions, engines = run_grid()
    assert len(rows) == 18
    assert (sessions, engines) == (SESSIONS, ENGINES)


def test_rows_match_the_engine_form():
    rows, _, _ = run_grid()
    with mock.patch.object(AutomatedTestEquipment, "_leap_logic_bist",
                           lambda *args: None):
        engine_rows, sessions, engines = run_grid()
    assert engines == sessions == SESSIONS
    assert rows == engine_rows
