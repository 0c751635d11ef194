"""Pinned guard on the leapt logic-BIST sessions and status polls.

``AutomatedTestEquipment`` leaps an uncontended logic-BIST session with all
of its status polls in closed form.  Every other session runs as a
``_PolledSession``, whose poll timer leaps each read that nothing else can
interleave with.  The leaps only change speed, so a change that silently
loses one would pass every equality test.  This test pins, on a fixed
small sweep grid, how many sessions run polled (counted by wrapping
``_PolledSession``), how many queue entries the rows push (counted by
wrapping :meth:`Simulator._push`) and how many entries they credit as leapt
(:attr:`Simulator.credited_activations`).  It also checks that the rows are
those of the same grid with the session leap switched off, and with every
leap switched off.
"""

from unittest import mock

from repro.dft.ate import AutomatedTestEquipment, _PolledSession
from repro.explore.campaign import Campaign, clear_scenario_cache
from repro.explore.scenarios import ScenarioGrid, ScenarioSpec
from repro.kernel.simulator import Simulator
from repro.soc.system import SocTlmBase

#: 18 rows holding 24 logic-BIST sessions, 10 of which are uncontended.
SESSIONS = 24
POLLED = 14
#: Queue entries the rows push, and leapt entries they credit: together
#: the 3 500 activations the rows simulate.
PUSHES = 1678
CREDITED = 1822


def run_grid():
    """Rows, logic-BIST sessions, polled sessions, pushes and credited
    entries of the fixed grid."""
    base = ScenarioSpec(name="base", patterns_per_core=48, seed=7,
                        schedules=("sequential", "greedy", "binpack"))
    specs = ScenarioGrid({"core_count": [1, 2, 3], "tam_width_bits": [16, 32]},
                         base=base, name_prefix="guard").specs()
    sessions, polled, credited = [], [], []
    pushes = 0
    push = Simulator._push
    run_logic_bist = AutomatedTestEquipment._run_logic_bist
    polled_init = _PolledSession.__init__
    run_test_schedule = SocTlmBase.run_test_schedule

    def counting_push(self, delay, action, value=None):
        nonlocal pushes
        pushes += 1
        return push(self, delay, action, value)

    def counting_run_logic_bist(self, task):
        sessions.append(task.name)
        return run_logic_bist(self, task)

    def counting_polled_init(self, ate, task, *args):
        polled.append(task.name)
        polled_init(self, ate, task, *args)

    def counting_run_test_schedule(self, *args, **kwargs):
        before = self.sim.credited_activations
        metrics = run_test_schedule(self, *args, **kwargs)
        credited.append(self.sim.credited_activations - before)
        return metrics

    clear_scenario_cache()
    with mock.patch.object(Simulator, "_push", counting_push), \
            mock.patch.object(AutomatedTestEquipment, "_run_logic_bist",
                              counting_run_logic_bist), \
            mock.patch.object(_PolledSession, "__init__",
                              counting_polled_init), \
            mock.patch.object(SocTlmBase, "run_test_schedule",
                              counting_run_test_schedule):
        rows = Campaign(specs).run(workers=1).rows(deterministic=True)
    clear_scenario_cache()
    return rows, len(sessions), len(polled), pushes, sum(credited)


def test_uncontended_sessions_and_polls_are_leapt():
    rows, sessions, polled, pushes, credited = run_grid()
    assert len(rows) == 18
    assert (sessions, polled) == (SESSIONS, POLLED)
    assert (pushes, credited) == (PUSHES, CREDITED)
    assert pushes + credited == sum(row["simulated_activations"]
                                    for row in rows)


def test_rows_match_the_unleapt_forms():
    rows, _, _, pushes, _ = run_grid()
    with mock.patch.object(AutomatedTestEquipment, "_leap_logic_bist",
                           lambda *args: None):
        polled_rows, sessions, polled, polled_pushes, _ = run_grid()
    assert polled == sessions == SESSIONS
    assert polled_pushes > pushes
    assert rows == polled_rows
    # With nothing ever alone, no model leaps anything.
    with mock.patch.object(Simulator, "lookahead_fs", lambda self: -1):
        unleapt_rows, _, _, unleapt_pushes, unleapt_credited = run_grid()
    assert unleapt_credited == 0
    assert unleapt_pushes == sum(row["simulated_activations"]
                                 for row in unleapt_rows)
    assert rows == unleapt_rows
