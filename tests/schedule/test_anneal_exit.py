"""The annealer returns a start it cannot leave without walking, and only
such a start.

A start of singleton phases in which no task may join another's phase is a
fixed point of ``local_search_schedule``'s walk, so the walk is skipped: it
draws nothing from its generator.  These tests replace ``random.Random``
with a stand-in that fails on any draw, so a start that skips the walk
passes and a start that walks raises.
"""

from __future__ import annotations

import pytest

from repro.schedule import scheduler
from repro.schedule.model import TestKind, TestSchedule, TestTask
from repro.schedule.power import PowerModel


class Drew(Exception):
    """Raised by :class:`NoDraws` on any draw."""


class NoDraws:
    """A ``random.Random`` stand-in that can be seeded but not drawn from."""

    def __init__(self, seed=None):
        self.seed = seed

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            raise Drew(name)
        return draw


@pytest.fixture
def no_draws(monkeypatch):
    monkeypatch.setattr(scheduler.random, "Random", NoDraws)


def bist(name: str, core: str, power: float = 1.0) -> TestTask:
    return TestTask(name=name, kind=TestKind.LOGIC_BIST, core=core,
                    pattern_count=4, power=power)


def scan(name: str, core: str) -> TestTask:
    return TestTask(name=name, kind=TestKind.EXTERNAL_SCAN, core=core,
                    pattern_count=4)


ESTIMATES = {"a": 2, "b": 3, "c": 1}

#: Three tasks no two of which may share a phase, one way each:
#: (tasks, power model, max_concurrency).
APART = {
    "shared core": ({name: bist(name, "c0") for name in ESTIMATES},
                    PowerModel(), None),
    "ATE channel": ({name: scan(name, name) for name in ESTIMATES},
                    PowerModel(), None),
    "one task per phase": ({name: bist(name, name) for name in ESTIMATES},
                           PowerModel(), 1),
    "budget below every pair": ({name: bist(name, name)
                                 for name in ESTIMATES},
                                PowerModel(budget=1.5), None),
}


@pytest.mark.parametrize("apart", sorted(APART))
@pytest.mark.parametrize("explicit", [False, True])
def test_a_start_it_cannot_leave_returns_without_drawing(no_draws, apart,
                                                         explicit):
    tasks, power_model, max_concurrency = APART[apart]
    initial = TestSchedule.sequential("s", ["c", "a", "b"]) if explicit else None
    schedule = scheduler.local_search_schedule(
        "annealed", tasks, ESTIMATES, power_model=power_model, steps=256,
        initial=initial, max_concurrency=max_concurrency,
        description="kept")
    assert schedule.name == "annealed"
    assert schedule.description == "kept"
    assert schedule.phases == [["b"], ["a"], ["c"]]


def test_one_feasible_pair_still_walks(no_draws):
    # a and b fit the budget together (1.0), nothing else does.
    tasks = {"a": bist("a", "ca", 0.5), "b": bist("b", "cb", 0.5),
             "c": bist("c", "cc", 1.0)}
    power_model = PowerModel(budget=1.0)
    with pytest.raises(Drew):
        scheduler.local_search_schedule(
            "s", tasks, ESTIMATES, power_model=power_model,
            initial=TestSchedule.sequential("s", ["a", "b", "c"]))
    # The greedy start pairs them up, so its phases are not all singletons.
    with pytest.raises(Drew):
        scheduler.local_search_schedule("s", tasks, ESTIMATES,
                                        power_model=power_model)


@pytest.mark.parametrize("explicit", [False, True])
def test_max_concurrency_zero_on_one_task_still_raises(no_draws, explicit):
    tasks = {"a": bist("a", "c0")}
    initial = TestSchedule.sequential("s", ["a"]) if explicit else None
    with pytest.raises(ValueError, match="max_concurrency"):
        scheduler.local_search_schedule("s", tasks, {"a": 1}, initial=initial,
                                        max_concurrency=0)
