"""Differential test of the schedulers against frozen reference copies.

``local_search_schedule`` evaluates each annealing step incrementally: it
re-measures only the phases a move or swap changes, memoizes phase power by
the phase's *ordered* task tuple and tests conflicts against per-task
conflict sets.  Its contract is that every schedule stays bitwise-identical
to the straightforward implementation, which re-measured every phase of a
deep-copied candidate on every step.  The functions below are verbatim
copies of that implementation (and of the greedy and bin-packing builders it
starts from), frozen here as the reference.

The draws aim at the places where an incremental evaluator can drift:

* powers from {0.1, 0.2, 0.3, 1/3, 0.7}, whose float sums depend on the
  summation order (and, on Python >= 3.12, on ``sum()``'s compensated
  summation), with a budget of exactly 0.6 among the finite ones;
* static and per-core idle power, which a running sum would mis-add;
* shared cores, the ATE channel and ``processor_core`` attributes, so tasks
  conflict in every way the resource model allows;
* ``max_concurrency`` None, 1, 2 and 3, every cost, ``peak_weight`` 0,
  0.25 and 1, steps 0, 1 and 256, and both initial schedules;
* starts the walk cannot leave (singleton phases, no two tasks allowed to
  share one), which it returns without walking, with powers of NaN,
  ``-0.0``, ``0.0`` and ``inf``, and starts one feasible pair away from
  them.

The test is part of the fast suite so that CI runs it on every Python in the
matrix, and so under both summation semantics.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from typing import List, Mapping, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.march import MATS
from repro.schedule import scheduler as incremental
from repro.schedule.model import TestKind, TestSchedule, TestTask
from repro.schedule.power import PowerModel

# ---------------------------------------------------------------------------
# Reference: the full re-evaluation form, verbatim
# ---------------------------------------------------------------------------


def greedy_concurrent_schedule(name: str, tasks: Mapping[str, TestTask],
                               estimates: Mapping[str, int],
                               power_model: Optional[PowerModel] = None,
                               max_concurrency: Optional[int] = None,
                               description: str = "") -> TestSchedule:
    """Longest-task-first list scheduling into concurrent phases.

    Tasks are considered in order of decreasing estimated length; each task is
    placed into the first phase where it conflicts with nobody, stays within
    the power budget and does not exceed *max_concurrency*.  If no phase fits,
    a new phase is opened.  Phases are finally ordered by decreasing length so
    the longest work starts first (matching the structure of the paper's
    schedules 3 and 4, which front-load the two long core tests).
    """
    for task_name in tasks:
        if task_name not in estimates:
            raise KeyError(f"no estimate for task {task_name!r}")
    power_model = power_model or PowerModel()
    ordered = sorted(tasks, key=lambda task_name: estimates[task_name], reverse=True)
    phases: List[List[str]] = []

    for task_name in ordered:
        task = tasks[task_name]
        placed = False
        for phase in phases:
            if max_concurrency is not None and len(phase) >= max_concurrency:
                continue
            if any(task.conflicts_with(tasks[existing]) for existing in phase):
                continue
            if not power_model.phase_fits_budget(phase + [task_name], tasks):
                continue
            phase.append(task_name)
            placed = True
            break
        if not placed:
            phases.append([task_name])

    phases.sort(
        key=lambda phase: max(estimates[task_name] for task_name in phase),
        reverse=True,
    )
    schedule = TestSchedule(name=name, phases=phases, description=description)
    schedule.validate(dict(tasks))
    return schedule


def _phase_feasible(task_name: str, phase: Sequence[str],
                    tasks: Mapping[str, TestTask],
                    power_model: PowerModel,
                    max_concurrency: Optional[int]) -> bool:
    """Can *task_name* join *phase* without breaking any constraint?"""
    if max_concurrency is not None and len(phase) >= max_concurrency:
        return False
    task = tasks[task_name]
    if any(task.conflicts_with(tasks[existing]) for existing in phase):
        return False
    return power_model.phase_fits_budget(list(phase) + [task_name], tasks)


def binpack_power_schedule(name: str, tasks: Mapping[str, TestTask],
                           estimates: Mapping[str, int],
                           power_model: Optional[PowerModel] = None,
                           max_concurrency: Optional[int] = None,
                           fit: str = "best",
                           description: str = "") -> TestSchedule:
    """Best-fit-decreasing bin packing into power windows.

    Each phase is one *power window*: a bin whose capacity is the peak power
    budget.  Tasks are packed in order of decreasing estimated length; among
    the feasible phases (no resource conflict, power budget and concurrency
    respected) the task goes

    * ``fit="best"`` -- into the phase that minimizes the estimated-makespan
      increase: prefer a phase whose current length already covers the task
      (smallest leftover slack), otherwise the phase the task lengthens the
      least.  This hides short tasks under long ones, which is where the
      greedy first-fit scheduler routinely loses time.
    * ``fit="worst"`` -- into the feasible phase with the most remaining
      power headroom, spreading load to flatten the simulated power profile
      (longer schedules, lower concurrent peaks).

    A new phase is opened when nothing fits.  Phases finally run longest
    first, matching the structure of the paper's concurrent schedules.
    """
    if fit not in ("best", "worst"):
        raise ValueError(f"fit must be 'best' or 'worst', got {fit!r}")
    for task_name in tasks:
        if task_name not in estimates:
            raise KeyError(f"no estimate for task {task_name!r}")
    power_model = power_model or PowerModel()
    ordered = sorted(tasks, key=lambda task_name: estimates[task_name], reverse=True)
    phases: List[List[str]] = []

    def best_fit_key(phase: List[str], task_name: str):
        length = max(estimates[existing] for existing in phase)
        slack = length - estimates[task_name]
        # Phases the task hides under (slack >= 0), tightest first, rank
        # ahead of phases it would stretch (slack < 0), cheapest stretch
        # first.  Phase index breaks ties deterministically.
        return (0, slack) if slack >= 0 else (1, -slack)

    def worst_fit_key(phase: List[str], task_name: str):
        # Lowest resulting phase power == most remaining headroom under any
        # finite budget, and still spreads load when the budget is
        # unlimited (where headroom would be infinite for every phase).
        return power_model.phase_power(phase + [task_name], tasks)

    chooser = best_fit_key if fit == "best" else worst_fit_key
    for task_name in ordered:
        candidates = [
            (chooser(phase, task_name), index)
            for index, phase in enumerate(phases)
            if _phase_feasible(task_name, phase, tasks, power_model,
                               max_concurrency)
        ]
        if candidates:
            _, index = min(candidates)
            phases[index].append(task_name)
        else:
            phases.append([task_name])

    phases.sort(
        key=lambda phase: max(estimates[task_name] for task_name in phase),
        reverse=True,
    )
    schedule = TestSchedule(name=name, phases=phases, description=description)
    schedule.validate(dict(tasks))
    return schedule


def local_search_schedule(name: str, tasks: Mapping[str, TestTask],
                          estimates: Mapping[str, int],
                          power_model: Optional[PowerModel] = None,
                          seed: int = 1, steps: int = 256,
                          cost: str = "combined", peak_weight: float = 0.5,
                          initial: Optional[TestSchedule] = None,
                          max_concurrency: Optional[int] = None,
                          description: str = "") -> TestSchedule:
    """Seeded simulated annealing over schedule phases.

    Starts from *initial* (default: the greedy concurrent schedule) and
    explores neighbor schedules by moving one task to another (or a new)
    phase, or swapping two tasks between phases — only constraint-respecting
    neighbors are considered.  A move is accepted when it improves the cost,
    or with the classic Metropolis probability under a geometrically cooled
    temperature.  The whole walk is driven by ``random.Random(seed)``, so a
    given ``(seed, steps, cost, peak_weight)`` always produces the bitwise
    same schedule, in any process.

    *cost* selects the objective over the coarse estimates:

    * ``"makespan"`` -- estimated test time (sum of phase maxima),
    * ``"peak_power"`` -- estimated peak power (max phase power),
    * ``"combined"`` -- both, normalized by the initial schedule's values and
      mixed with ``peak_weight`` (0: pure makespan, 1: pure peak power).
    """
    if cost not in ("makespan", "peak_power", "combined"):
        raise ValueError(
            f"cost must be 'makespan', 'peak_power' or 'combined', got {cost!r}")
    if not 0.0 <= peak_weight <= 1.0:
        raise ValueError("peak_weight must be in [0, 1]")
    if steps < 0:
        raise ValueError("steps cannot be negative")
    for task_name in tasks:
        if task_name not in estimates:
            raise KeyError(f"no estimate for task {task_name!r}")
    power_model = power_model or PowerModel()
    if initial is None:
        initial = greedy_concurrent_schedule(
            name, tasks, estimates, power_model=power_model,
            max_concurrency=max_concurrency)
    phases = [list(phase) for phase in initial.phases]

    def makespan(candidate: List[List[str]]) -> int:
        return sum(max(estimates[task_name] for task_name in phase)
                   for phase in candidate)

    def peak(candidate: List[List[str]]) -> float:
        return max(power_model.phase_power(phase, tasks) for phase in candidate)

    makespan_scale = float(makespan(phases)) or 1.0
    peak_scale = peak(phases) or 1.0
    weight = {"makespan": 0.0, "peak_power": 1.0, "combined": peak_weight}[cost]

    def cost_of(candidate: List[List[str]]) -> float:
        return ((1.0 - weight) * makespan(candidate) / makespan_scale
                + weight * peak(candidate) / peak_scale)

    rng = random.Random(seed)
    current_cost = cost_of(phases)
    best = [list(phase) for phase in phases]
    best_cost = current_cost
    # Temperature in relative-cost units, cooled to ~1e-3 over the walk.
    temperature = 0.05
    cooling = (1e-3 / temperature) ** (1.0 / steps) if steps else 1.0

    def feasible(task_name: str, phase: Sequence[str]) -> bool:
        return _phase_feasible(task_name, phase, tasks, power_model,
                               max_concurrency)

    for _ in range(steps):
        candidate = [list(phase) for phase in phases]
        if len(candidate) > 1 and rng.random() < 0.5:
            # Swap two tasks between two distinct phases.
            source, target = rng.sample(range(len(candidate)), 2)
            a = rng.randrange(len(candidate[source]))
            b = rng.randrange(len(candidate[target]))
            task_a, task_b = candidate[source][a], candidate[target][b]
            rest_source = [t for t in candidate[source] if t != task_a]
            rest_target = [t for t in candidate[target] if t != task_b]
            if not (feasible(task_b, rest_source) and feasible(task_a, rest_target)):
                temperature *= cooling
                continue
            candidate[source][a] = task_b
            candidate[target][b] = task_a
        else:
            # Move one task to another phase, or into a brand-new phase.
            source = rng.randrange(len(candidate))
            task_name = candidate[source][rng.randrange(len(candidate[source]))]
            target = rng.randrange(len(candidate) + 1)
            if target == source:
                temperature *= cooling
                continue
            if target < len(candidate) and not feasible(task_name,
                                                        candidate[target]):
                temperature *= cooling
                continue
            candidate[source].remove(task_name)
            if target == len(candidate):
                candidate.append([task_name])
            else:
                candidate[target].append(task_name)
            candidate = [phase for phase in candidate if phase]
        new_cost = cost_of(candidate)
        delta = new_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            phases = candidate
            current_cost = new_cost
            if new_cost < best_cost:
                best = [list(phase) for phase in candidate]
                best_cost = new_cost
        temperature *= cooling

    best.sort(
        key=lambda phase: max(estimates[task_name] for task_name in phase),
        reverse=True,
    )
    schedule = TestSchedule(name=name, phases=best, description=description)
    schedule.validate(dict(tasks))
    return schedule


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

#: Float powers whose sums depend on the order they are added in.
POWERS = (0.1, 0.2, 0.3, 1 / 3, 0.7)
CORES = ("c0", "c1", "c2", "c3")

_KINDS = (TestKind.LOGIC_BIST, TestKind.EXTERNAL_SCAN,
          TestKind.EXTERNAL_SCAN_COMPRESSED,
          TestKind.MEMORY_MARCH_PROCESSOR, TestKind.FUNCTIONAL)


@st.composite
def task(draw, name: str) -> TestTask:
    kind = draw(st.sampled_from(_KINDS))
    core = draw(st.sampled_from(CORES))
    power = draw(st.sampled_from(POWERS))
    if kind is TestKind.MEMORY_MARCH_PROCESSOR:
        processor = draw(st.sampled_from(CORES + ("processor",)))
        return TestTask(name=name, kind=kind, core=core, march=MATS,
                        power=power,
                        attributes={"processor_core": processor})
    needs_patterns = kind is not TestKind.FUNCTIONAL
    compression = (2.0 if kind is TestKind.EXTERNAL_SCAN_COMPRESSED else 1.0)
    return TestTask(name=name, kind=kind, core=core, power=power,
                    pattern_count=8 if needs_patterns else 0,
                    compression_ratio=compression)


@st.composite
def problems(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    names = [f"t{index}" for index in range(count)]
    tasks = {name: draw(task(name)) for name in names}
    # Narrow lengths make ties between phase lengths (and so the stable
    # final sort and equal-cost moves) common.
    length = st.integers(min_value=1, max_value=12) | st.integers(
        min_value=1, max_value=10_000)
    estimates = {name: draw(length) for name in names}
    budget = draw(st.sampled_from((0.6, math.inf))
                  | st.sampled_from((0.5, 0.9, 1.0, 1.3, 2.0)))
    static = draw(st.sampled_from((0.0, 0.1, 0.2)))
    idle = draw(st.dictionaries(st.sampled_from(CORES),
                                st.sampled_from(POWERS), max_size=3))
    power_model = PowerModel(budget=budget, static_power=static,
                             idle_power=idle)
    return tasks, estimates, power_model


#: Derandomized so that every run, on every Python, draws the same cases.
SETTINGS = dict(deadline=None, derandomize=True)


@settings(max_examples=200, **SETTINGS)
@given(problem=problems(),
       max_concurrency=st.sampled_from((None, 1, 2, 3)),
       cost=st.sampled_from(("makespan", "peak_power", "combined")),
       peak_weight=st.sampled_from((0.0, 0.25, 1.0)),
       steps=st.sampled_from((0, 1, 256)),
       seed=st.integers(min_value=0, max_value=2**16),
       init=st.sampled_from(("greedy", "binpack", "binpack:worst")))
def test_anneal_matches_reference(problem, max_concurrency, cost,
                                  peak_weight, steps, seed, init):
    tasks, estimates, power_model = problem
    anneal_both(tasks, estimates, power_model, max_concurrency,
                start(init, tasks, estimates, power_model, max_concurrency),
                cost=cost, peak_weight=peak_weight, steps=steps, seed=seed)


def start(init, tasks, estimates, power_model, max_concurrency, order=()):
    """The initial schedule: a builder's, or *order* as singleton phases."""
    if init == "explicit":
        return TestSchedule.sequential("s", order)
    if init == "greedy":
        return greedy_concurrent_schedule(
            "s", tasks, estimates, power_model=power_model,
            max_concurrency=max_concurrency)
    return binpack_power_schedule(
        "s", tasks, estimates, power_model=power_model,
        max_concurrency=max_concurrency, fit=init.partition(":")[2] or "best")


def anneal_both(tasks, estimates, power_model, max_concurrency, initial,
                **kwargs):
    """Anneal from *initial* with both implementations; they must agree."""
    kwargs.update(power_model=power_model, initial=initial,
                  max_concurrency=max_concurrency, description="annealed")
    expected = local_search_schedule("s", tasks, estimates, **kwargs)
    actual = incremental.local_search_schedule("s", tasks, estimates, **kwargs)
    assert actual.phases == expected.phases
    assert actual.description == expected.description


@st.composite
def boundary_problems(draw):
    """Conflict-free tasks whose three-task phases sum to about 0.6.

    Under a budget of exactly 0.6 a phase fits or not depending on the
    order its powers are summed in ((0.2 + 0.3) + 0.1 == 0.6, but
    (0.3 + 0.1) + 0.2 > 0.6), which is where a swap's feasibility test and
    its candidate phase (the same tasks in another order) part ways.
    """
    count = draw(st.integers(min_value=4, max_value=8))
    tasks = {f"t{index}": TestTask(name=f"t{index}", kind=TestKind.LOGIC_BIST,
                                   core=f"c{index}", pattern_count=8,
                                   power=draw(st.sampled_from((0.1, 0.2, 0.3))))
             for index in range(count)}
    estimates = {name: draw(st.integers(min_value=1, max_value=12))
                 for name in tasks}
    return tasks, estimates, PowerModel(budget=0.6)


@settings(max_examples=100, **SETTINGS)
@given(problem=boundary_problems(),
       max_concurrency=st.sampled_from((None, 3)),
       cost=st.sampled_from(("makespan", "peak_power", "combined")),
       seed=st.integers(min_value=0, max_value=2**16),
       init=st.sampled_from(("greedy", "binpack")))
def test_anneal_matches_reference_at_the_budget_boundary(
        problem, max_concurrency, cost, seed, init):
    tasks, estimates, power_model = problem
    build = (greedy_concurrent_schedule if init == "greedy"
             else binpack_power_schedule)
    initial = build("s", tasks, estimates, power_model=power_model,
                    max_concurrency=max_concurrency)
    kwargs = dict(power_model=power_model, seed=seed, cost=cost,
                  initial=initial, max_concurrency=max_concurrency)
    expected = local_search_schedule("s", tasks, estimates, **kwargs)
    actual = incremental.local_search_schedule("s", tasks, estimates, **kwargs)
    assert actual.phases == expected.phases


@settings(max_examples=60, **SETTINGS)
@given(problem=problems(),
       max_concurrency=st.sampled_from((None, 1, 2, 3)),
       steps=st.sampled_from((1, 256)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_anneal_default_initial_matches_reference(problem, max_concurrency,
                                                  steps, seed):
    tasks, estimates, power_model = problem
    kwargs = dict(power_model=power_model, seed=seed, steps=steps,
                  max_concurrency=max_concurrency)
    expected = local_search_schedule("s", tasks, estimates, **kwargs)
    actual = incremental.local_search_schedule("s", tasks, estimates, **kwargs)
    assert actual.phases == expected.phases


@settings(max_examples=100, **SETTINGS)
@given(problem=problems(),
       max_concurrency=st.sampled_from((None, 1, 2, 3)),
       fit=st.sampled_from(("best", "worst")))
def test_greedy_and_binpack_match_reference(problem, max_concurrency, fit):
    tasks, estimates, power_model = problem
    assert (incremental.greedy_concurrent_schedule(
                "g", tasks, estimates, power_model=power_model,
                max_concurrency=max_concurrency).phases
            == greedy_concurrent_schedule(
                "g", tasks, estimates, power_model=power_model,
                max_concurrency=max_concurrency).phases)
    assert (incremental.binpack_power_schedule(
                "b", tasks, estimates, power_model=power_model,
                max_concurrency=max_concurrency, fit=fit).phases
            == binpack_power_schedule(
                "b", tasks, estimates, power_model=power_model,
                max_concurrency=max_concurrency, fit=fit).phases)


#: Powers at the edges of float arithmetic: a NaN phase fits no budget and
#: is the max of any list it leads, ``-0.0`` and ``0.0`` are equal but
#: different maxima, and ``inf`` fits no finite budget.
EDGE_POWERS = (math.nan, -0.0, 0.0, math.inf)

_SCAN_KINDS = (TestKind.EXTERNAL_SCAN, TestKind.EXTERNAL_SCAN_COMPRESSED)


def _ordered_pairs_feasible(tasks, power_model, max_concurrency):
    """The ordered pairs ``(x, t)`` the reference lets ``t`` join ``[x]``."""
    return [(x, t) for x, t in itertools.permutations(tasks, 2)
            if _phase_feasible(t, [x], tasks, power_model, max_concurrency)]


@st.composite
def trivial_problems(draw):
    """Tasks no two of which may share a phase, so that every start is
    singleton phases the annealer cannot leave.

    Each draw keeps the pairs apart one way: one shared core, the shared
    ATE channel, ``max_concurrency=1``, or a budget just below every pair's
    power.  Returns the problem and a task order for an explicit start.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    names = [f"t{index}" for index in range(count)]
    apart = draw(st.sampled_from(("core", "ate", "concurrency", "budget")))
    power = st.sampled_from(POWERS + EDGE_POWERS)
    if apart == "ate":
        tasks = {}
        for name in names:
            kind = draw(st.sampled_from(_SCAN_KINDS))
            tasks[name] = TestTask(
                name=name, kind=kind, core=draw(st.sampled_from(CORES)),
                pattern_count=8, power=draw(power),
                compression_ratio=2.0 if kind is TestKind.EXTERNAL_SCAN_COMPRESSED
                else 1.0)
    elif apart == "budget":
        tasks = {name: TestTask(name=name, kind=TestKind.LOGIC_BIST,
                                core=f"c{index}", pattern_count=8,
                                power=draw(power))
                 for index, name in enumerate(names)}
    else:
        tasks = {name: replace(draw(task(name)), power=draw(power),
                               **({"core": "c0"} if apart == "core" else {}))
                 for name in names}
    zero = draw(st.booleans())
    estimates = {name: 0 if zero else draw(st.integers(min_value=0,
                                                        max_value=12))
                 for name in names}
    static = draw(st.sampled_from((0.0, -0.0, 0.1)))
    idle = draw(st.dictionaries(st.sampled_from(CORES),
                                st.sampled_from(POWERS), max_size=3))
    power_model = PowerModel(budget=draw(st.sampled_from((0.6, math.inf,
                                                           math.nan))),
                             static_power=static, idle_power=idle)
    if apart == "budget":
        finite = [pair for pair in (power_model.phase_power(ordered, tasks)
                                    for ordered in itertools.permutations(names, 2))
                  if math.isfinite(pair)]
        # Just below the lowest finite pair; NaN and inf pairs fit no
        # finite budget.
        power_model.budget = (math.nextafter(min(finite), -math.inf)
                              if finite else 0.6)
    max_concurrency = (1 if apart == "concurrency"
                       else draw(st.sampled_from((None, 2, 3))))
    order = draw(st.permutations(names))
    return tasks, estimates, power_model, max_concurrency, order


@st.composite
def near_trivial_problems(draw):
    """Conflict-free tasks of which exactly one pair fits the budget: an
    explicit singleton start is one feasible pair away from a start the
    annealer cannot leave, and the builders' starts pair the two up."""
    count = draw(st.integers(min_value=2, max_value=8))
    names = [f"t{index}" for index in range(count)]
    pair = draw(st.permutations(names))[:2]
    low = st.sampled_from((-0.0, 0.0, 0.1, 0.2))
    high = st.sampled_from((0.7, 1.0, math.nan, math.inf))
    tasks = {name: TestTask(name=name, kind=TestKind.LOGIC_BIST,
                            core=f"c{index}", pattern_count=8,
                            power=draw(low if name in pair else high))
             for index, name in enumerate(names)}
    estimates = {name: draw(st.integers(min_value=0, max_value=12))
                 for name in names}
    power_model = PowerModel(static_power=draw(st.sampled_from((0.0, -0.0, 0.1))))
    # The pair's power in its larger order: both orders fit, nothing else.
    power_model.budget = max(power_model.phase_power(pair, tasks),
                             power_model.phase_power(pair[::-1], tasks))
    max_concurrency = draw(st.sampled_from((None, 2)))
    order = draw(st.permutations(names))
    return tasks, estimates, power_model, max_concurrency, order


_START_ARGS = dict(
    cost=st.sampled_from(("makespan", "peak_power", "combined")),
    peak_weight=st.sampled_from((0.0, 0.25, 1.0)),
    steps=st.sampled_from((0, 1, 256)),
    seed=st.integers(min_value=0, max_value=2**16),
    init=st.sampled_from(("greedy", "binpack", "binpack:worst", "explicit")))


@settings(max_examples=200, **SETTINGS)
@given(problem=trivial_problems(), **_START_ARGS)
def test_anneal_from_a_start_it_cannot_leave_matches_reference(
        problem, init, **kwargs):
    tasks, estimates, power_model, max_concurrency, order = problem
    assert _ordered_pairs_feasible(tasks, power_model, max_concurrency) == []
    initial = start(init, tasks, estimates, power_model, max_concurrency,
                    order)
    assert all(len(phase) == 1 for phase in initial.phases)
    anneal_both(tasks, estimates, power_model, max_concurrency, initial,
                **kwargs)


@settings(max_examples=100, **SETTINGS)
@given(problem=near_trivial_problems(), **_START_ARGS)
def test_anneal_one_feasible_pair_from_a_fixed_start_matches_reference(
        problem, init, **kwargs):
    tasks, estimates, power_model, max_concurrency, order = problem
    assert len(_ordered_pairs_feasible(tasks, power_model,
                                       max_concurrency)) == 2
    anneal_both(tasks, estimates, power_model, max_concurrency,
                start(init, tasks, estimates, power_model, max_concurrency,
                      order), **kwargs)
