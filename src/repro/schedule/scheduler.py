"""Test-scheduling algorithms.

Four schedule construction algorithms are provided:

* :func:`sequential_schedule` -- run every test one after another (the
  baseline the paper's schedules 1 and 2 correspond to),
* :func:`greedy_concurrent_schedule` -- a longest-task-first list scheduler
  that packs compatible tests into concurrent phases subject to resource
  conflicts and a power budget (the strategy behind schedules 3 and 4),
* :func:`binpack_power_schedule` -- best-fit-decreasing bin packing where
  each phase is a power window under the budget,
* :func:`local_search_schedule` -- seeded, deterministic simulated annealing
  that improves an initial schedule against a configurable cost (estimated
  makespan, peak power, or a weighted combination).

All of them work on the same coarse information as the estimator; the point
of the paper is that the resulting schedules should then be validated by
simulation.  The registry layer that exposes these algorithms as named,
parameterized *strategies* (the campaign axis) lives in
:mod:`repro.schedule.strategies`.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import permutations
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.schedule.model import TestSchedule, TestTask
from repro.schedule.power import PowerModel


def sequential_schedule(name: str, tasks: Mapping[str, TestTask],
                        order: Optional[Sequence[str]] = None,
                        description: str = "") -> TestSchedule:
    """Build a schedule that runs the given tasks strictly one at a time."""
    task_order = list(order) if order is not None else sorted(tasks)
    for task_name in task_order:
        if task_name not in tasks:
            raise KeyError(f"unknown task {task_name!r}")
    schedule = TestSchedule.sequential(name, task_order, description=description)
    schedule.validate(dict(tasks))
    return schedule


def _conflict_sets(tasks: Mapping[str, TestTask]) -> Dict[str, FrozenSet[str]]:
    """Per task, the names of the tasks it cannot share a phase with: those
    whose resources intersect its own, itself included."""
    resources = {task_name: task.resources for task_name, task in tasks.items()}
    return {
        task_name: frozenset(other for other, theirs in resources.items()
                             if not own.isdisjoint(theirs))
        for task_name, own in resources.items()
    }


def _phase_feasibility(tasks: Mapping[str, TestTask], power_model: PowerModel,
                       max_concurrency: Optional[int],
                       phase_power: Optional[Callable[[Tuple[str, ...]], float]] = None
                       ) -> Callable[[str, Sequence[str]], bool]:
    """The test every scheduler places tasks with: ``feasible(task_name,
    phase)`` says whether the task can join the phase without breaking the
    concurrency cap, a resource conflict or the power budget.

    The grown phase's power is measured on ``(*phase, task_name)`` in that
    order, by *phase_power* (default: the power model itself).
    """
    if max_concurrency is not None and max_concurrency < 1:
        raise ValueError(
            f"max_concurrency must be at least 1 (None: unlimited), "
            f"got {max_concurrency!r}")
    conflicts = _conflict_sets(tasks)
    if phase_power is None:
        phase_power = partial(power_model.phase_power, tasks=tasks)
    budget = power_model.budget

    def feasible(task_name: str, phase: Sequence[str]) -> bool:
        if max_concurrency is not None and len(phase) >= max_concurrency:
            return False
        if not conflicts[task_name].isdisjoint(phase):
            return False
        return phase_power((*phase, task_name)) <= budget

    return feasible


def greedy_concurrent_schedule(name: str, tasks: Mapping[str, TestTask],
                               estimates: Mapping[str, int],
                               power_model: Optional[PowerModel] = None,
                               max_concurrency: Optional[int] = None,
                               description: str = "") -> TestSchedule:
    """Longest-task-first list scheduling into concurrent phases.

    Tasks are considered in order of decreasing estimated length; each task is
    placed into the first phase where it conflicts with nobody, stays within
    the power budget and does not exceed *max_concurrency* (``None``:
    unlimited; a cap below 1 raises ``ValueError``).  If no phase fits,
    a new phase is opened.  Phases are finally ordered by decreasing length so
    the longest work starts first (matching the structure of the paper's
    schedules 3 and 4, which front-load the two long core tests).
    """
    for task_name in tasks:
        if task_name not in estimates:
            raise KeyError(f"no estimate for task {task_name!r}")
    power_model = power_model or PowerModel()
    feasible = _phase_feasibility(tasks, power_model, max_concurrency)
    ordered = sorted(tasks, key=lambda task_name: estimates[task_name], reverse=True)
    phases: List[List[str]] = []

    for task_name in ordered:
        for phase in phases:
            if feasible(task_name, phase):
                phase.append(task_name)
                break
        else:
            phases.append([task_name])

    phases.sort(
        key=lambda phase: max(estimates[task_name] for task_name in phase),
        reverse=True,
    )
    schedule = TestSchedule(name=name, phases=phases, description=description)
    schedule.validate(dict(tasks))
    return schedule


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
    feasible = _phase_feasibility(tasks, power_model, max_concurrency)
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
            if feasible(task_name, phase)
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

    A step costs what it changes: it re-measures only the (at most two)
    phases a move or swap touches, and phase power is memoized per call by
    the phase's ordered task tuple.  Every cost is still reduced over all
    phases in phase order, so the walk, and the schedule it returns, are
    bitwise those of re-measuring every phase on every step.  A start the
    walk cannot leave (singleton phases, no task feasible beside another)
    is returned without walking.
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
    powers_by_phase: Dict[Tuple[str, ...], float] = {}

    def phase_power(phase: Tuple[str, ...]) -> float:
        # Keyed by the ordered tuple: a float sum of the same tasks in
        # another order may differ in the last bit.
        try:
            return powers_by_phase[phase]
        except KeyError:
            power = powers_by_phase[phase] = power_model.phase_power(phase, tasks)
            return power

    feasible = _phase_feasibility(tasks, power_model, max_concurrency,
                                  phase_power)
    length_of = estimates.__getitem__

    # The walk state: the phases as tuples, and per phase (in phase order)
    # its estimated length and its power.  A neighbor re-measures only the
    # phases it changes; makespan and peak are then re-reduced over the
    # whole lists in phase order, never kept as running sums, so every cost
    # is the bitwise same float a from-scratch evaluation would give.
    phases = [tuple(phase) for phase in initial.phases]
    lengths = [max(map(length_of, phase)) for phase in phases]
    powers = [phase_power(phase) for phase in phases]

    # A start of singleton phases none of which can take another task is a
    # fixed point of the walk: every step is rejected, swaps two singletons
    # or moves one to a new last phase, so every state it reaches reorders
    # the same phases.  Each has the same int makespan and, as its peak,
    # the max of the same powers (equal up to the sign of a zero, or NaN),
    # so no cost is lower than the start's and the walk returns the start.
    if all(len(phase) == 1 for phase in phases) and not any(
            feasible(task_name, phase)
            for phase, (task_name,) in permutations(phases, 2)):
        steps = 0

    makespan_scale = float(sum(lengths)) or 1.0
    peak_scale = max(powers) or 1.0
    weight = {"makespan": 0.0, "peak_power": 1.0, "combined": peak_weight}[cost]

    def cost_of(lengths: List[int], powers: List[float]) -> float:
        return ((1.0 - weight) * sum(lengths) / makespan_scale
                + weight * max(powers) / peak_scale)

    # The walk draws from ``random.Random(seed)`` without the stdlib's
    # Python frames.  Each ``while (r := getrandbits(n.bit_length())) >= n``
    # below is the loop ``rng.randrange(n)`` runs
    # (``_randbelow_with_getrandbits``), so it returns the same value and
    # consumes the same ``getrandbits`` stream on every supported Python.
    rng = random.Random(seed)
    draw = rng.random
    getrandbits = rng.getrandbits
    current_cost = cost_of(lengths, powers)
    best = phases
    best_cost = current_cost
    # Temperature in relative-cost units, cooled to ~1e-3 over the walk.
    temperature = 0.05
    cooling = (1e-3 / temperature) ** (1.0 / steps) if steps else 1.0

    for _ in range(steps):
        count = len(phases)
        swap = count > 1 and draw() < 0.5
        # Both kinds of step draw their source phase first: a swap as the
        # first item of its sample, a move as its ``randrange(count)``.
        bits = count.bit_length()
        while (source := getrandbits(bits)) >= count:
            pass
        source_phase = phases[source]
        size = len(source_phase)
        if swap:
            # Swap two tasks between two distinct phases.  ``source`` and
            # ``target`` are the draws of ``rng.sample(range(count), 2)``:
            # its pool method up to 21 phases, its set method above.
            if count <= 21:
                bits = (count - 1).bit_length()
                while (target := getrandbits(bits)) >= count - 1:
                    pass
                if target == source:
                    target = count - 1
            else:
                while (target := getrandbits(bits)) >= count or target == source:
                    pass
            target_phase = phases[target]
            bits = size.bit_length()
            while (a := getrandbits(bits)) >= size:
                pass
            bits = len(target_phase).bit_length()
            while (b := getrandbits(bits)) >= len(target_phase):
                pass
            task_a, task_b = source_phase[a], target_phase[b]
            if not (feasible(task_b, source_phase[:a] + source_phase[a + 1:])
                    and feasible(task_a, target_phase[:b] + target_phase[b + 1:])):
                temperature *= cooling
                continue
            changed = [
                (source, source_phase[:a] + (task_b,) + source_phase[a + 1:]),
                (target, target_phase[:b] + (task_a,) + target_phase[b + 1:]),
            ]
            emptied = None
        else:
            # Move one task to another phase, or into a brand-new phase.
            bits = size.bit_length()
            while (index := getrandbits(bits)) >= size:
                pass
            task_name = source_phase[index]
            bits = (count + 1).bit_length()
            while (target := getrandbits(bits)) >= count + 1:
                pass
            if target == source:
                temperature *= cooling
                continue
            if target < count and not feasible(task_name, phases[target]):
                temperature *= cooling
                continue
            shrunk = source_phase[:index] + source_phase[index + 1:]
            grown = phases[target] + (task_name,) if target < count else (task_name,)
            changed = [(source, shrunk), (target, grown)] if shrunk else [(target, grown)]
            emptied = None if shrunk else source
        candidate, candidate_lengths, candidate_powers = (
            phases.copy(), lengths.copy(), powers.copy())
        for index, phase in changed:
            length, power = max(map(length_of, phase)), phase_power(phase)
            if index < count:
                candidate[index] = phase
                candidate_lengths[index] = length
                candidate_powers[index] = power
            else:  # a brand-new last phase
                candidate.append(phase)
                candidate_lengths.append(length)
                candidate_powers.append(power)
        if emptied is not None:
            del candidate[emptied], candidate_lengths[emptied], \
                candidate_powers[emptied]
        new_cost = cost_of(candidate_lengths, candidate_powers)
        delta = new_cost - current_cost
        if delta <= 0 or draw() < math.exp(-delta / max(temperature, 1e-9)):
            phases, lengths, powers = (
                candidate, candidate_lengths, candidate_powers)
            current_cost = new_cost
            if new_cost < best_cost:
                best = candidate
                best_cost = new_cost
        temperature *= cooling

    best_phases = [list(phase) for phase in best]
    best_phases.sort(
        key=lambda phase: max(estimates[task_name] for task_name in phase),
        reverse=True,
    )
    schedule = TestSchedule(name=name, phases=best_phases, description=description)
    schedule.validate(dict(tasks))
    return schedule


def schedule_makespan_estimate(schedule: TestSchedule,
                               estimates: Mapping[str, int]) -> int:
    """Coarse makespan: sum over phases of the longest task in the phase."""
    total = 0
    for phase in schedule.phases:
        total += max(estimates[task_name] for task_name in phase)
    return total


def compare_schedules(schedules: Sequence[TestSchedule],
                      estimates: Mapping[str, int]) -> Dict[str, int]:
    """Return the estimated makespan of every schedule, keyed by name."""
    return {
        schedule.name: schedule_makespan_estimate(schedule, estimates)
        for schedule in schedules
    }
