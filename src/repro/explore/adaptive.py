"""Adaptive exploration: Pareto fronts + successive halving over scenarios.

PR 1's campaign engine explores the design space exhaustively: every
scenario × schedule pair is simulated at full pattern volume.  This module
turns that sweeper into a *search engine* that drives the same worker pool
(:func:`repro.explore.campaign.run_jobs` → ``_execute_job_batch``) in rounds:

* **Successive halving** — every candidate pair is first evaluated on a cheap
  *budget* (the external-scan pattern volume scaled down to a fraction of the
  spec's ``patterns_per_core``), only the most promising ``1/eta`` of the
  field advances, and survivors are re-run at an ``eta``-times larger budget
  until a final full-fidelity round.  The cheap rounds are faithful proxies
  because scenario expansion is independent of the pattern volume: the same
  cores, tasks and schedules are simulated, just with fewer patterns.
* **Pareto-front tracking** — candidates are compared on a configurable
  objective vector (default: minimize ``test_length_cycles`` *and*
  ``peak_power``, the paper's central trade-off).  Between rounds, dominated
  pairs are ranked behind the front and pruned first; the final round's
  non-dominated outcomes are the search result (:attr:`AdaptiveResult.front`).

Result-schema versioning: adaptive artifacts reuse the campaign row schema
(:data:`repro.explore.campaign.RESULT_COLUMNS`, versioned by
``schema_version`` = :data:`repro.explore.campaign.SCHEMA_VERSION`) and append
the per-round provenance columns :data:`PROVENANCE_COLUMNS`, versioned
independently as ``adaptive_schema_version`` =
:data:`ADAPTIVE_SCHEMA_VERSION`.  Bump the adaptive version whenever the
provenance columns or the JSON document layout change; bump the campaign
version when the underlying row schema changes.

Version history: adaptive v1 — the original ``round/budget/survivor``
provenance (PR 3); adaptive v2 — documents additionally carry the complete
search definition (serialized ``specs``, ``schedules_override``, the planned
round count) plus per-round ``round_stats`` and a ``complete`` /
``completed_rounds`` pair, which makes every artifact a *resumable
checkpoint*: ``AdaptiveSearch.run(max_rounds=k)`` stops at a round boundary,
and :func:`resume_search` (CLI: ``adaptive --resume-from``) replays the
completed rounds from the artifact — reconstructing survivors, budgets and
the evaluated-job memo from the provenance columns instead of re-simulating —
then continues mid-search.  A resumed run's final artifact is bitwise
identical to the uninterrupted run's.

Artifacts default to *deterministic* rows (the timing/placement columns
``cpu_seconds``/``worker`` and the run's wall-clock are dropped), so the same
seed produces bitwise-identical CSV/JSON files — the property the adaptive
determinism test pins down.  Pass ``deterministic=False`` to keep timings.

Budget scaling only thins ``generated`` scenarios; ``jpeg``-kind specs carry
their pattern volumes in the fixed test plan, so they run at full cost in
every round (the search still prunes them on the observed objectives).

Round sharding: every round's job list is plain
:class:`~repro.explore.campaign.CampaignJob` data, so ``run(round_shards=N)``
(CLI: ``adaptive --shard I/N``) executes each round through the distribution
layer — :func:`~repro.explore.distrib.plan_shards` →
:func:`~repro.explore.distrib.run_shard` →
:func:`~repro.explore.distrib.merge_shard_documents`, the one merge engine
every shard merge runs through — and reads the round's rows back from it
before selection.  Sharding is execution-only metadata (never
serialized), so sharded, rotated and unsharded runs all write bitwise
identical artifacts.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.explore.artifact import write_csv, write_json
from repro.explore.campaign import (
    NONDETERMINISTIC_COLUMNS,
    RESULT_COLUMNS,
    SCHEMA_VERSION,
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
    cached_scenario,
    execute_job_raced,
    outcome_from_row,
    run_jobs,
)
from repro.explore.distrib import (
    merge_shard_documents,
    plan_shards,
    run_shard,
)
from repro.explore.scenarios import (
    ScenarioGrid,
    ScenarioSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.schedule.scheduler import schedule_makespan_estimate
from repro.schedule.strategies import canonical_schedule_names

#: Version of the adaptive provenance schema (see the module docstring).
ADAPTIVE_SCHEMA_VERSION = 2

#: Per-round provenance columns appended to the campaign row schema.
PROVENANCE_COLUMNS = ("round", "budget", "survivor")

#: Longest budget ladder a search may declare.  Successive halving with
#: more rounds than this is a typo (or a doctored resume artifact), and the
#: bound keeps :meth:`AdaptiveSearch.budgets` from looping for ages on an
#: ``eta`` a hair above 1.
MAX_ROUNDS = 128

#: Result columns that hold labels, not numbers — unusable as objectives.
_NON_NUMERIC_COLUMNS = ("scenario", "kind", "schedule", "strategy",
                        "strategy_params")


# -- objectives and dominance ---------------------------------------------------
@dataclass(frozen=True)
class Objective:
    """One search objective: a result-row column and an optimization sense."""

    column: str
    maximize: bool = False

    def __post_init__(self):
        if self.column not in RESULT_COLUMNS:
            raise ValueError(
                f"unknown objective column {self.column!r}; "
                f"must be one of the campaign result columns"
            )
        if self.column in NONDETERMINISTIC_COLUMNS:
            raise ValueError(
                f"objective column {self.column!r} is nondeterministic "
                f"(timing/placement); searching on it would break the "
                f"bitwise-reproducible artifact guarantee"
            )
        if self.column in _NON_NUMERIC_COLUMNS:
            raise ValueError(
                f"objective column {self.column!r} holds labels, not "
                f"numbers; it cannot be minimized or maximized"
            )

    def __str__(self) -> str:
        return f"{self.column}:{'max' if self.maximize else 'min'}"


#: The paper's central trade-off: test application time vs. peak power.
DEFAULT_OBJECTIVES = (Objective("test_length_cycles"), Objective("peak_power"))


def parse_objective(text: str) -> Objective:
    """Parse ``"column"`` / ``"column:min"`` / ``"column:max"`` (CLI syntax)."""
    column, _, sense = text.partition(":")
    sense = sense or "min"
    if sense not in ("min", "max"):
        raise ValueError(f"objective sense must be 'min' or 'max', got {sense!r}")
    return Objective(column=column, maximize=(sense == "max"))


def objective_vector(outcome: CampaignOutcome,
                     objectives: Sequence[Objective]) -> Tuple[float, ...]:
    """The outcome's objective values in canonical minimizing form."""
    row = outcome.as_row()
    return tuple(
        -float(row[o.column]) if o.maximize else float(row[o.column])
        for o in objectives
    )


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance on minimizing vectors: ``a`` at least as good in all
    objectives and strictly better in at least one.  Equal vectors do not
    dominate each other (ties survive together)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


class ParetoFront:
    """Incrementally maintained set of mutually non-dominated points.

    Points are arbitrary payloads judged by their minimizing objective
    vectors.  :meth:`add` keeps the front minimal: a newly dominated point is
    rejected, a newly dominating point evicts everything it dominates.
    Duplicate vectors coexist on the front (neither dominates the other).
    """

    def __init__(self, objectives: Sequence[Objective] = DEFAULT_OBJECTIVES):
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ValueError("at least one objective is required")
        self._points: List[Tuple[Tuple[float, ...], object]] = []

    def add(self, payload: object,
            vector: Optional[Sequence[float]] = None) -> bool:
        """Offer a point; returns True when it joins the front."""
        if vector is None:
            vector = objective_vector(payload, self.objectives)
        vector = tuple(float(v) for v in vector)
        if len(vector) != len(self.objectives):
            raise ValueError("vector length does not match the objectives")
        for existing, _ in self._points:
            if dominates(existing, vector):
                return False
        self._points = [(v, p) for v, p in self._points
                        if not dominates(vector, v)]
        self._points.append((vector, payload))
        return True

    def extend(self, payloads: Iterable[object]) -> None:
        """Bulk-add payloads through one vectorized non-dominated filter.

        Equivalent to calling :meth:`add` per payload (dominance is
        transitive, so the survivors of sequential adds are exactly the
        non-dominated subset of old-front ∪ new points, in insertion
        order) — but one :func:`pareto_front_mask` call instead of a
        Python scan per point.
        """
        new_points = [(objective_vector(payload, self.objectives), payload)
                      for payload in payloads]
        if not new_points:
            return
        combined = self._points + new_points
        mask = pareto_front_mask([vector for vector, _ in combined])
        self._points = [point for point, keep in zip(combined, mask) if keep]

    @property
    def vectors(self) -> List[Tuple[float, ...]]:
        return [vector for vector, _ in self._points]

    @property
    def points(self) -> List[object]:
        return [payload for _, payload in self._points]

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self):
        return (f"ParetoFront({len(self._points)} points, "
                f"objectives=[{', '.join(map(str, self.objectives))}])")


#: Largest point count for which pareto_ranks keeps the full n×n dominance
#: matrix (one byte per pair; 8192² = 64 MiB).  Beyond it the fronts are
#: peeled with recomputed blocks instead — same result, no n² storage.
_DOMINANCE_MATRIX_MAX_POINTS = 8192

#: Broadcast block size budget: ≈32M comparison cells per temporary.
_DOMINANCE_BLOCK_CELLS = 32_000_000


def _dominance_block(block: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Boolean matrix: ``[i, j]`` is True when ``block[i]`` dominates
    ``vectors[j]`` (minimizing; equal vectors do not dominate)."""
    less_equal = (block[:, None, :] <= vectors[None, :, :]).all(axis=-1)
    less = (block[:, None, :] < vectors[None, :, :]).any(axis=-1)
    return less_equal & less


def _block_rows(total: int, dims: int) -> int:
    return max(1, _DOMINANCE_BLOCK_CELLS // max(1, total * dims))


def pareto_ranks(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Non-dominated sorting: rank 0 is the front, rank 1 the front of the
    rest, and so on.  Equal vectors tie (same rank), exactly like the
    peeling definition: a point's rank is the round in which it becomes
    non-dominated once all earlier rounds' points are removed.

    Vectorized as dominator *counting*: one blocked numpy broadcast builds
    per-point dominator counts (and, for round-sized inputs, the dominance
    matrix itself), then each front is the zero-count set and its outgoing
    dominance is subtracted — O(n²·d) total work instead of O(n²·d·rounds)
    Python-level scans.  Values are compared as float64.
    """
    count = len(vectors)
    if count == 0:
        return []
    matrix = np.asarray([tuple(vector) for vector in vectors],
                        dtype=np.float64)
    dims = matrix.shape[1] if matrix.ndim == 2 else 1
    matrix = matrix.reshape(count, dims)
    block_rows = _block_rows(count, dims)
    keep_matrix = count <= _DOMINANCE_MATRIX_MAX_POINTS
    dominance = (np.empty((count, count), dtype=bool) if keep_matrix
                 else None)
    counts = np.zeros(count, dtype=np.int64)
    for start in range(0, count, block_rows):
        block = _dominance_block(matrix[start:start + block_rows], matrix)
        if keep_matrix:
            dominance[start:start + block_rows] = block
        counts += block.sum(axis=0)

    ranks = np.full(count, -1, dtype=np.int64)
    unassigned = np.ones(count, dtype=bool)
    rank = 0
    while unassigned.any():
        front = unassigned & (counts == 0)
        if not front.any():  # pragma: no cover - defensive (cannot happen)
            front = unassigned.copy()
        ranks[front] = rank
        if keep_matrix:
            counts -= dominance[front].sum(axis=0)
        else:
            front_vectors = matrix[front]
            for start in range(0, len(front_vectors), block_rows):
                counts -= _dominance_block(
                    front_vectors[start:start + block_rows],
                    matrix).sum(axis=0)
        unassigned &= ~front
        rank += 1
    return ranks.tolist()


def pareto_front_mask(vectors: Sequence[Sequence[float]]) -> List[bool]:
    """Vectorized non-dominated filter: ``mask[i]`` is True when no other
    point dominates ``vectors[i]`` (minimizing; equal vectors both survive).

    The two-objective case — the paper's time-vs-power trade-off and the
    search default — runs in O(n log n) via a lexicographic sweep; higher
    dimensions fall back to the blocked dominance broadcast.
    """
    count = len(vectors)
    if count == 0:
        return []
    matrix = np.asarray([tuple(vector) for vector in vectors],
                        dtype=np.float64)
    dims = matrix.shape[1] if matrix.ndim == 2 else 1
    matrix = matrix.reshape(count, dims)
    if dims == 2:
        x, y = matrix[:, 0], matrix[:, 1]
        order = np.lexsort((y, x))
        x_sorted, y_sorted = x[order], y[order]
        # First position of each x-group: everything before it has strictly
        # smaller x, so its running y-minimum is the best possible partner
        # for an x-strict domination.
        group_start = np.searchsorted(x_sorted, x_sorted, side="left")
        running_min = np.minimum.accumulate(y_sorted)
        min_y_smaller_x = np.where(
            group_start > 0,
            running_min[np.maximum(group_start - 1, 0)], np.inf)
        dominated_sorted = ((min_y_smaller_x <= y_sorted)
                            | (y_sorted[group_start] < y_sorted))
        mask = np.ones(count, dtype=bool)
        mask[order] = ~dominated_sorted
        return mask.tolist()
    dominated = np.zeros(count, dtype=bool)
    block_rows = _block_rows(count, dims)
    for start in range(0, count, block_rows):
        dominated |= _dominance_block(matrix[start:start + block_rows],
                                      matrix).any(axis=0)
    return (~dominated).tolist()


def _normalized_scores(vectors: Sequence[Tuple[float, ...]]) -> List[float]:
    """Scalarized tie-break: sum of min-max-normalized objective values.

    Vectorized: per-objective min/max plus one broadcast normalization pass.
    Degenerate objectives (zero span) contribute nothing, exactly like the
    original per-element loop; the per-point summation order over the (few)
    objectives is unchanged, so scores — and the selection tie-breaks built
    on them — are bit-identical to the scalar implementation.
    """
    if not vectors:
        return []
    matrix = np.asarray([tuple(vector) for vector in vectors],
                        dtype=np.float64)
    matrix = matrix.reshape(len(vectors), -1)
    lows = matrix.min(axis=0)
    spans = matrix.max(axis=0) - lows
    live = spans > 0
    if not live.any():
        return [0.0] * len(vectors)
    normalized = (matrix[:, live] - lows[live]) / spans[live]
    return normalized.sum(axis=1).tolist()


# -- the search ------------------------------------------------------------------
#: One search candidate: (scenario name, schedule name).
CandidateKey = Tuple[str, str]

#: Objective columns the surrogate tier can score from the coarse estimates.
SURROGATE_OBJECTIVE_COLUMNS = ("test_length_cycles", "test_length_mcycles",
                               "peak_power")

#: Objective columns whose partial values are provable lower bounds during a
#: bounded simulation (the soundness requirement of racing).  The makespan
#: objective must be ``test_length_cycles`` — its integer cycle count maps
#: exactly onto the simulation horizon.
RACE_OBJECTIVE_COLUMNS = ("test_length_cycles", "peak_power")


def validate_surrogate_objectives(objectives: Sequence[Objective]) -> None:
    """Reject objective sets the coarse estimator cannot score."""
    unsupported = [str(o) for o in objectives
                   if o.maximize or o.column not in SURROGATE_OBJECTIVE_COLUMNS]
    if unsupported:
        raise ValueError(
            f"the surrogate tier only scores minimizing objectives "
            f"over {list(SURROGATE_OBJECTIVE_COLUMNS)}; "
            f"unsupported: {unsupported}")


def validate_race_objectives(objectives: Sequence[Objective]) -> None:
    """Reject objective sets whose partial values are not lower bounds."""
    unsupported = [str(o) for o in objectives
                   if o.maximize or o.column not in RACE_OBJECTIVE_COLUMNS]
    if unsupported:
        raise ValueError(
            f"racing needs provable lower bounds: only minimizing "
            f"objectives over {list(RACE_OBJECTIVE_COLUMNS)} are "
            f"supported; unsupported: {unsupported}")
    if all(o.column != "test_length_cycles" for o in objectives):
        raise ValueError(
            "racing requires the test_length_cycles objective "
            "(the makespan horizon is derived from it)")


@dataclass
class SurrogateEntry:
    """The surrogate tier's verdict on one candidate pair."""

    scenario: str
    schedule: str
    #: Estimated schedule makespan under the scenario's coarse estimates.
    cycles: int
    #: Power-model peak over the schedule's phases.
    peak_power: float
    #: Whether the candidate advanced into the simulated rounds.
    kept: bool = True

    @property
    def key(self) -> CandidateKey:
        return (self.scenario, self.schedule)


@dataclass
class SurrogateScreen:
    """Provenance of the estimator pre-screening round."""

    #: The exploration margin: fraction of the estimator-dominated
    #: candidates forwarded into simulation anyway.
    keep: float
    #: One entry per screened candidate, in candidate order.
    entries: List[SurrogateEntry] = field(default_factory=list)

    @property
    def screened(self) -> int:
        return len(self.entries)

    @property
    def kept(self) -> int:
        return sum(1 for entry in self.entries if entry.kept)

    def scores(self) -> Dict[CandidateKey, Tuple[int, float]]:
        """``(scenario, schedule) -> (cycles, peak_power)`` of every entry."""
        return {entry.key: (entry.cycles, entry.peak_power)
                for entry in self.entries}


def _surrogate_vector(cycles: int, peak: float,
                      objectives: Sequence[Objective]) -> Tuple[float, ...]:
    """Surrogate scores mapped onto the search objectives (minimizing)."""
    values = {"test_length_cycles": float(cycles),
              "test_length_mcycles": cycles / 1e6,
              "peak_power": peak}
    return tuple(values[o.column] for o in objectives)


def surrogate_screen_candidates(
    specs: Sequence[ScenarioSpec],
    candidates: List[Tuple[ScenarioSpec, str]],
    objectives: Sequence[Objective],
    keep: float,
) -> Tuple[SurrogateScreen, List[Tuple[ScenarioSpec, str]]]:
    """Score candidate pairs under the coarse estimator and keep the
    estimator Pareto front plus the exploration margin.

    Each candidate's score is the phase-max sum of its schedule over the
    scenario's estimate map (:attr:`~repro.explore.scenarios.Scenario.estimates`,
    computed once when the scenario is built) plus the power model's peak.
    ``keep`` is the fraction of the estimator-dominated candidates forwarded
    into simulation anyway — 0 trusts the estimator front alone, 1 disables
    pruning.  Selection order (Pareto rank, normalized score, names)
    matches the simulated rounds' selection, so screening is fully
    deterministic.
    """
    validate_surrogate_objectives(objectives)
    if not 0.0 <= keep <= 1.0:
        raise ValueError("surrogate_keep must be in [0, 1]")
    scenarios = {spec.name: cached_scenario(spec) for spec in specs}
    entries: List[SurrogateEntry] = []
    vectors: List[Tuple[float, ...]] = []
    for spec, schedule_name in candidates:
        scenario = scenarios[spec.name]
        schedule = scenario.schedule_for(schedule_name)
        cycles = schedule_makespan_estimate(schedule, scenario.estimates)
        peak = scenario.power_model.schedule_peak_power(
            schedule, scenario.tasks)
        entries.append(SurrogateEntry(scenario=spec.name,
                                      schedule=schedule_name,
                                      cycles=cycles, peak_power=peak,
                                      kept=False))
        vectors.append(_surrogate_vector(cycles, peak, objectives))
    ranks = pareto_ranks(vectors)
    scores = _normalized_scores(vectors)
    front_size = sum(1 for rank in ranks if rank == 0)
    margin = math.ceil(keep * (len(candidates) - front_size))
    order = sorted(
        range(len(candidates)),
        key=lambda i: (ranks[i], scores[i],
                       entries[i].scenario, entries[i].schedule))
    for index in order[:front_size + margin]:
        entries[index].kept = True
    kept_pairs = [candidate for candidate, entry in zip(candidates, entries)
                  if entry.kept]
    return SurrogateScreen(keep=keep, entries=entries), kept_pairs


def _race_horizon(front: "ParetoFront", power_lb: float,
                  objectives: Sequence[Objective]) -> Optional[int]:
    """Largest makespan (cycles) a candidate may reach before the incumbent
    front provably dominates any completion.

    A candidate's final vector is bounded below by ``(L, power_lb)``: the
    simulated makespan only grows, and the simulated peak power is at least
    the largest task power in the schedule (every task records one activity
    interval at its own power).  A front point with ``peak_power <=
    power_lb`` therefore dominates every completion whose length reaches the
    returned horizon, so stopping there is provably sound — the stopped
    candidate could never have joined the front.  Returns None when no front
    point constrains the candidate.
    """
    columns = [o.column for o in objectives]
    length_index = columns.index("test_length_cycles")
    power_index = (columns.index("peak_power")
                   if "peak_power" in columns else None)
    horizon: Optional[int] = None
    for vector in front.vectors:
        length = int(vector[length_index])
        if power_index is None:
            bound = length + 1
        elif vector[power_index] < power_lb:
            bound = length
        elif vector[power_index] == power_lb:
            bound = length + 1
        else:
            continue
        if horizon is None or bound < horizon:
            horizon = bound
    return horizon


def race_jobs(jobs: Sequence[CampaignJob],
              objectives: Sequence[Objective] = None,
              ) -> Tuple[CampaignRun, List[CandidateKey]]:
    """Run campaign jobs sequentially, racing against the incumbent front.

    Each completed job tightens a shared :class:`ParetoFront`; a later job
    is abandoned at the horizon where its completion provably cannot join
    that front.  Returns the run holding only the *completed* outcomes (in
    job order) plus the stopped candidate keys — stopped jobs carry partial
    lower-bound metrics that would poison a flat campaign artifact, so they
    are dropped from the rows rather than recorded.
    """
    if objectives is None:
        objectives = DEFAULT_OBJECTIVES
    validate_race_objectives(objectives)
    wall_start = time.perf_counter()
    incumbent = ParetoFront(objectives)
    completed: List[CampaignOutcome] = []
    stopped: List[CandidateKey] = []
    for job in jobs:
        scenario = cached_scenario(job.spec)
        schedule = scenario.schedule_for(job.schedule)
        power_lb = max((scenario.tasks[name].power
                        for name in schedule.task_names), default=0.0)
        horizon = _race_horizon(incumbent, power_lb, objectives)
        outcome, was_stopped = execute_job_raced(job, horizon)
        if was_stopped:
            stopped.append((job.spec.name, job.schedule))
        else:
            completed.append(outcome)
            incumbent.add(outcome)
    run = CampaignRun(outcomes=completed, workers=1,
                      wall_seconds=time.perf_counter() - wall_start)
    return run, stopped


@dataclass
class AdaptiveRound:
    """Provenance of one successive-halving round."""

    index: int
    budget: float
    run: CampaignRun
    #: Candidate keys that advanced out of this round (for the final round:
    #: the keys of the Pareto front).
    survivors: List[CandidateKey] = field(default_factory=list)
    #: Jobs actually simulated this round.  Budget quantization can make a
    #: job identical to one from an earlier round (``max(1, round(...))``
    #: maps nearby budgets to the same pattern count); such jobs reuse the
    #: earlier outcome — determinism makes the reuse exact — and do not
    #: count as simulated again.
    simulated_jobs: int = 0
    #: Candidates whose simulation was early-stopped by racing (their rows
    #: hold partial lower bounds; they never join fronts or the job memo).
    race_stopped: List[CandidateKey] = field(default_factory=list)

    @property
    def job_count(self) -> int:
        """Result rows of this round (simulated + reused)."""
        return len(self.run.outcomes)

    @property
    def completed_jobs(self) -> int:
        """Jobs simulated to completion this round (stopped ones excluded)."""
        return self.simulated_jobs - len(self.race_stopped)


@dataclass
class AdaptiveResult:
    """The collected outcome of one adaptive search."""

    objectives: Tuple[Objective, ...]
    eta: float
    min_budget: float
    rounds: List[AdaptiveRound]
    #: Non-dominated outcomes of the final full-fidelity round.
    front: List[CampaignOutcome]
    #: Candidate count of the equivalent exhaustive full-fidelity grid.
    exhaustive_jobs: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    #: The search definition (serialized into v2 artifacts so a checkpoint
    #: is self-contained and resumable on any host).
    specs: List[ScenarioSpec] = field(default_factory=list)
    schedules_override: Optional[Tuple[str, ...]] = None
    #: Length of the full budget ladder; ``len(rounds) < planned_rounds``
    #: (equivalently ``complete=False``) marks a round-boundary checkpoint.
    planned_rounds: int = 0
    complete: bool = True
    #: Rounds replayed from a resume artifact instead of simulated.  Run
    #: metadata only (reported, never serialized): a resumed run's final
    #: artifact stays bitwise identical to the uninterrupted run's.
    resumed_rounds: int = 0
    #: Shards each round's job list was executed through (None: unsharded).
    #: Run metadata only, never serialized: sharded rounds recombine through
    #: the provenance-validated merger and stay bitwise identical to
    #: unsharded rounds.
    round_shards: Optional[int] = None
    #: The estimator pre-screening provenance (None: surrogate tier off).
    surrogate: Optional[SurrogateScreen] = None
    #: Whether in-round simulation racing was enabled.
    race: bool = False

    @property
    def total_jobs(self) -> int:
        """Jobs actually simulated (rows reused across rounds not counted)."""
        return sum(r.simulated_jobs for r in self.rounds)

    @property
    def full_fidelity_jobs(self) -> int:
        """Jobs simulated *to completion* at budget 1.0 (what halving,
        surrogate screening and racing are all meant to minimize)."""
        return sum(r.completed_jobs for r in self.rounds if r.budget >= 1.0)

    @property
    def race_stopped_jobs(self) -> int:
        """Simulations early-stopped by racing, across all rounds."""
        return sum(len(r.race_stopped) for r in self.rounds)

    def survivor_specs(self) -> List[ScenarioSpec]:
        """Full-budget specs of the final front, schedules narrowed to the
        surviving ones — feed these into a new :class:`AdaptiveSearch` (to
        extend the search around the front) or into a plain
        :class:`~repro.explore.campaign.Campaign` (to re-measure it)."""
        schedules_by_name: Dict[str, List[str]] = {}
        specs_by_name: Dict[str, ScenarioSpec] = {}
        for outcome in self.front:
            name = outcome.spec.name
            specs_by_name[name] = outcome.spec
            schedules_by_name.setdefault(name, []).append(outcome.schedule)
        return [replace(spec, schedules=tuple(schedules_by_name[name]))
                for name, spec in specs_by_name.items()]

    # -- artifacts ---------------------------------------------------------
    def iter_rows(self, deterministic: bool = True,
                  ) -> Iterator[Dict[str, object]]:
        """Stream every round's result rows plus the provenance columns
        (one row dict at a time — the columnar store's append path)."""
        surrogate_scores = (self.surrogate.scores()
                            if self.surrogate is not None else None)
        for round_ in self.rounds:
            survivors = set(round_.survivors)
            stopped = set(round_.race_stopped)
            for outcome in round_.run.outcomes:
                row = (outcome.deterministic_row() if deterministic
                       else outcome.as_row())
                key = (outcome.spec.name, outcome.schedule)
                row["round"] = round_.index
                row["budget"] = round_.budget
                row["survivor"] = key in survivors
                if surrogate_scores is not None:
                    cycles, peak = surrogate_scores[key]
                    row["surrogate_cycles"] = cycles
                    row["surrogate_peak_power"] = peak
                if self.race:
                    row["race_stopped"] = key in stopped
                yield row

    def rows(self, deterministic: bool = True) -> List[Dict[str, object]]:
        """Every round's result rows plus the provenance columns."""
        return list(self.iter_rows(deterministic))

    def columns(self, deterministic: bool = True) -> List[str]:
        columns = [c for c in RESULT_COLUMNS
                   if not deterministic or c not in NONDETERMINISTIC_COLUMNS]
        columns += list(PROVENANCE_COLUMNS)
        # The surrogate/race provenance columns appear only when the feature
        # ran, so default searches keep writing byte-identical artifacts.
        if self.surrogate is not None:
            columns += ["surrogate_cycles", "surrogate_peak_power"]
        if self.race:
            columns += ["race_stopped"]
        return columns

    def write_csv(self, path, deterministic: bool = True) -> None:
        """Write all rounds as CSV (campaign schema + provenance columns)."""
        write_csv(path, self.columns(deterministic),
                  self.iter_rows(deterministic))

    def write_json(self, path, deterministic: bool = True) -> None:
        """Write a versioned JSON artifact with rows, rounds and the front."""
        write_json(path, self.as_document(deterministic))

    def as_document(self, deterministic: bool = True) -> Dict[str, object]:
        document = {
            "schema_version": SCHEMA_VERSION,
            "adaptive_schema_version": ADAPTIVE_SCHEMA_VERSION,
            "complete": self.complete,
            "planned_rounds": self.planned_rounds,
            "completed_rounds": len(self.rounds),
            "objectives": [str(o) for o in self.objectives],
            "eta": self.eta,
            "min_budget": self.min_budget,
            "budgets": [r.budget for r in self.rounds],
            "round_stats": [
                {"index": r.index, "budget": r.budget,
                 "simulated_jobs": r.simulated_jobs,
                 "survivors": len(r.survivors),
                 **({"race_stopped": len(r.race_stopped)} if self.race
                    else {})}
                for r in self.rounds
            ],
            "exhaustive_jobs": self.exhaustive_jobs,
            "total_jobs": self.total_jobs,
            "full_fidelity_jobs": self.full_fidelity_jobs,
            "specs": [spec_to_dict(spec) for spec in self.specs],
            "schedules_override": (list(self.schedules_override)
                                   if self.schedules_override is not None
                                   else None),
            "columns": self.columns(deterministic),
            "rows": self.rows(deterministic),
            "front": [
                {"scenario": outcome.spec.name, "schedule": outcome.schedule,
                 **{o.column: outcome.as_row()[o.column]
                    for o in self.objectives}}
                for outcome in self.front
            ],
        }
        # Feature blocks appear only when the feature ran (default artifacts
        # stay byte-identical); their presence is also what tells
        # from_document to re-enable the feature on resume.
        if self.surrogate is not None:
            document["surrogate"] = {
                "keep": self.surrogate.keep,
                "screened": self.surrogate.screened,
                "kept": self.surrogate.kept,
                "scores": [
                    {"scenario": entry.scenario, "schedule": entry.schedule,
                     "surrogate_cycles": entry.cycles,
                     "surrogate_peak_power": entry.peak_power,
                     "kept": entry.kept}
                    for entry in self.surrogate.entries
                ],
            }
        if self.race:
            document["race"] = {"stopped_jobs": self.race_stopped_jobs}
        if not deterministic:
            # Placement/timing metadata varies run to run, exactly like the
            # cpu_seconds/worker row columns it accompanies.
            document["workers"] = self.workers
            document["wall_seconds"] = self.wall_seconds
        return document


class AdaptiveSearch:
    """Successive halving with Pareto pruning over scenario × schedule pairs.

    ``specs`` (or a :class:`~repro.explore.scenarios.ScenarioGrid`) define the
    candidate scenarios; ``schedules`` overrides the per-spec schedule
    selection exactly like :class:`~repro.explore.campaign.Campaign`.  The
    budget ladder runs ``min_budget, min_budget·eta, ... , 1.0``; each round
    evaluates the surviving pairs at its budget through
    :func:`~repro.explore.campaign.run_jobs` (``workers=N`` fans out to the
    pool) and keeps the best ``1/eta`` in Pareto-rank order — dominated pairs
    are pruned first, ties inside the cutting rank are broken by a normalized
    objective sum and then by name, so selection is fully deterministic.
    """

    def __init__(self, specs: Union[ScenarioGrid, Iterable[ScenarioSpec]],
                 schedules: Optional[Sequence[str]] = None,
                 objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                 eta: float = 2.0, min_budget: float = 0.25,
                 surrogate: bool = False, surrogate_keep: float = 0.25,
                 race: bool = False):
        if isinstance(specs, ScenarioGrid):
            specs = specs.specs()
        self.specs: List[ScenarioSpec] = list(specs)
        self.schedules = (canonical_schedule_names(schedules)
                          if schedules is not None else None)
        self.objectives = tuple(objectives)
        if not self.specs:
            raise ValueError("an adaptive search needs at least one scenario")
        if not self.objectives:
            raise ValueError("at least one objective is required")
        if not eta > 1.0:
            raise ValueError("eta must be > 1")
        if not 0.0 < min_budget <= 1.0:
            raise ValueError("min_budget must be in (0, 1]")
        self.eta = float(eta)
        self.min_budget = float(min_budget)
        self.surrogate = bool(surrogate)
        self.surrogate_keep = float(surrogate_keep)
        self.race = bool(race)
        if not 0.0 <= self.surrogate_keep <= 1.0:
            raise ValueError("surrogate_keep must be in [0, 1]")
        if self.surrogate:
            validate_surrogate_objectives(self.objectives)
        if self.race:
            validate_race_objectives(self.objectives)
        names = [spec.name for spec in self.specs]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate scenario names in search: {duplicates}")
        self.budgets()  # fail now on a ladder longer than MAX_ROUNDS

    # -- schedule of budgets ------------------------------------------------
    def budgets(self) -> List[float]:
        """The ascending budget ladder ``min_budget, min_budget·eta, ...``,
        capped at (and always ending with) the full-fidelity round."""
        ladder = []
        budget = self.min_budget
        while budget < 1.0 - 1e-12:
            if len(ladder) == MAX_ROUNDS:
                raise ValueError(
                    f"eta={self.eta} and min_budget={self.min_budget} need "
                    f"more than {MAX_ROUNDS} rounds")
            ladder.append(budget)
            budget *= self.eta
        ladder.append(1.0)
        return ladder

    def candidates(self) -> List[Tuple[ScenarioSpec, str]]:
        """The initial candidate pairs, spec-major (cache-friendly order)."""
        return [(spec, schedule)
                for spec in self.specs
                for schedule in (self.schedules or spec.schedules)]

    @staticmethod
    def budgeted_spec(spec: ScenarioSpec, budget: float) -> ScenarioSpec:
        """*spec* thinned to *budget*: the external-scan pattern volume (and
        with it the derived BIST volume) scales down; everything structural —
        cores, tasks, schedules, seeds — is untouched."""
        if budget >= 1.0:
            return spec
        patterns = max(1, round(spec.patterns_per_core * budget))
        return replace(spec, patterns_per_core=patterns)

    # -- selection ----------------------------------------------------------
    def _select(self, outcomes: List[CampaignOutcome], keep: int,
                stopped: Sequence[CandidateKey] = (),
                ) -> List[CandidateKey]:
        """The best *keep* candidate keys, Pareto-rank order.

        Race-stopped outcomes carry partial lower bounds, not comparable to
        completed metrics, so they are excluded from the rank computation
        and sorted (by name) behind every completed candidate — they advance
        only when the keep quota exceeds the completed field.
        """
        stopped_keys = set(stopped)
        completed = [o for o in outcomes
                     if (o.spec.name, o.schedule) not in stopped_keys]
        vectors = [objective_vector(o, self.objectives) for o in completed]
        ranks = pareto_ranks(vectors)
        scores = _normalized_scores(vectors)
        order = sorted(
            range(len(completed)),
            key=lambda i: (ranks[i], scores[i],
                           completed[i].spec.name, completed[i].schedule),
        )
        selected = [(completed[i].spec.name, completed[i].schedule)
                    for i in order]
        selected += sorted(stopped_keys)
        return selected[:keep]

    # -- surrogate screening --------------------------------------------------
    def _surrogate_screen(self, candidates: List[Tuple[ScenarioSpec, str]],
                          ) -> Tuple[SurrogateScreen,
                                     List[Tuple[ScenarioSpec, str]]]:
        return surrogate_screen_candidates(
            self.specs, candidates, self.objectives, self.surrogate_keep)

    # -- racing ---------------------------------------------------------------
    def _race_horizon(self, front: ParetoFront,
                      power_lb: float) -> Optional[int]:
        return _race_horizon(front, power_lb, self.objectives)

    def _run_round_raced(self, jobs: Sequence[CampaignJob],
                         evaluated: Dict[CampaignJob, CampaignOutcome],
                         ) -> Tuple[Dict[CampaignJob, CampaignOutcome],
                                    List[CandidateKey], float]:
        """Race one round in-process: jobs run sequentially against a shared
        incumbent front, and a job is abandoned at the horizon where its
        completion provably cannot join the front.

        Returns ``(outcomes by job, stopped keys, wall seconds)``.  Reused
        outcomes seed the front before any new job runs; each completed job
        tightens it.  Stopped outcomes never enter the cross-round memo (a
        later round re-simulates them fresh) and never join a front.
        """
        wall_start = time.perf_counter()
        incumbent = ParetoFront(self.objectives)
        for job in jobs:
            if job in evaluated:
                incumbent.add(evaluated[job])
        outcomes: Dict[CampaignJob, CampaignOutcome] = {}
        stopped: List[CandidateKey] = []
        for job in jobs:
            if job in evaluated:
                outcomes[job] = evaluated[job]
                continue
            scenario = cached_scenario(job.spec)
            schedule = scenario.schedule_for(job.schedule)
            power_lb = max((scenario.tasks[name].power
                            for name in schedule.task_names), default=0.0)
            horizon = self._race_horizon(incumbent, power_lb)
            outcome, was_stopped = execute_job_raced(job, horizon)
            outcomes[job] = outcome
            if was_stopped:
                stopped.append((job.spec.name, job.schedule))
            else:
                evaluated[job] = outcome
                incumbent.add(outcome)
        return outcomes, stopped, time.perf_counter() - wall_start

    # -- resume -------------------------------------------------------------
    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "AdaptiveSearch":
        """Rebuild the search an artifact document was written by.

        v2 artifacts are self-contained: they carry the serialized specs, the
        schedule override and every search parameter.  Older artifacts (and
        plain campaign artifacts) are rejected with a clear error.  Every
        malformed document raises :class:`ValueError`.
        """
        _validate_resume_versions(document)
        with _malformed_resume_document():
            specs = document["specs"]
            schedules = document.get("schedules_override")
            objectives = document["objectives"]
            if not _is_list_of(specs, Mapping) \
                    or not _is_list_of(objectives, str) \
                    or not (schedules is None or _is_list_of(schedules, str)):
                raise ValueError("resume artifact search definition is "
                                 "malformed")
            surrogate_block = document.get("surrogate")
            return cls(
                [spec_from_dict(entry) for entry in specs],
                schedules=tuple(schedules) if schedules is not None else None,
                objectives=tuple(parse_objective(text) for text in objectives),
                eta=_number(document["eta"]),
                min_budget=_number(document["min_budget"]),
                surrogate=surrogate_block is not None,
                surrogate_keep=(_number(surrogate_block["keep"])
                                if surrogate_block is not None else 0.25),
                race="race" in document,
            )

    def _replayable_rounds(self, document: Mapping[str, object],
                           budgets: Sequence[float],
                           ) -> Dict[int, Dict[CandidateKey, Mapping]]:
        """Validate a checkpoint document against this search and index its
        rows as ``round -> (scenario, schedule) -> row`` for replay.  Every
        malformed document raises :class:`ValueError`."""
        _validate_resume_versions(document)
        if document.get("complete", False):
            raise ValueError(
                "resume artifact is already complete; nothing to resume "
                "(re-running the search reproduces it bit for bit)"
            )
        completed = document.get("completed_rounds", 0)
        if type(completed) is not int:
            raise ValueError(f"resume artifact completed_rounds "
                             f"{completed!r} is not an integer")
        if completed < 1:
            raise ValueError("resume artifact has no completed rounds")
        doc_budgets = document.get("budgets", [])
        if not isinstance(doc_budgets, list):
            raise ValueError("resume artifact budgets are malformed")
        doc_budgets = [_number(b) for b in doc_budgets]
        if len(doc_budgets) != completed or doc_budgets != budgets[:completed]:
            raise ValueError(
                f"resume artifact budget ladder {doc_budgets} does not match "
                f"the search's ladder {budgets} — different eta/min_budget?"
            )
        rows = document.get("rows")
        if not _is_list_of(rows, Mapping) or not all(
                isinstance(row.get("scenario"), str)
                and isinstance(row.get("schedule"), str)
                and type(row.get("round")) is int
                and isinstance(row.get("survivor"), bool)
                and isinstance(row.get("race_stopped", False), bool)
                for row in rows):
            raise ValueError("resume artifact rows are malformed")
        by_round: Dict[int, Dict[CandidateKey, Mapping]] = {}
        for row in rows:
            key = (row["scenario"], row["schedule"])
            by_round.setdefault(row["round"], {})[key] = row
        if sorted(by_round) != list(range(completed)):
            raise ValueError(
                f"resume artifact rows cover rounds {sorted(by_round)}, "
                f"expected 0..{completed - 1}"
            )
        # Every row must name a declared scenario at its round's budget.
        # Spec columns are a pure function of the spec, so this needs no
        # scenario built (a doctored spec could be too large to build).
        declared = {spec.name: spec for spec in self.specs}
        for index, rows_by_key in by_round.items():
            for key, row in rows_by_key.items():
                spec = declared.get(key[0])
                if spec is None:
                    raise ValueError(
                        f"resume artifact round {index} evaluated different "
                        f"candidates than this search would: scenario "
                        f"{key[0]!r} is not declared")
                columns = self.budgeted_spec(spec, budgets[index]).as_dict()
                columns["scenario"] = columns.pop("name")
                if any(row.get(column) != value
                       for column, value in columns.items()):
                    raise ValueError(
                        f"resume artifact row {key} of round {index} does "
                        f"not match the scenario the artifact declares")
        return by_round

    # -- per-round execution ------------------------------------------------
    def _run_round_jobs(self, new_jobs: Sequence[CampaignJob], workers: int,
                        mp_context: Optional[str],
                        batch_size: Optional[int],
                        round_shards: Optional[int],
                        lead_shard: int) -> Tuple[List[CampaignOutcome], float]:
        """Simulate one round's new jobs, optionally through shards.

        With ``round_shards=N`` the round's job list — plain
        :class:`CampaignJob` data, exactly like a campaign's — is planned
        into ``N`` deterministic shards, each executed on the standard
        worker-pool path, and the shard artifacts are recombined through the
        provenance-validated merge engine
        (:func:`~repro.explore.distrib.merge_shard_documents`), whose rows
        are read back before selection.  Execution starts at
        ``lead_shard`` and wraps around; because the merger reorders by
        shard index, the result is independent of that rotation and bitwise
        identical to an unsharded round.  Sharded rounds rebuild outcomes
        from deterministic artifact rows, so the timing/placement fields
        (``cpu_seconds``/``worker``) are zeroed — the deterministic artifact
        is unaffected.

        Each shard runs through :func:`~repro.explore.distrib.run_shard`
        with its own worker pool and per-shard batch sizing — deliberately
        the exact code path (and cost profile) one host of a distributed
        fleet would execute, at the price of ``N`` pool spawns per round on
        a single machine.  Use the plain path when local wall-clock is the
        only concern.
        """
        if round_shards is None or round_shards <= 1 or len(new_jobs) < 2:
            run = run_jobs(list(new_jobs), workers=workers,
                           mp_context=mp_context, batch_size=batch_size)
            return run.outcomes, run.wall_seconds
        count = min(round_shards, len(new_jobs))
        shards = plan_shards(list(new_jobs), count)
        wall_seconds = 0.0
        documents: Dict[int, Mapping[str, object]] = {}
        for offset in range(count):
            index = (lead_shard + offset) % count
            shard_run = run_shard(shards[index], workers=workers,
                                  mp_context=mp_context,
                                  batch_size=batch_size)
            wall_seconds += shard_run.run.wall_seconds
            documents[index] = shard_run.as_document()
        merged = merge_shard_documents([documents[i] for i in range(count)])
        outcomes = [outcome_from_row(row, job.spec)
                    for row, job in zip(merged["rows"], new_jobs)]
        return outcomes, wall_seconds

    # -- execution ----------------------------------------------------------
    def run(self, workers: int = 1, mp_context: Optional[str] = None,
            batch_size: Optional[int] = None,
            max_rounds: Optional[int] = None,
            resume_from: Optional[Mapping[str, object]] = None,
            round_shards: Optional[int] = None,
            lead_shard: int = 0) -> AdaptiveResult:
        """Run the search and return the collected result.

        ``max_rounds=k`` stops after *k* rounds at a round boundary; the
        partial result (``complete=False``, empty front) serializes to a
        checkpoint artifact.  ``resume_from=document`` replays the completed
        rounds recorded in such an artifact — outcomes, survivors and the
        evaluated-job memo are reconstructed from the provenance columns, no
        job is re-simulated — and continues with the remaining rounds.
        Replay is validated against this search (budget ladder, candidate
        sets, survivor selection, simulation counters), so a mismatched or
        doctored artifact fails loudly instead of corrupting the search.

        ``round_shards=N`` routes every round's job list through the
        distribution layer (:func:`~repro.explore.distrib.plan_shards` →
        :func:`~repro.explore.distrib.run_shard` →
        :func:`~repro.explore.distrib.merge_shard_documents`, starting at
        ``lead_shard``); results stay bitwise identical to an unsharded run
        (see :meth:`_run_round_jobs`).
        """
        if max_rounds is not None and max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if round_shards is not None and round_shards < 1:
            raise ValueError("round_shards must be >= 1")
        if round_shards is not None and not 0 <= lead_shard < round_shards:
            raise ValueError(
                f"lead_shard must be in [0, {round_shards}) "
                f"for {round_shards} shard(s)")
        if self.race and round_shards is not None and round_shards > 1:
            raise ValueError(
                "racing runs each round in-process against a shared "
                "incumbent front; it cannot be combined with round shards")
        if self.race and workers > 1:
            raise ValueError(
                "racing runs each round in-process against a shared "
                "incumbent front; it cannot be combined with workers > 1")
        candidates = self.candidates()
        exhaustive_jobs = len(candidates)
        budgets = self.budgets()
        # A checkpoint is validated before the screen builds any scenario.
        replayable = (self._replayable_rounds(resume_from, budgets)
                      if resume_from is not None else {})
        surrogate_screen: Optional[SurrogateScreen] = None
        if self.surrogate:
            # The estimator pre-screen is deterministic and cheap, so a
            # resumed run simply recomputes it; the replay validation below
            # would catch any divergence in the surviving candidate set.
            surrogate_screen, candidates = self._surrogate_screen(candidates)
        limit = (len(budgets) if max_rounds is None
                 else min(max_rounds, len(budgets)))
        rounds: List[AdaptiveRound] = []
        front = ParetoFront(self.objectives)
        # Budget quantization (max(1, round(patterns * b))) can map nearby
        # budgets to identical budgeted specs; evaluated jobs are memoized so
        # such repeats reuse the (deterministic) earlier outcome for free.
        # Race-stopped outcomes are never memoized: their partial metrics are
        # only meaningful against the round front that stopped them.
        evaluated: Dict[CampaignJob, CampaignOutcome] = {}
        resumed_rounds = 0
        wall_start = time.perf_counter()
        for index, budget in enumerate(budgets[:limit]):
            jobs = [CampaignJob(spec=self.budgeted_spec(spec, budget),
                                schedule=schedule)
                    for spec, schedule in candidates]
            new_jobs = [job for job in jobs if job not in evaluated]
            stopped_keys: List[CandidateKey] = []
            round_outcomes: Optional[Dict[CampaignJob, CampaignOutcome]] = None
            if index in replayable:
                stopped_keys, round_outcomes = self._replay_round(
                    index, jobs, new_jobs, replayable[index],
                    resume_from, evaluated)
                resumed_rounds += 1
                wall_seconds = 0.0
            elif self.race:
                round_outcomes, stopped_keys, wall_seconds = \
                    self._run_round_raced(jobs, evaluated)
            elif new_jobs:
                outcomes, wall_seconds = self._run_round_jobs(
                    new_jobs, workers, mp_context, batch_size,
                    round_shards, lead_shard)
                evaluated.update(zip(new_jobs, outcomes))
            else:
                wall_seconds = 0.0
            if round_outcomes is None:
                round_outcomes = {job: evaluated[job] for job in jobs}
            run = CampaignRun(outcomes=[round_outcomes[job] for job in jobs],
                              workers=workers, wall_seconds=wall_seconds)
            final = index == len(budgets) - 1
            stopped_set = set(stopped_keys)
            if final:
                front.extend([o for o in run.outcomes
                              if (o.spec.name, o.schedule) not in stopped_set])
                survivors = [(o.spec.name, o.schedule) for o in front.points]
            else:
                keep = max(1, math.ceil(len(candidates) / self.eta))
                survivors = self._select(run.outcomes, keep, stopped_keys)
                surviving = set(survivors)
                candidates = [(spec, schedule) for spec, schedule in candidates
                              if (spec.name, schedule) in surviving]
            if index in replayable:
                recorded = {key for key, row in replayable[index].items()
                            if row["survivor"]}
                if recorded != set(survivors):
                    raise ValueError(
                        f"resume artifact survivors of round {index} do not "
                        f"match the deterministic selection"
                    )
            rounds.append(AdaptiveRound(index=index, budget=budget, run=run,
                                        survivors=list(survivors),
                                        simulated_jobs=len(new_jobs),
                                        race_stopped=list(stopped_keys)))
        wall_seconds = time.perf_counter() - wall_start
        return AdaptiveResult(
            objectives=self.objectives, eta=self.eta,
            min_budget=self.min_budget, rounds=rounds,
            front=list(front.points), exhaustive_jobs=exhaustive_jobs,
            workers=workers, wall_seconds=wall_seconds,
            specs=list(self.specs), schedules_override=self.schedules,
            planned_rounds=len(budgets), complete=limit == len(budgets),
            resumed_rounds=resumed_rounds,
            round_shards=(round_shards if round_shards
                          and round_shards > 1 else None),
            surrogate=surrogate_screen, race=self.race,
        )

    def _replay_round(
        self, index: int, jobs: Sequence[CampaignJob],
        new_jobs: Sequence[CampaignJob],
        rows_by_key: Mapping[CandidateKey, Mapping],
        document: Mapping[str, object],
        evaluated: Dict[CampaignJob, CampaignOutcome],
    ) -> Tuple[List[CandidateKey], Dict[CampaignJob, CampaignOutcome]]:
        """Load one completed round's outcomes from artifact rows.

        Returns the race-stopped candidate keys recorded for the round and
        the per-job outcome map.  Stopped outcomes carry partial lower-bound
        metrics and are deliberately *not* memoized into ``evaluated``.
        """
        job_keys = [(job.spec.name, job.schedule) for job in jobs]
        if set(job_keys) != set(rows_by_key):
            raise ValueError(
                f"resume artifact round {index} evaluated different "
                f"candidates than this search would — was the artifact "
                f"written by another scenario space?"
            )
        stats = document.get("round_stats", [])
        with _malformed_resume_document():
            recorded = (stats[index]["simulated_jobs"]
                        if index < len(stats) else None)
        if recorded is not None and (type(recorded) is not int
                                     or recorded != len(new_jobs)):
            raise ValueError(
                f"resume artifact recorded {recorded} simulated job(s) "
                f"in round {index}, replay derives {len(new_jobs)}"
            )
        stopped_keys: List[CandidateKey] = []
        round_outcomes: Dict[CampaignJob, CampaignOutcome] = {}
        for job, key in zip(jobs, job_keys):
            row = rows_by_key[key]
            with _malformed_resume_document():
                outcome = outcome_from_row(row, job.spec)
            # The row's spec columns must be this job's (budgeted) spec, and
            # its derived columns must follow from its own metrics.
            if any(row.get(column) != value
                   for column, value in outcome.deterministic_row().items()):
                raise ValueError(
                    f"resume artifact row {key} of round {index} does not "
                    f"match the scenario the artifact declares")
            if row.get("race_stopped", False):
                stopped_keys.append(key)
                round_outcomes[job] = outcome
                continue
            if job not in evaluated:
                evaluated[job] = outcome
            round_outcomes[job] = evaluated[job]
        return stopped_keys, round_outcomes


@contextmanager
def _malformed_resume_document() -> Iterator[None]:
    """Report a resume document of the wrong shape (a missing key, a value
    of the wrong type or size) as the documented :class:`ValueError`."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, IndexError,
            OverflowError) as error:
        raise ValueError(
            f"resume artifact is malformed: {type(error).__name__}: {error}"
        ) from error


def _is_list_of(value: object, kind) -> bool:
    return isinstance(value, list) and all(isinstance(item, kind)
                                           for item in value)


def _number(value: object) -> float:
    """A JSON number as a float; booleans, strings and integers beyond the
    float range are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or abs(value) > sys.float_info.max:
        raise ValueError(f"resume artifact holds {value!r} where a number "
                         f"belongs")
    return float(value)


def _validate_resume_versions(document: Mapping[str, object]) -> None:
    """Reject artifacts this code cannot faithfully resume from."""
    if not isinstance(document, Mapping):
        raise ValueError("resume artifact is not a JSON object")
    found = document.get("schema_version")
    if found != SCHEMA_VERSION:
        raise ValueError(
            f"cannot resume from an artifact with schema_version {found!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    found = document.get("adaptive_schema_version")
    if found != ADAPTIVE_SCHEMA_VERSION:
        raise ValueError(
            f"cannot resume from an artifact with adaptive_schema_version "
            f"{found!r} (expected {ADAPTIVE_SCHEMA_VERSION}; campaign "
            f"artifacts and pre-resume adaptive artifacts are not resumable)"
        )


def resume_search(document: Mapping[str, object], workers: int = 1,
                  mp_context: Optional[str] = None,
                  batch_size: Optional[int] = None,
                  max_rounds: Optional[int] = None,
                  round_shards: Optional[int] = None,
                  lead_shard: int = 0) -> AdaptiveResult:
    """Continue an interrupted adaptive run from its JSON artifact document.

    Rebuilds the search from the artifact's embedded definition
    (:meth:`AdaptiveSearch.from_document`), replays the completed rounds from
    the provenance columns and simulates only the remaining ones.  The final
    result — rows, survivors, front and artifact bytes — is identical to the
    uninterrupted run's (the differential resume tests pin this down).
    """
    search = AdaptiveSearch.from_document(document)
    return search.run(workers=workers, mp_context=mp_context,
                      batch_size=batch_size, max_rounds=max_rounds,
                      resume_from=document, round_shards=round_shards,
                      lead_shard=lead_shard)


def adaptive_search_from_axes(axes, base: Optional[ScenarioSpec] = None,
                              schedules: Optional[Sequence[str]] = None,
                              name_prefix: str = "scenario",
                              **kwargs) -> AdaptiveSearch:
    """Convenience constructor: grid axes straight to a runnable search."""
    grid = ScenarioGrid(axes, base=base, name_prefix=name_prefix)
    return AdaptiveSearch(grid, schedules=schedules, **kwargs)
