"""Parallel exploration campaigns over generated SoC scenarios.

A *campaign* is the cross product of scenarios × schedules, executed as
independent simulation jobs and collected into structured result rows.  Jobs
are pure functions of their :class:`~repro.explore.scenarios.ScenarioSpec`
(deterministic seeds all the way down), so a campaign can fan out to a
``multiprocessing`` worker pool and still produce bitwise-identical metrics
to a serial run — the property the result-equality tests pin down.

The result schema (:data:`RESULT_COLUMNS`) is stable and versioned; campaigns
can be persisted as CSV or JSON artifacts for downstream analysis.

Result-schema versioning: :data:`SCHEMA_VERSION` is written into every JSON
artifact (``schema_version``) and must be bumped whenever :data:`RESULT_COLUMNS`
changes — column additions included, because CSV consumers key on the exact
header.  History: v1 — the original campaign schema (PR 1); v2 — the scenario
grammar grew ``wrapper_parallel_width_bits``, ``wrapper_serial_width_bits``
and ``ate_vector_memory_words`` columns (adaptive-exploration PR); v3 —
artifacts gained a *deterministic* mode (timing/placement columns and run
metadata dropped, so the same seed yields bitwise-identical files) which is
the merge unit of the sharded-execution layer (:mod:`repro.explore.distrib`),
and adaptive documents grew the resume provenance described in
:mod:`repro.explore.adaptive`; v4 — schedule generation became the pluggable
strategy axis (:mod:`repro.schedule.strategies`): the ``schedule`` column
now holds canonical strategy spec strings (``"anneal:steps=512"``) next to
pre-built schedule names, and the ``strategy`` / ``strategy_params`` columns
record the registry name and parameter fingerprint ("" for hand-written
schedules).  The adaptive layer appends provenance columns to this schema
and versions them separately.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.explore.artifact import write_csv, write_json
from repro.explore.scenarios import Scenario, ScenarioGrid, ScenarioSpec, build_scenario
from repro.schedule.strategies import canonical_schedule_names, strategy_fingerprint
from repro.soc.system import SocTlmBase, TestRunMetrics

#: Version of the result-row schema written to artifacts (see the module
#: docstring for the version history).
SCHEMA_VERSION = 4

#: Stable column order of one campaign result row.
RESULT_COLUMNS = (
    "scenario",
    "kind",
    "seed",
    "core_count",
    "tam_width_bits",
    "ate_width_bits",
    "compression_ratio",
    "power_budget",
    "patterns_per_core",
    "memory_words",
    "wrapper_parallel_width_bits",
    "wrapper_serial_width_bits",
    "ate_vector_memory_words",
    "schedule",
    "strategy",
    "strategy_params",
    "phase_count",
    "task_count",
    "estimated_cycles",
    "test_length_cycles",
    "test_length_mcycles",
    "peak_tam_utilization",
    "avg_tam_utilization",
    "peak_power",
    "avg_power",
    "simulated_activations",
    "cpu_seconds",
    "worker",
)

#: Columns that legitimately differ between runs (timing and placement).
NONDETERMINISTIC_COLUMNS = ("cpu_seconds", "worker")


def result_columns(deterministic: bool = False) -> List[str]:
    """The artifact column list; deterministic mode drops timing/placement."""
    if deterministic:
        return [column for column in RESULT_COLUMNS
                if column not in NONDETERMINISTIC_COLUMNS]
    return list(RESULT_COLUMNS)


@dataclass(frozen=True)
class CampaignJob:
    """One unit of campaign work: a scenario simulated under one schedule."""

    spec: ScenarioSpec
    schedule: str


@dataclass
class CampaignOutcome:
    """The structured result row of one campaign job."""

    spec: ScenarioSpec
    schedule: str
    phase_count: int
    task_count: int
    estimated_cycles: int
    test_length_cycles: int
    peak_tam_utilization: float
    avg_tam_utilization: float
    peak_power: float
    avg_power: float
    simulated_activations: int
    #: CPU time of the schedule simulation (``time.process_time()`` around
    #: the run, i.e. user+system time of this process), matching the paper's
    #: "CPU [s]" column.  Not wall-clock: on a loaded host the two diverge,
    #: and the paper reports compute cost, not queueing.  A row whose plan
    #: an earlier row of its scenario already simulated reuses that
    #: simulation, and its CPU time with it.  Nondeterministic (dropped
    #: from deterministic artifacts).
    cpu_seconds: float = 0.0
    worker: int = 0

    @property
    def test_length_mcycles(self) -> float:
        return self.test_length_cycles / 1e6

    def as_row(self) -> Dict[str, object]:
        """The outcome as a flat dict following :data:`RESULT_COLUMNS`."""
        row = dict(self.spec.as_dict())
        row["scenario"] = row.pop("name")
        strategy, params = strategy_fingerprint(self.schedule)
        row.update({
            "schedule": self.schedule,
            "strategy": strategy,
            "strategy_params": params,
            "phase_count": self.phase_count,
            "task_count": self.task_count,
            "estimated_cycles": self.estimated_cycles,
            "test_length_cycles": self.test_length_cycles,
            "test_length_mcycles": self.test_length_mcycles,
            "peak_tam_utilization": self.peak_tam_utilization,
            "avg_tam_utilization": self.avg_tam_utilization,
            "peak_power": self.peak_power,
            "avg_power": self.avg_power,
            "simulated_activations": self.simulated_activations,
            "cpu_seconds": self.cpu_seconds,
            "worker": self.worker,
        })
        return {column: row[column] for column in RESULT_COLUMNS}

    def deterministic_row(self) -> Dict[str, object]:
        """The row without timing/placement columns (stable across runs)."""
        row = self.as_row()
        for column in NONDETERMINISTIC_COLUMNS:
            row.pop(column)
        return row

    def to_metrics(self) -> TestRunMetrics:
        """Reconstruct a :class:`TestRunMetrics` view (sweep compatibility)."""
        return TestRunMetrics(
            schedule_name=self.schedule,
            test_length_cycles=self.test_length_cycles,
            peak_tam_utilization=self.peak_tam_utilization,
            avg_tam_utilization=self.avg_tam_utilization,
            peak_power=self.peak_power,
            avg_power=self.avg_power,
            cpu_seconds=self.cpu_seconds,
            simulated_activations=self.simulated_activations,
        )


def outcome_from_row(row: Mapping[str, object],
                     spec: ScenarioSpec) -> CampaignOutcome:
    """Rebuild a :class:`CampaignOutcome` from an artifact row.

    The inverse of :meth:`CampaignOutcome.as_row` for a caller-supplied
    *spec* (rows drop the structural ``schedules``/``config_overrides``
    fields, so the spec cannot be reconstructed from the row alone).  Rows
    from deterministic artifacts lack the timing/placement columns; those
    fall back to the neutral defaults.  Used by the adaptive resume path to
    replay completed rounds without re-simulating them.
    """
    return CampaignOutcome(
        spec=spec,
        schedule=str(row["schedule"]),
        phase_count=int(row["phase_count"]),
        task_count=int(row["task_count"]),
        estimated_cycles=int(row["estimated_cycles"]),
        test_length_cycles=int(row["test_length_cycles"]),
        peak_tam_utilization=float(row["peak_tam_utilization"]),
        avg_tam_utilization=float(row["avg_tam_utilization"]),
        peak_power=float(row["peak_power"]),
        avg_power=float(row["avg_power"]),
        simulated_activations=int(row["simulated_activations"]),
        cpu_seconds=float(row.get("cpu_seconds", 0.0)),
        worker=int(row.get("worker", 0)),
    )


#: Per-process memo of expanded scenarios (spec -> Scenario).  A campaign
#: typically runs several schedules per scenario, and a pool worker receives
#: many jobs of the same scenario back to back (jobs are ordered spec-major
#: and submitted in batches), so re-expanding the spec for every job wastes
#: most of the pool warm-up.  Specs are frozen/hashable pure data and
#: scenario expansion is deterministic, which makes the cache transparent:
#: cache hits are bitwise identical to cold builds (pinned by the campaign
#: cache tests).  Bounded FIFO so huge grids cannot exhaust worker memory.
_SCENARIO_CACHE: Dict[ScenarioSpec, Scenario] = {}
_SCENARIO_CACHE_MAX = 256
_SCENARIO_CACHE_HITS = 0
_SCENARIO_CACHE_MISSES = 0
#: Rows served from a scenario's simulation memo, and rows simulated.
_SIMULATION_HITS = 0
_SIMULATION_MISSES = 0


def cached_scenario(spec: ScenarioSpec) -> Scenario:
    """`build_scenario` with per-process memoization (worker fast path)."""
    global _SCENARIO_CACHE_HITS, _SCENARIO_CACHE_MISSES
    scenario = _SCENARIO_CACHE.get(spec)
    if scenario is None:
        _SCENARIO_CACHE_MISSES += 1
        scenario = build_scenario(spec)
        if len(_SCENARIO_CACHE) >= _SCENARIO_CACHE_MAX:
            _SCENARIO_CACHE.pop(next(iter(_SCENARIO_CACHE)))
        _SCENARIO_CACHE[spec] = scenario
    else:
        _SCENARIO_CACHE_HITS += 1
    return scenario


def scenario_cache_stats() -> Dict[str, int]:
    """Scenario-memo and simulation-memo hit/miss counts since process
    start or the last :func:`clear_scenario_cache` (scraped by the metrics
    plane)."""
    return {"hits": _SCENARIO_CACHE_HITS, "misses": _SCENARIO_CACHE_MISSES,
            "size": len(_SCENARIO_CACHE),
            "simulation_hits": _SIMULATION_HITS,
            "simulation_misses": _SIMULATION_MISSES}


#: The SoC of the most recent row's scenario, as a one-entry list holding
#: ``(scenario, soc)``.  The next row of the same scenario rewinds it
#: instead of building a new one.  A row takes it with ``pop`` and puts it
#: back only once it completed, so a row that raised or stopped at a race
#: horizon (its simulator still holds entries) leaves the slot empty, and
#: two threads can never share one SoC.  It lives outside the scenario memo
#: on purpose: one SoC per memoized scenario would hold hundreds of them.
_SOC_SLOT: List[Tuple[Scenario, SocTlmBase]] = []


def clear_scenario_cache() -> None:
    """Drop the per-process scenario memo, with the simulation memos its
    scenarios hold, and the SoC slot (test isolation hook)."""
    global _SCENARIO_CACHE_HITS, _SCENARIO_CACHE_MISSES
    global _SIMULATION_HITS, _SIMULATION_MISSES
    _SCENARIO_CACHE.clear()
    _SOC_SLOT.clear()
    _SCENARIO_CACHE_HITS = 0
    _SCENARIO_CACHE_MISSES = 0
    _SIMULATION_HITS = 0
    _SIMULATION_MISSES = 0


def _scenario_soc(scenario: Scenario) -> SocTlmBase:
    """The slot's SoC rewound if it belongs to *scenario*, else a new one."""
    try:
        owner, soc = _SOC_SLOT.pop()
    except IndexError:
        return scenario.build_soc()
    if owner is not scenario:
        return scenario.build_soc()
    soc.rewind()
    return soc


class _Simulated(NamedTuple):
    """What a row reads off the simulation of its plan."""

    test_length_cycles: int
    peak_tam_utilization: float
    avg_tam_utilization: float
    peak_power: float
    avg_power: float
    simulated_activations: int
    completed: bool
    cpu_seconds: float


def _run_job(job: CampaignJob, horizon_cycles: Optional[int]
             ) -> Tuple[CampaignOutcome, bool]:
    """The body of :func:`execute_job` and :func:`execute_job_raced`.

    Neither public function calls the other, so a wrapper installed on
    either name (a profiler marking row starts, say) sees each row once.

    A scenario simulates each distinct plan once per horizon: a row whose
    schedule has the phases of one an earlier row simulated, in the same
    in-phase order (spawn order sets FIFO arbitration), reuses that row's
    scalars from :attr:`Scenario.simulations`.  The schedule's name only
    labels processes and programs, so it stays out of the key; the
    horizon stays in, because a race-stopped row holds partial metrics.
    """
    global _SIMULATION_HITS, _SIMULATION_MISSES
    scenario = cached_scenario(job.spec)
    # Resolves pre-built schedules and materializes registered strategy
    # specs on demand (deterministically, so memoized builds equal cold
    # ones); unknown names raise KeyError.
    schedule = scenario.schedule_for(job.schedule)
    key = (tuple(map(tuple, schedule.phases)), horizon_cycles)
    simulated = scenario.simulations.get(key)
    if simulated is None:
        _SIMULATION_MISSES += 1
        soc = _scenario_soc(scenario)
        # CPU time, not wall clock: the cpu_seconds column reproduces the
        # paper's "CPU [s]" numbers, which measure compute cost.
        # perf_counter here would fold in scheduler queueing on loaded
        # hosts.
        cpu_start = time.process_time()
        metrics = soc.run_test_schedule(schedule, scenario.tasks,
                                        horizon_cycles=horizon_cycles)
        cpu_seconds = time.process_time() - cpu_start
        simulated = scenario.simulations[key] = _Simulated(
            metrics.test_length_cycles, metrics.peak_tam_utilization,
            metrics.avg_tam_utilization, metrics.peak_power,
            metrics.avg_power, metrics.simulated_activations,
            metrics.completed, cpu_seconds)
        if metrics.completed:
            _SOC_SLOT[:] = [(scenario, soc)]
    else:
        _SIMULATION_HITS += 1
    outcome = CampaignOutcome(
        spec=job.spec,
        schedule=job.schedule,
        phase_count=schedule.phase_count,
        task_count=len(schedule.task_names),
        estimated_cycles=scenario.estimated_cycles(job.schedule),
        test_length_cycles=simulated.test_length_cycles,
        peak_tam_utilization=simulated.peak_tam_utilization,
        avg_tam_utilization=simulated.avg_tam_utilization,
        peak_power=simulated.peak_power,
        avg_power=simulated.avg_power,
        simulated_activations=simulated.simulated_activations,
        cpu_seconds=simulated.cpu_seconds,
        worker=os.getpid(),
    )
    return outcome, not simulated.completed


def execute_job(job: CampaignJob) -> CampaignOutcome:
    """Run one campaign job to completion (also the worker-pool entry point).

    Builds the scenario from its spec (through the per-process memo),
    takes its SoC TLM (built once per scenario and rewound between the
    scenario's rows), runs the schedule and reduces the metrics to plain
    scalars so the outcome travels cheaply across process boundaries.  A
    plan the scenario already simulated is not simulated again (see
    :func:`_run_job`).
    """
    return _run_job(job, None)[0]


def execute_job_raced(job: CampaignJob,
                      horizon_cycles: Optional[int],
                      ) -> Tuple[CampaignOutcome, bool]:
    """Run one campaign job under a makespan horizon (the racing path).

    Returns ``(outcome, stopped)``.  With ``horizon_cycles=None`` this is
    exactly :func:`execute_job`.  A job whose simulated makespan exceeds the
    horizon is abandoned (``stopped=True``); its outcome then holds the
    *partial* metrics — deterministic lower bounds of the full run, never
    comparable to completed outcomes on the Pareto front.
    """
    return _run_job(job, horizon_cycles)


def _execute_job_batch(jobs: Sequence[CampaignJob]) -> List[CampaignOutcome]:
    """Pool entry point: run a batch of consecutive jobs in one worker."""
    return [execute_job(job) for job in jobs]


def run_jobs(jobs: Sequence[CampaignJob], workers: int = 1,
             mp_context: Optional[str] = None,
             batch_size: Optional[int] = None) -> CampaignRun:
    """Execute an explicit job list and collect the outcomes.

    The execution engine behind :meth:`Campaign.run` and behind each round of
    :class:`repro.explore.adaptive.AdaptiveSearch`.  ``workers=1`` runs
    in-process; ``workers>1`` fans batches of consecutive jobs
    (:func:`_execute_job_batch`) out to a ``multiprocessing`` pool of the
    given start method, so per-job pickling/IPC is amortized and jobs sharing
    a scenario land on the worker whose scenario memo serves them.  Job
    order — and therefore result order — is identical for serial and parallel
    execution regardless of batching.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    jobs = list(jobs)
    wall_start = time.perf_counter()
    if workers == 1:
        outcomes = [execute_job(job) for job in jobs]
    else:
        if batch_size is None:
            # Small enough to keep every worker busy (several batches per
            # worker), large enough to amortize pickling and keep
            # same-scenario jobs together.
            batch_size = max(1, min(32, len(jobs) // (workers * 4) or 1))
        batches = [jobs[index:index + batch_size]
                   for index in range(0, len(jobs), batch_size)]
        context = multiprocessing.get_context(mp_context)
        with context.Pool(processes=workers) as pool:
            # chunksize stays 1: batches are already the IPC unit, and
            # grouping them further would starve workers on small grids.
            outcome_batches = pool.map(_execute_job_batch, batches,
                                       chunksize=1)
        outcomes = [outcome for batch in outcome_batches for outcome in batch]
    wall_seconds = time.perf_counter() - wall_start
    return CampaignRun(outcomes=outcomes, workers=workers,
                       wall_seconds=wall_seconds)


@dataclass
class CampaignRun:
    """The collected outcomes of one campaign execution."""

    outcomes: List[CampaignOutcome]
    workers: int = 1
    wall_seconds: float = 0.0

    def rows(self, deterministic: bool = False) -> List[Dict[str, object]]:
        if deterministic:
            return self.deterministic_rows()
        return [outcome.as_row() for outcome in self.outcomes]

    def deterministic_rows(self) -> List[Dict[str, object]]:
        return [outcome.deterministic_row() for outcome in self.outcomes]

    @property
    def scenario_count(self) -> int:
        return len({outcome.spec.name for outcome in self.outcomes})

    @property
    def rows_per_second(self) -> float:
        """Result rows per wall-clock second.  A campaign usually runs
        several schedules per scenario, so this counts *rows* (jobs), not
        distinct scenarios — the rate the report footer prints as rows/s."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.outcomes) / self.wall_seconds

    # -- artifacts ---------------------------------------------------------
    def write_csv(self, path, deterministic: bool = False) -> None:
        """Write the result rows as CSV (header = :data:`RESULT_COLUMNS`;
        deterministic mode drops the timing/placement columns, so the same
        seed produces bitwise-identical files)."""
        write_csv(path, result_columns(deterministic),
                  self.rows(deterministic))

    def write_json(self, path, deterministic: bool = False) -> None:
        """Write a versioned JSON artifact with rows and run metadata."""
        write_json(path, self.as_document(deterministic))

    def as_document(self, deterministic: bool = False) -> Dict[str, object]:
        # Key order is part of the bitwise-identity contract: the shard
        # merger (repro.explore.distrib) reassembles exactly this layout, so
        # a merged artifact compares equal byte for byte to a single-host
        # deterministic run.
        document: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "columns": result_columns(deterministic),
        }
        if not deterministic:
            # Placement/timing metadata varies run to run, exactly like the
            # cpu_seconds/worker row columns it accompanies.
            document["workers"] = self.workers
            document["wall_seconds"] = self.wall_seconds
        document["row_count"] = len(self.outcomes)
        document["rows"] = self.rows(deterministic)
        return document


class Campaign:
    """A set of scenario specs executed under their schedules.

    ``schedules`` overrides the per-spec schedule selection when given (every
    scenario then runs exactly those schedules).  ``run(workers=N)`` fans the
    jobs out to a ``multiprocessing`` pool; job order — and therefore result
    order — is identical for serial and parallel execution.
    """

    def __init__(self, specs: Union[ScenarioGrid, Iterable[ScenarioSpec]],
                 schedules: Optional[Sequence[str]] = None):
        if isinstance(specs, ScenarioGrid):
            specs = specs.specs()
        self.specs: List[ScenarioSpec] = list(specs)
        self.schedules = (canonical_schedule_names(schedules)
                          if schedules is not None else None)
        counts = Counter(spec.name for spec in self.specs)
        duplicates = sorted(name for name, count in counts.items() if count > 1)
        if duplicates:
            raise ValueError(f"duplicate scenario names in campaign: {duplicates}")

    def jobs(self) -> List[CampaignJob]:
        return [
            CampaignJob(spec=spec, schedule=schedule_name)
            for spec in self.specs
            for schedule_name in (self.schedules or spec.schedules)
        ]

    def __len__(self) -> int:
        return len(self.jobs())

    def run(self, workers: int = 1, mp_context: Optional[str] = None,
            batch_size: Optional[int] = None) -> CampaignRun:
        """Execute every job and collect the outcomes.

        ``workers=1`` runs in-process; ``workers>1`` uses a worker pool of the
        given ``multiprocessing`` start method (platform default when None).
        Jobs are submitted to the pool in *batches* of consecutive jobs
        (``batch_size``; an adaptive default when None) so that per-job
        pickling/IPC overhead is amortized and jobs sharing a scenario land
        on the same worker, where the scenario memo serves them.  Job order —
        and therefore result order — is identical for serial and parallel
        execution regardless of batching.  (Thin wrapper over
        :func:`run_jobs`.)
        """
        return run_jobs(self.jobs(), workers=workers, mp_context=mp_context,
                        batch_size=batch_size)


def campaign_from_axes(axes: Mapping[str, Sequence],
                       base: Optional[ScenarioSpec] = None,
                       schedules: Optional[Sequence[str]] = None,
                       name_prefix: str = "scenario") -> Campaign:
    """Convenience constructor: grid axes straight to a runnable campaign."""
    grid = ScenarioGrid(axes, base=base, name_prefix=name_prefix)
    return Campaign(grid, schedules=schedules)
