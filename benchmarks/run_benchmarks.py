#!/usr/bin/env python
"""Hot-path benchmark runner emitting machine-readable ``BENCH_*.json``.

Measures the performance-critical layers of the stack:

* ``kernel``   -- scheduler dispatch throughput on a short-delay-Timeout
                  dominated workload (many concurrent clocked processes) plus
                  a delta-cycle (zero-delay) drain workload,
* ``tracing``  -- per-transaction append cost of the transaction tracer and
                  activity log (enabled and disabled) and columnar query time,
* ``lfsr``     -- bit-accurate pattern generation (LFSR) and signature
                  compaction (MISR) throughput, per word and as deferred
                  closed-form range folds,
* ``schedule`` -- builds/second of every registered scheduler strategy on a
                  generated task set, plus schedule-quality deltas
                  (estimated makespan / peak power) vs the greedy baseline,
* ``campaign`` -- rows/second of the 50-scenario pool run (serial and
                  worker pool), each timed run from an empty scenario memo,
* ``distrib``  -- shard planning/merge throughput of the distribution layer,
* ``store``    -- columnar store vs dict-of-lists: streaming shard merge,
                  vectorized Pareto ranking/pruning and store aggregation
                  on a >=100k-row synthetic campaign,
* ``coordinator`` -- live-coordination overhead: lease/complete operation
                  throughput of the span queue, steal-path scan cost, and
                  out-of-order streamed-merge rows/second (with the bitwise
                  identity of the regenerated artifact asserted),
* ``metrics``  -- observability overhead: instrumented (structured log +
                  live /metrics exporter) vs bare coordinator drain, with
                  the within-5% invariant, plus exporter scrape latency.

Each benchmark writes ``BENCH_<name>.json`` with the measured numbers under a
run label (``--label``).  Passing ``--baseline-dir`` merges previously
recorded numbers into the same document and computes speedups, which is how
the checked-in artifacts record the before/after trajectory of a PR::

    # on the old tree
    python benchmarks/run_benchmarks.py --label baseline --out /tmp/bench
    # on the new tree
    python benchmarks/run_benchmarks.py --label after --out . \
        --baseline-dir /tmp/bench

The script only uses public APIs, so it runs unchanged on older revisions
(it adapts to either the record-object or the columnar tracer interface),
except that ``lfsr`` needs ``MISR.compact_range``.

CI runs ``--quick`` as a smoke job and uploads the JSON as an artifact.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.kernel import AllOf, NS, SimTime, Simulator, Timeout  # noqa: E402
from repro.kernel.tracing import TransactionRecord, TransactionTracer  # noqa: E402
from repro.rtl.lfsr import LFSR, MISR  # noqa: E402

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

#: Repetitions per timed workload; the best (shortest) run is reported so
#: that co-tenant noise on shared hosts does not masquerade as a slowdown.
REPEATS = 3


def _best_of(repeats, run) -> tuple:
    """Run *run()* repeatedly; returns (best_wall_seconds, last_result)."""
    best = None
    result = None
    for _ in range(repeats):
        wall, result = run()
        if best is None or wall < best:
            best = wall
    return best, result


def _autorange_count(run, floor_seconds) -> int:
    """The smallest count in 1, 2, 5, 10, 20, 50, ... whose *run(count)*
    (returning ``(wall_seconds, result)``) lasts at least *floor_seconds*."""
    base = 1
    while True:
        for count in (base, 2 * base, 5 * base):
            wall, _ = run(count)
            if wall >= floor_seconds:
                return count
        base *= 10


def _autorange_best_of(repeats, run, floor_seconds) -> tuple:
    """Time *run(count)* at the :func:`_autorange_count` count, then
    best-of-*repeats* at that count, so a fast arm is not timed for a few
    microseconds.

    *run(count)* returns ``(wall_seconds, result)``; returns
    ``(count, best_wall_seconds, last_result)``.
    """
    count = _autorange_count(run, floor_seconds)
    best, result = _best_of(repeats, lambda: run(count))
    return count, best, result


def _concatenated_artifact(documents, path) -> bytes:
    """Write the merged artifact of a complete shard set by plain row
    concatenation in shard order — a reference for the merge engine that
    shares none of its code — and return its bytes."""
    from repro.explore.artifact import write_json

    ordered = sorted(documents, key=lambda document: document["shard"]["index"])
    rows = [row for document in ordered for row in document["rows"]]
    write_json(path, {"schema_version": ordered[0]["schema_version"],
                      "columns": list(ordered[0]["columns"]),
                      "row_count": len(rows), "rows": rows})
    return path.read_bytes()


def _autorange_interleaved(repeats, runs, floor_seconds) -> list:
    """Autorange every *run(count)* in *runs* (see :func:`_autorange_count`),
    then time them in turn, *repeats* rounds, so host drift hits every arm
    equally.

    *run(count)* returns ``(wall_seconds, result)``; returns one
    ``(count, best_wall_seconds_per_pass, last_result)`` per run.
    """
    counts = [_autorange_count(run, floor_seconds) for run in runs]
    best = [math.inf] * len(runs)
    results = [None] * len(runs)
    for _ in range(repeats):
        for index, (run, count) in enumerate(zip(runs, counts)):
            wall, results[index] = run(count)
            best[index] = min(best[index], wall / count)
    return list(zip(counts, best, results))


def bench_kernel(scale: float) -> dict:
    """Dispatch throughput of the scheduler.

    The *timeout* workload keeps the pending set large: many concurrent
    processes (cores shifting patterns, clock edges, status polls) each
    waiting short, clock-period-sized delays, about 160 entries pending
    where a model row leaves a handful (docs/performance.md §22), and
    almost every activation is a near-future Timeout.  The *delta*
    workload drains long same-timestamp chains (update-phase style).  The
    *spawn/join* workload measures process fan-out and joins: per step,
    two short child processes plus one delayed event, joined by ``AllOf``,
    the shape of the ATE's per-task processes and barriers.  (EBI bursts
    had this shape until their stages became scheduled callbacks; see
    docs/performance.md §11.)  It is sized from the other two (one stream
    per delta process, one step per timeout step), so process creation,
    teardown and join cost are tracked next to raw dispatch; the cyclic-GC
    collections it triggers are reported for information.

    Each arm repeats its workload until one timing lasts at least
    ``min_arm_seconds``, and the three arms are timed in turn, best of
    ``repeats_best_of`` rounds; walls are per pass of the workload.
    """
    procs = 160
    steps = max(1, int(1200 * scale))
    delta_steps = max(1, int(40_000 * scale))
    streams = 8
    floor_seconds = 0.05 if scale < 1.0 else 0.5
    periods = [SimTime(7, NS), SimTime(10, NS), SimTime(13, NS), SimTime(10, NS)]

    def ticker(period, count):
        for _ in range(count):
            yield Timeout(period)

    def run_timeout_workload(passes):
        wall = 0.0
        for _ in range(passes):
            sim = Simulator("bench_timeout")
            for index in range(procs):
                sim.spawn(ticker(periods[index % len(periods)], steps),
                          name=f"t{index}")
            start = time.perf_counter()
            sim.run()
            wall += time.perf_counter() - start
        return wall, sim.dispatched_activations

    def delta_chain(count):
        for _ in range(count):
            yield  # bare yield: next delta cycle, zero-delay fast lane

    def run_delta_workload(passes):
        wall = 0.0
        for _ in range(passes):
            sim = Simulator("bench_delta")
            for index in range(streams):
                sim.spawn(delta_chain(delta_steps), name=f"d{index}")
            start = time.perf_counter()
            sim.run(until=SimTime(0))
            wall += time.perf_counter() - start
        return wall, sim.dispatched_activations

    def stage(period, cycles):
        yield Timeout(period * cycles)

    def fan_out_stream(sim, fan_outs):
        period = periods[0]
        for index in range(fan_outs):
            first = sim.spawn(stage(period, 3 + index % 4), name="child_a")
            second = sim.spawn(stage(period, 2 + index % 3), name="child_b")
            timer = sim.event("timer")
            timer.notify(period * 5)
            yield AllOf([first.finished, second.finished, timer])

    def run_spawn_join_workload(passes):
        wall = 0.0
        for _ in range(passes):
            sim = Simulator("bench_spawn_join")
            for index in range(streams):
                sim.spawn(fan_out_stream(sim, steps), name=f"join{index}")
            collections = sum(stat["collections"] for stat in gc.get_stats())
            start = time.perf_counter()
            sim.run()
            wall += time.perf_counter() - start
            collections = sum(stat["collections"]
                              for stat in gc.get_stats()) - collections
        return wall, (sim.dispatched_activations, collections)

    (
        (timeout_passes, timeout_wall, timeout_dispatched),
        (delta_passes, delta_wall, delta_dispatched),
        (spawn_join_passes, spawn_join_wall,
         (spawn_join_dispatched, spawn_join_collections)),
    ) = _autorange_interleaved(
        REPEATS, [run_timeout_workload, run_delta_workload,
                  run_spawn_join_workload], floor_seconds)

    return {
        "workload": {
            "timeout_processes": procs,
            "timeout_steps_per_process": steps,
            "delta_processes": streams,
            "delta_steps_per_process": delta_steps,
            "spawn_join_streams": streams,
            "min_arm_seconds": floor_seconds,
            "repeats_best_of": REPEATS,
        },
        "timeout_passes": timeout_passes,
        "timeout_dispatched": timeout_dispatched,
        "timeout_wall_seconds": round(timeout_wall, 6),
        "timeout_dispatch_per_second": round(timeout_dispatched / timeout_wall, 1),
        "delta_passes": delta_passes,
        "delta_dispatched": delta_dispatched,
        "delta_wall_seconds": round(delta_wall, 6),
        "delta_dispatch_per_second": round(delta_dispatched / delta_wall, 1),
        "dispatch_per_second": round(
            (timeout_dispatched + delta_dispatched) / (timeout_wall + delta_wall), 1
        ),
        "spawn_join_passes": spawn_join_passes,
        "spawn_join_dispatched": spawn_join_dispatched,
        "spawn_join_wall_seconds": round(spawn_join_wall, 6),
        "spawn_join_per_second": round(spawn_join_dispatched / spawn_join_wall, 1),
        "spawn_join_gc_collections": spawn_join_collections,
    }


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _trace_append(tracer: TransactionTracer, count: int) -> float:
    """Append *count* transactions the way the TAM channel hot path does."""
    start = time.perf_counter()
    if hasattr(tracer, "record_fs"):  # columnar fast path (new interface)
        for index in range(count):
            # The real call-site pattern: re-test the flag per transaction.
            if tracer.enabled:
                tracer.record_fs(
                    "tam", "burst", index * 1000, index * 1000 + 640,
                    initiator="bench", address=0x1000, data_bits=640,
                    attributes={"busy_cycles": 64},
                )
    else:  # record-object path (seed interface)
        for index in range(count):
            tracer.record(TransactionRecord(
                channel="tam", kind="burst", start=SimTime(index * 1000),
                end=SimTime(index * 1000 + 640), initiator="bench",
                address=0x1000, data_bits=640,
                attributes={"busy_cycles": 64},
            ))
    return time.perf_counter() - start


def bench_tracing(scale: float) -> dict:
    count = max(1, int(60_000 * scale))

    def run_enabled():
        tracer = TransactionTracer(enabled=True)
        return _trace_append(tracer, count), tracer

    def run_disabled():
        tracer = TransactionTracer(enabled=False)
        return _trace_append(tracer, count), tracer

    enabled_wall, enabled = _best_of(REPEATS, run_enabled)
    disabled_wall, _ = _best_of(REPEATS, run_disabled)

    start = time.perf_counter()
    busy = enabled.total_busy_time("tam")
    utilization = enabled.utilization(
        "tam", SimTime(0), SimTime(count * 1000))
    query_wall = time.perf_counter() - start

    # Windowed profile query (the Table-I peak-utilization path): many
    # busy-in-window probes over the same channel, which is where the
    # merged-interval cache + searchsorted implementation earns its keep.
    profile_result: dict = {}
    if hasattr(enabled, "utilization_profile"):
        window_fs = 50_000  # ~20 windows per 1000 appended transactions

        def run_profile():
            start = time.perf_counter()
            profile = enabled.utilization_profile("tam", SimTime(window_fs))
            return time.perf_counter() - start, profile

        profile_wall, profile = _best_of(REPEATS, run_profile)
        profile_result = {
            "profile_wall_seconds": round(profile_wall, 6),
            "profile_windows": len(profile),
            "profile_windows_per_second": round(
                len(profile) / profile_wall, 1),
            "profile_checksum": round(sum(profile), 6),
        }

    log_result: dict = {}
    try:
        from repro.dft.monitor import ActivityLog

        log = ActivityLog()
        start = time.perf_counter()
        for index in range(count // 4):
            log.record(core="c", kind="scan", start=SimTime(index * 100),
                       end=SimTime(index * 100 + 50), power=1.0)
        log_result["activity_append_wall_seconds"] = round(
            time.perf_counter() - start, 6)
        log_result["activity_appends"] = count // 4
    except Exception:  # pragma: no cover - layout drift on old revisions
        pass

    return {
        "workload": {"transactions": count},
        "enabled_wall_seconds": round(enabled_wall, 6),
        "enabled_appends_per_second": round(count / enabled_wall, 1),
        "disabled_wall_seconds": round(disabled_wall, 6),
        "disabled_appends_per_second": round(count / disabled_wall, 1),
        "query_wall_seconds": round(query_wall, 6),
        "query_check": {
            "busy_fs": busy.femtoseconds,
            "utilization": round(utilization, 6),
        },
        **profile_result,
        **log_result,
    }


# ---------------------------------------------------------------------------
# lfsr / misr
# ---------------------------------------------------------------------------

def bench_lfsr(scale: float) -> dict:
    words = max(1, int(20_000 * scale))
    word_bits = 64

    def run_words():
        lfsr = LFSR(32, seed=0xACE1)
        start = time.perf_counter()
        checksum = 0
        for _ in range(words):
            checksum ^= lfsr.next_word(word_bits)
        return time.perf_counter() - start, checksum

    word_wall, checksum = _best_of(REPEATS, run_words)

    patterns = max(1, int(4_000 * scale))
    pattern_bits = 128

    def run_patterns():
        lfsr = LFSR(32, seed=7)
        start = time.perf_counter()
        ones = 0
        for _ in range(patterns):
            ones += sum(lfsr.next_pattern(pattern_bits))
        return time.perf_counter() - start, ones

    pattern_wall, ones = _best_of(REPEATS, run_patterns)

    misr_words = max(1, int(120_000 * scale))

    def run_misr():
        misr = MISR(32)
        start = time.perf_counter()
        signature = misr.compact_sequence(range(misr_words))
        return time.perf_counter() - start, signature

    misr_wall, signature = _best_of(REPEATS, run_misr)

    def run_misr_range():
        # The wrapper's access pattern: consecutive 100-word bursts folded
        # through the deferred closed form, read once at the end.
        misr = MISR(32)
        start = time.perf_counter()
        for first in range(0, misr_words, 100):
            misr.compact_range(first, min(first + 100, misr_words))
        range_signature = misr.signature
        return time.perf_counter() - start, range_signature

    range_wall, range_signature = _best_of(REPEATS, run_misr_range)
    if range_signature != signature:
        raise AssertionError(
            f"compact_range signature {range_signature} differs from the "
            f"per-word compact_sequence signature {signature}")

    return {
        "workload": {
            "words": words, "word_bits": word_bits,
            "patterns": patterns, "pattern_bits": pattern_bits,
            "misr_words": misr_words,
        },
        "word_wall_seconds": round(word_wall, 6),
        "word_bits_per_second": round(words * word_bits / word_wall, 1),
        "pattern_wall_seconds": round(pattern_wall, 6),
        "pattern_bits_per_second": round(
            patterns * pattern_bits / pattern_wall, 1),
        "misr_wall_seconds": round(misr_wall, 6),
        "misr_words_per_second": round(misr_words / misr_wall, 1),
        "misr_range_wall_seconds": round(range_wall, 6),
        "misr_range_words_per_second": round(misr_words / range_wall, 1),
        "checks": {
            "word_checksum": checksum,
            "pattern_ones": ones,
            "misr_signature": signature,
            "misr_range_signature": range_signature,
        },
    }


# ---------------------------------------------------------------------------
# schedule strategies
# ---------------------------------------------------------------------------

def bench_schedule(scale: float) -> dict:
    """Strategy build throughput and schedule quality vs the greedy baseline.

    Builds every registered scheduler strategy (default parameters, plus a
    representative annealing configuration) over a generated multi-core task
    set and reports builds/second next to the estimated makespan and peak
    power relative to greedy — the coarse preview of the estimate-vs-
    simulation comparison the campaign layer runs at scale.
    """
    from repro.explore.scenarios import ScenarioSpec, build_scenario
    from repro.schedule.scheduler import schedule_makespan_estimate
    from repro.schedule.strategies import build_strategy_schedule

    # Each arm is autoranged to at least this long before best-of-3: a
    # fixed build count timed the fast arms for well under a millisecond.
    floor_seconds = 0.05 if scale < 1.0 else 0.5
    scenario = build_scenario(ScenarioSpec(
        name="bench", core_count=6, patterns_per_core=64, power_budget=3.5,
        seed=13, schedules=("sequential",)))
    tasks = scenario.tasks
    estimates = scenario.estimator.estimate_all(tasks)
    power_model = scenario.power_model

    specs = ["sequential", "greedy", "binpack", "binpack:fit=worst",
             "anneal:steps=256,peak_weight=0.25"]
    result: dict = {
        "workload": {"tasks": len(tasks), "min_arm_seconds": floor_seconds,
                     "power_budget": power_model.budget},
        "strategies": {},
    }

    greedy = build_strategy_schedule("greedy", tasks, estimates,
                                     power_model=power_model)
    greedy_makespan = schedule_makespan_estimate(greedy, estimates)
    greedy_peak = power_model.schedule_peak_power(greedy, tasks)

    for text in specs:
        def run_builds(builds, text=text):
            start = time.perf_counter()
            schedule = None
            for _ in range(builds):
                schedule = build_strategy_schedule(
                    text, tasks, estimates, power_model=power_model)
            return time.perf_counter() - start, schedule

        builds, wall, schedule = _autorange_best_of(REPEATS, run_builds,
                                                    floor_seconds)
        makespan = schedule_makespan_estimate(schedule, estimates)
        peak = power_model.schedule_peak_power(schedule, tasks)
        result["strategies"][text] = {
            "builds": builds,
            "builds_per_second": round(builds / wall, 1),
            "phase_count": schedule.phase_count,
            "makespan_estimate": makespan,
            "peak_power_estimate": round(peak, 3),
            "makespan_vs_greedy": round(makespan / greedy_makespan, 4),
            "peak_power_vs_greedy": round(peak / greedy_peak, 4),
        }
    result["greedy_builds_per_second"] = \
        result["strategies"]["greedy"]["builds_per_second"]
    return result


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def _pool_campaign(quick: bool):
    from dataclasses import replace

    from repro.explore.campaign import Campaign, campaign_from_axes
    from repro.explore.scenarios import ScenarioSpec

    if quick:
        return campaign_from_axes(
            {"core_count": [1, 2], "tam_width_bits": [16, 32]},
            base=ScenarioSpec(name="base", patterns_per_core=32, seed=5,
                              schedules=("sequential", "greedy")),
        )
    # The 50-scenario pool workload of the at-scale campaign test.
    campaign = campaign_from_axes(
        {"core_count": [1, 2], "tam_width_bits": [8, 16, 32, 64],
         "compression_ratio": [10.0, 100.0], "power_budget": [3.0, 8.0]},
        base=ScenarioSpec(name="base", patterns_per_core=48, seed=5,
                          schedules=("sequential", "greedy")),
    )
    specs = campaign.specs
    extra = [replace(spec, name=f"{spec.name}_s2", seed=spec.seed + 1)
             for spec in specs]
    return Campaign(specs + extra)


def bench_campaign(scale: float, quick: bool = False) -> dict:
    from repro.explore.campaign import clear_scenario_cache

    campaign = _pool_campaign(quick=quick or scale < 1.0)
    # Fixed, not sized to the host: the ``workload`` block is what
    # ``check_regression.py`` matches a run to its baseline by, so it must
    # read the same on every host (the host's CPUs are in ``host``).
    workers = 2

    # Every timed run starts from an empty scenario memo, so each one
    # simulates its rows instead of replaying the previous run's memo hits
    # (forked pool workers inherit the parent's memo too).
    def run_serial():
        clear_scenario_cache()
        run = campaign.run(workers=1)
        return run.wall_seconds, run

    def run_pool():
        clear_scenario_cache()
        run = campaign.run(workers=workers)
        return run.wall_seconds, run

    serial_wall, serial = _best_of(REPEATS, run_serial)
    pool_wall, pool = _best_of(REPEATS, run_pool)
    serial.wall_seconds = serial_wall
    pool.wall_seconds = pool_wall
    if pool.deterministic_rows() != serial.deterministic_rows():
        raise AssertionError("pool campaign rows diverged from serial rows")
    return {
        "workload": {
            "scenarios": len({spec.name for spec in campaign.specs}),
            "jobs": len(campaign),
            "pool_workers": workers,
        },
        "serial_wall_seconds": round(serial.wall_seconds, 6),
        "serial_rows_per_second": round(serial.rows_per_second, 3),
        "pool_wall_seconds": round(pool.wall_seconds, 6),
        "pool_rows_per_second": round(pool.rows_per_second, 3),
        "rows_identical": True,
    }


def bench_distrib(scale: float) -> dict:
    """Shard plan/serialize/merge overhead (the non-simulation cost of
    distributing a campaign).

    Uses synthetic outcomes so the numbers isolate the distribution layer:
    planning a large job list into shards, JSON-round-tripping the shard
    artifacts and merging them back through the merge engine into memory
    (``merge_shard_documents``: plan, engine, merged document).  Merge
    throughput (rows/second) is the headline — it bounds how fast sharded
    adaptive rounds recombine their rows.  The merged artifact is compared
    byte for byte with a plain row concatenation (``bitwise_identical``).
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.explore.artifact import write_json
    from repro.explore.campaign import CampaignJob, CampaignOutcome, CampaignRun
    from repro.explore.distrib import (
        ShardRun, merge_shard_documents, plan_shards,
    )
    from repro.explore.scenarios import ScenarioSpec

    jobs = []
    for index in range(max(64, int(4000 * scale))):
        spec = ScenarioSpec(name=f"s{index:05d}", core_count=1 + index % 3,
                            patterns_per_core=16 + index % 7, seed=index + 1)
        jobs.append(CampaignJob(spec=spec, schedule="sequential"))
    shard_count = 8

    def outcome(job, salt):
        return CampaignOutcome(
            spec=job.spec, schedule=job.schedule, phase_count=1, task_count=2,
            estimated_cycles=1000 + salt, test_length_cycles=5000 + salt,
            peak_tam_utilization=0.5, avg_tam_utilization=0.25,
            peak_power=2.0, avg_power=1.0, simulated_activations=100 + salt,
        )

    def run_plan():
        start = time.perf_counter()
        shards = plan_shards(jobs, shard_count)
        return time.perf_counter() - start, shards

    plan_wall, shards = _best_of(REPEATS, run_plan)

    documents = []
    for shard in shards:
        run = CampaignRun(outcomes=[outcome(job, shard.start + i)
                                    for i, job in enumerate(shard.jobs)])
        documents.append(json.loads(json.dumps(
            ShardRun(shard, run).as_document())))

    def run_merge(count):
        start = time.perf_counter()
        for _ in range(count):
            merged = merge_shard_documents(documents)
        return time.perf_counter() - start, merged

    merges, merge_wall, merged = _autorange_best_of(REPEATS, run_merge, 0.05)
    merge_wall /= merges
    if merged["row_count"] != len(jobs):
        raise AssertionError("merged row count diverged from the job list")
    with tempfile.TemporaryDirectory(prefix="bench_distrib_") as name:
        tmp = _Path(name)
        write_json(tmp / "merged.json", merged)
        bitwise = ((tmp / "merged.json").read_bytes()
                   == _concatenated_artifact(documents, tmp / "reference.json"))
    if not bitwise:
        raise AssertionError("engine-merged JSON diverged from the row "
                             "concatenation")
    return {
        "workload": {"jobs": len(jobs), "shards": shard_count},
        "plan_wall_seconds": round(plan_wall, 6),
        "plan_jobs_per_second": round(len(jobs) / plan_wall, 1),
        "merge_wall_seconds": round(merge_wall, 6),
        "merge_rows_per_second": round(len(jobs) / merge_wall, 1),
        "bitwise_identical": bitwise,
    }


# ---------------------------------------------------------------------------
# columnar store
# ---------------------------------------------------------------------------

def _synthetic_rows(start: int, stop: int) -> list:
    """Deterministic campaign rows (result_columns(deterministic=True) order,
    realistic value shapes) without running simulations."""
    schedules = ("sequential", "greedy", "binpack:fit=worst",
                 "anneal:steps=512")
    strategies = ("", "", "binpack", "anneal")
    params = ("", "", "fit=worst", "steps=512")
    rows = []
    for i in range(start, stop):
        cycles = 100_000 + 19 * (i % 9931)
        rows.append({
            "scenario": f"scenario_{i:06d}",
            "kind": "generated",
            "seed": i + 1,
            "core_count": 1 + i % 4,
            "tam_width_bits": (8, 16, 32, 64)[i % 4],
            "ate_width_bits": 32,
            "compression_ratio": float((i % 7) * 16.5 + 1.0),
            "power_budget": 3.0 + (i % 5),
            "patterns_per_core": 64 + i % 33,
            "memory_words": 0,
            "wrapper_parallel_width_bits": 0,
            "wrapper_serial_width_bits": 1,
            "ate_vector_memory_words": 0,
            "schedule": schedules[i % 4],
            "strategy": strategies[i % 4],
            "strategy_params": params[i % 4],
            "phase_count": 1 + i % 3,
            "task_count": 2 + i % 5,
            "estimated_cycles": 100_000 + 17 * i,
            "test_length_cycles": cycles,
            "test_length_mcycles": cycles / 1e6,
            "peak_tam_utilization": 0.25 + (i % 64) / 128.0,
            "avg_tam_utilization": 0.125 + (i % 64) / 256.0,
            "peak_power": 1.0 + (i % 97) / 19.0,
            "avg_power": 0.5 + (i % 97) / 38.0,
            "simulated_activations": 1000 + i % 701,
        })
    return rows


def bench_store(scale: float) -> dict:
    """Columnar store vs the dict-of-lists path on a synthetic campaign.

    Four head-to-head measurements at >=100k rows (scale 1.0):

    * *merge* — the merge engine (``merge_shards`` on a ``plan_merge``
      plan) with its two sinks, timed interleaved: in-memory column chunks
      vs a store directory of npz chunks and a manifest (``speedup`` is
      memory wall over store wall),
    * *pareto_ranks* — python peeling vs the vectorized dominator counting,
      on a round-sized sample of the (length, power) objective vectors,
    * *front_prune* — incremental python ``ParetoFront`` vs the
      ``pareto_front_mask`` sweep over every row,
    * *aggregate* — python per-row group-by vs the numpy ``summarize_store``.

    Both merged stores are additionally streamed back to JSON and compared
    byte-for-byte against a plain row concatenation (``bitwise_identical``).
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.explore.adaptive import (
        ParetoFront, dominates, pareto_front_mask, pareto_ranks,
    )
    from repro.explore.campaign import SCHEMA_VERSION, result_columns
    from repro.explore.distrib import (
        DISTRIB_SCHEMA_VERSION, plan_merge, shard_span,
    )
    from repro.explore.report import summarize_store
    from repro.explore.store import (
        ColumnarStore, merge_shards, write_document_json,
    )

    total = max(800, int(120_000 * scale))
    shard_count = 8
    columns = result_columns(deterministic=True)
    documents = []
    for index in range(shard_count):
        start, stop = shard_span(index, shard_count, total)
        documents.append({
            "schema_version": SCHEMA_VERSION,
            "distrib_schema_version": DISTRIB_SCHEMA_VERSION,
            "shard": {"index": index, "count": shard_count, "start": start,
                      "stop": stop, "total_jobs": total,
                      "fingerprint": "0" * 64},
            "columns": columns,
            "row_count": stop - start,
            "rows": _synthetic_rows(start, stop),
        })

    tmp = _Path(tempfile.mkdtemp(prefix="bench_store_"))

    # -- merge: the engine's memory sink vs its store sink, interleaved
    plan = plan_merge(documents)

    def run_merge(store_path):
        start = time.perf_counter()
        store = merge_shards(plan, (documents[position]
                                    for position in plan.order),
                             store_path=store_path)
        return time.perf_counter() - start, store

    memory_wall = store_wall = float("inf")
    for _ in range(REPEATS):
        wall, memory = run_merge(None)
        memory_wall = min(memory_wall, wall)
        wall, _ = run_merge(tmp / "merged.store")
        store_wall = min(store_wall, wall)
    store = ColumnarStore.open(tmp / "merged.store")
    if store.row_count != total or memory.row_count != total:
        raise AssertionError("merge row counts diverged")

    reference = _concatenated_artifact(documents, tmp / "merged_reference.json")
    write_document_json(store, tmp / "merged_store.json")
    write_document_json(memory, tmp / "merged_memory.json")
    bitwise = ((tmp / "merged_store.json").read_bytes() == reference
               and (tmp / "merged_memory.json").read_bytes() == reference)
    if not bitwise:
        raise AssertionError("engine-merged JSON diverged from the row "
                             "concatenation")

    # -- pareto_ranks: python peeling vs vectorized dominator counting
    def ranks_python(vectors):
        vectors = [tuple(v) for v in vectors]
        ranks = [-1] * len(vectors)
        remaining = set(range(len(vectors)))
        rank = 0
        while remaining:
            front = [i for i in remaining
                     if not any(dominates(vectors[j], vectors[i])
                                for j in remaining if j != i)]
            for i in front:
                ranks[i] = rank
            remaining.difference_update(front)
            rank += 1
        return ranks

    lengths = store.column("test_length_cycles")
    powers = store.column("peak_power")
    sample = max(64, min(int(4096 * scale) or 64, total))
    sample_vectors = list(zip(lengths[:sample].tolist(),
                              powers[:sample].tolist()))

    def run_py_ranks():
        start = time.perf_counter()
        ranks = ranks_python(sample_vectors)
        return time.perf_counter() - start, ranks

    # The python peeling is quadratic — one timing pass is plenty at scale.
    py_ranks_wall, py_ranks = _best_of(1 if scale >= 1.0 else REPEATS,
                                       run_py_ranks)

    def run_np_ranks():
        start = time.perf_counter()
        ranks = pareto_ranks(sample_vectors)
        return time.perf_counter() - start, ranks

    np_ranks_wall, np_ranks = _best_of(REPEATS, run_np_ranks)
    if np_ranks != py_ranks:
        raise AssertionError("vectorized pareto_ranks diverged from the "
                             "python reference")

    # -- front pruning over every row: python ParetoFront vs the 2-D sweep
    all_vectors = list(zip(lengths.tolist(), powers.tolist()))

    def run_py_front():
        start = time.perf_counter()
        front = ParetoFront()
        for index, vector in enumerate(all_vectors):
            front.add(index, vector=vector)
        return time.perf_counter() - start, front

    py_front_wall, py_front = _best_of(REPEATS, run_py_front)

    def run_np_front():
        start = time.perf_counter()
        mask = pareto_front_mask(all_vectors)
        return time.perf_counter() - start, mask

    np_front_wall, np_mask = _best_of(REPEATS, run_np_front)
    if sorted(py_front.points) != [i for i, keep in enumerate(np_mask)
                                   if keep]:
        raise AssertionError("pareto_front_mask diverged from the "
                             "incremental ParetoFront")

    # -- aggregation over the persisted artifact: JSON parse + python row
    # loop vs store open + numpy summarize_store (both start from disk, the
    # workflow being "summarize an artifact somebody handed you").
    def run_py_aggregate():
        start = time.perf_counter()
        with open(tmp / "merged_reference.json") as handle:
            document = json.load(handle)
        groups: dict = {}
        for row in document["rows"]:
            entry = groups.setdefault(
                row["schedule"], {"rows": 0, "sum": 0.0,
                                  "min": float("inf"), "max": float("-inf")})
            entry["rows"] += 1
            value = row["test_length_cycles"]
            entry["sum"] += value
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)
        return time.perf_counter() - start, groups

    py_agg_wall, py_groups = _best_of(REPEATS, run_py_aggregate)

    def run_np_aggregate():
        start = time.perf_counter()
        reopened = ColumnarStore.open(tmp / "merged.store")
        summary = summarize_store(reopened, metrics=("test_length_cycles",))
        return time.perf_counter() - start, summary

    np_agg_wall, summary = _best_of(REPEATS, run_np_aggregate)
    for entry in summary:
        reference = py_groups[entry["schedule"]]
        if entry["rows"] != reference["rows"] or \
                entry["min_test_length_cycles"] != reference["min"]:
            raise AssertionError("summarize_store diverged from the python "
                                 "group-by")

    return {
        "workload": {
            "rows": total, "shards": shard_count, "columns": len(columns),
            "pareto_sample": sample, "repeats_best_of": REPEATS,
        },
        "merge": {
            "memory_wall_seconds": round(memory_wall, 6),
            "memory_rows_per_second": round(total / memory_wall, 1),
            "store_wall_seconds": round(store_wall, 6),
            "store_rows_per_second": round(total / store_wall, 1),
            "speedup": round(memory_wall / store_wall, 2),
        },
        "pareto_ranks": {
            "python_wall_seconds": round(py_ranks_wall, 6),
            "numpy_wall_seconds": round(np_ranks_wall, 6),
            "speedup": round(py_ranks_wall / np_ranks_wall, 2),
            "identical": True,
        },
        "front_prune": {
            "python_wall_seconds": round(py_front_wall, 6),
            "numpy_wall_seconds": round(np_front_wall, 6),
            "speedup": round(py_front_wall / np_front_wall, 2),
            "front_size": int(sum(np_mask)),
            "identical": True,
        },
        "aggregate": {
            "python_wall_seconds": round(py_agg_wall, 6),
            "numpy_wall_seconds": round(np_agg_wall, 6),
            "speedup": round(py_agg_wall / np_agg_wall, 2),
            "groups": len(summary),
            "identical": True,
        },
        "bitwise_identical": bitwise,
        "merge_speedup": round(memory_wall / store_wall, 2),
        "pareto_speedup": round(py_ranks_wall / np_ranks_wall, 2),
        "store_merge_rows_per_second": round(total / store_wall, 1),
    }


# ---------------------------------------------------------------------------
# surrogate tier
# ---------------------------------------------------------------------------

def _surrogate_space(quick: bool):
    """The surrogate acceptance space: >=50 scenarios x 4 strategy recipes.

    The ``patterns_per_core`` axis deliberately includes a dominated half
    (64-pattern scenarios can never beat their 32-pattern siblings), the
    shape of real design-space sweeps and the region the estimator screen
    is supposed to prune without simulating.
    """
    from repro.explore.scenarios import ScenarioGrid, ScenarioSpec

    schedules = ("sequential", "greedy", "binpack",
                 "portfolio:members=greedy|binpack|anneal")
    if quick:
        axes = {"core_count": [1, 2], "tam_width_bits": [16, 32],
                "patterns_per_core": [24, 48]}
    else:
        axes = {"core_count": [1, 2], "tam_width_bits": [8, 16, 32, 64],
                "compression_ratio": [10.0, 100.0],
                "power_budget": [3.0, 8.0],
                "patterns_per_core": [32, 64]}
    grid = ScenarioGrid(axes, base=ScenarioSpec(name="base", seed=5,
                                                schedules=schedules))
    return grid.specs()


def bench_surrogate(scale: float, quick: bool = False) -> dict:
    """The surrogate-tier win: estimation and screening throughput and the
    full-fidelity jobs avoided by ``--surrogate --race``.

    Four measurements on the 64-scenario acceptance space:

    * *estimation* — task cycles/second of one scalar ``estimate_all``
      pass over every scenario's tasks (the map each scenario computes
      once when it is built),
    * *screen* — candidates/second through the end-to-end surrogate
      screen (phase-max scoring over each scenario's estimate map + Pareto
      ranking),
    * *search* — one full-simulation adaptive run vs the identical search
      with ``surrogate=True, race=True``: wall-clock speedup and the
      full-fidelity job reduction (the headline),
    * *front* — the two runs must reach the identical final Pareto front;
      divergence is an error, not a data point.

    Everything here is deterministic (same seeds, same selection order), so
    the reduction and front-equality numbers are exactly reproducible.
    """
    from repro.explore.adaptive import (
        DEFAULT_OBJECTIVES, AdaptiveSearch, surrogate_screen_candidates,
    )
    from repro.explore.campaign import cached_scenario, clear_scenario_cache

    quick = quick or scale < 1.0
    specs = _surrogate_space(quick)
    search = AdaptiveSearch(specs)
    candidates = search.candidates()

    # Warm the scenario/schedule caches so the timed regions measure
    # estimation, screening and searching, not task generation or strategy
    # builds.
    def warm():
        for spec, schedule_name in candidates:
            cached_scenario(spec).schedule_for(schedule_name)

    warm()

    # Task-cycle estimation throughput over every scenario's tasks.  One
    # pass takes ~100 us, so it is repeated to at least floor_seconds.
    floor_seconds = 0.05 if quick else 0.5

    def run_scalar_eval(passes):
        start = time.perf_counter()
        for _ in range(passes):
            task_count = 0
            for spec in specs:
                scenario = cached_scenario(spec)
                task_count += len(
                    scenario.estimator.estimate_all(scenario.tasks))
        return time.perf_counter() - start, task_count

    passes, scalar_total, task_count = _autorange_best_of(
        REPEATS, run_scalar_eval, floor_seconds)
    scalar_wall = scalar_total / passes

    # One screen takes under a millisecond, so it is repeated to at least
    # floor_seconds as well.
    def run_screen(passes):
        start = time.perf_counter()
        for _ in range(passes):
            screen, kept = surrogate_screen_candidates(
                specs, candidates, DEFAULT_OBJECTIVES, 0.25)
        return time.perf_counter() - start, screen

    screens, screen_total, screen = _autorange_best_of(
        REPEATS, run_screen, floor_seconds)
    screen_wall = screen_total / screens

    # The raced search of the quick space lasts a few milliseconds, too
    # short to time once on a shared host, so both searches are timed best
    # of REPEATS.  Each search starts from warm scenarios and schedules with
    # no simulation memoized: the raced search would otherwise reuse what
    # the full search before it simulated.
    full_wall = raced_wall = math.inf
    for _ in range(REPEATS):
        clear_scenario_cache()
        warm()
        start = time.perf_counter()
        full = AdaptiveSearch(specs).run()
        full_wall = min(full_wall, time.perf_counter() - start)
        clear_scenario_cache()
        warm()
        start = time.perf_counter()
        raced = AdaptiveSearch(specs, surrogate=True, surrogate_keep=0.25,
                               race=True).run()
        raced_wall = min(raced_wall, time.perf_counter() - start)

    if quick:
        # The tiny smoke space makes every strategy tie on the same
        # objective vector, so member identity is down to which duplicate
        # survives selection; compare the objective-vector front instead.
        full_front = sorted(set((o.test_length_cycles, round(o.peak_power, 9))
                                for o in full.front))
        raced_front = sorted(set((o.test_length_cycles, round(o.peak_power, 9))
                                 for o in raced.front))
    else:
        full_front = sorted((o.spec.name, o.schedule) for o in full.front)
        raced_front = sorted((o.spec.name, o.schedule) for o in raced.front)
    if full_front != raced_front:
        raise AssertionError(
            "surrogate+race search reached a different Pareto front than "
            "the full-simulation search")

    reduction = full.full_fidelity_jobs / max(1, raced.full_fidelity_jobs)
    return {
        "workload": {
            "scenarios": len(specs),
            "candidates": len(candidates),
            "surrogate_keep": 0.25,
            "repeats_best_of": REPEATS,
        },
        "estimation": {
            "tasks": task_count,
            "scalar_wall_seconds": round(scalar_wall, 6),
            "scalar_tasks_per_second": round(task_count / scalar_wall, 1),
        },
        "screen": {
            "wall_seconds": round(screen_wall, 6),
            "candidates_per_second": round(len(candidates) / screen_wall, 1),
            "screened": screen.screened,
            "kept": screen.kept,
        },
        "search": {
            "full_wall_seconds": round(full_wall, 6),
            "raced_wall_seconds": round(raced_wall, 6),
            "wall_speedup": round(full_wall / raced_wall, 2),
            "full_fidelity_jobs_full": full.full_fidelity_jobs,
            "full_fidelity_jobs_raced": raced.full_fidelity_jobs,
            "total_jobs_full": full.total_jobs,
            "total_jobs_raced": raced.total_jobs,
            "race_stopped_jobs": raced.race_stopped_jobs,
            "front_size": len(full.front),
            "same_front": True,
        },
        "screen_candidates_per_second": round(
            len(candidates) / screen_wall, 1),
        "full_fidelity_reduction": round(reduction, 2),
    }


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

class _ManualClock:
    """Injected monotonic clock: lease expiry without real waiting."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def bench_coordinator(scale: float) -> dict:
    """Live-coordination overhead: the non-simulation cost of running a
    campaign through the coordinator instead of ``--shard I/N`` hosts.

    Three measurements, all with synthetic shard results so the numbers
    isolate the coordination layer:

    * *queue* — lease/complete operation throughput of an in-process
      :class:`Coordinator` draining a many-span campaign of pre-encoded
      shard blocks (grant, decode, validate, ingest; the headline
      ``lease_ops_per_second``),
    * *steal* — the lazy-expiry scan: every span leased to a straggler, the
      injected clock jumps past the lease timeout, and one :meth:`tick`
      re-queues the lot (steals/second bounds how fast a dead fleet's work
      comes back),
    * *stream* — rows/second through :class:`IncrementalShardMerge` fed
      pre-encoded shard blocks in scrambled completion order (decode,
      validate, ingest, finalize), with the regenerated JSON compared
      byte-for-byte against a plain row concatenation
      (``bitwise_identical``),
    * *wire* — the same drain and a bulk-ingest campaign over real localhost
      sockets with the client in a subprocess (a real worker process): one
      framed session, ``prefetch`` span batching, pipelined flights of
      completion block frames (encoded in the timed loop, as a worker
      does), with the campaign artifact compared byte-for-byte against a
      plain row concatenation (``wire.bitwise_identical``).
    """
    import tempfile
    import threading
    from pathlib import Path as _Path

    from repro.explore.campaign import (
        SCHEMA_VERSION as CAMPAIGN_SCHEMA_VERSION,
        CampaignJob, CampaignOutcome, CampaignRun, result_columns,
    )
    from repro.explore.coordinator import (
        Coordinator, CoordinatorServer,
    )
    from repro.explore.distrib import (
        DISTRIB_SCHEMA_VERSION, ShardRun, plan_shards, shard_span,
    )
    from repro.explore.scenarios import ScenarioSpec
    from repro.explore.store import (
        IncrementalShardMerge, encode_shard_block, write_document_json,
    )

    jobs = []
    for index in range(max(96, int(2400 * scale))):
        spec = ScenarioSpec(name=f"s{index:05d}", core_count=1 + index % 3,
                            patterns_per_core=16 + index % 7, seed=index + 1)
        jobs.append(CampaignJob(spec=spec, schedule="sequential"))
    spans = max(12, int(240 * scale))

    def outcome(job, salt):
        return CampaignOutcome(
            spec=job.spec, schedule=job.schedule, phase_count=1, task_count=2,
            estimated_cycles=1000 + salt, test_length_cycles=5000 + salt,
            peak_tam_utilization=0.5, avg_tam_utilization=0.25,
            peak_power=2.0, avg_power=1.0, simulated_activations=100 + salt,
        )

    # Pre-build the completion document and block for every span from the
    # same plan_shards() call the coordinator makes, so the timed loop
    # measures grant + decode + validation + ingestion, not document
    # construction or encoding.
    documents = {}
    for shard in plan_shards(jobs, spans):
        run = CampaignRun(outcomes=[outcome(job, shard.start + i)
                                    for i, job in enumerate(shard.jobs)])
        documents[shard.index] = json.loads(json.dumps(
            ShardRun(shard, run).as_document()))
    blocks = {index: encode_shard_block(document)
              for index, document in documents.items()}

    # -- queue: grant/complete a full campaign through the span queue
    def run_drain():
        clock = _ManualClock()
        coordinator = Coordinator(lease_timeout=300.0, clock=clock)
        coordinator.submit_jobs(jobs, spans)
        start = time.perf_counter()
        drained = 0
        while True:
            granted = coordinator.request_lease("bench")
            if granted is None:
                break
            lease, shard = granted
            coordinator.complete_lease(lease.lease_id, blocks[shard.index])
            drained += 1
        wall = time.perf_counter() - start
        coordinator.close()
        return wall, drained

    drain_wall, drained = _best_of(REPEATS, run_drain)
    if drained != spans:
        raise AssertionError("coordinator drain completed the wrong number "
                             "of spans")

    # -- steal: lease everything to a straggler, expire it, tick
    steal_rounds = 4

    def run_steals():
        clock = _ManualClock()
        coordinator = Coordinator(lease_timeout=60.0, clock=clock)
        coordinator.submit_jobs(jobs, spans)
        stolen = 0
        tick_wall = 0.0
        for _ in range(steal_rounds):
            while coordinator.request_lease("straggler") is not None:
                pass
            clock.advance(61.0)
            start = time.perf_counter()
            stolen += len(coordinator.tick())
            tick_wall += time.perf_counter() - start
        coordinator.close()
        return tick_wall, stolen

    steal_wall, stolen = _best_of(REPEATS, run_steals)
    if stolen != steal_rounds * spans:
        raise AssertionError("steal pass recovered the wrong number of "
                             "leases")

    # -- stream: out-of-order ingestion through IncrementalShardMerge
    total = max(800, int(80_000 * scale))
    stream_shards = 8
    columns = result_columns(deterministic=True)
    stream_documents = []
    for index in range(stream_shards):
        start, stop = shard_span(index, stream_shards, total)
        stream_documents.append({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "distrib_schema_version": DISTRIB_SCHEMA_VERSION,
            "shard": {"index": index, "count": stream_shards, "start": start,
                      "stop": stop, "total_jobs": total,
                      "fingerprint": "0" * 64},
            "columns": columns,
            "row_count": stop - start,
            "rows": _synthetic_rows(start, stop),
        })
    # Scrambled completion order (stride permutation): shard 0 does not
    # arrive first, so the in-order drain has to buffer and catch up.
    order = [(index * 5) % stream_shards for index in range(stream_shards)]
    stream_blocks = [encode_shard_block(document)
                     for document in stream_documents]

    tmp = _Path(tempfile.mkdtemp(prefix="bench_coordinator_"))

    def run_stream():
        start = time.perf_counter()
        merge = IncrementalShardMerge(
            tmp / "stream.store", count=stream_shards, total_jobs=total,
            fingerprint="0" * 64, columns=columns)
        for index in order:
            merge.add_shard_block(stream_blocks[index])
        store = merge.finalize()
        return time.perf_counter() - start, store

    stream_wall, store = _best_of(REPEATS, run_stream)

    write_document_json(store, tmp / "stream.json")
    bitwise = ((tmp / "stream.json").read_bytes()
               == _concatenated_artifact(stream_documents,
                                         tmp / "merged_reference.json"))
    if not bitwise:
        raise AssertionError("streamed-merge JSON diverged from the row "
                             "concatenation")

    # -- wire: the same coordination work over real localhost sockets ------
    wire_prefetch = 16

    def serve(coordinator):
        server = CoordinatorServer(coordinator)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        return server, thread

    def stop(server, thread):
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    # The wire clients run as real subprocesses: an in-process client would
    # share the GIL with the coordinator's serving thread and serialize the
    # very overlap (client encoding span n+1 while the server ingests span
    # n) that the pipelined session exists to exploit.  The child times
    # itself and reports the walls on stdout.
    wire_client_script = r"""
import itertools, json, sys, time
port, docs_path, prefetch, mode = (
    int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4])
from repro.explore.coordinator import (
    CoordinatorSession, encode_completion_frame, encode_json_frame)
with open(docs_path, "r", encoding="utf-8") as handle:
    documents = {int(key): value for key, value in json.load(handle).items()}
drained = 0
completion = 0.0


def frame_of(entry):
    return encode_completion_frame(int(entry["lease"]["lease_id"]),
                                   documents[entry["shard"]["shard"]["index"]])


client = CoordinatorSession(port=port)
start = time.perf_counter()
if mode == "drain":
    # Fully pipelined drain: each flight carries the current batch's
    # completion block frames plus the next lease request, so grant latency
    # is hidden behind completion processing.  Frames are encoded lazily,
    # interleaved with the sends.
    lease = encode_json_frame({"op": "lease", "worker": "bench",
                               "count": prefetch})
    pending = client.request_leases("bench", prefetch).get("leases") or []
    while pending:
        responses = client.exchange(itertools.chain(
            (frame_of(entry) for entry in pending), [lease]))
        drained += sum(1 for response in responses[:-1]
                       if response.get("accepted"))
        pending = responses[-1].get("leases") or []
    completion = time.perf_counter() - start
else:
    while True:
        leases = client.request_leases("bench", prefetch).get("leases") or []
        if not leases:
            break
        began = time.perf_counter()
        responses = client.exchange(frame_of(entry) for entry in leases)
        drained += sum(1 for response in responses if response["accepted"])
        completion += time.perf_counter() - began
wall = time.perf_counter() - start
client.close()
print(json.dumps({"wall": wall, "completion_wall": completion,
                  "drained": drained}))
"""

    def run_wire_client(port, docs_path, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] +
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-c", wire_client_script, str(port),
             str(docs_path), str(wire_prefetch), mode],
            capture_output=True, text=True, env=env, timeout=600)
        if proc.returncode != 0:
            raise AssertionError(f"wire client ({mode}) failed:\n"
                                 f"{proc.stderr}")
        return json.loads(proc.stdout)

    drain_docs_path = tmp / "wire_drain_documents.json"
    with open(drain_docs_path, "w", encoding="utf-8") as handle:
        json.dump({str(index): document
                   for index, document in documents.items()}, handle)

    def run_wire_drain():
        """Grant + complete every span over the socket from a subprocess
        worker that batches leases and pipelines completions."""
        coordinator = Coordinator(lease_timeout=300.0, clock=_ManualClock())
        coordinator.submit_jobs(jobs, spans,
                                store_path=str(tmp / "drain"
                                               / "campaign.store"))
        server, thread = serve(coordinator)
        try:
            report = run_wire_client(server.port, drain_docs_path, "drain")
        finally:
            stop(server, thread)
            coordinator.close()
        if report["drained"] != spans:
            raise AssertionError(f"wire drain completed "
                                 f"{report['drained']} of {spans} span(s)")
        return report["wall"], report["drained"]

    wire_wall = _best_of(REPEATS, run_wire_drain)[0]

    # Bulk ingest: few spans, many rows — the completion-payload path.
    ingest_jobs = []
    for index in range(total):
        spec = ScenarioSpec(name=f"i{index:06d}", core_count=1 + index % 3,
                            patterns_per_core=16 + index % 7, seed=index + 1)
        ingest_jobs.append(CampaignJob(spec=spec, schedule="sequential"))
    ingest_documents = []
    for shard in plan_shards(ingest_jobs, stream_shards):
        ingest_documents.append({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "distrib_schema_version": DISTRIB_SCHEMA_VERSION,
            "shard": shard.provenance(),
            "columns": columns,
            "row_count": shard.stop - shard.start,
            "rows": _synthetic_rows(shard.start, shard.stop),
        })

    ingest_docs_path = tmp / "wire_ingest_documents.json"
    with open(ingest_docs_path, "w", encoding="utf-8") as handle:
        json.dump({str(index): document
                   for index, document in enumerate(ingest_documents)},
                  handle)

    def run_wire_ingest():
        """Ship ``total`` rows through ``stream_shards`` completions over
        the socket from a subprocess worker.  The session pipelines
        completion block frames (encode cost deliberately inside the timed
        loop — workers pay it too).  The reported wall covers only the
        completion calls — the lease-grant path has its own measurement
        above — and the JSON
        artifact is written from the finalized store after the clock stops,
        mirroring the in-process *stream* measurement."""
        coordinator = Coordinator(lease_timeout=300.0, clock=_ManualClock())
        work_dir = tmp / "ingest"
        json_path = work_dir / "campaign.json"
        campaign = coordinator.submit_jobs(
            ingest_jobs, stream_shards,
            store_path=str(work_dir / "campaign.store"))
        server, thread = serve(coordinator)
        try:
            report = run_wire_client(server.port, ingest_docs_path,
                                     "ingest")
            write_document_json(coordinator.campaign_store(campaign),
                                json_path)
        finally:
            stop(server, thread)
            coordinator.close()
        if report["drained"] != stream_shards:
            raise AssertionError(f"wire ingest completed "
                                 f"{report['drained']} of {stream_shards} "
                                 f"span(s)")
        return report["completion_wall"], json_path

    ingest_wall, ingest_artifact = _best_of(REPEATS, run_wire_ingest)

    wire_bitwise = (ingest_artifact.read_bytes()
                    == _concatenated_artifact(ingest_documents,
                                              tmp / "ingest_reference.json"))
    if not wire_bitwise:
        raise AssertionError("wire-ingested campaign JSON diverged from the "
                             "row concatenation")

    return {
        "workload": {
            "jobs": len(jobs), "spans": spans,
            "steal_rounds": steal_rounds,
            "stream_rows": total, "stream_shards": stream_shards,
            "wire_prefetch": wire_prefetch,
            "repeats_best_of": REPEATS,
        },
        "drain_wall_seconds": round(drain_wall, 6),
        "lease_ops_per_second": round(2 * spans / drain_wall, 1),
        "spans_per_second": round(spans / drain_wall, 1),
        "queue_jobs_per_second": round(len(jobs) / drain_wall, 1),
        "steal_wall_seconds": round(steal_wall, 6),
        "steals_per_second": round(steal_rounds * spans / steal_wall, 1),
        "stream_wall_seconds": round(stream_wall, 6),
        "stream_rows_per_second": round(total / stream_wall, 1),
        "bitwise_identical": bitwise,
        "wire": {
            "lease_ops_per_second": round(2 * spans / wire_wall, 1),
            "ingest_rows_per_second": round(total / ingest_wall, 1),
            "bitwise_identical": wire_bitwise,
        },
    }


# ---------------------------------------------------------------------------
# metrics / observability
# ---------------------------------------------------------------------------

def bench_metrics(scale: float) -> dict:
    """Observability overhead: what the metrics registry, structured log and
    live ``/metrics`` exporter cost the coordinator hot path.

    Three head-to-head drains of the same synthetic campaign (identical
    workload constants to ``bench_coordinator``, so the ops/second numbers
    line up), interleaved per repeat so host drift hits all three equally:

    * *bare* — a default :class:`Coordinator` (the registry is always on;
      this is the shipping configuration),
    * *exporter* — the same drain with a live :class:`MetricsServer`
      thread attached and answering scrapes,
    * *instrumented* — exporter plus a :class:`StructuredLog` writing
      (and flushing, for live tailing) every lease/complete event to disk.

    ``overhead_within_5_percent`` is the acceptance invariant: enabling
    the exporter must keep the drain within 5% of the bare drain (plus a
    5 ms absolute floor so quick-mode walls of a few ms cannot flap the
    boolean).  The structured log's per-event fsync discipline costs a few
    percent more; that is reported (``log_overhead_percent``) and bounded
    only by the ordinary throughput tolerance.  A final measurement times
    exporter scrapes against the fully-populated registry
    (``scrapes_per_second``, payload size).
    """
    import tempfile
    import urllib.request
    from pathlib import Path as _Path

    from repro.explore.campaign import CampaignJob, CampaignOutcome, CampaignRun
    from repro.explore.coordinator import Coordinator
    from repro.explore.distrib import ShardRun, plan_shards
    from repro.explore.metrics import MetricsServer, StructuredLog
    from repro.explore.scenarios import ScenarioSpec
    from repro.explore.store import encode_shard_block

    jobs = []
    for index in range(max(96, int(2400 * scale))):
        spec = ScenarioSpec(name=f"s{index:05d}", core_count=1 + index % 3,
                            patterns_per_core=16 + index % 7, seed=index + 1)
        jobs.append(CampaignJob(spec=spec, schedule="sequential"))
    spans = max(12, int(240 * scale))

    def outcome(job, salt):
        return CampaignOutcome(
            spec=job.spec, schedule=job.schedule, phase_count=1, task_count=2,
            estimated_cycles=1000 + salt, test_length_cycles=5000 + salt,
            peak_tam_utilization=0.5, avg_tam_utilization=0.25,
            peak_power=2.0, avg_power=1.0, simulated_activations=100 + salt,
        )

    blocks = {}
    for shard in plan_shards(jobs, spans):
        run = CampaignRun(outcomes=[outcome(job, shard.start + i)
                                    for i, job in enumerate(shard.jobs)])
        blocks[shard.index] = encode_shard_block(json.loads(json.dumps(
            ShardRun(shard, run).as_document())))

    tmp = _Path(tempfile.mkdtemp(prefix="bench_metrics_"))
    repeats = 5  # the 5% boolean needs tighter best-of than the default 3

    def drain(log_path=None, with_server=False):
        clock = _ManualClock()
        log = StructuredLog(log_path, clock=clock) if log_path else None
        coordinator = Coordinator(lease_timeout=300.0, clock=clock, log=log)
        server = None
        if with_server:
            server = MetricsServer(coordinator.metrics)
            server.start()
        coordinator.submit_jobs(jobs, spans)
        start = time.perf_counter()
        drained = 0
        while True:
            granted = coordinator.request_lease("bench")
            if granted is None:
                break
            lease, shard = granted
            coordinator.complete_lease(lease.lease_id, blocks[shard.index])
            drained += 1
        wall = time.perf_counter() - start
        spans_total = coordinator.metrics.value(
            "coordinator_spans_completed_total")
        if server is not None:
            server.stop()
        coordinator.close()
        if log is not None:
            log.close()
        if drained != spans or int(spans_total) != spans:
            raise AssertionError("metrics drain completed the wrong number "
                                 "of spans")
        return wall

    # Interleaved repeats: one bare / exporter / instrumented drain per
    # round, best-of over rounds, so slow-host drift cannot masquerade as
    # observability overhead.
    bare_wall = exporter_wall = instr_wall = float("inf")
    for round_index in range(repeats):
        bare_wall = min(bare_wall, drain())
        exporter_wall = min(exporter_wall, drain(with_server=True))
        instr_wall = min(instr_wall, drain(
            log_path=tmp / f"drain{round_index}.log", with_server=True))
    log_events = sum(1 for _ in open(tmp / "drain0.log"))

    # -- scrape latency against the populated post-drain registry
    clock = _ManualClock()
    coordinator = Coordinator(lease_timeout=300.0, clock=clock)
    coordinator.submit_jobs(jobs, spans)
    while True:
        granted = coordinator.request_lease("bench")
        if granted is None:
            break
        lease, shard = granted
        coordinator.complete_lease(lease.lease_id, blocks[shard.index])
    server = MetricsServer(coordinator.metrics)
    server.start()
    url = f"http://127.0.0.1:{server.port}/metrics"
    scrapes = max(10, int(50 * scale))

    def run_scrapes():
        start = time.perf_counter()
        payload = b""
        for _ in range(scrapes):
            payload = urllib.request.urlopen(url, timeout=10).read()
        return time.perf_counter() - start, payload

    scrape_wall, payload = _best_of(REPEATS, run_scrapes)
    server.stop()
    coordinator.close()
    if b"coordinator_spans_completed_total" not in payload:
        raise AssertionError("scrape payload is missing the span counter")

    within = exporter_wall <= bare_wall / 0.95 + 0.005
    return {
        "workload": {
            "jobs": len(jobs), "spans": spans, "scrapes": scrapes,
            "repeats_best_of": repeats,
        },
        "bare_wall_seconds": round(bare_wall, 6),
        "bare_ops_per_second": round(2 * spans / bare_wall, 1),
        "exporter_wall_seconds": round(exporter_wall, 6),
        "exporter_ops_per_second": round(2 * spans / exporter_wall, 1),
        "exporter_overhead_percent": round(
            (exporter_wall / bare_wall - 1.0) * 100, 2),
        "overhead_within_5_percent": within,
        "instrumented_wall_seconds": round(instr_wall, 6),
        "instrumented_ops_per_second": round(2 * spans / instr_wall, 1),
        "log_overhead_percent": round(
            (instr_wall / bare_wall - 1.0) * 100, 2),
        "log_events": log_events,
        "scrape_wall_seconds": round(scrape_wall, 6),
        "scrapes_per_second": round(scrapes / scrape_wall, 1),
        "scrape_payload_bytes": len(payload),
        "counters_match_drain": True,
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

BENCHMARKS = {
    "kernel": bench_kernel,
    "tracing": bench_tracing,
    "lfsr": bench_lfsr,
    "schedule": bench_schedule,
    "campaign": bench_campaign,
    "distrib": bench_distrib,
    "store": bench_store,
    "surrogate": bench_surrogate,
    "coordinator": bench_coordinator,
    "metrics": bench_metrics,
}

#: Headline metric of each benchmark (used for the speedup summary).
HEADLINE = {
    "kernel": "timeout_dispatch_per_second",
    "tracing": "enabled_appends_per_second",
    "lfsr": "word_bits_per_second",
    "schedule": "greedy_builds_per_second",
    "campaign": "pool_rows_per_second",
    "distrib": "merge_rows_per_second",
    "store": "store_merge_rows_per_second",
    "surrogate": "screen_candidates_per_second",
    "coordinator": "lease_ops_per_second",
    "metrics": "instrumented_ops_per_second",
}


def _host_info() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_speedup(runs: dict, headline: str) -> float | None:
    """The ``after`` run's *headline* over the ``baseline`` run's, or None
    unless both runs exist and measured identical ``workload`` blocks.

    Other labels (a quick-mode ``ci`` pass, say) never enter the ratio, so
    the order in which runs are written cannot change it.
    """
    after, baseline = runs.get("after"), runs.get("baseline")
    if not after or not baseline or after.get("workload") != baseline.get("workload"):
        return None
    new, base = after.get(headline), baseline.get(headline)
    if not new or not base:
        return None
    return round(new / base, 2)


def write_document(out_dir: Path, name: str, label: str, result: dict,
                   baseline_dir: Path | None) -> Path:
    path = out_dir / f"BENCH_{name}.json"
    document = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": name,
        "headline_metric": HEADLINE[name],
        "host": _host_info(),
        "runs": {},
    }
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            document["runs"].update(existing.get("runs", {}))
        except (json.JSONDecodeError, OSError):
            pass
    if baseline_dir is not None:
        baseline_path = baseline_dir / f"BENCH_{name}.json"
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            document["runs"].update(baseline.get("runs", {}))
    document["runs"][label] = result
    speedup = run_speedup(document["runs"], HEADLINE[name])
    if speedup is not None:
        document["speedup"] = speedup
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*",
                        choices=[*BENCHMARKS, []],
                        help="benchmarks to run (default: all)")
    parser.add_argument("--label", default="after",
                        help="run label stored in the JSON (default: after)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for the BENCH_*.json files")
    parser.add_argument("--baseline-dir", type=Path, default=None,
                        help="merge baseline runs from this directory")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny workloads for CI")
    args = parser.parse_args(argv)

    scale = 0.08 if args.quick else args.scale
    names = args.benchmarks or list(BENCHMARKS)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        bench = BENCHMARKS[name]
        if name in ("campaign", "surrogate"):
            result = bench(scale, quick=args.quick)
        else:
            result = bench(scale)
        path = write_document(args.out, name, args.label, result,
                              args.baseline_dir)
        headline = HEADLINE[name]
        print(f"{name}: {headline}={result.get(headline)}  -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
