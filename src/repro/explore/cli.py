"""Command line interface for the exploration experiments.

Usage::

    python -m repro.explore table1            # reproduce Table I
    python -m repro.explore speedup           # TLM vs gate-level comparison
    python -m repro.explore sweep-compression # compression-ratio sweep
    python -m repro.explore sweep-tam-width   # TAM-width sweep
    python -m repro.explore schedules         # schedule exploration
    python -m repro.explore strategies        # list scheduler strategies
    python -m repro.explore campaign          # exhaustive scenario campaign
    python -m repro.explore adaptive          # Pareto + successive halving
    python -m repro.explore merge             # recombine shard artifacts
    python -m repro.explore serve             # live campaign coordinator
    python -m repro.explore work              # attach a worker process
    python -m repro.explore submit            # queue a campaign on a coordinator
    python -m repro.explore status            # inspect a running coordinator

``campaign`` and ``adaptive`` write the versioned CSV/JSON artifacts
(``--csv`` / ``--json``) described in :mod:`repro.explore.campaign`
(``schema_version``) and :mod:`repro.explore.adaptive`
(``adaptive_schema_version``); the tables printed to stdout are condensed
views and carry no schema guarantee.  ``campaign``, ``adaptive`` and
``merge`` additionally take ``--store DIR`` to persist the result rows as a
columnar store (:mod:`repro.explore.store`: typed numpy column chunks plus a
manifest).  ``merge`` streams the shard artifacts one at a time through the
one merge engine, into that store or, without ``--store``, into memory, and
regenerates ``--csv``/``--json`` from the columns.

Schedule strategies: ``--strategy NAME[:key=val,...]`` (repeatable, on
``campaign`` and ``adaptive``) appends parameterized scheduler strategies
(:mod:`repro.schedule.strategies`) to the simulated schedule list;
``strategies`` lists the registry.

Distribution: ``campaign --shard I/N`` runs only the I-th of N
deterministically planned shards (each host re-plans the identical grid from
the same flags) and writes a shard artifact; ``merge`` validates and
recombines the shard artifacts into the single-host result
(:mod:`repro.explore.distrib`).  ``merge --partial`` accepts an incomplete
shard set: present shards merge, missing spans are reported on stderr, and
``--gaps`` writes the re-plan worklist covering only the gaps.  ``adaptive
--max-rounds K`` checkpoints a search at a round boundary and ``adaptive
--resume-from ART.json`` finishes it without re-simulating the completed
rounds; ``adaptive --shard I/N`` routes every round's job list through the
shard plan/run/merge machinery (executing all N shards locally, starting at
shard I — round selection is global, so a single invocation needs every
shard's rows) and stays bitwise-identical to an unsharded run.

Live coordination: ``serve`` runs a long-lived coordinator
(:mod:`repro.explore.coordinator`) on a localhost socket; ``work`` attaches
a worker process that leases deterministically planned spans, executes them
on the standard shard path and streams the results back; ``submit`` queues
a campaign (the same axes flags as ``campaign``) and can wait for the
merged artifacts — which are bitwise-identical to a single-host
``campaign`` run of the same grid, even across worker death and work
stealing.  ``status`` renders a running coordinator's status document; an
unreachable coordinator is an operational failure (one ``error:`` line,
exit 2), not a traceback.  Observability: ``serve --metrics-port`` exposes
a Prometheus ``/metrics`` endpoint backed by the same registry as the
status document, and ``--log-file`` (on ``serve`` and ``work``) appends
structured JSONL run events (:mod:`repro.explore.metrics`; see
docs/observability.md).

Exit status: 0 on success, 2 when the requested work fails (a job fails, an
artifact is invalid or unreadable, a merge is rejected) — operational
failures are reported as one ``error:`` line on stderr and never exit 0.
``merge --partial`` with a gapped shard set exits 3
(:data:`EXIT_REPLANNABLE_GAPS`): the merge itself succeeded and the
written artifact is valid-but-partial, but jobs remain re-plannable via
``--gaps`` — machine-distinguishable from a rejected merge (2) and from a
complete one (0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.explore.adaptive import (
    DEFAULT_OBJECTIVES,
    adaptive_search_from_axes,
    parse_objective,
    race_jobs,
    resume_search,
    surrogate_screen_candidates,
)
from repro.explore.artifact import write_csv, write_json
from repro.explore.campaign import CampaignJob, campaign_from_axes, run_jobs
from repro.explore.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    Coordinator,
    CoordinatorServer,
    CoordinatorSession,
)
from repro.explore.distrib import (
    job_to_dict,
    load_artifact,
    plan_merge,
    plan_shards,
    replan_document,
    run_shard,
)
from repro.explore.experiments import run_table1
from repro.explore.metrics import MetricsServer, StructuredLog
from repro.explore.report import (
    format_adaptive,
    format_campaign,
    format_coordinator_status,
    format_merged,
    format_shard,
    format_store_summary,
    format_strategies,
    format_table,
    format_table1,
    format_worker_stats,
)
from repro.explore.worker import CampaignWorker
from repro.explore.store import (
    merge_shards,
    store_adaptive_result,
    store_campaign_run,
    store_shard_run,
    write_document_json,
)
from repro.explore.scenarios import ScenarioSpec
from repro.schedule.strategies import canonical_schedule_name, is_strategy
from repro.explore.speedup import run_speed_comparison
from repro.explore.sweeps import (
    compression_ratio_sweep,
    schedule_exploration,
    tam_width_sweep,
)


def _print_sweep(points, value_label: str) -> None:
    rows = [{
        value_label: point.value,
        "length_mcycles": point.metrics.test_length_mcycles,
        "peak_tam": f"{point.metrics.peak_tam_utilization:.0%}",
        "avg_tam": f"{point.metrics.avg_tam_utilization:.0%}",
    } for point in points]
    print(format_table(rows, [value_label, "length_mcycles", "peak_tam", "avg_tam"]))


def _run_table1(args) -> None:
    results = run_table1(schedule_names=args.schedules or None)
    print(format_table1(results))
    if args.validate:
        print()
        for result in results:
            print(result.validation.summary())
            print()


def _run_speedup(args) -> None:
    result = run_speed_comparison(gate_level_cycles=args.gate_cycles)
    print(result.summary())


def _run_compression(args) -> None:
    _print_sweep(compression_ratio_sweep(tuple(args.ratios)), "compression_ratio")


def _run_tam_width(args) -> None:
    _print_sweep(tam_width_sweep(tuple(args.widths)), "tam_width_bits")


def _run_schedules(args) -> None:
    comparisons = schedule_exploration(power_budget=args.power_budget,
                                       strategies=tuple(args.strategy or ()))
    rows = [{
        "schedule": comparison.schedule.name,
        "estimated_mcycles": comparison.estimated_cycles / 1e6,
        "simulated_mcycles": comparison.metrics.test_length_mcycles,
        "peak_power": comparison.metrics.peak_power,
    } for comparison in comparisons]
    print(format_table(rows, ["schedule", "estimated_mcycles",
                              "simulated_mcycles", "peak_power"]))


def _scenario_base(args) -> ScenarioSpec:
    schedules = tuple(args.schedules) + tuple(args.strategy or ())
    if not schedules:
        raise ValueError(
            "no schedules to simulate: pass --schedules and/or --strategy")
    return ScenarioSpec(
        name="base",
        patterns_per_core=args.patterns,
        memory_words=args.memory_words,
        seed=args.seed,
        schedules=schedules,
    )


def _scenario_axes(args) -> dict:
    axes = {
        "core_count": [int(v) for v in args.core_counts],
        "tam_width_bits": [int(v) for v in args.tam_widths],
        "compression_ratio": [float(v) for v in args.compression_ratios],
        "power_budget": [float(v) for v in args.power_budgets],
    }
    # Grid seeds are derived from the full axis assignment, so the newer
    # axes join the grid only when actually swept — a command that leaves
    # them at their defaults reproduces the exact scenarios (and numbers)
    # of the pre-extension CLI.
    for axis, values, default in (
        ("wrapper_parallel_width_bits", args.wrapper_parallel_widths, [0]),
        ("wrapper_serial_width_bits", args.wrapper_serial_widths, [1]),
        ("ate_vector_memory_words", args.ate_memory_words, [0]),
    ):
        values = [int(v) for v in values]
        if values != default:
            axes[axis] = values
    return axes


def _run_campaign(args) -> None:
    campaign = campaign_from_axes(_scenario_axes(args), base=_scenario_base(args))
    if args.shard is not None:
        if args.surrogate or args.race:
            raise ValueError(
                "--shard plans the full deterministic job grid; it cannot "
                "be combined with --surrogate or --race")
        index, count = args.shard
        shard = plan_shards(campaign, count)[index]
        result = run_shard(shard, workers=args.workers)
        print(format_shard(result))
        _write_outputs(args, result, store_shard_run)
        return
    if args.race and args.workers > 1:
        raise ValueError(
            "racing runs jobs in-process against a shared incumbent front; "
            "it cannot be combined with --workers > 1")
    jobs = campaign.jobs()
    if args.surrogate:
        pairs = [(job.spec, job.schedule) for job in jobs]
        screen, kept = surrogate_screen_candidates(
            campaign.specs, pairs, DEFAULT_OBJECTIVES, args.surrogate_keep)
        jobs = [CampaignJob(spec=spec, schedule=schedule)
                for spec, schedule in kept]
        print(f"surrogate screen: kept {screen.kept} of {screen.screened} "
              f"candidate(s)", file=sys.stderr)
    if args.race:
        run, stopped = race_jobs(jobs)
        if stopped:
            print(f"racing stopped {len(stopped)} dominated job(s) early; "
                  f"the artifact keeps {len(run.outcomes)} completed row(s)",
                  file=sys.stderr)
    elif args.surrogate:
        run = run_jobs(jobs, workers=args.workers)
    else:
        run = campaign.run(workers=args.workers)
    print(format_campaign(run))
    _write_outputs(args, run, store_campaign_run)


def _write_outputs(args, result, store_result) -> None:
    """Write the ``--store``, ``--csv`` and ``--json`` outputs of a campaign,
    shard or adaptive *result* (``--timing`` keeps the timing columns)."""
    deterministic = not args.timing
    if args.store:
        store_result(result, args.store, deterministic=deterministic)
        print(f"wrote {args.store}")
    for path, write in ((args.csv, result.write_csv),
                        (args.json, result.write_json)):
        if path:
            write(path, deterministic=deterministic)
            print(f"wrote {path}")


#: ``merge --partial`` exit status when the merged artifact has gaps that a
#: re-plan can cover: success-with-work-remaining, distinct from validation
#: failure (2) and a complete merge (0).
EXIT_REPLANNABLE_GAPS = 3


def _run_merge(args) -> Optional[int]:
    # Validate every artifact's header first (nothing is written for an
    # invalid set), then re-read one shard at a time into the merge engine:
    # the rows never all sit in memory as dicts.
    headers, row_counts = [], []
    for path in args.artifacts:
        header = load_artifact(path)
        rows = header.pop("rows", None)
        row_counts.append(len(rows) if isinstance(rows, list) else None)
        headers.append(header)
        del rows
    plan = plan_merge(headers, partial=args.partial, row_counts=row_counts)
    store = merge_shards(plan, (load_artifact(args.artifacts[position])
                                for position in plan.order),
                         store_path=args.store or None)
    merged = store.document_header
    merged["row_count"] = store.row_count
    gaps = merged.get("partial", {}).get("missing", [])
    for span in gaps:
        print(f"missing shard {span['index']}/{merged['partial']['count']}: "
              f"jobs [{span['start']}, {span['stop']})", file=sys.stderr)
    print(format_merged(headers, merged))
    if args.store:
        print(f"wrote {args.store}")
        print()
        print(format_store_summary(store))
    if args.gaps:
        if gaps:
            write_json(args.gaps, replan_document(merged))
            print(f"wrote {args.gaps}")
        else:
            print("no gaps: complete shard set, no re-plan written",
                  file=sys.stderr)
    if args.csv:
        write_csv(args.csv, store.columns, store.iter_rows())
        print(f"wrote {args.csv}")
    if args.json:
        write_document_json(store, args.json)
        print(f"wrote {args.json}")
    if gaps:
        # All requested outputs were written (valid, marked partial); the
        # distinct status tells automation "re-plan and merge again" without
        # parsing stderr.  Regression-tested in test_cli.py.
        return EXIT_REPLANNABLE_GAPS
    return None


def _run_strategies(args) -> None:
    print(format_strategies())


def _run_adaptive(args) -> None:
    shards, lead = (None, 0) if args.shard is None else (args.shard[1],
                                                         args.shard[0])
    if shards is not None and args.timing:
        # Sharded rounds rebuild outcomes from deterministic shard rows, so
        # there are no timings to keep — warn instead of writing columns of
        # plausible-looking zeros.
        print("warning: --shard rebuilds outcomes from deterministic shard "
              "rows; the --timing columns will read as zero", file=sys.stderr)
    if args.resume_from:
        result = resume_search(load_artifact(args.resume_from),
                               workers=args.workers,
                               max_rounds=args.max_rounds,
                               round_shards=shards, lead_shard=lead)
    else:
        objectives = (tuple(args.objectives) if args.objectives
                      else DEFAULT_OBJECTIVES)
        search = adaptive_search_from_axes(
            _scenario_axes(args), base=_scenario_base(args),
            objectives=objectives, eta=args.eta, min_budget=args.min_budget,
            surrogate=args.surrogate, surrogate_keep=args.surrogate_keep,
            race=args.race)
        result = search.run(workers=args.workers, max_rounds=args.max_rounds,
                            round_shards=shards, lead_shard=lead)
    print(format_adaptive(result))
    # --store keeps the row table + provenance columns only: the adaptive
    # JSON document carries search-definition keys after the rows, so the
    # resumable checkpoint artifact stays with --json (see
    # store_adaptive_result).
    _write_outputs(args, result, store_adaptive_result)


def _run_serve(args) -> None:
    log = StructuredLog(args.log_file) if args.log_file else None
    coordinator = Coordinator(
        lease_timeout=args.lease_timeout,
        on_event=lambda message: print(message, file=sys.stderr, flush=True),
        log=log)
    server = CoordinatorServer(coordinator, (args.host, args.port))
    metrics_server = None
    # The chosen port is the line automation waits for (--port 0 binds an
    # ephemeral port); flush so a pipe reader sees it before serve blocks.
    print(f"coordinator listening on {args.host}:{server.port}", flush=True)
    if args.metrics_port is not None:
        metrics_server = MetricsServer(coordinator.metrics,
                                       (args.host, args.metrics_port))
        metrics_server.start()
        print(f"metrics listening on {args.host}:{metrics_server.port}",
              flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        coordinator.drain()
    finally:
        server.server_close()
        if metrics_server is not None:
            metrics_server.stop()
        if log is not None:
            log.close()
    print(format_coordinator_status(coordinator.status()))
    coordinator.close()


def _connect_value(text: str):
    """Parse ``--connect HOST:PORT``."""
    host, separator, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not separator or not host or not 0 < port < 65536:
        raise argparse.ArgumentTypeError(
            f"connect must be HOST:PORT (e.g. 127.0.0.1:7621), got {text!r}")
    return host, port


def _run_work(args) -> None:
    host, port = args.connect
    client = CoordinatorSession(host, port)
    log = StructuredLog(args.log_file) if args.log_file else None
    worker = CampaignWorker(
        client, args.id or f"worker-{os.getpid()}",
        poll_interval=args.poll,
        max_idle_polls=args.max_idle_polls,
        prefetch=args.prefetch,
        reconnect_tries=args.reconnect_tries,
        reconnect_backoff=args.reconnect_backoff,
        status_callback=lambda message: print(message, file=sys.stderr,
                                              flush=True),
        log=log)
    try:
        stats = worker.run()
    finally:
        client.close()
        if log is not None:
            log.close()
    print(format_worker_stats(worker.worker_id, stats))


def _run_status(args) -> None:
    host, port = args.connect
    try:
        with CoordinatorSession(host, port, timeout=args.timeout) as client:
            status = client.status()
    except OSError as error:
        # ConnectionRefusedError etc. carry no address; re-raise with one so
        # the one-line `error:` report (main's rc-2 path) says *which*
        # coordinator is unreachable instead of a bare errno string.
        detail = getattr(error, "strerror", None) or str(error) \
            or type(error).__name__
        raise ConnectionError(
            f"coordinator at {host}:{port} is unreachable ({detail})"
        ) from error
    if args.json:
        json.dump(status, sys.stdout, indent=2)
        print()
    else:
        print(format_coordinator_status(status))


def _run_submit(args) -> None:
    if args.timing or args.surrogate or args.race:
        raise ValueError(
            "submit queues the full deterministic job grid on the "
            "coordinator; it cannot be combined with --timing, --surrogate "
            "or --race")
    if args.shutdown_after and not args.wait:
        raise ValueError("--shutdown-after requires --wait: shutting down "
                         "right after submitting would drain the queue "
                         "before the campaign runs")
    if args.workers != 1:
        raise ValueError(
            "submit does not run jobs itself: parallelism comes from the "
            "'work' processes attached to the coordinator, not --workers")
    campaign = campaign_from_axes(_scenario_axes(args),
                                  base=_scenario_base(args))
    jobs = campaign.jobs()
    # The coordinator process writes the artifacts, possibly from another
    # working directory — pin the paths before they cross the socket.
    resolve = lambda path: os.path.abspath(path) if path else None
    host, port = args.connect
    with CoordinatorSession(host, port) as client:
        campaign_id = client.submit(
            [job_to_dict(job) for job in jobs], args.shards,
            label=args.label, json_path=resolve(args.json),
            csv_path=resolve(args.csv), store_path=resolve(args.store))
        print(f"submitted {campaign_id}: {len(jobs)} job(s) in "
              f"{args.shards} span(s)")
        if args.wait:
            import time as _time
            while True:
                progress = client.campaign_progress(campaign_id)
                if progress["complete"]:
                    break
                print(f"{campaign_id}: {progress['completed']}/"
                      f"{progress['spans']} span(s) done, "
                      f"{progress['pending']} pending, "
                      f"{progress['leased']} leased, "
                      f"{progress['steals']} steal(s)",
                      file=sys.stderr, flush=True)
                _time.sleep(args.poll)
            progress = client.campaign_progress(campaign_id)
            print(f"{campaign_id} complete: {progress['row_count']} row(s) "
                  f"from {progress['spans']} span(s), "
                  f"{progress['steals']} steal(s)")
            for path in (resolve(args.json), resolve(args.csv),
                         resolve(args.store)):
                if path:
                    print(f"wrote {path}")
        if args.shutdown_after:
            client.shutdown()


def _shard_value(text: str):
    """Parse ``--shard I/N``: a 0-based shard index out of N shards."""
    index_text, separator, count_text = text.partition("/")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must be I/N with integer I and N (e.g. 0/4), got {text!r}")
    if not separator:
        raise argparse.ArgumentTypeError("shard must be I/N (e.g. 0/4)")
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must be in [0, {count}) for {count} shard(s)")
    return index, count


def _strategy_value(text: str) -> str:
    """Parse and canonicalize ``--strategy NAME[:key=val,...]``."""
    try:
        if not is_strategy(text):
            from repro.schedule.strategies import strategy_names
            raise argparse.ArgumentTypeError(
                f"unknown scheduler strategy {text.partition(':')[0]!r} "
                f"(registered: {', '.join(strategy_names())})")
        return canonical_schedule_name(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _round_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("max-rounds must be >= 1")
    return value


def _eta_value(text: str) -> float:
    value = float(text)
    if value <= 1.0:
        raise argparse.ArgumentTypeError("eta must be > 1")
    return value


def _budget_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("min-budget must be in (0, 1]")
    return value


def _keep_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("surrogate-keep must be in [0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Test design space exploration experiments "
                    "(DATE 2009 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="reproduce Table I")
    table1.add_argument("--schedules", nargs="*", default=None,
                        help="subset of schedule names to simulate")
    table1.add_argument("--validate", action="store_true",
                        help="also print the schedule validation reports")
    table1.set_defaults(handler=_run_table1)

    speedup = subparsers.add_parser("speedup",
                                    help="TLM vs gate-level speed comparison")
    speedup.add_argument("--gate-cycles", type=int, default=400,
                         help="gate-level cycles to simulate for calibration")
    speedup.set_defaults(handler=_run_speedup)

    compression = subparsers.add_parser("sweep-compression",
                                        help="compression-ratio sweep")
    compression.add_argument("--ratios", nargs="*", type=float,
                             default=[1, 2, 5, 10, 50, 100, 1000])
    compression.set_defaults(handler=_run_compression)

    width = subparsers.add_parser("sweep-tam-width", help="TAM width sweep")
    width.add_argument("--widths", nargs="*", type=int, default=[8, 16, 32, 64])
    width.set_defaults(handler=_run_tam_width)

    schedules = subparsers.add_parser("schedules",
                                      help="hand-written vs generated schedules")
    schedules.add_argument("--power-budget", type=float, default=6.0)
    schedules.add_argument("--strategy", action="append", default=None,
                           type=_strategy_value, metavar="NAME[:k=v,...]",
                           help="also simulate this scheduler strategy "
                                "(repeatable)")
    schedules.set_defaults(handler=_run_schedules)

    strategies = subparsers.add_parser(
        "strategies",
        help="list the registered scheduler strategies and their parameters")
    strategies.set_defaults(handler=_run_strategies)

    def add_scenario_space_arguments(subparser) -> None:
        """Axes and base-spec flags shared by ``campaign`` and ``adaptive``."""
        subparser.add_argument("--core-counts", nargs="*", type=int,
                               default=[1, 2, 3],
                               help="synthetic core counts to sweep")
        subparser.add_argument("--tam-widths", nargs="*", type=int,
                               default=[16, 32],
                               help="TAM / system bus widths (bits) to sweep")
        subparser.add_argument("--compression-ratios", nargs="*", type=float,
                               default=[50.0],
                               help="test data compression ratios to sweep")
        subparser.add_argument("--power-budgets", nargs="*", type=float,
                               default=[6.0],
                               help="peak power budgets for the greedy scheduler")
        subparser.add_argument("--wrapper-parallel-widths", nargs="*", type=int,
                               default=[0],
                               help="wrapper parallel-port widths in bits to "
                                    "sweep (0: one lane per scan chain)")
        subparser.add_argument("--wrapper-serial-widths", nargs="*", type=int,
                               default=[1],
                               help="wrapper serial-port / configuration-ring "
                                    "widths in bits to sweep")
        subparser.add_argument("--ate-memory-words", nargs="*", type=int,
                               default=[0],
                               help="ATE vector-memory limits in link words "
                                    "to sweep (0: unlimited)")
        subparser.add_argument("--patterns", type=int, default=200,
                               help="external-scan patterns per core")
        subparser.add_argument("--memory-words", type=int, default=0,
                               help="embedded memory words (0: no memory test)")
        subparser.add_argument("--seed", type=int, default=1,
                               help="base seed of the scenario generator")
        subparser.add_argument("--schedules", nargs="*",
                               default=["sequential", "greedy"],
                               help="schedules simulated for every scenario "
                                    "(pass an empty --schedules to simulate "
                                    "only the --strategy recipes)")
        subparser.add_argument("--strategy", action="append", default=None,
                               type=_strategy_value, metavar="NAME[:k=v,...]",
                               help="append a parameterized scheduler "
                                    "strategy to the schedule list, e.g. "
                                    "binpack:fit=worst or "
                                    "anneal:steps=512,seed=9 (repeatable; "
                                    "see the 'strategies' subcommand)")
        subparser.add_argument("--workers", type=int, default=1,
                               help="worker processes (1: run in-process)")
        subparser.add_argument("--csv", default=None,
                               help="write result rows to this CSV file")
        subparser.add_argument("--json", default=None,
                               help="write a JSON artifact to this file")
        subparser.add_argument("--store", default=None, metavar="DIR",
                               help="write the result rows to a columnar "
                                    "store directory (typed numpy column "
                                    "chunks; see repro.explore.store)")
        subparser.add_argument("--timing", action="store_true",
                               help="keep the nondeterministic timing columns "
                                    "(cpu_seconds, worker) in the artifacts; "
                                    "timing artifacts are not bitwise "
                                    "mergeable/resumable")
        surrogate = subparser.add_mutually_exclusive_group()
        surrogate.add_argument("--surrogate", dest="surrogate",
                               action="store_true", default=False,
                               help="pre-screen the candidate grid under the "
                                    "coarse estimator (the scalar estimator, "
                                    "one estimate map per scenario) and "
                                    "simulate only the estimator Pareto front "
                                    "plus the --surrogate-keep margin")
        surrogate.add_argument("--no-surrogate", dest="surrogate",
                               action="store_false",
                               help="simulate the full candidate grid "
                                    "(the default; artifacts are "
                                    "bitwise-identical to pre-surrogate runs)")
        subparser.add_argument("--surrogate-keep", type=_keep_fraction,
                               default=0.25, metavar="FRACTION",
                               help="fraction of the estimator-dominated "
                                    "candidates forwarded into simulation "
                                    "anyway (0: trust the estimator front "
                                    "alone, 1: disable pruning; default 0.25)")
        race = subparser.add_mutually_exclusive_group()
        race.add_argument("--race", dest="race", action="store_true",
                          default=False,
                          help="race simulations in-process against the "
                               "incumbent Pareto front and early-stop jobs "
                               "that provably cannot join it (requires the "
                               "default minimizing objectives; incompatible "
                               "with --workers > 1 and --shard)")
        race.add_argument("--no-race", dest="race", action="store_false",
                          help="simulate every job to completion "
                               "(the default)")

    campaign = subparsers.add_parser(
        "campaign",
        help="exhaustive exploration campaign over generated SoC scenarios")
    add_scenario_space_arguments(campaign)
    campaign.add_argument("--shard", type=_shard_value, default=None,
                          metavar="I/N",
                          help="run only the I-th (0-based) of N "
                               "deterministically planned shards of the "
                               "campaign and embed shard provenance in the "
                               "JSON artifact (recombine with 'merge')")
    campaign.set_defaults(handler=_run_campaign)

    merge = subparsers.add_parser(
        "merge",
        help="validate and recombine shard artifacts into the single-host "
             "result set")
    merge.add_argument("artifacts", nargs="+",
                       help="shard JSON artifacts written by campaign --shard")
    merge.add_argument("--csv", default=None,
                       help="write the merged rows to this CSV file")
    merge.add_argument("--json", default=None,
                       help="write the merged JSON artifact to this file "
                            "(bitwise-identical to a single-host "
                            "deterministic run)")
    merge.add_argument("--store", default=None, metavar="DIR",
                       help="also keep the merged rows in a columnar "
                            "store directory (--csv/--json are the same "
                            "bytes either way)")
    merge.add_argument("--partial", action="store_true",
                       help="accept an incomplete shard set: merge the "
                            "shards that exist, report missing spans on "
                            "stderr and mark the artifact as partial")
    merge.add_argument("--gaps", default=None, metavar="REPLAN",
                       help="with --partial: write the re-plan worklist "
                            "(missing shard spans) to this JSON file")
    merge.set_defaults(handler=_run_merge)

    adaptive = subparsers.add_parser(
        "adaptive",
        help="adaptive exploration: successive halving + Pareto pruning")
    add_scenario_space_arguments(adaptive)
    adaptive.add_argument("--eta", type=_eta_value, default=2.0,
                          help="halving rate: keep 1/eta of the candidates "
                               "per round, grow the budget by eta")
    adaptive.add_argument("--min-budget", type=_budget_fraction, default=0.25,
                          help="pattern-volume fraction of the cheapest round")
    adaptive.add_argument("--objectives", nargs="+", default=None,
                          type=parse_objective,
                          help="objectives as column[:min|:max] "
                               "(default: test_length_cycles peak_power)")
    adaptive.add_argument("--max-rounds", type=_round_count, default=None,
                          help="stop after this many rounds (a round-boundary "
                               "checkpoint; finish later with --resume-from)")
    adaptive.add_argument("--resume-from", default=None, metavar="ARTIFACT",
                          help="resume from a checkpoint JSON artifact "
                               "written by --max-rounds; the artifact defines "
                               "the search, so scenario-space/search flags "
                               "are ignored")
    adaptive.add_argument("--shard", type=_shard_value, default=None,
                          metavar="I/N",
                          help="execute every round's job list as N "
                               "deterministically planned shards through the "
                               "shard plan/run/merge machinery, leading with "
                               "shard I (all shards run locally: round "
                               "selection needs every row; results are "
                               "bitwise-identical to an unsharded run)")
    adaptive.set_defaults(handler=_run_adaptive)

    serve = subparsers.add_parser(
        "serve",
        help="run the live campaign coordinator on a localhost socket "
             "(fair-share queue, span leases, work stealing, streaming "
             "merge; see docs/coordinator.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1; the "
                            "protocol is unauthenticated and meant for "
                            "localhost)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port to bind (0: pick an ephemeral port; "
                            "the chosen port is printed on stdout)")
    serve.add_argument("--lease-timeout", type=float,
                       default=DEFAULT_LEASE_TIMEOUT, metavar="SECONDS",
                       help="seconds a lease may go without a heartbeat "
                            "before its span is stolen back into the queue")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="also serve a Prometheus-text-format /metrics "
                            "endpoint on this port (0: ephemeral; the "
                            "chosen port is printed on stdout; see "
                            "docs/observability.md)")
    serve.add_argument("--log-file", default=None, metavar="PATH",
                       help="append structured JSONL run events (one per "
                            "lease/steal/completion/merge-drain) to PATH")
    serve.set_defaults(handler=_run_serve)

    work = subparsers.add_parser(
        "work",
        help="attach a worker to a coordinator: lease spans, execute them "
             "on the standard shard path, stream the results back")
    work.add_argument("--connect", type=_connect_value, required=True,
                      metavar="HOST:PORT",
                      help="coordinator address printed by 'serve'")
    work.add_argument("--id", default=None,
                      help="worker name in leases and status documents "
                           "(default: worker-<pid>)")
    work.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                      help="sleep between lease requests while the queue "
                           "is empty")
    work.add_argument("--max-idle-polls", type=int, default=None, metavar="N",
                      help="exit after N consecutive empty polls "
                           "(default: keep polling until the coordinator "
                           "shuts down)")
    work.add_argument("--log-file", default=None, metavar="PATH",
                      help="append structured JSONL worker events (leases, "
                           "completions, exits) to PATH")
    work.add_argument("--prefetch", type=int, default=1, metavar="N",
                      help="lease up to N spans per round trip and coalesce "
                           "their heartbeats into one frame (default: 1)")
    work.add_argument("--reconnect-tries", type=int, default=3, metavar="N",
                      help="retry a lost coordinator connection up to N "
                           "times with exponential backoff before "
                           "abandoning leases and exiting (0 disables; "
                           "default: 3)")
    work.add_argument("--reconnect-backoff", type=float, default=0.5,
                      metavar="SECONDS",
                      help="initial backoff before the first reconnect "
                           "attempt; doubles per retry (default: 0.5)")
    work.set_defaults(handler=_run_work)

    status = subparsers.add_parser(
        "status",
        help="fetch and render a running coordinator's status document "
             "(the same registry the /metrics endpoint exposes)")
    status.add_argument("--connect", type=_connect_value, required=True,
                        metavar="HOST:PORT",
                        help="coordinator address printed by 'serve'")
    status.add_argument("--timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="socket timeout for the status request")
    status.add_argument("--json", action="store_true",
                        help="print the raw versioned status document "
                             "instead of the table")
    status.set_defaults(handler=_run_status)

    submit = subparsers.add_parser(
        "submit",
        help="queue a campaign on a coordinator (same scenario-space flags "
             "as 'campaign'); artifacts are written by the coordinator and "
             "are bitwise-identical to a single-host run")
    add_scenario_space_arguments(submit)
    submit.add_argument("--connect", type=_connect_value, required=True,
                        metavar="HOST:PORT",
                        help="coordinator address printed by 'serve'")
    submit.add_argument("--shards", type=int, default=4, metavar="N",
                        help="number of deterministic spans to plan the "
                             "campaign into (the unit of leasing/stealing; "
                             "must not exceed the job count)")
    submit.add_argument("--label", default=None,
                        help="human-readable campaign label in status output")
    submit.add_argument("--wait", action="store_true",
                        help="poll the coordinator until the campaign "
                             "completes, reporting span progress on stderr")
    submit.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="progress-poll interval for --wait")
    submit.add_argument("--shutdown-after", action="store_true",
                        help="with --wait: drain and stop the coordinator "
                             "once this campaign completes")
    submit.set_defaults(handler=_run_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
    except (ValueError, KeyError, OSError) as error:
        # Failed jobs (unknown schedules raise KeyError), unreadable/invalid
        # artifacts (ValueError incl. MergeError/JSONDecodeError) and missing
        # files are operational failures, not crashes: report one line on
        # stderr and exit non-zero (regression-tested in test_cli.py).
        # Anything else is a genuine bug and keeps its traceback.
        if isinstance(error, KeyError):
            # str(KeyError) is only the repr of the missing key ("'anneal2'"),
            # which reads as a bare quoted word with no context on stderr —
            # name the failure mode and unwrap the key.
            key = error.args[0] if len(error.args) == 1 else error.args
            message = f"unknown schedule/key: {key}"
        else:
            message = str(error) or type(error).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0 if status is None else int(status)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
