#!/usr/bin/env python
"""Fail CI when a benchmark run regresses against the checked-in baselines.

Compares a candidate benchmark pass (``BENCH_*.json`` files produced by
``run_benchmarks.py``) against the artifacts committed at the repository
root.  The comparison is deliberately conservative about what it is willing
to compare:

* Two runs are only compared when their ``workload`` blocks are identical —
  a quick-mode CI pass is matched against the checked-in quick-mode (``ci``)
  run, never against the full-scale numbers, so every metric pair measures
  the same work.
* Metric direction is derived from the key: ``*_per_second`` / ``*speedup`` /
  ``*_reduction`` must not drop, ``*wall_seconds`` must not grow.  Everything
  else numeric (counts, checksums) is informational and skipped.
* Boolean invariants (``bit_exact``, ``same_front``, ``identical``,
  ``bitwise_identical``, ...) get zero tolerance: once true in the baseline
  they must stay true.  These are the scale- and host-independent teeth of
  the check; the throughput tolerance mostly absorbs runner noise.
* A directional metric or a true invariant of the baseline run that the
  candidate run lacks fails the check, so deleting a benchmark arm cannot
  quietly take it out of the gate: the baseline is re-recorded with it.

The tolerance is multiplicative: with ``--tolerance 0.6`` a throughput may
drop to 40% of baseline (and a wall time grow to 1/0.4 = 2.5x) before the
check fails.  Shared CI runners are noisy, so the default is generous —
the check exists to catch order-of-magnitude regressions and broken
invariants, not 5% jitter.

Usage (the CI wiring)::

    python benchmarks/run_benchmarks.py --quick --label ci --out bench-artifacts
    python benchmarks/check_regression.py --candidate-dir bench-artifacts \
        --require-baseline

Exit status is non-zero if any compared metric regresses beyond tolerance,
or if ``--require-baseline`` is given and a candidate file has no
workload-matching baseline run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

#: Result sub-documents that describe the run rather than measure it.
_SKIP_KEYS = frozenset({"workload", "host", "checks", "query_check"})

_HIGHER_SUFFIXES = ("_per_second", "speedup", "_reduction")
_LOWER_SUFFIXES = ("wall_seconds",)


def metric_direction(key: str) -> Optional[int]:
    """+1 if larger is better, -1 if smaller is better, None if not a
    performance metric."""
    if key.endswith(_HIGHER_SUFFIXES):
        return 1
    if key.endswith(_LOWER_SUFFIXES):
        return -1
    return None


def walk_metrics(result: dict, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield (dotted_path, value) for every comparable leaf of *result*."""
    for key, value in result.items():
        if key in _SKIP_KEYS:
            continue
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from walk_metrics(value, prefix=f"{path}.")
        else:
            yield path, value


def pick_baseline_run(document: dict, workload: dict,
                      label_priority: Tuple[str, ...]) -> Optional[Tuple[str, dict]]:
    """The baseline run whose workload matches *workload*, preferring the
    labels in *label_priority*, then file order."""
    runs = document.get("runs", {})
    ordered = [label for label in label_priority if label in runs]
    ordered += [label for label in runs if label not in ordered]
    for label in ordered:
        run = runs[label]
        if run.get("workload") == workload:
            return label, run
    return None


def compare_run(name: str, baseline: dict, candidate: dict,
                tolerance: float) -> List[str]:
    """Regression messages for one benchmark (empty list: no regression)."""
    failures = []
    baseline_metrics = dict(walk_metrics(baseline))
    candidate_metrics = dict(walk_metrics(candidate))
    for path, old_value in baseline_metrics.items():
        if path in candidate_metrics:
            continue
        if isinstance(old_value, bool):
            if old_value:
                failures.append(
                    f"{name}: invariant {path} is true in the baseline and "
                    f"missing from the candidate")
        elif isinstance(old_value, (int, float)) \
                and metric_direction(path) is not None:
            failures.append(
                f"{name}: metric {path} is in the baseline and missing "
                f"from the candidate")
    for path, new_value in candidate_metrics.items():
        old_value = baseline_metrics.get(path)
        if old_value is None:
            continue
        if isinstance(old_value, bool):
            if old_value and not new_value:
                failures.append(
                    f"{name}: invariant {path} was true in the baseline "
                    f"and is now {new_value!r}")
            continue
        if not isinstance(old_value, (int, float)) or \
                not isinstance(new_value, (int, float)):
            continue
        direction = metric_direction(path)
        if direction is None or old_value <= 0:
            continue
        floor = 1.0 - tolerance
        if direction > 0:
            limit = old_value * floor
            if new_value < limit:
                failures.append(
                    f"{name}: {path} dropped {old_value:g} -> {new_value:g} "
                    f"(limit {limit:g} at tolerance {tolerance:g})")
        else:
            limit = old_value / floor if floor > 0 else float("inf")
            if new_value > limit:
                failures.append(
                    f"{name}: {path} grew {old_value:g} -> {new_value:g} "
                    f"(limit {limit:g} at tolerance {tolerance:g})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="directory with the checked-in BENCH_*.json "
                             "baselines (default: repository root)")
    parser.add_argument("--candidate-dir", type=Path, required=True,
                        help="directory with the freshly measured "
                             "BENCH_*.json files")
    parser.add_argument("--candidate-label", default="ci",
                        help="run label of the candidate pass (default: ci)")
    parser.add_argument("--baseline-labels", nargs="*", default=("ci", "after"),
                        help="baseline label preference order "
                             "(default: ci after)")
    parser.add_argument("--tolerance", type=float, default=0.6,
                        help="allowed fractional throughput drop before the "
                             "check fails (default: 0.6, i.e. 40%% of "
                             "baseline still passes)")
    parser.add_argument("--require-baseline", action="store_true",
                        help="fail when a candidate file has no workload-"
                             "matching baseline run (default: skip with a "
                             "note)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("tolerance must be in [0, 1)")

    candidates = sorted(args.candidate_dir.glob("BENCH_*.json"))
    if not candidates:
        print(f"no BENCH_*.json files in {args.candidate_dir}",
              file=sys.stderr)
        return 2

    failures: List[str] = []
    skipped = 0
    compared = 0
    for candidate_path in candidates:
        name = candidate_path.stem.removeprefix("BENCH_")
        candidate_doc = json.loads(candidate_path.read_text())
        candidate_run = candidate_doc.get("runs", {}).get(args.candidate_label)
        if candidate_run is None:
            print(f"{name}: candidate has no run labelled "
                  f"{args.candidate_label!r}; skipped")
            skipped += 1
            continue
        baseline_path = args.baseline_dir / candidate_path.name
        if not baseline_path.exists():
            print(f"{name}: no checked-in baseline; skipped "
                  "(new benchmark)")
            skipped += 1
            continue
        baseline_doc = json.loads(baseline_path.read_text())
        match = pick_baseline_run(baseline_doc, candidate_run.get("workload"),
                                  tuple(args.baseline_labels))
        if match is None:
            message = (f"{name}: no baseline run with a matching workload "
                       "block; skipped")
            if args.require_baseline:
                failures.append(message)
            else:
                print(message)
                skipped += 1
            continue
        label, baseline_run = match
        run_failures = compare_run(name, baseline_run, candidate_run,
                                   args.tolerance)
        state = "FAIL" if run_failures else "ok"
        print(f"{name}: compared against baseline run {label!r} "
              f"[{state}]")
        failures.extend(run_failures)
        compared += 1

    print(f"\n{compared} benchmark(s) compared, {skipped} skipped, "
          f"{len(failures)} regression(s)")
    for failure in failures:
        print(f"  REGRESSION {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
