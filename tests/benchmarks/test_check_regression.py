"""Unit tests of ``benchmarks/check_regression.py``'s run comparison."""

import copy
import json
import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from check_regression import compare_run, pick_baseline_run  # noqa: E402

BASELINE = {
    "workload": {"scenarios": 8},
    "estimation": {"tasks": 28, "scalar_tasks_per_second": 300_000.0,
                   "scalar_wall_seconds": 9.3e-05},
    "search": {"same_front": True, "front_size": 8, "flaky": False},
    "screen_candidates_per_second": 22_000.0,
}


def without(*paths):
    """A copy of the baseline run with the dotted *paths* removed."""
    run = copy.deepcopy(BASELINE)
    for path in paths:
        *sections, key = path.split(".")
        target = run
        for section in sections:
            target = target[section]
        del target[key]
    return run


def test_a_matching_run_passes():
    assert compare_run("surrogate", BASELINE, without(), 0.6) == []


@pytest.mark.parametrize("path", [
    "estimation.scalar_tasks_per_second",
    "estimation.scalar_wall_seconds",
    "screen_candidates_per_second",
])
def test_a_missing_directional_metric_fails(path):
    assert compare_run("surrogate", BASELINE, without(path), 0.6) == [
        f"surrogate: metric {path} is in the baseline and missing from the "
        f"candidate"]


def test_a_missing_true_invariant_fails():
    assert compare_run("surrogate", BASELINE, without("search.same_front"),
                       0.6) == [
        "surrogate: invariant search.same_front is true in the baseline and "
        "missing from the candidate"]


def test_missing_informational_values_are_not_gated():
    # Counts carry no direction, and a false invariant promises nothing.
    assert compare_run("surrogate", BASELINE,
                       without("estimation.tasks", "search.front_size",
                               "search.flaky"), 0.6) == []


@pytest.mark.parametrize("cpus", [1, 4])
def test_a_quick_campaign_run_on_any_host_matches_the_ci_baseline(
        monkeypatch, cpus):
    # The workload block is what a run is matched to its baseline by, so
    # it must not depend on the host the candidate ran on.
    import run_benchmarks

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    candidate = run_benchmarks.bench_campaign(0.08, quick=True)
    baseline = json.loads((REPO_ROOT / "BENCH_campaign.json").read_text())
    match = pick_baseline_run(baseline, candidate["workload"], ("ci", "after"))
    assert match is not None and match[0] == "ci"
