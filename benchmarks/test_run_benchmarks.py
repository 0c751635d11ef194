"""Unit tests for the speedup bookkeeping of ``run_benchmarks.py``."""

import json

from run_benchmarks import HEADLINE, run_speedup, write_document

HEADLINE_KEY = HEADLINE["campaign"]
FULL = {"scenarios": 64, "jobs": 128}
QUICK = {"scenarios": 4, "jobs": 8}


def run(rate, workload):
    return {HEADLINE_KEY: rate, "workload": dict(workload)}


def test_speedup_is_after_over_baseline():
    runs = {"baseline": run(100.0, FULL), "after": run(229.0, FULL)}
    assert run_speedup(runs, HEADLINE_KEY) == 2.29


def test_speedup_needs_identical_workloads():
    runs = {"baseline": run(100.0, FULL), "after": run(229.0, QUICK)}
    assert run_speedup(runs, HEADLINE_KEY) is None


def test_speedup_needs_both_runs():
    assert run_speedup({"after": run(229.0, FULL)}, HEADLINE_KEY) is None
    assert run_speedup({"baseline": run(100.0, FULL)}, HEADLINE_KEY) is None


def test_a_later_ci_run_does_not_change_the_speedup(tmp_path):
    baseline_dir = tmp_path / "baseline"
    baseline_dir.mkdir()
    write_document(baseline_dir, "campaign", "baseline", run(100.0, FULL), None)
    out = tmp_path / "out"
    out.mkdir()
    write_document(out, "campaign", "after", run(229.0, FULL), baseline_dir)
    path = write_document(out, "campaign", "ci", run(60.0, QUICK), None)
    document = json.loads(path.read_text())
    assert set(document["runs"]) == {"baseline", "after", "ci"}
    assert document["speedup"] == 2.29


def test_no_speedup_without_a_matching_pair(tmp_path):
    write_document(tmp_path, "campaign", "baseline", run(100.0, FULL), None)
    path = write_document(tmp_path, "campaign", "ci", run(60.0, QUICK), None)
    assert "speedup" not in json.loads(path.read_text())
