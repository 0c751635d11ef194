"""Self-test of the benchmark: a tiny pass of every workload.

    python3 perfbench/selftest.py

Asserts that every metric ``BENCHMARK.json`` names is printed with its unit,
untraced and traced, with no failed row; that planted defects (one
tampered artifact byte, one job with an unknown schedule) count as failed
rows instead of passing; and that the benchmark refuses to run, printing no
result, where the program's sources are missing.  Exits non-zero on the
first broken assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_serial", "sweep_coordinated", "table1_jpeg",
             "search_adaptive")
DEFECTS = {"sweep_serial": "tamper", "sweep_coordinated": "bad_schedule",
           "table1_jpeg": "bad_schedule", "search_adaptive": "tamper"}


def bench(workload: str, trace: int, inject: str = "none", cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny", "--inject", inject]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit status {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            result = result_of(bench(workload, trace), what)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, what
            assert result["correct"] and result["failed"] == 0, (what, result)
            assert result["attempted"] >= 1, what
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert printed == expected[trace], (what, printed)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (what, name)
            if trace == 0:
                for name, metric in result["metrics"].items():
                    assert metric["value"] > 0, (what, name)
            print(f"ok   {what}: {result['attempted']} rows")
        defect = DEFECTS[workload]
        what = f"{workload} with a planted defect ({defect})"
        result = result_of(bench(workload, 0, inject=defect), what)
        assert not result["correct"] and result["failed"] >= 1, (what, result)
        print(f"ok   {what}: {result['failed']} of {result['attempted']} "
              "rows failed")

    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("sweep_serial", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok   refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
