"""End-to-end campaign benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sweep_serial --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` is the separate traced run
that reports the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, every metric
with its unit.  See ``perfbench/README.md`` for what each workload and
metric means.

The measured session runs in a fresh process (``session.py``), so the
import cost users pay is part of ``setup_s``; further set-up-only sessions
give ``setup_s`` as a median of several set-ups.  Timings leave out the
time the hypervisor gave other guests and are scaled to the reference
host's speed by the session's calibration slices.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import (  # noqa: E402
    SETUP_ELASTICITY, stolen_seconds, stolen_share)

WORKLOADS = ("sweep_serial", "sweep_coordinated", "table1_jpeg",
             "search_adaptive")

#: Set-ups per run that ``setup_s`` is the median of.
SETUP_SAMPLES = 5

#: The whole run, set-up samples included, must end within this.
RUN_BUDGET_SECONDS = 170.0

#: Metric names, units and bounds, kept in one table at the repository root.
BENCHMARK = ROOT / "BENCHMARK.json"


class SessionError(RuntimeError):
    pass


def run_session(arguments, deadline: float, run_dir: Path):
    """Start one session process; returns its set-up seconds and report."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise SessionError("out of time before the session started")
    command = [sys.executable, str(HERE / "session.py"),
               "--run-dir", str(run_dir), *arguments]
    env = dict(os.environ, TMPDIR=str(run_dir))
    stolen = stolen_seconds()
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SessionError("the session ran out of time")
    if proc.returncode != 0:
        raise SessionError(f"the session exited with status "
                           f"{proc.returncode}")
    lines = output.strip().splitlines()
    if not lines:
        raise SessionError("the session printed no report")
    report = json.loads(lines[-1])
    # Process start to first job dispatched, without the time the
    # hypervisor gave other guests on the CPUs the set-up kept busy.
    window = report["t_ready"] - started
    return window - stolen_share(window, report["stolen_at_ready"] - stolen,
                                 report["cpus"]), report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small units")
    parser.add_argument("--inject", choices=("none", "tamper", "bad_schedule"),
                        default="none",
                        help="self-test only: plant one defect that the "
                             "output checks must count as failed")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "explore" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing (run from a full checkout)", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_SECONDS
    name = f"{args.workload}-{'trace' if args.trace else 'e2e'}"
    run_dir = ROOT / ".perfbench_run" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    try:
        setups = []
        # The traced run reports no set-up time.
        samples = 1 if args.trace else (
            SETUP_SAMPLES if args.size == "full" else 2)
        for sample in range(samples - 1):
            sample_dir = run_dir / f"setup{sample}"
            sample_dir.mkdir()
            setup, report = run_session(common + ["--seconds", "0",
                                                  "--setup-only"],
                                        deadline, sample_dir)
            setups.append(setup)
        setup, report = run_session(
            common + ["--seconds", str(args.seconds), "--trace",
                      str(args.trace), "--inject", args.inject],
            deadline, run_dir)
        setups.append(setup)
    except SessionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            shutil.rmtree(run_dir, ignore_errors=True)

    values = dict(report["metrics"])
    if not args.trace:
        # Scaled to the reference speed by the measured session's
        # calibration, which ran within seconds of the set-ups.
        values["setup_s"] = (statistics.median(setups)
                             / report["slowdown"] ** SETUP_ELASTICITY)
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["per_layer" if args.trace
                                    else "end_to_end"]
    print(f"set-up samples, unscaled (s): "
          f"{[round(value, 3) for value in setups]}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
