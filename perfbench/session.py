"""One benchmark session: set a workload up, measure it, check its outputs.

Started by ``run.py`` as a fresh process, so the import cost a user pays
is part of the set-up time.  Prints one JSON object as its last stdout
line; ``run.py`` turns it into the benchmark's metrics.

Outputs are checked after the measured window, against references that do
not come from the run that produced them:

* every artifact byte-for-byte against an independent serialization of the
  program's in-memory result (a torn or tampered file fails);
* sampled rows of every unit (every front member on search_adaptive)
  against a cold recomputation that bypasses the campaign layer, its
  scenario memo and the artifact writers;
* sweep_coordinated's first unit byte-for-byte against sweep_serial's
  artifact for the same jobs, computed in process after the window;
* table1_jpeg rows, and the first unit of the other workloads on the
  recorded seeds, against the row digests in ``reference.json``;
* search_adaptive's front against the non-dominated rows of its own final
  round, and on the recorded seeds against the recorded front.

A row that is missing, differs or whose unit raised counts as failed; a
failure never stops the check of the other rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro.explore  # noqa: E402,F401  (loads every layer: the user's import cost)
from repro.explore.adaptive import AdaptiveSearch, pareto_front_mask  # noqa: E402
from repro.explore.campaign import (  # noqa: E402
    Campaign, clear_scenario_cache, scenario_cache_stats)
from repro.explore.coordinator import Coordinator, CoordinatorServer  # noqa: E402
from repro.explore.distrib import job_to_dict  # noqa: E402
from repro.explore.experiments import PAPER_TABLE1  # noqa: E402
from repro.explore.metrics import StructuredLog  # noqa: E402
from repro.explore.scenarios import build_scenario  # noqa: E402

import workloads  # noqa: E402
from calibration import (  # noqa: E402
    ELASTICITY, Calibrator, stolen_seconds, stolen_share)
from workloads import SIZES, Size  # noqa: E402

REFERENCE = HERE / "reference.json"

#: Idle-poll interval of coordinated workers: short, so a worker waiting
#: for the next campaign never sleeps through the start of a unit.
WORKER_POLL_SECONDS = "0.01"

#: Untraced seconds per unit on the 2-CPU host the benchmark was tuned on;
#: sizes the traced run (a fixed unit count, so its counters repeat).
NOMINAL_UNIT_SECONDS = {"sweep_serial": 2.8, "sweep_coordinated": 1.7,
                        "table1_jpeg": 2.3, "search_adaptive": 0.65}

#: Simulated columns a cold recomputation must reproduce exactly.
SIMULATED_COLUMNS = ("phase_count", "task_count", "estimated_cycles",
                     "test_length_cycles", "peak_tam_utilization",
                     "avg_tam_utilization", "peak_power", "avg_power",
                     "simulated_activations")

ROW_SAMPLES_PER_UNIT = 8

# -- helpers ------------------------------------------------------------------
def canonical_bytes(document) -> bytes:
    """The artifact writers' format, serialized independently of them."""
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def row_digest(row) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode("utf-8")
                          ).hexdigest()[:16]


def artifact_mismatches(path: Path, expected: dict) -> Set[int]:
    """Indices of the rows of *path* that differ from *expected* (-1 marks
    a difference outside the rows)."""
    data = path.read_bytes()
    if data == canonical_bytes(expected):
        return set()
    rows = expected["rows"]
    try:
        found = json.loads(data).get("rows", [])
    except ValueError:
        return set(range(len(rows)))
    bad = {index for index, row in enumerate(rows)
           if index >= len(found) or found[index] != row}
    return bad or {-1}


def cold_row(spec, schedule_name: str) -> Dict[str, object]:
    """Simulate one row without the campaign layer or its scenario memo."""
    scenario = build_scenario(spec)
    schedule = scenario.schedule_for(schedule_name)
    metrics = scenario.build_soc().run_test_schedule(schedule, scenario.tasks)
    return {"phase_count": schedule.phase_count,
            "task_count": len(schedule.task_names),
            "estimated_cycles": scenario.estimated_cycles(schedule_name),
            "test_length_cycles": metrics.test_length_cycles,
            "peak_tam_utilization": metrics.peak_tam_utilization,
            "avg_tam_utilization": metrics.avg_tam_utilization,
            "peak_power": metrics.peak_power,
            "avg_power": metrics.avg_power,
            "simulated_activations": metrics.simulated_activations}


def cold_mismatch(row: Dict[str, object], spec, schedule_name: str) -> bool:
    if row.get("scenario") != spec.name or row.get("schedule") != schedule_name:
        return True
    expected = cold_row(spec, schedule_name)
    return any(row.get(column) != expected[column]
               for column in SIMULATED_COLUMNS)


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of a live process (0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid) -> float:
    """Peak resident set of a live process in MB (0 once it is gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss(pid) -> None:
    """Restart the process's peak-RSS mark, so a unit's peak excludes the
    output checks that ran before it (Linux ``clear_refs``)."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        pass


def table1_error_pct(rows: Sequence[Dict[str, object]]) -> float:
    """Mean |simulated - paper| / paper test length over schedule_1..4."""
    lengths = {row["schedule"]: row["test_length_mcycles"] for row in rows
               if row["scenario"] == "table1"}
    errors = [abs(lengths[name] - paper["test_length_mcycles"])
              / paper["test_length_mcycles"]
              for name, paper in PAPER_TABLE1.items()]
    return 100.0 * sum(errors) / len(errors)


def tamper(path: Path) -> None:
    """Flip one digit in the middle of an artifact (self-test defect)."""
    data = bytearray(path.read_bytes())
    index = next(i for i in range(len(data) // 2, len(data))
                 if chr(data[i]).isdigit())
    data[index] = ord(str((int(chr(data[index])) + 1) % 10))
    path.write_bytes(bytes(data))


def with_bad_schedule(specs: List) -> List:
    """Give the last spec a schedule no scenario has (self-test defect)."""
    last = specs[-1]
    return specs[:-1] + [replace(last, schedules=last.schedules
                                 + ("no_such_schedule",))]


@dataclass
class Unit:
    """One measured campaign unit."""

    index: int
    specs: List
    rows: int
    jobs: int = 0
    wall_artifact: float = 0.0
    wall_front: float = 0.0
    artifact: Optional[Path] = None
    #: Files the unit wrote, removed once its checks ran.
    outputs: List[Path] = field(default_factory=list)
    error: Optional[str] = None
    #: The program's in-memory result (run, search result or campaign id).
    result: object = None
    failed: Set[int] = field(default_factory=set)
    failed_rows: int = 0
    #: CPU seconds of every process of the run during the unit.
    cpu: float = 0.0
    #: Largest resident set of any of the program's processes in the unit.
    peak_rss_mb: float = 0.0
    #: search_adaptive: jobs simulated to completion and jobs race-stopped.
    full_fidelity_jobs: int = 0
    race_stopped_jobs: int = 0
    #: Wall-clock window of the whole unit (the traced run's attribution
    #: window).
    started: float = 0.0
    ended: float = 0.0
    #: Slowdown of the calibration slices timed right before and right
    #: after the unit.
    slowdown: float = 1.0
    #: Wall seconds of the unit in which the hypervisor ran other guests
    #: on the CPUs the program kept busy.
    stolen: float = 0.0

    @property
    def scale(self) -> float:
        """How much slower than the reference host the unit ran."""
        return self.slowdown ** ELASTICITY

    def steal_free(self, seconds: float) -> float:
        """*seconds* of the unit's wall time without the stolen share."""
        return seconds * (1.0 - self.stolen / (self.ended - self.started))


# -- the coordinated plant ----------------------------------------------------
class Plant:
    """An in-process coordinator behind its TCP server, drained by worker
    subprocesses over protocol v2."""

    def __init__(self, run_dir: Path, workers: int, shards: int,
                 traced: bool, log: Optional[StructuredLog] = None):
        self.shards = shards
        self._completed: Dict[str, threading.Event] = {}
        self._events_lock = threading.Lock()
        self.coordinator = Coordinator(work_dir=run_dir / "spool",
                                       on_event=self._on_event, log=log)
        self.server = CoordinatorServer(self.coordinator)
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)
        self._thread.start()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   TMPDIR=str(run_dir))
        address = f"127.0.0.1:{self.server.port}"
        self.worker_ids = [f"w{index}" for index in range(workers)]
        self.procs: List[subprocess.Popen] = []
        self._logs = []
        for name in self.worker_ids:
            if traced:
                command = [sys.executable, str(HERE / "traced_worker.py"),
                           "--connect", address, "--id", name,
                           "--poll", WORKER_POLL_SECONDS,
                           "--spans", str(run_dir / f"spans-{name}.json")]
            else:
                command = [sys.executable, "-m", "repro.explore", "work",
                           "--connect", address, "--id", name,
                           "--poll", WORKER_POLL_SECONDS]
            log_handle = open(run_dir / f"{name}.log", "ab")
            self._logs.append(log_handle)
            self.procs.append(subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log_handle,
                stderr=subprocess.STDOUT))

    def _on_event(self, message: str) -> None:
        if message.startswith("completed "):
            self._event(message.split()[1]).set()

    def _event(self, campaign_id: str) -> threading.Event:
        with self._events_lock:
            return self._completed.setdefault(campaign_id, threading.Event())

    def check_workers(self) -> None:
        for name, proc in zip(self.worker_ids, self.procs):
            if proc.poll() is not None:
                raise RuntimeError(f"worker {name} exited with status "
                                   f"{proc.returncode}")

    def wait_connected(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            seen = self.server.dispatch({"op": "status"})["status"]["workers"]
            if all(name in seen for name in self.worker_ids):
                return
            self.check_workers()
            if time.perf_counter() > deadline:
                raise RuntimeError("workers did not connect in time")
            time.sleep(0.005)

    def submit(self, jobs, json_path: Path, store_path: Path) -> str:
        response = self.server.dispatch({
            "op": "submit", "jobs": [job_to_dict(job) for job in jobs],
            "shards": self.shards, "json": str(json_path),
            "store": str(store_path)})
        return str(response["campaign"])

    def wait(self, campaign_id: str, timeout: float = 90.0) -> None:
        done = self._event(campaign_id)
        deadline = time.perf_counter() + timeout
        while not done.wait(0.02):
            self.check_workers()
            if time.perf_counter() > deadline:
                raise RuntimeError(f"campaign {campaign_id} did not finish")

    def cpu_seconds(self) -> float:
        return sum(proc_cpu_seconds(proc.pid) for proc in self.procs
                   if proc.poll() is None)

    def pids(self) -> List[int]:
        return [proc.pid for proc in self.procs if proc.poll() is None]

    def stop(self) -> None:
        try:
            self.server.dispatch({"op": "shutdown"})
        finally:
            for proc in self.procs:
                try:
                    proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            self._thread.join(timeout=10)
            self.server.server_close()
            for handle in self._logs:
                handle.close()


# -- workloads ----------------------------------------------------------------
class Workload:
    """Shared loop pieces; subclasses define inputs, one unit and checks."""

    name = ""
    #: CPUs the program keeps busy, which calibration slices run on at once.
    cpus = 1

    def __init__(self, size: Size, seed: int, run_dir: Path, inject: str,
                 reference: dict, full_size: bool):
        self.size = size
        self.seed = seed
        self.run_dir = run_dir
        self.inject = inject
        self.reference = reference
        self.full_size = full_size
        self.plant: Optional[Plant] = None
        #: Checked Table I rows of a unit, when the workload produced them.
        self.table1_rows: List[Dict[str, object]] = []

    # plant lifecycle (coordinated workload only)
    def start(self, traced: bool = False, log=None) -> None:
        pass

    def stop(self) -> None:
        pass

    def cpu_seconds(self) -> float:
        return time.process_time()

    def pids(self) -> List[object]:
        """The processes that run the program (``/proc`` names)."""
        return ["self"]

    def inputs(self, unit: int) -> List:
        specs = self.make_specs(unit)
        if unit == 0 and self.inject == "bad_schedule":
            specs = with_bad_schedule(specs)
        return specs

    def recorded(self, key: str) -> Optional[list]:
        if not self.full_size:
            return None
        return self.reference.get(key, {}).get(str(self.seed))

    def check_recorded_rows(self, unit: Unit, key: str, rows) -> None:
        digests = self.recorded(key)
        if unit.index != 0 or digests is None:
            return
        found = [row_digest(row) for row in rows]
        unit.failed |= {index for index, digest in enumerate(digests)
                        if index >= len(found) or found[index] != digest}
        if len(found) != len(digests):
            unit.failed.add(-1)

    def check_sampled_rows(self, unit: Unit, rows, jobs) -> None:
        rng = random.Random(f"check:{self.seed}:{unit.index}")
        for index in rng.sample(range(len(jobs)),
                                min(ROW_SAMPLES_PER_UNIT, len(jobs))):
            spec, schedule = jobs[index].spec, jobs[index].schedule
            if index >= len(rows) or cold_mismatch(rows[index], spec,
                                                   schedule):
                unit.failed.add(index)

    def table1_error(self) -> float:
        clear_scenario_cache()
        return table1_error_pct(Campaign([workloads.table1_spec()])
                                .run().deterministic_rows())


class SweepSerial(Workload):
    name = "sweep_serial"

    def make_specs(self, unit):
        return workloads.sweep_specs(self.size, self.seed, unit)

    def run_unit(self, unit: Unit) -> None:
        clear_scenario_cache()
        campaign = Campaign(unit.specs)
        unit.rows = unit.jobs = len(campaign)
        path = self.run_dir / f"unit{unit.index}.json"
        start = time.perf_counter()
        run = campaign.run(workers=1)
        run.write_json(path, deterministic=True)
        unit.wall_artifact = time.perf_counter() - start
        pareto_front_mask([(outcome.test_length_cycles, outcome.peak_power)
                           for outcome in run.outcomes])
        unit.wall_front = time.perf_counter() - start
        unit.artifact, unit.result = path, run
        unit.outputs = [path]

    def check(self, unit: Unit) -> None:
        document = unit.result.as_document(deterministic=True)
        unit.failed |= artifact_mismatches(unit.artifact, document)
        self.check_sampled_rows(unit, document["rows"],
                                Campaign(unit.specs).jobs())
        self.check_recorded_rows(unit, "sweep_rows", document["rows"])


class SweepCoordinated(SweepSerial):
    name = "sweep_coordinated"
    cpus = max(1, min(4, os.cpu_count() or 1))

    def start(self, traced: bool = False, log=None) -> None:
        self.plant = Plant(self.run_dir, self.cpus, self.size.sweep_spans,
                           traced, log=log)
        try:
            self.plant.wait_connected()
        except BaseException:
            self.plant.stop()
            raise

    def stop(self) -> None:
        if self.plant is not None:
            self.plant.stop()

    def cpu_seconds(self) -> float:
        return time.process_time() + self.plant.cpu_seconds()

    def pids(self) -> List[object]:
        return ["self"] + self.plant.pids()

    def run_unit(self, unit: Unit) -> None:
        jobs = Campaign(unit.specs).jobs()
        unit.rows = unit.jobs = len(jobs)
        path = self.run_dir / f"unit{unit.index}.json"
        store = self.run_dir / f"unit{unit.index}.store"
        unit.outputs = [path, store]
        start = time.perf_counter()
        campaign_id = self.plant.submit(jobs, path, store)
        self.plant.wait(campaign_id)
        unit.wall_artifact = time.perf_counter() - start
        with open(path) as handle:
            rows = json.load(handle)["rows"]
        pareto_front_mask([(row["test_length_cycles"], row["peak_power"])
                           for row in rows])
        unit.wall_front = time.perf_counter() - start
        unit.artifact, unit.result = path, (self.plant, campaign_id)

    def check(self, unit: Unit) -> None:
        plant, campaign_id = unit.result
        document = plant.coordinator.campaign_store(campaign_id).document()
        unit.failed |= artifact_mismatches(unit.artifact, document)
        self.check_sampled_rows(unit, document["rows"],
                                Campaign(unit.specs).jobs())
        self.check_recorded_rows(unit, "sweep_rows", document["rows"])
        if unit.index == 0:
            # The monolithic artifact of the same jobs, byte for byte.
            clear_scenario_cache()
            serial = Campaign(unit.specs).run(workers=1)
            unit.failed |= artifact_mismatches(
                unit.artifact, serial.as_document(deterministic=True))


class Table1Jpeg(SweepSerial):
    name = "table1_jpeg"

    def make_specs(self, unit):
        return workloads.jpeg_specs(self.size, self.seed, unit)

    def check(self, unit: Unit) -> None:
        document = unit.result.as_document(deterministic=True)
        unit.failed |= artifact_mismatches(unit.artifact, document)
        recorded = self.reference["jpeg_rows"]
        for index, row in enumerate(document["rows"]):
            key = f"{row['scenario']}/{row['schedule']}"
            if recorded.get(key) != row_digest(row):
                unit.failed.add(index)
        if not unit.failed and any(row["scenario"] == "table1"
                                   for row in document["rows"]):
            self.table1_rows = document["rows"]

    def table1_error(self) -> float:
        if self.table1_rows:
            return table1_error_pct(self.table1_rows)
        return super().table1_error()


class SearchAdaptive(Workload):
    name = "search_adaptive"

    def make_specs(self, unit):
        return workloads.adaptive_specs(self.size, self.seed, unit)

    def run_unit(self, unit: Unit) -> None:
        clear_scenario_cache()
        search = AdaptiveSearch(unit.specs, surrogate=True,
                                surrogate_keep=0.25, race=True)
        unit.rows = len(search.candidates())
        path = self.run_dir / f"unit{unit.index}.json"
        start = time.perf_counter()
        result = search.run()
        unit.wall_front = time.perf_counter() - start
        result.write_json(path, deterministic=True)
        unit.wall_artifact = time.perf_counter() - start
        unit.rows = sum(round_.job_count for round_ in result.rounds)
        unit.jobs = result.total_jobs
        unit.full_fidelity_jobs = result.full_fidelity_jobs
        unit.race_stopped_jobs = result.race_stopped_jobs
        unit.artifact, unit.result = path, result
        unit.outputs = [path]

    def check(self, unit: Unit) -> None:
        result = unit.result
        document = result.as_document(deterministic=True)
        rows = document["rows"]
        unit.failed |= artifact_mismatches(unit.artifact, document)
        last = max(row["round"] for row in rows)
        final = [(index, row) for index, row in enumerate(rows)
                 if row["round"] == last and not row["race_stopped"]]
        mask = pareto_front_mask([(row["test_length_cycles"],
                                   row["peak_power"]) for _, row in final])
        expected = {(row["test_length_cycles"], row["peak_power"])
                    for (_, row), keep in zip(final, mask) if keep}
        front = {(entry["test_length_cycles"], entry["peak_power"])
                 for entry in document["front"]}
        if front != expected:
            unit.failed |= {index for index, row in final
                            if (row["test_length_cycles"], row["peak_power"])
                            in front ^ expected}
        final_rows = {(row["scenario"], row["schedule"]): (index, row)
                      for index, row in final}
        for outcome in result.front:
            index, row = final_rows.get((outcome.spec.name, outcome.schedule),
                                        (-1, {}))
            if index < 0 or cold_mismatch(row, outcome.spec, outcome.schedule):
                unit.failed.add(index)
        self.check_recorded_rows(unit, "adaptive_rows", rows)
        recorded_front = self.recorded("adaptive_front")
        if unit.index == 0 and recorded_front is not None:
            found = sorted([outcome.spec.name, outcome.schedule]
                           for outcome in result.front)
            if found != sorted(recorded_front):
                unit.failed.add(-1)


WORKLOADS = {workload.name: workload for workload in
             (SweepSerial, SweepCoordinated, Table1Jpeg, SearchAdaptive)}


# -- measuring ----------------------------------------------------------------
def run_units(workload: Workload, first: List, count: Optional[int],
              seconds: float, tracer=None, cache: Optional[dict] = None,
              calibrator: Optional[Calibrator] = None) -> List[Unit]:
    """Run units back to back: *count* of them, or as many as fit in
    *seconds* of wall time with their calibration and checks.

    *first* is the already generated input of unit 0.  Each unit's outputs
    are checked right after it, outside its timed window, and then
    released, so a unit never runs beside the results of earlier ones.
    """
    units: List[Unit] = []
    index = 0
    begin = time.perf_counter()
    while True:
        lap = time.perf_counter()
        specs = first if index == 0 else workload.inputs(index)
        unit = Unit(index=index, specs=specs, rows=0)
        if calibrator is not None:
            slices = calibrator.sample()
        if tracer is not None:
            tracer.tag, tracer.row = str(index), -1
            tracer.enabled = True
        pids = workload.pids()
        for pid in pids:
            reset_peak_rss(pid)
        cpu_start = workload.cpu_seconds()
        stolen = stolen_seconds()
        unit.started = time.perf_counter()
        try:
            workload.run_unit(unit)
        except Exception:  # a failed unit counts as failed rows, not a crash
            unit.error = traceback.format_exc()
            print(f"unit {index} failed:\n{unit.error}", file=sys.stderr)
            unit.rows = unit.rows or len(Campaign(specs).jobs())
        unit.ended = time.perf_counter()
        unit.stolen = stolen_share(unit.ended - unit.started,
                                   stolen_seconds() - stolen, workload.cpus)
        unit.cpu = workload.cpu_seconds() - cpu_start
        unit.peak_rss_mb = max(proc_peak_rss_mb(pid) for pid in pids)
        if calibrator is not None:
            unit.slowdown = calibrator.slowdown(slices + calibrator.sample())
        if tracer is not None:
            tracer.enabled = False
        if cache is not None:
            stats = scenario_cache_stats()
            cache["hits"] += stats["hits"]
            cache["misses"] += stats["misses"]
        if index == 0 and workload.inject == "tamper" and unit.error is None:
            tamper(unit.artifact)
        check_unit(workload, unit)
        units.append(unit)
        index += 1
        if isinstance(workload, SweepCoordinated) and unit.error is not None:
            break  # a dead worker leaves the plant unable to finish units
        if count is not None and index >= count:
            break
        now = time.perf_counter()
        if count is None and 2 * now - lap - begin > seconds:
            break  # another unit like the last would overrun the window
    return units


def check_unit(workload: Workload, unit: Unit) -> None:
    """Run every output check of *unit*, then release its outputs."""
    if unit.error is not None:
        unit.failed = set(range(unit.rows))
    else:
        try:
            workload.check(unit)
        except Exception:
            print(f"checking unit {unit.index} failed:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            unit.failed = set(range(unit.rows))
    unit.failed_rows = min(unit.rows, len(unit.failed))
    unit.result = None
    for path in unit.outputs:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def totals(units: List[Unit]) -> Tuple[int, int]:
    """``(attempted, failed)`` rows over *units*."""
    return (sum(unit.rows for unit in units),
            sum(unit.failed_rows for unit in units))


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio_or_zero(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(workload: Workload, seconds: float, first: List,
               t_ready: float) -> Dict[str, object]:
    calibrator = Calibrator(workload.cpus)
    try:
        units = run_units(workload, first, None, seconds,
                          calibrator=calibrator)
    finally:
        calibrator.close()
    attempted, failed = totals(units)
    good = [unit for unit in units if unit.error is None]
    slowdown = median_or_zero([unit.slowdown for unit in units])
    per_unit = [(round(unit.slowdown, 3),
                 round(unit.rows / unit.wall_artifact, 1),
                 round(unit.stolen, 3),
                 round(1000.0 * unit.cpu / unit.jobs, 3)) for unit in good]
    print(f"{workload.name}: {len(units)} unit(s); (slowdown, unscaled "
          f"rows/s, stolen s, unscaled CPU ms/row) of each: {per_unit}",
          file=sys.stderr)
    error = workload.table1_error()
    return {
        "t_ready": t_ready, "slowdown": slowdown, "attempted": attempted,
        "failed": failed, "units": len(units),
        "metrics": {
            # Sums over the run's units, each unit's time scaled by the
            # regime it met: every unit counts by its size.
            "rows_per_s": ratio_or_zero(
                sum(unit.rows for unit in good),
                sum(unit.steal_free(unit.wall_artifact) / unit.scale
                    for unit in good)),
            "time_to_front_s": ratio_or_zero(
                sum(unit.steal_free(unit.wall_front) / unit.scale
                    for unit in good), len(good)),
            "cpu_ms_per_row": ratio_or_zero(
                sum(1000.0 * unit.cpu / unit.scale for unit in good),
                sum(unit.jobs for unit in good)),
            "peak_rss_mb": max((unit.peak_rss_mb for unit in good),
                               default=0.0),
            "table1_error_pct": error,
        },
    }


def traced(workload: Workload, seconds: float, first: List, t_ready: float,
           trace_dir: Path) -> Dict[str, object]:
    """An untraced pass and a traced pass over the same fixed units."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    count = 1 if not workload.full_size else max(
        1, round(seconds / (2 * NOMINAL_UNIT_SECONDS[workload.name])))
    # One unit first, so neither pass pays the process's one-time warm-up.
    warm = run_units(workload, first, 1, seconds)
    plain = run_units(workload, first, count, seconds)
    coordinated = isinstance(workload, SweepCoordinated)
    log_path = trace_dir / "coordinator.log"
    log = None
    if coordinated:
        workload.stop()
        log = StructuredLog(log_path)
        workload.start(traced=True, log=log)
    cache = {"hits": 0, "misses": 0}
    units = run_units(workload, first, count, seconds, tracer=tracer,
                      cache=cache)
    status = (workload.plant.server.dispatch({"op": "status"})["status"]
              if coordinated else {})
    attempted, failed = totals(warm + plain + units)
    worker_traces = []
    if coordinated:
        workload.stop()
        workload.plant = None
        log.close()
        worker_traces = [tracing.load_trace(path)
                         for path in sorted(trace_dir.glob("spans-w*.json"))]
    tracer.write(trace_dir / "spans-main.json")
    windows = [(unit.started, unit.ended) for unit in units]
    analysis = tracing.analyze(
        [{"spans": tracer.spans}] + worker_traces, windows)
    counters = dict(tracer.counters)
    idle_polls = 0
    for trace in worker_traces:
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        cache["hits"] += trace["cache"]["hits"]
        cache["misses"] += trace["cache"]["misses"]
        idle_polls += sum(1 for moment in trace["idle_polls"]
                          if any(start <= moment < end
                                 for start, end in windows))
    spans = analysis["spans"]

    def busy(*names):
        return sum(spans.get(name, {}).get("self", 0.0) for name in names)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    wall = analysis["wall"]
    lease_wait, latencies = coordinator_waits(log_path) if coordinated \
        else (0.0, [])
    shard_busy = sum(trace_total(trace, "distrib.run_shard", windows)
                     for trace in worker_traces)
    kernel_total = spans.get("kernel.run", {}).get("total", 0.0)
    activations = counters.get("kernel.activations", 0)
    full_jobs = sum(unit.full_fidelity_jobs for unit in units)
    stopped_jobs = sum(unit.race_stopped_jobs for unit in units)
    run_jobs = sum(unit.jobs for unit in units
                   if isinstance(workload, SearchAdaptive))
    lookups = cache["hits"] + cache["misses"]
    plain_wall = sum(unit.wall_artifact for unit in plain)
    metrics = {
        "scenarios.build_scenario.s": busy("scenarios.build_scenario"),
        "scenarios.build_scenario.calls": calls("scenarios.build_scenario"),
        "campaign.scenario_cache.hit_ratio":
            cache["hits"] / lookups if lookups else 0.0,
        "campaign.write_json.s": busy("campaign.write_json",
                                      "adaptive.write_json",
                                      "store.write_json"),
        "schedule.build_strategy_schedule.s":
            busy("schedule.build_strategy_schedule"),
        "schedule.build_strategy_schedule.calls":
            calls("schedule.build_strategy_schedule"),
        "schedule.estimate.s": busy("schedule.estimate"),
        "soc.build_soc.s": busy("soc.build_soc"),
        "soc.build_soc.calls": calls("soc.build_soc"),
        "rtl.scan_describe.s": busy("rtl.scan_describe"),
        "rtl.scan_describe.calls": calls("rtl.scan_describe"),
        "soc.run_test_schedule.s": busy("soc.run_test_schedule"),
        "kernel.run.s": busy("kernel.run"),
        "kernel.activations": activations,
        "kernel.activations_per_s":
            activations / kernel_total if kernel_total else 0.0,
        "rtl.misr_compact.s": busy("rtl.misr_compact"),
        "rtl.misr_compact.calls": calls("rtl.misr_compact"),
        "memory.march.s": busy("memory.march"),
        "distrib.run_shard.s": busy("distrib.run_shard"),
        "distrib.validate.s": busy("distrib.validate"),
        "store.encode_block.s": busy("store.encode_block"),
        "store.block_bytes": counters.get("store.block_bytes", 0),
        "store.ingest.s": busy("store.ingest"),
        "store.finalize.s": busy("store.finalize"),
        "coordinator.dispatch.s": busy("coordinator.dispatch"),
        "coordinator.ops": calls("coordinator.dispatch"),
        "coordinator.lease_wait_s": lease_wait,
        "coordinator.span_latency_p50_ms":
            1000.0 * median_or_zero(latencies),
        "coordinator.steals": status.get("steals", 0),
        "coordinator.stale_completions": status.get("stale_completions", 0),
        "coordinator.protocol_errors": status.get("protocol_errors", 0),
        "worker.busy_ratio": (shard_busy / (len(worker_traces) * wall)
                              if worker_traces and wall else 0.0),
        "worker.idle_polls": idle_polls,
        "adaptive.screen.s": busy("adaptive.screen"),
        "adaptive.full_fidelity_jobs": full_jobs,
        "adaptive.race_stopped_jobs": stopped_jobs,
        "adaptive.useful_ratio": full_jobs / run_jobs if run_jobs else 0.0,
        "trace.unattributed_fraction": analysis["unattributed"],
        "trace.overhead_ratio": (sum(unit.wall_artifact for unit in units)
                                 / plain_wall if plain_wall else 0.0),
    }
    for layer, seconds_ in analysis["layers"].items():
        metrics[f"self.{layer}.s"] = seconds_
    return {"t_ready": t_ready, "attempted": attempted, "failed": failed,
            "units": len(units), "metrics": metrics}


def trace_total(trace, name: str, windows) -> float:
    """Inclusive time of *name* spans of one trace, clipped to *windows*."""
    total = 0.0
    for _id, _parent, span, start, end, _tag, _row in trace["spans"]:
        if span != name:
            continue
        for low, high in windows:
            total += max(0.0, min(end, high) - max(start, low))
    return total


def coordinator_waits(log_path: Path) -> Tuple[float, List[float]]:
    """Queueing delay of every span (submit to first grant) and the
    grant-to-accepted-completion latencies, from the coordinator's log."""
    submitted: Dict[str, float] = {}
    granted: Set[Tuple[str, int]] = set()
    wait = 0.0
    latencies: List[float] = []
    with open(log_path) as handle:
        for line in handle:
            event = json.loads(line)
            kind = event["event"]
            if kind == "submit":
                submitted[event["campaign"]] = event["ts"]
            elif kind == "lease":
                key = (event["campaign"], event["span"])
                if key not in granted:
                    granted.add(key)
                    wait += event["ts"] - submitted[event["campaign"]]
            elif kind == "complete":
                latencies.append(event["latency"])
    return wait, latencies


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--inject", choices=("none", "tamper", "bad_schedule"),
                        default="none")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    args.run_dir.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    workload = WORKLOADS[args.workload](
        SIZES[args.size], args.seed, args.run_dir, args.inject, reference,
        full_size=args.size == "full")
    first = workload.inputs(0)
    workload.start()
    try:
        t_ready = time.perf_counter()
        stolen_at_ready = stolen_seconds()
        if args.setup_only:
            report = {"t_ready": t_ready}
        elif args.trace:
            report = traced(workload, args.seconds, first, t_ready,
                            args.run_dir)
        else:
            report = end_to_end(workload, args.seconds, first, t_ready)
    finally:
        workload.stop()
    report.update(stolen_at_ready=stolen_at_ready, cpus=workload.cpus)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
