"""Coarse test-time estimation.

The scheduler only has coarse information (the paper stresses this), so the
estimator computes per-task cycle counts from pattern counts, scan-chain
configurations and platform bandwidths without simulating anything.  The
simulation-based validation in :mod:`repro.schedule.validation` then measures
how far these estimates are from the accurately simulated figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.dft.ctl import CoreTestDescription
from repro.schedule.model import TestKind, TestSchedule, TestTask


@dataclass(frozen=True)
class PlatformParameters:
    """Bandwidths and per-operation costs of the test platform."""

    #: Width of the on-chip TAM / system bus in bits.
    tam_width_bits: int = 32
    #: Width of the ATE link (EBI interface) in bits per ATE cycle.
    ate_width_bits: int = 16
    #: Clock frequency of the TAM/system clock in MHz (for time conversion).
    clock_mhz: float = 100.0
    #: Cycles per memory operation when the test controller drives array BIST.
    controller_cycles_per_memory_op: float = 1.15
    #: Cycles per memory operation when the embedded processor drives the march.
    processor_cycles_per_memory_op: float = 6.0
    #: Arbitration overhead cycles per TAM burst.
    tam_overhead_cycles: int = 1
    #: Cycles to shift one configuration through the configuration scan ring.
    configuration_cycles: int = 64
    #: Additional per-task setup transactions (start command, result readout).
    setup_transactions: int = 4
    #: Width of the wrapper parallel port in bits (0: one lane per chain).
    wrapper_parallel_width_bits: int = 0
    #: ATE stimulus vector memory in link words (0: unlimited buffer).
    ate_vector_memory_words: int = 0
    #: Stall cycles for one workstation reload of the ATE vector memory.
    ate_reload_cycles: int = 25_000

    def __post_init__(self):
        if self.clock_mhz <= 0:
            raise ValueError(
                f"clock_mhz must be positive, got {self.clock_mhz!r}")

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_mhz * 1e6)


class TestTimeEstimator:
    """Estimates per-task and per-schedule test lengths in clock cycles."""

    __test__ = False  # a model class, not a pytest test class

    def __init__(self, descriptions: Mapping[str, CoreTestDescription],
                 platform: PlatformParameters,
                 memory_words: Mapping[str, int] = None):
        self.descriptions = dict(descriptions)
        self.platform = platform
        self.memory_words = dict(memory_words or {})

    # -- per-task estimates --------------------------------------------------------
    def _description(self, task: TestTask) -> CoreTestDescription:
        try:
            return self.descriptions[task.core]
        except KeyError:
            raise KeyError(f"no core test description for core {task.core!r}")

    def _memory_size(self, task: TestTask) -> int:
        try:
            return self.memory_words[task.core]
        except KeyError:
            raise KeyError(f"no memory size registered for core {task.core!r}")

    def _external_shift_cycles(self, description: CoreTestDescription) -> int:
        """Per-pattern shift cycles under the wrapper parallel-port width
        (the description owns the lane model, so estimator and wrapper TLM
        cannot drift apart)."""
        return description.external_shift_cycles_per_pattern(
            lanes=self.platform.wrapper_parallel_width_bits)

    def _reload_cycles(self, pattern_count: int, ate_words_per_pattern: int) -> int:
        """Total ATE vector-memory reload stalls of an external test."""
        platform = self.platform
        if not platform.ate_vector_memory_words:
            return 0
        capacity_patterns = max(
            1, platform.ate_vector_memory_words // max(1, ate_words_per_pattern))
        reloads = math.ceil(pattern_count / capacity_patterns) - 1
        return max(0, reloads) * platform.ate_reload_cycles

    def estimate_task_cycles(self, task: TestTask) -> int:
        """Estimated test length of *task* in TAM clock cycles."""
        platform = self.platform
        overhead = (platform.configuration_cycles
                    + platform.setup_transactions * platform.tam_overhead_cycles)

        if task.kind is TestKind.LOGIC_BIST:
            description = self._description(task)
            cycles = task.pattern_count * description.shift_cycles_per_pattern()
            return cycles + overhead

        if task.kind is TestKind.EXTERNAL_SCAN:
            description = self._description(task)
            bits = description.stimulus_bits_per_pattern()
            ate_cycles = math.ceil(bits / platform.ate_width_bits)
            tam_cycles = (math.ceil(bits / platform.tam_width_bits)
                          + platform.tam_overhead_cycles)
            shift_cycles = self._external_shift_cycles(description)
            per_pattern = max(ate_cycles, tam_cycles, shift_cycles)
            reload_cycles = self._reload_cycles(task.pattern_count, ate_cycles)
            return task.pattern_count * per_pattern + reload_cycles + overhead

        if task.kind is TestKind.EXTERNAL_SCAN_COMPRESSED:
            description = self._description(task)
            bits = description.stimulus_bits_per_pattern()
            compressed_bits = max(1, math.ceil(bits / task.compression_ratio))
            ate_cycles = math.ceil(compressed_bits / platform.ate_width_bits)
            # Compressed and expanded data both travel over the TAM (the
            # decompressor is a block on the bus, see the SoC architecture).
            tam_cycles = (math.ceil((bits + compressed_bits) / platform.tam_width_bits)
                          + 2 * platform.tam_overhead_cycles)
            # Without internal chains there is no decompressor: the patterns
            # shift through the wrapper parallel port like plain external
            # scan (mirrors TestWrapper.external_shift_cycles_per_pattern).
            if description.internal_chain_count:
                shift_cycles = description.shift_cycles_per_pattern(compressed=True)
            else:
                shift_cycles = self._external_shift_cycles(description)
            per_pattern = max(ate_cycles, tam_cycles, shift_cycles)
            reload_cycles = self._reload_cycles(task.pattern_count, ate_cycles)
            return task.pattern_count * per_pattern + reload_cycles + overhead

        if task.kind is TestKind.MEMORY_BIST_CONTROLLER:
            words = self._memory_size(task)
            operations = (task.march.operation_count(words)
                          + 2 * task.pattern_backgrounds * words)
            cycles = round(operations * platform.controller_cycles_per_memory_op)
            return cycles + overhead

        if task.kind is TestKind.MEMORY_MARCH_PROCESSOR:
            words = self._memory_size(task)
            operations = (task.march.operation_count(words)
                          + 2 * task.pattern_backgrounds * words)
            cycles = round(operations * platform.processor_cycles_per_memory_op)
            return cycles + overhead

        if task.kind is TestKind.FUNCTIONAL:
            return int(task.attributes.get("functional_cycles", 0)) + overhead

        raise ValueError(f"unsupported test kind: {task.kind!r}")

    def estimate_all(self, tasks: Mapping[str, TestTask]) -> Dict[str, int]:
        return {name: self.estimate_task_cycles(task) for name, task in tasks.items()}

    # -- per-schedule estimates --------------------------------------------------------
    def estimate_schedule_cycles(self, schedule: TestSchedule,
                                 tasks: Mapping[str, TestTask]) -> int:
        """Estimated makespan of *schedule*: phases run back to back, tasks in
        a phase run fully concurrently (the coarse scheduler assumption)."""
        schedule.validate(dict(tasks))
        total = 0
        for phase in schedule.phases:
            total += max(self.estimate_task_cycles(tasks[name]) for name in phase)
        return total

    def estimate_schedule_seconds(self, schedule: TestSchedule,
                                  tasks: Mapping[str, TestTask]) -> float:
        return self.platform.cycles_to_seconds(
            self.estimate_schedule_cycles(schedule, tasks)
        )


# -- vectorized batch estimation -----------------------------------------------------

_BATCH_KIND_CODES = {
    TestKind.LOGIC_BIST: 0,
    TestKind.EXTERNAL_SCAN: 1,
    TestKind.EXTERNAL_SCAN_COMPRESSED: 2,
    TestKind.MEMORY_BIST_CONTROLLER: 3,
    TestKind.MEMORY_MARCH_PROCESSOR: 4,
    TestKind.FUNCTIONAL: 5,
}

_SCAN_KINDS = (TestKind.LOGIC_BIST, TestKind.EXTERNAL_SCAN,
               TestKind.EXTERNAL_SCAN_COMPRESSED)
_MEMORY_KINDS = (TestKind.MEMORY_BIST_CONTROLLER,
                 TestKind.MEMORY_MARCH_PROCESSOR)


def _ceil_div(numerator: np.ndarray, denominator) -> np.ndarray:
    """``math.ceil(a / b)`` row-wise, with the same float-division semantics
    as the scalar estimator (``/`` then ``ceil``, not ``-(-a // b)``)."""
    return np.ceil(numerator / denominator).astype(np.int64)


class BatchEstimator:
    """Columnar, vectorized counterpart of :class:`TestTimeEstimator`.

    Rows accumulate task structure (pattern counts, scan geometry, memory
    operation counts) together with the per-row platform parameters, so
    tasks from *different* scenarios — each with its own platform — can be
    appended into one batch and evaluated in a single numpy pass.

    :meth:`task_cycles` is bit-exact with
    :meth:`TestTimeEstimator.estimate_task_cycles`: every ``ceil`` is a
    float division followed by ``ceil`` (never an integer-division trick),
    every ``round`` is round-half-even (``np.rint``), and the result dtype
    is ``int64`` throughout.
    """

    _COLUMNS = (
        "kind", "patterns", "scan_cells", "max_chain_length", "chain_count",
        "internal_chains", "compression_ratio", "operations", "cycles_per_op",
        "functional_cycles", "tam_width", "ate_width", "tam_overhead",
        "configuration_cycles", "setup_transactions", "lanes",
        "ate_memory_words", "ate_reload_cycles",
    )
    _FLOAT_COLUMNS = frozenset({"compression_ratio", "cycles_per_op"})

    def __init__(self):
        self._columns = {name: [] for name in self._COLUMNS}
        self._cycles: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._columns["kind"])

    # -- row construction ------------------------------------------------------------
    def add_task(self, task: TestTask, platform: PlatformParameters,
                 description: Optional[CoreTestDescription] = None,
                 memory_words: Optional[int] = None) -> int:
        """Append one task row and return its row index."""
        try:
            kind = _BATCH_KIND_CODES[task.kind]
        except KeyError:
            raise ValueError(f"unsupported test kind: {task.kind!r}")
        row = dict.fromkeys(self._COLUMNS, 0)
        row["compression_ratio"] = 1.0
        row["cycles_per_op"] = 0.0
        row["kind"] = kind
        row["patterns"] = task.pattern_count
        if task.kind in _SCAN_KINDS:
            if description is None:
                raise KeyError(
                    f"no core test description for core {task.core!r}")
            row["scan_cells"] = description.stimulus_bits_per_pattern()
            row["max_chain_length"] = description.scan_config.max_chain_length
            row["chain_count"] = description.chain_count
            row["internal_chains"] = description.internal_chain_count or 0
            if task.kind is TestKind.EXTERNAL_SCAN_COMPRESSED:
                row["compression_ratio"] = float(task.compression_ratio)
        elif task.kind in _MEMORY_KINDS:
            if memory_words is None:
                raise KeyError(
                    f"no memory size registered for core {task.core!r}")
            row["operations"] = (task.march.operation_count(memory_words)
                                 + 2 * task.pattern_backgrounds * memory_words)
            row["cycles_per_op"] = (
                platform.controller_cycles_per_memory_op
                if task.kind is TestKind.MEMORY_BIST_CONTROLLER
                else platform.processor_cycles_per_memory_op)
        elif task.kind is TestKind.FUNCTIONAL:
            row["functional_cycles"] = int(
                task.attributes.get("functional_cycles", 0))
        row["tam_width"] = platform.tam_width_bits
        row["ate_width"] = platform.ate_width_bits
        row["tam_overhead"] = platform.tam_overhead_cycles
        row["configuration_cycles"] = platform.configuration_cycles
        row["setup_transactions"] = platform.setup_transactions
        row["lanes"] = platform.wrapper_parallel_width_bits
        row["ate_memory_words"] = platform.ate_vector_memory_words
        row["ate_reload_cycles"] = platform.ate_reload_cycles
        for name in self._COLUMNS:
            self._columns[name].append(row[name])
        self._cycles = None
        return len(self) - 1

    def add_estimator_tasks(self, estimator: TestTimeEstimator,
                            tasks: Mapping[str, TestTask]) -> Dict[str, int]:
        """Append every task of *estimator*'s scenario; returns name → row."""
        rows = {}
        for name, task in tasks.items():
            description = None
            memory_words = None
            if task.kind in _SCAN_KINDS:
                description = estimator._description(task)
            elif task.kind in _MEMORY_KINDS:
                memory_words = estimator._memory_size(task)
            rows[name] = self.add_task(task, estimator.platform,
                                       description=description,
                                       memory_words=memory_words)
        return rows

    # -- vectorized evaluation ---------------------------------------------------------
    def _array(self, name: str) -> np.ndarray:
        dtype = np.float64 if name in self._FLOAT_COLUMNS else np.int64
        return np.asarray(self._columns[name], dtype=dtype)

    def task_cycles(self) -> np.ndarray:
        """Per-row estimated test lengths (int64), mirroring the scalar
        estimator formula-for-formula."""
        if self._cycles is not None:
            return self._cycles
        if not len(self):
            self._cycles = np.zeros(0, dtype=np.int64)
            return self._cycles
        kind = self._array("kind")
        patterns = self._array("patterns")
        overhead = (self._array("configuration_cycles")
                    + self._array("setup_transactions") * self._array("tam_overhead"))
        cycles = np.zeros(len(self), dtype=np.int64)

        max_chain = self._array("max_chain_length")
        shift_plain = max_chain + 1

        is_bist = kind == 0
        if is_bist.any():
            cycles[is_bist] = (patterns * shift_plain + overhead)[is_bist]

        is_external = kind == 1
        is_compressed = kind == 2
        if is_external.any() or is_compressed.any():
            bits = self._array("scan_cells")
            tam_width = self._array("tam_width")
            ate_width = self._array("ate_width")
            tam_overhead = self._array("tam_overhead")
            chain_count = self._array("chain_count")
            lanes = self._array("lanes")
            internal = self._array("internal_chains")
            # external_shift_cycles_per_pattern: whole chains concatenate
            # onto lanes; widths beyond the chain count change nothing.
            ext_shift = np.where(
                (lanes <= 0) | (lanes >= chain_count),
                shift_plain,
                _ceil_div(chain_count, np.maximum(lanes, 1)) * max_chain + 1)
            compressed_bits = np.maximum(
                1, _ceil_div(bits, self._array("compression_ratio")))
            ate_cycles = np.where(
                is_compressed,
                _ceil_div(compressed_bits, ate_width),
                _ceil_div(bits, ate_width))
            tam_cycles = np.where(
                is_compressed,
                _ceil_div(bits + compressed_bits, tam_width) + 2 * tam_overhead,
                _ceil_div(bits, tam_width) + tam_overhead)
            shift_cycles = np.where(
                is_compressed & (internal > 0),
                _ceil_div(bits, np.maximum(internal, 1)) + 1,
                ext_shift)
            per_pattern = np.maximum(np.maximum(ate_cycles, tam_cycles),
                                     shift_cycles)
            ate_memory = self._array("ate_memory_words")
            capacity = np.maximum(1, ate_memory // np.maximum(1, ate_cycles))
            reloads = np.maximum(0, _ceil_div(patterns, capacity) - 1)
            reload_cycles = np.where(
                ate_memory > 0, reloads * self._array("ate_reload_cycles"), 0)
            scan_mask = is_external | is_compressed
            cycles[scan_mask] = (patterns * per_pattern + reload_cycles
                                 + overhead)[scan_mask]

        is_memory = (kind == 3) | (kind == 4)
        if is_memory.any():
            memory_cycles = np.rint(
                self._array("operations") * self._array("cycles_per_op")
            ).astype(np.int64)
            cycles[is_memory] = (memory_cycles + overhead)[is_memory]

        is_functional = kind == 5
        if is_functional.any():
            cycles[is_functional] = (self._array("functional_cycles")
                                     + overhead)[is_functional]

        self._cycles = cycles
        return cycles

    def schedule_cycles(self, schedule: TestSchedule,
                        rows: Mapping[str, int]) -> int:
        """Estimated makespan of *schedule* over previously added rows
        (phases back to back, tasks in a phase fully concurrent).  The
        schedule must already be validated against its task set."""
        cycles = self.task_cycles()
        total = 0
        for phase in schedule.phases:
            total += int(max(cycles[rows[name]] for name in phase))
        return total


def estimate_batch(estimator: TestTimeEstimator,
                   tasks: Mapping[str, TestTask]) -> Dict[str, int]:
    """Vectorized drop-in for :meth:`TestTimeEstimator.estimate_all`."""
    batch = BatchEstimator()
    rows = batch.add_estimator_tasks(estimator, tasks)
    cycles = batch.task_cycles()
    return {name: int(cycles[index]) for name, index in rows.items()}
