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
from typing import Dict, Mapping

from repro.dft.ctl import CoreTestDescription
from repro.schedule.model import TestKind, TestSchedule, TestTask
from repro.schedule.scheduler import schedule_makespan_estimate


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
        return schedule_makespan_estimate(schedule, {
            name: self.estimate_task_cycles(tasks[name])
            for name in schedule.task_names})

    def estimate_schedule_seconds(self, schedule: TestSchedule,
                                  tasks: Mapping[str, TestTask]) -> float:
        return self.platform.cycles_to_seconds(
            self.estimate_schedule_cycles(schedule, tasks)
        )
