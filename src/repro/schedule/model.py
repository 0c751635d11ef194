"""Test tasks and test schedules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.memory.march import MarchTest


class TestKind(enum.Enum):
    """The kinds of test sequences appearing in the paper's case study."""

    __test__ = False  # a model class, not a pytest test class

    #: Logic BIST driven by a core-internal LFSR (tests 1 and 4).
    LOGIC_BIST = "logic_bist"
    #: Deterministic scan test with patterns stored in the ATE (tests 2, 5).
    EXTERNAL_SCAN = "external_scan"
    #: Deterministic scan test with compressed patterns and an on-chip
    #: decompressor (test 3).
    EXTERNAL_SCAN_COMPRESSED = "external_scan_compressed"
    #: Array BIST of an embedded memory driven by the test controller (test 6).
    MEMORY_BIST_CONTROLLER = "memory_bist_controller"
    #: The same array test executed by the embedded processor (test 7).
    MEMORY_MARCH_PROCESSOR = "memory_march_processor"
    #: Functional/in-the-loop test executed on the mission logic.
    FUNCTIONAL = "functional"


@dataclass
class TestTask:
    """One test sequence to be scheduled and executed.

    The task is the unit the scheduler reasons about (coarse view) and the
    unit the ATE executes on the TLM (accurate view).
    """

    __test__ = False  # a model class, not a pytest test class

    name: str
    kind: TestKind
    core: str
    pattern_count: int = 0
    compression_ratio: float = 1.0
    march: Optional[MarchTest] = None
    pattern_backgrounds: int = 2
    #: Relative power drawn while this test is active (arbitrary units).
    power: float = 1.0
    attributes: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.pattern_count < 0:
            raise ValueError("pattern_count cannot be negative")
        if self.compression_ratio < 1.0:
            raise ValueError("compression_ratio must be >= 1")
        needs_patterns = self.kind in (
            TestKind.LOGIC_BIST,
            TestKind.EXTERNAL_SCAN,
            TestKind.EXTERNAL_SCAN_COMPRESSED,
        )
        if needs_patterns and self.pattern_count == 0:
            raise ValueError(f"test {self.name!r} ({self.kind.value}) needs patterns")
        needs_march = self.kind in (
            TestKind.MEMORY_BIST_CONTROLLER,
            TestKind.MEMORY_MARCH_PROCESSOR,
        )
        if needs_march and self.march is None:
            raise ValueError(f"test {self.name!r} ({self.kind.value}) needs a march test")

    @property
    def resources(self) -> FrozenSet[str]:
        """Resources the task occupies exclusively while it runs.

        Two tasks can only run concurrently if their resource sets are
        disjoint — the classic conflict model used by SoC test schedulers.
        """
        resources = {f"core:{self.core}"}
        if self.kind in (TestKind.EXTERNAL_SCAN, TestKind.EXTERNAL_SCAN_COMPRESSED):
            resources.add("ate_channel")
        if self.kind is TestKind.MEMORY_MARCH_PROCESSOR:
            # The embedded processor executes the march program, so it is
            # occupied in addition to the memory core under test.
            resources.add(f"core:{self.attributes.get('processor_core', 'processor')}")
        return frozenset(resources)

    def conflicts_with(self, other: "TestTask") -> bool:
        """True if the two tasks cannot run in the same schedule phase."""
        return bool(self.resources & other.resources)

    def __str__(self):
        return f"{self.name} [{self.kind.value} on {self.core}]"


@dataclass
class TestSchedule:
    """A test schedule: an ordered list of phases of concurrent tasks."""

    __test__ = False  # a model class, not a pytest test class

    name: str
    phases: List[List[str]] = field(default_factory=list)
    description: str = ""

    @property
    def task_names(self) -> List[str]:
        return [task for phase in self.phases for task in phase]

    @property
    def phase_count(self) -> int:
        return len(self.phases)

    @property
    def is_sequential(self) -> bool:
        return all(len(phase) <= 1 for phase in self.phases)

    def validate(self, tasks: Dict[str, TestTask]) -> None:
        """Check that the schedule references known, non-conflicting tasks."""
        seen = set()
        for phase_index, phase in enumerate(self.phases):
            if not phase:
                raise ValueError(
                    f"schedule {self.name!r} has an empty phase at index {phase_index}"
                )
            for task_name in phase:
                if task_name not in tasks:
                    raise ValueError(
                        f"schedule {self.name!r} references unknown task {task_name!r}"
                    )
                if task_name in seen:
                    raise ValueError(
                        f"schedule {self.name!r} runs task {task_name!r} twice"
                    )
                seen.add(task_name)
            phase_tasks = [tasks[name] for name in phase]
            for index, first in enumerate(phase_tasks):
                for second in phase_tasks[index + 1:]:
                    if first.conflicts_with(second):
                        raise ValueError(
                            f"schedule {self.name!r} phase {phase_index} runs "
                            f"conflicting tasks {first.name!r} and {second.name!r} "
                            f"(shared resources: "
                            f"{sorted(first.resources & second.resources)})"
                        )

    @classmethod
    def sequential(cls, name: str, task_names: Sequence[str],
                   description: str = "") -> "TestSchedule":
        """A schedule running the given tasks one after another."""
        return cls(name=name, phases=[[task] for task in task_names],
                   description=description)

    def __str__(self):
        phases = " -> ".join(
            "{" + ", ".join(phase) + "}" for phase in self.phases
        )
        return f"{self.name}: {phases}"
