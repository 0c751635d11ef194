"""Seeded inputs of the four benchmark workloads.

Every input is a pure function of ``(workload seed, unit index)``: the
benchmark derives scenario seeds and grid points here and hands the program
only the generated specs.  A *unit* is one campaign as a user would submit
it (grid in, deterministic artifact out); a run repeats units, each on
fresh seed-derived inputs, until its measuring time is used up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.explore.scenarios import JPEG, ScenarioGrid, ScenarioSpec
from repro.soc.system import SocConfiguration

#: The ``bench_campaign`` grid axes (32 generated SoCs per copy).
SWEEP_AXES = {"core_count": [1, 2], "tam_width_bits": [8, 16, 32, 64],
              "compression_ratio": [10.0, 100.0], "power_budget": [3.0, 8.0]}
SWEEP_SCHEDULES = ("sequential", "greedy", "binpack")
SWEEP_PATTERNS = 48

#: The paper's Table I schedules and the axes of its two sweeps.
TABLE1_SCHEDULES = ("schedule_1", "schedule_2", "schedule_3", "schedule_4")
COMPRESSION_RATIOS = (1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0)
TAM_WIDTHS = (8, 16, 32, 64)

#: The ``bench_surrogate`` space: 64 scenarios x 4 strategy recipes.
ADAPTIVE_AXES = {"core_count": [1, 2], "tam_width_bits": [8, 16, 32, 64],
                 "compression_ratio": [10.0, 100.0],
                 "power_budget": [3.0, 8.0], "patterns_per_core": [32, 64]}
ADAPTIVE_SCHEDULES = ("sequential", "greedy", "binpack",
                      "portfolio:members=greedy|binpack|anneal")


@dataclass(frozen=True)
class Size:
    """How much work one unit holds (``full`` is the benchmark proper)."""

    sweep_axes: Dict[str, list]
    #: Seed-derived copies of the sweep grid per unit.
    sweep_copies: int
    #: Spans a coordinated unit is split into.  768 rows / 6 spans = 128
    #: rows per span, the smallest completion a session ships as a binary
    #: columnar block, so the block path is the one measured.
    sweep_spans: int
    #: Whether a table1_jpeg unit includes the four Table I rows.
    jpeg_table1: bool
    adaptive_axes: Dict[str, list]


SIZES = {
    "full": Size(sweep_axes=SWEEP_AXES, sweep_copies=8, sweep_spans=6,
                 jpeg_table1=True, adaptive_axes=ADAPTIVE_AXES),
    "tiny": Size(sweep_axes={"core_count": [1, 2], "tam_width_bits": [16, 32]},
                 sweep_copies=1, sweep_spans=2, jpeg_table1=False,
                 adaptive_axes={"core_count": [1, 2],
                                "tam_width_bits": [16, 32],
                                "patterns_per_core": [24, 48]}),
}


def _derived_seed(*parts: object) -> int:
    return random.Random(":".join(str(part) for part in parts)).randrange(
        1, 2 ** 31)


def sweep_specs(size: Size, seed: int, unit: int) -> List[ScenarioSpec]:
    """The sweep grid, replicated over seed-derived copies."""
    specs: List[ScenarioSpec] = []
    for copy in range(size.sweep_copies):
        base = ScenarioSpec(name="base", patterns_per_core=SWEEP_PATTERNS,
                            seed=_derived_seed("sweep", seed, unit, copy),
                            schedules=SWEEP_SCHEDULES)
        specs += ScenarioGrid(size.sweep_axes, base=base,
                              name_prefix=f"u{unit}c{copy}").specs()
    return specs


def jpeg_spec(name: str, schedules: Tuple[str, ...], **fields) -> ScenarioSpec:
    """A JPEG-SoC spec carrying the full default :class:`SocConfiguration`,
    the way the ``table1`` and sweep commands configure the paper's SoC."""
    config = SocConfiguration()
    parameters = {"tam_width_bits": config.tam_width_bits,
                  "ate_width_bits": config.ate_width_bits,
                  "compression_ratio": config.compression_ratio}
    parameters.update(fields)
    overrides = tuple(sorted(
        (key, value) for key, value in config.__dict__.items()
        if key not in ("tam_width_bits", "ate_width_bits",
                       "compression_ratio")))
    return ScenarioSpec(name=name, kind=JPEG, schedules=schedules,
                        config_overrides=overrides, **parameters)


def table1_spec() -> ScenarioSpec:
    return jpeg_spec("table1", TABLE1_SCHEDULES)


def jpeg_specs(size: Size, seed: int, unit: int) -> List[ScenarioSpec]:
    """Table I plus one point of each paper sweep.

    The seed fixes the order in which the sweep points are visited; unit
    *k* takes the *k*-th point of each order, so a run of a few units covers
    most of both sweeps whatever the seed, and runs stay comparable.
    """
    rng = random.Random(f"jpeg:{seed}")
    ratios = rng.sample(COMPRESSION_RATIOS, len(COMPRESSION_RATIOS))
    widths = rng.sample(TAM_WIDTHS, len(TAM_WIDTHS))
    ratio = ratios[unit % len(ratios)]
    width = widths[unit % len(widths)]
    specs = [table1_spec()] if size.jpeg_table1 else []
    specs.append(jpeg_spec(f"compression_{ratio:g}", ("compressed_only",),
                           compression_ratio=ratio))
    specs.append(jpeg_spec(f"tam_width_{width}", ("schedule_4",),
                           tam_width_bits=width))
    return specs


def jpeg_point_names() -> List[Tuple[str, str]]:
    """Every ``(scenario, schedule)`` row a table1_jpeg unit can produce."""
    rows = [("table1", name) for name in TABLE1_SCHEDULES]
    rows += [(f"compression_{ratio:g}", "compressed_only")
             for ratio in COMPRESSION_RATIOS]
    rows += [(f"tam_width_{width}", "schedule_4") for width in TAM_WIDTHS]
    return rows


def adaptive_specs(size: Size, seed: int, unit: int) -> List[ScenarioSpec]:
    base = ScenarioSpec(name="base", seed=_derived_seed("adaptive", seed, unit),
                        schedules=ADAPTIVE_SCHEDULES)
    return ScenarioGrid(size.adaptive_axes, base=base).specs()
