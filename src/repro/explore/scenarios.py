"""Synthetic SoC scenario generation for exploration campaigns.

The paper's evaluation is a single hand-built SoC (the JPEG encoder).  The
methodology, however, is generative: wrappers, decompressors and schedules can
all be derived from core descriptions, so *test-infrastructure design-space
exploration* should scale to arbitrarily many SoC variants.  This module is
the scenario grammar for that:

* :class:`ScenarioSpec` — one point in the design space: core count, TAM/ATE
  widths, compression ratio, power budget, pattern volume, wrapper
  serial/parallel port widths, ATE vector-memory limit, seed.  Specs are
  frozen, hashable and picklable, so a campaign can ship them to worker
  processes.  Every non-structural spec field is one column of the campaign
  result schema (:data:`repro.explore.campaign.RESULT_COLUMNS`); adding a
  field therefore widens the schema and requires bumping
  :data:`repro.explore.campaign.SCHEMA_VERSION`.
* :func:`build_scenario` — expand a spec into a concrete :class:`Scenario`:
  deterministic synthetic core descriptions (seeded,
  :class:`~repro.rtl.generate.SyntheticCoreSpec`-style), test tasks, and
  machine-generated schedules.  ``kind="jpeg"`` scenarios map onto the
  paper's case study instead, which is how the original single-parameter
  sweeps are expressed as campaigns.
* :class:`ScenarioGrid` — the cross-product generator: axes of parameter
  values fanned out into a deterministic list of named, seeded specs.

Schedule generation is the pluggable strategy axis: every entry of
``ScenarioSpec.schedules`` that names a registered scheduler strategy
(:mod:`repro.schedule.strategies`) — plain (``"greedy"``) or parameterized
(``"anneal:steps=512,seed=9"``) — is materialized through the registry
against the scenario's tasks, estimates and power budget.  Entries are
canonicalized at spec construction, so equal recipes always hash, pickle and
serialize identically.  Entries that are *not* strategy specs refer to the
scenario's pre-built schedules (the paper's hand-written ``schedule_1`` ...
``schedule_4`` of ``jpeg`` scenarios).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dft.config_bus import DEFAULT_PROTOCOL_OVERHEAD_CYCLES
from repro.dft.ctl import CoreTestDescription
from repro.memory.march import MATS_PLUS
from repro.rtl.generate import SyntheticCoreSpec
from repro.schedule.estimator import PlatformParameters, TestTimeEstimator
from repro.schedule.model import TestKind, TestSchedule, TestTask
from repro.schedule.power import PowerModel
from repro.schedule.scheduler import schedule_makespan_estimate
from repro.schedule.strategies import (
    ScheduleStrategySpec,
    build_strategy_schedule,
    canonical_schedule_name,
    canonical_schedule_names,
    get_strategy,
)
from repro.soc.system import GeneratedSocTlm, JpegSocTlm, SocConfiguration
from repro.soc.testplan import (
    MEMORY,
    build_core_descriptions,
    build_platform_parameters,
    build_test_schedules,
    build_test_tasks,
)

#: Scenario kinds understood by :func:`build_scenario`.
GENERATED = "generated"
JPEG = "jpeg"

#: Name of the embedded memory core in generated scenarios.
SCENARIO_MEMORY = "mem"

#: Schedule of the JPEG scenario that runs only the compressed processor test
#: (the design point of the compression-ratio sweep).
COMPRESSED_ONLY = "compressed_only"


@dataclass(frozen=True)
class ScenarioSpec:
    """One SoC scenario of a campaign (a point in the design space).

    A spec is pure data: expanding it with :func:`build_scenario` is
    deterministic, so the same spec produces bitwise-identical simulation
    results in any process.
    """

    name: str
    kind: str = GENERATED
    #: Number of synthetic logic cores (``generated`` scenarios only).
    core_count: int = 3
    tam_width_bits: int = 32
    ate_width_bits: int = 16
    compression_ratio: float = 50.0
    #: Peak power budget handed to the greedy scheduler.
    power_budget: float = 6.0
    #: External-scan pattern volume per core (BIST uses a multiple of it).
    patterns_per_core: int = 200
    #: Words of the embedded memory core (0 disables the memory test).
    memory_words: int = 0
    #: Wrapper parallel-port (WPI/WPO) width in bits (0: one lane per chain).
    wrapper_parallel_width_bits: int = 0
    #: Wrapper serial-port / configuration-ring width in bits.
    wrapper_serial_width_bits: int = 1
    #: ATE stimulus vector memory in link words (0: unlimited buffer).
    ate_vector_memory_words: int = 0
    seed: int = 1
    #: The schedules this scenario contributes to the campaign: scheduler
    #: strategy specs (``"greedy"``, ``"anneal:steps=512"`` — canonicalized
    #: on construction, built through the strategy registry) and/or names of
    #: the scenario's pre-built schedules (``"schedule_1"`` on jpeg specs).
    schedules: Tuple[str, ...] = ("sequential", "greedy")
    #: Extra :class:`~repro.soc.system.SocConfiguration` fields as sorted
    #: ``(name, value)`` pairs (kept as a tuple so the spec stays hashable).
    #: The spec's own width/ratio fields take precedence.
    config_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in (GENERATED, JPEG):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == GENERATED and self.core_count < 1:
            raise ValueError("a generated scenario needs at least one core")
        if self.tam_width_bits <= 0 or self.ate_width_bits <= 0:
            raise ValueError("TAM and ATE widths must be positive")
        if self.compression_ratio < 1.0:
            raise ValueError("compression_ratio must be >= 1")
        if self.patterns_per_core <= 0:
            raise ValueError("patterns_per_core must be positive")
        if self.memory_words < 0:
            raise ValueError("memory_words cannot be negative")
        if self.wrapper_parallel_width_bits < 0:
            raise ValueError("wrapper_parallel_width_bits cannot be negative")
        if self.wrapper_serial_width_bits < 1:
            raise ValueError("wrapper_serial_width_bits must be >= 1")
        if self.ate_vector_memory_words < 0:
            raise ValueError("ate_vector_memory_words cannot be negative")
        if not self.schedules:
            raise ValueError("a scenario needs at least one schedule")
        # Canonicalize strategy spec strings (and fail fast on malformed
        # ones) so equal schedule recipes always compare, hash and serialize
        # equal, dropping duplicate recipes; non-strategy names pass through
        # untouched.
        object.__setattr__(self, "schedules",
                           canonical_schedule_names(self.schedules))
        # Result rows declare these columns float: an int given here would
        # reach the artifacts as an int, which the shard block (and so every
        # merge) refuses to store as a float.
        for name in ("compression_ratio", "power_budget"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def as_dict(self) -> Dict[str, object]:
        """The spec as a flat dict (column values of a campaign result row)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("schedules", "config_overrides")}


def spec_to_dict(spec: ScenarioSpec, validate: bool = True) -> Dict[str, object]:
    """The *complete* spec as a JSON-serializable dict.

    Unlike :meth:`ScenarioSpec.as_dict` (the result-row view, which drops the
    structural ``schedules``/``config_overrides`` fields), this is a lossless
    serialization: :func:`spec_from_dict` reconstructs an equal spec.  Shard
    specs and resumable adaptive artifacts ship specs across hosts this way,
    so every field value must survive a JSON round trip — specs carrying
    non-JSON ``config_overrides`` values (e.g. ``SimTime``) are rejected with
    a clear error instead of failing deep inside ``json.dump``.  Callers that
    serialize the result themselves right away (and can report the error at
    that point) pass ``validate=False`` to skip the probe dump.
    """
    document = {f.name: getattr(spec, f.name) for f in fields(spec)}
    document["schedules"] = list(spec.schedules)
    document["config_overrides"] = [[name, value]
                                    for name, value in spec.config_overrides]
    if validate:
        try:
            json.dumps(document)
        except TypeError as error:
            raise ValueError(
                f"scenario spec {spec.name!r} cannot be serialized to JSON "
                f"(a config_overrides value is not JSON-compatible): {error}"
            ) from error
    return document


def _rehydrate_override(value):
    """Undo JSON's tuple→list coercion, recursively.

    Spec fields must stay hashable (specs are dict keys in the campaign
    cache and the adaptive memo), so a sequence-valued config override was
    necessarily a tuple before serialization — rebuild it as one.
    """
    if isinstance(value, list):
        return tuple(_rehydrate_override(item) for item in value)
    return value


#: JSON value types of the scalar spec fields (a float field takes an int).
_SPEC_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


def spec_from_dict(document: Mapping[str, object]) -> ScenarioSpec:
    """Reconstruct a :class:`ScenarioSpec` written by :func:`spec_to_dict`.

    A document whose fields are unknown, missing or of the wrong JSON type
    (numbers included that do not fit 64 bits) raises :class:`ValueError`.
    """
    data = dict(document)
    valid = {f.name for f in fields(ScenarioSpec)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ValueError(f"unknown scenario spec fields: {unknown}")
    for spec_field in fields(ScenarioSpec):
        kinds = _SPEC_FIELD_TYPES.get(spec_field.type)
        if kinds is None or spec_field.name not in data:
            continue
        value = data[spec_field.name]
        if isinstance(value, bool) or not isinstance(value, kinds) or (
                isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63):
            raise ValueError(f"scenario spec field {spec_field.name!r} "
                             f"holds {value!r}, expected a 64-bit "
                             f"{spec_field.type}")
    schedules = data.get("schedules", ())
    overrides = data.get("config_overrides", ())
    if not isinstance(schedules, (list, tuple)) \
            or not all(isinstance(name, str) for name in schedules) \
            or not isinstance(overrides, (list, tuple)) \
            or not all(isinstance(pair, (list, tuple)) and len(pair) == 2
                       and isinstance(pair[0], str) for pair in overrides):
        raise ValueError("scenario spec schedules/config_overrides are "
                         "malformed")
    if "schedules" in data:
        data["schedules"] = tuple(data["schedules"])
    if "config_overrides" in data:
        data["config_overrides"] = tuple(
            (name, _rehydrate_override(value))
            for name, value in data["config_overrides"])
    try:
        return ScenarioSpec(**data)
    except TypeError as error:
        # A required field is missing (or a field value has the wrong shape):
        # surface it as an invalid-document error, not a constructor crash.
        raise ValueError(f"incomplete scenario spec document: {error}") from error


@dataclass
class Scenario:
    """A fully expanded scenario: descriptions, tasks, schedules, estimator."""

    spec: ScenarioSpec
    descriptions: Dict[str, CoreTestDescription]
    tasks: Dict[str, TestTask]
    schedules: Dict[str, TestSchedule]
    estimator: TestTimeEstimator
    #: Task name -> estimated cycles, computed once at expansion: strategy
    #: builds, row estimates and the surrogate screen all read this map.
    estimates: Dict[str, int]
    #: The power model scheduler strategies build against (the spec's budget).
    power_model: PowerModel
    memory_words: Dict[str, int] = field(default_factory=dict)
    #: The campaign layer's memo of simulated plans: ``(phases as tuples,
    #: horizon_cycles)`` -> the scalars a row reads off that simulation
    #: (see :func:`repro.explore.campaign._run_job`).  Not part of the
    #: scenario's value; it lives and dies with the memoized scenario.
    simulations: Dict[tuple, tuple] = field(default_factory=dict,
                                            compare=False, repr=False)

    def schedule_for(self, name: str) -> TestSchedule:
        """Resolve a schedule by name, materializing strategies on demand.

        Pre-built schedules (the spec's own entries, a jpeg scenario's
        hand-written plans) are served from :attr:`schedules`; any other
        name that parses as a registered scheduler strategy is built against
        the scenario's tasks, estimates and power model — deterministically,
        so lazily built schedules equal eagerly built ones — and memoized.
        Unknown names raise :class:`KeyError`.
        """
        canonical = canonical_schedule_name(name)
        schedule = self.schedules.get(canonical)
        if schedule is not None:
            return schedule
        if ScheduleStrategySpec.parse(canonical) is not None:
            schedule = build_strategy_schedule(
                canonical, self.tasks, self.estimates,
                power_model=self.power_model)
            self.schedules[canonical] = schedule
            return schedule
        raise KeyError(
            f"scenario {self.spec.name!r} has no schedule {name!r}; "
            f"available: {sorted(self.schedules)}"
        )

    def selected_schedules(self) -> List[TestSchedule]:
        """The schedules named by the spec, in spec order."""
        selected, missing = [], []
        for name in self.spec.schedules:
            try:
                selected.append(self.schedule_for(name))
            except KeyError:
                missing.append(name)
        if missing:
            raise KeyError(
                f"scenario {self.spec.name!r} has no schedule(s) {missing!r}; "
                f"available: {sorted(self.schedules)}"
            )
        return selected

    def estimated_cycles(self, schedule_name: str) -> int:
        """Coarse (estimator) makespan of one of the scenario's schedules."""
        schedule = self.schedule_for(schedule_name)
        schedule.validate(self.tasks)
        return schedule_makespan_estimate(schedule, self.estimates)

    def build_soc(self):
        """Instantiate the TLM for this scenario (fresh simulator each call).

        A campaign calls this once per scenario, not once per row: it keeps
        the SoC of the most recent scenario and rewinds it
        (:meth:`~repro.soc.system.SocTlmBase.rewind`) between that
        scenario's rows.  A row stopped at a race horizon drops it, and the
        scenario's next row builds a new one.
        """
        spec = self.spec
        parameters = dict(spec.config_overrides)
        parameters.update(
            tam_width_bits=spec.tam_width_bits,
            ate_width_bits=spec.ate_width_bits,
            compression_ratio=spec.compression_ratio,
            wrapper_parallel_width_bits=spec.wrapper_parallel_width_bits,
            wrapper_serial_width_bits=spec.wrapper_serial_width_bits,
            ate_vector_memory_words=spec.ate_vector_memory_words,
        )
        config = SocConfiguration(**parameters)
        if spec.kind == JPEG:
            return JpegSocTlm(config)
        return GeneratedSocTlm(
            config=config,
            descriptions=self.descriptions,
            memory_words=self.memory_words,
            tasks=self.tasks,
            schedules=self.schedules,
            name=spec.name,
        )


def scenario_platform(spec: ScenarioSpec) -> PlatformParameters:
    """Platform bandwidths seen by the coarse estimator for *spec*."""
    base = build_platform_parameters()
    # Mirror ConfigurationScanBus: a wider serial port speeds up only the
    # ring shift; the capture/update protocol overhead stays constant.
    overhead = min(DEFAULT_PROTOCOL_OVERHEAD_CYCLES, base.configuration_cycles)
    shift_cycles = base.configuration_cycles - overhead
    configuration_cycles = (
        math.ceil(shift_cycles / spec.wrapper_serial_width_bits) + overhead)
    return replace(base, tam_width_bits=spec.tam_width_bits,
                   ate_width_bits=spec.ate_width_bits,
                   configuration_cycles=configuration_cycles,
                   wrapper_parallel_width_bits=spec.wrapper_parallel_width_bits,
                   ate_vector_memory_words=spec.ate_vector_memory_words)


def _core_rng(spec: ScenarioSpec, index: int) -> random.Random:
    # One independent stream per core so adding a core does not reshuffle the
    # others (campaigns sweeping core_count stay comparable point by point).
    return random.Random((spec.seed * 1_000_003 + index) & 0x7FFF_FFFF)


def generate_core_descriptions(spec: ScenarioSpec) -> Dict[str, CoreTestDescription]:
    """Deterministic synthetic core descriptions for a generated scenario.

    The sizing mirrors :class:`~repro.rtl.generate.SyntheticCoreSpec`: each
    core gets a seeded scan configuration (chain count and length), an
    optional logic BIST engine and an optional decompressor interface
    (internal chains), plus calibrated power weights.
    """
    descriptions: Dict[str, CoreTestDescription] = {}
    for index in range(spec.core_count):
        rng = _core_rng(spec, index)
        chain_count = rng.choice((4, 8, 16))
        chain_length = rng.randint(24, 64)
        has_logic_bist = rng.random() < 0.5
        has_decompressor = rng.random() < 0.4
        internal_chains = chain_count * rng.choice((4, 8)) if has_decompressor else None
        test_power = round(rng.uniform(0.5, 3.0), 2)
        core_name = f"core{index}"
        description = CoreTestDescription.describe(
            core_name,
            chain_count=chain_count,
            scan_cells=chain_count * chain_length,
            has_logic_bist=has_logic_bist,
            internal_chain_count=internal_chains,
            test_power=test_power,
            idle_power=round(test_power / 10.0, 3),
        )
        description.notes.append(
            f"synthetic core (spec seed {spec.seed}, core index {index}); "
            f"structural stand-in generated like "
            f"{SyntheticCoreSpec.__name__}(flip_flops={chain_count * chain_length})"
        )
        descriptions[core_name] = description
    return descriptions


def generate_tasks(spec: ScenarioSpec,
                   descriptions: Mapping[str, CoreTestDescription]) -> Dict[str, TestTask]:
    """The test-task set of a generated scenario.

    Every core gets an external scan test; cores with logic BIST additionally
    get a BIST run (cheap in TAM bandwidth, so a larger pattern volume), and
    cores behind a decompressor get a compressed deterministic test at the
    scenario's compression ratio.  A non-zero ``memory_words`` adds a
    controller-driven march test of the embedded memory.
    """
    tasks: Dict[str, TestTask] = {}
    for core_name, description in descriptions.items():
        power = description.test_power
        if description.has_logic_bist:
            tasks[f"t_{core_name}_bist"] = TestTask(
                name=f"t_{core_name}_bist", kind=TestKind.LOGIC_BIST,
                core=core_name, pattern_count=spec.patterns_per_core * 4,
                power=power,
            )
        tasks[f"t_{core_name}_scan"] = TestTask(
            name=f"t_{core_name}_scan", kind=TestKind.EXTERNAL_SCAN,
            core=core_name, pattern_count=spec.patterns_per_core,
            power=round(power * 0.9, 3),
        )
        if description.internal_chain_count:
            tasks[f"t_{core_name}_compressed"] = TestTask(
                name=f"t_{core_name}_compressed",
                kind=TestKind.EXTERNAL_SCAN_COMPRESSED, core=core_name,
                pattern_count=spec.patterns_per_core,
                compression_ratio=spec.compression_ratio,
                power=round(power * 0.9, 3),
            )
    if spec.memory_words:
        tasks[f"t_{SCENARIO_MEMORY}_bist"] = TestTask(
            name=f"t_{SCENARIO_MEMORY}_bist",
            kind=TestKind.MEMORY_BIST_CONTROLLER, core=SCENARIO_MEMORY,
            march=MATS_PLUS, pattern_backgrounds=1, power=1.5,
        )
    return tasks


def generate_schedules(spec: ScenarioSpec, tasks: Mapping[str, TestTask],
                       estimates: Mapping[str, int],
                       power_model: PowerModel) -> Dict[str, TestSchedule]:
    """Build the spec's strategy schedules through the strategy registry.

    Every ``spec.schedules`` entry that parses as a registered scheduler
    strategy is materialized against the scenario's tasks, coarse estimates
    and power model, keyed by its canonical spec string.  Entries that are
    not strategy specs are left to the scenario's pre-built registry (and
    surface as :class:`KeyError` from :meth:`Scenario.schedule_for` when
    nothing provides them).
    """
    schedules: Dict[str, TestSchedule] = {}
    for entry in spec.schedules:
        if entry in schedules or ScheduleStrategySpec.parse(entry) is None:
            continue
        schedules[entry] = build_strategy_schedule(
            entry, tasks, estimates, power_model=power_model)
    return schedules


def _build_generated_scenario(spec: ScenarioSpec) -> Scenario:
    descriptions = generate_core_descriptions(spec)
    tasks = generate_tasks(spec, descriptions)
    memory_words = ({SCENARIO_MEMORY: spec.memory_words}
                    if spec.memory_words else {})
    estimator = TestTimeEstimator(descriptions, scenario_platform(spec),
                                  memory_words=memory_words)
    estimates = estimator.estimate_all(tasks)
    power_model = PowerModel(budget=spec.power_budget)
    return Scenario(spec=spec, descriptions=descriptions, tasks=tasks,
                    schedules=generate_schedules(spec, tasks, estimates,
                                                 power_model),
                    estimator=estimator, estimates=estimates,
                    power_model=power_model, memory_words=memory_words)


def _build_jpeg_scenario(spec: ScenarioSpec) -> Scenario:
    tasks = build_test_tasks()
    # The compressed processor test follows the scenario's compression ratio,
    # exactly as the original compression-ratio sweep varied it.
    compressed = tasks["t3_processor_compressed"]
    tasks["t3_processor_compressed"] = replace(
        compressed, compression_ratio=float(spec.compression_ratio),
        attributes=dict(compressed.attributes),
    )
    descriptions = build_core_descriptions()
    # The estimator must see the same memory size the simulation uses, which
    # a caller may have tuned through the config overrides.
    overrides = dict(spec.config_overrides)
    memory_words = {MEMORY: int(overrides.get("memory_words",
                                              SocConfiguration().memory_words))}
    estimator = TestTimeEstimator(descriptions, scenario_platform(spec),
                                  memory_words=memory_words)
    estimates = estimator.estimate_all(tasks)
    power_model = PowerModel(budget=spec.power_budget)

    schedules = dict(build_test_schedules())
    schedules[COMPRESSED_ONLY] = TestSchedule.sequential(
        COMPRESSED_ONLY, ["t3_processor_compressed"],
        description="only the compressed processor test (sweep design point)",
    )
    # Historical aliases of the default-parameter strategies over the paper's
    # task set (pre-registry callers select them by these names).
    schedules["generated_sequential"] = get_strategy("sequential").build(
        tasks, estimates, power_model=power_model, name="generated_sequential")
    schedules["generated_greedy"] = get_strategy("greedy").build(
        tasks, estimates, power_model=power_model, name="generated_greedy")
    # Strategy entries of the spec (e.g. "binpack:fit=worst") are built
    # eagerly like generated scenarios do; hand-written names are already in.
    schedules.update(generate_schedules(spec, tasks, estimates, power_model))
    return Scenario(spec=spec, descriptions=descriptions, tasks=tasks,
                    schedules=schedules, estimator=estimator,
                    estimates=estimates, power_model=power_model,
                    memory_words=memory_words)


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Expand *spec* into a concrete, simulatable :class:`Scenario`."""
    if spec.kind == JPEG:
        return _build_jpeg_scenario(spec)
    return _build_generated_scenario(spec)


def derive_seed(base_seed: int, token: str) -> int:
    """A deterministic, process-independent seed for one grid point."""
    return (base_seed * 0x9E37 + zlib.crc32(token.encode("utf-8"))) & 0x7FFF_FFFF


class ScenarioGrid:
    """Cross-product scenario generator.

    *axes* maps :class:`ScenarioSpec` field names to the values to sweep; the
    grid is the full cross product in axis insertion order.  Every grid point
    gets a stable name (prefix + index + axis values) and a deterministic seed
    derived from the base seed and the axis assignment, so re-generating the
    grid — in any process — yields identical specs.
    """

    def __init__(self, axes: Mapping[str, Sequence], base: Optional[ScenarioSpec] = None,
                 name_prefix: str = "scenario"):
        self.axes = {name: list(values) for name, values in axes.items()}
        self.base = base or ScenarioSpec(name="base")
        self.name_prefix = name_prefix
        valid = {f.name for f in fields(ScenarioSpec)}
        unknown = sorted(set(self.axes) - valid)
        if unknown:
            raise ValueError(f"unknown scenario axes: {unknown}")
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def specs(self) -> List[ScenarioSpec]:
        """All grid points, deterministically named and seeded."""
        axis_names = list(self.axes)
        specs: List[ScenarioSpec] = []
        for index, combo in enumerate(itertools.product(*self.axes.values())):
            assignment = dict(zip(axis_names, combo))
            token = ",".join(f"{name}={assignment[name]!r}"
                             for name in sorted(assignment))
            name = f"{self.name_prefix}_{index:04d}"
            if "name" not in assignment:
                assignment["name"] = name
            if "seed" not in assignment:
                assignment["seed"] = derive_seed(self.base.seed, token)
            specs.append(replace(self.base, **assignment))
        return specs

    def __iter__(self) -> Iterable[ScenarioSpec]:
        return iter(self.specs())

    def __repr__(self):
        axes = ", ".join(f"{name}x{len(values)}"
                         for name, values in self.axes.items())
        return f"ScenarioGrid({axes or 'empty'}, base={self.base.name!r})"
