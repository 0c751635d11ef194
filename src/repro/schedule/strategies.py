"""The scheduler-strategy subsystem: a registry of named, parameterized
schedule generators.

The paper's loop is *build schedules from coarse estimates, then validate
them by simulation*.  This module turns the "build" side into a first-class,
pluggable axis: every schedule-construction algorithm of
:mod:`repro.schedule.scheduler` is registered as a :class:`SchedulerStrategy`
with a typed, frozen parameter dataclass, and any ``(strategy, params)``
pair can be written as — and parsed back from — a canonical *strategy spec
string*::

    sequential                     # all parameters at their defaults
    greedy:max_concurrency=2
    binpack:fit=worst
    anneal:steps=512,seed=9,cost=peak_power

Those strings are what travels through the stack: they are the entries of
``ScenarioSpec.schedules``, the ``schedule`` column of campaign artifacts,
and the argument of the CLI's ``--strategy`` flag.  The string form is
canonical (default-valued parameters are omitted, the remaining ones appear
in declaration order), so equal strategy specs always serialize to equal
strings — the property the campaign job memo and the artifact fingerprints
rely on.

Adding a strategy is three steps: write the builder function (in
:mod:`repro.schedule.scheduler` or anywhere), declare a frozen params
dataclass, and call :func:`register_strategy`.  See ``docs/scheduling.md``
for a worked example.

Registered strategies (the built-in five):

======================  =====================================================
``sequential``          one task at a time, longest first (``order=name``
                        for lexicographic order)
``greedy``              longest-task-first first-fit list scheduling under
                        the power budget
``binpack``             best-fit-decreasing packing into power windows
                        (``fit=worst`` spreads load to flatten power)
``anneal``              seeded deterministic simulated annealing improving an
                        initial schedule against a configurable cost
``portfolio``           best-of-N member pick per scenario under the coarse
                        estimator (``portfolio:members=greedy|binpack``)
======================  =====================================================
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.schedule.model import TestSchedule, TestTask
from repro.schedule.power import PowerModel
from repro.schedule.scheduler import (
    binpack_power_schedule,
    greedy_concurrent_schedule,
    local_search_schedule,
    schedule_makespan_estimate,
    sequential_schedule,
)

#: Characters that cannot appear in string-valued strategy parameters (they
#: are the delimiters of the canonical spec string).
_RESERVED = ":,="


# -- parameter dataclasses ---------------------------------------------------
@dataclass(frozen=True)
class StrategyParams:
    """Base class of strategy parameter sets.

    Subclasses are frozen dataclasses whose fields all carry defaults and
    hold only scalars (``int``/``float``/``bool``/``str``), so every
    parameter set is hashable, picklable and losslessly representable in the
    canonical ``key=value,...`` string form.
    """


@dataclass(frozen=True)
class SequentialParams(StrategyParams):
    #: ``longest`` runs the longest estimated test first; ``name`` runs the
    #: tasks in lexicographic order.
    order: str = "longest"

    def __post_init__(self):
        if self.order not in ("longest", "name"):
            raise ValueError(f"order must be 'longest' or 'name', "
                             f"got {self.order!r}")


@dataclass(frozen=True)
class GreedyParams(StrategyParams):
    #: Maximum tasks per concurrent phase (0: unlimited).
    max_concurrency: int = 0

    def __post_init__(self):
        if self.max_concurrency < 0:
            raise ValueError("max_concurrency cannot be negative")


@dataclass(frozen=True)
class BinpackParams(StrategyParams):
    #: ``best`` minimizes the estimated-makespan increase per placement;
    #: ``worst`` maximizes remaining power headroom (flatter power profile).
    fit: str = "best"
    max_concurrency: int = 0

    def __post_init__(self):
        if self.fit not in ("best", "worst"):
            raise ValueError(f"fit must be 'best' or 'worst', got {self.fit!r}")
        if self.max_concurrency < 0:
            raise ValueError("max_concurrency cannot be negative")


@dataclass(frozen=True)
class AnnealParams(StrategyParams):
    steps: int = 256
    seed: int = 1
    #: ``makespan``, ``peak_power`` or ``combined``.
    cost: str = "combined"
    #: Weight of the peak-power term in the combined cost (0..1).
    peak_weight: float = 0.5
    #: Strategy building the starting schedule: ``greedy`` or ``binpack``.
    init: str = "greedy"
    max_concurrency: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps cannot be negative")
        if self.cost not in ("makespan", "peak_power", "combined"):
            raise ValueError(f"cost must be 'makespan', 'peak_power' or "
                             f"'combined', got {self.cost!r}")
        if not 0.0 <= self.peak_weight <= 1.0:
            raise ValueError("peak_weight must be in [0, 1]")
        if self.init not in ("greedy", "binpack"):
            raise ValueError(f"init must be 'greedy' or 'binpack', "
                             f"got {self.init!r}")
        if self.max_concurrency < 0:
            raise ValueError("max_concurrency cannot be negative")


@dataclass(frozen=True)
class PortfolioParams(StrategyParams):
    #: ``|``-separated member strategy names (``|`` is not a spec-string
    #: delimiter, so the list survives the canonical ``key=value`` form).
    #: Members are plain registered strategy names with default parameters.
    members: str = "greedy|binpack|anneal"

    def __post_init__(self):
        names = self.members.split("|") if self.members else []
        if not names or any(not name for name in names):
            raise ValueError(
                f"members must be a non-empty |-separated list of strategy "
                f"names, got {self.members!r}")
        seen = set()
        for name in names:
            if name == "portfolio":
                raise ValueError("a portfolio cannot contain itself")
            if any(c in name for c in _RESERVED) or name not in _REGISTRY:
                raise ValueError(
                    f"portfolio member {name!r} is not a registered "
                    f"strategy; registered: {strategy_names()}")
            if name in seen:
                raise ValueError(f"duplicate portfolio member {name!r}")
            seen.add(name)

    @property
    def member_names(self) -> Tuple[str, ...]:
        return tuple(self.members.split("|"))


# -- the registry ------------------------------------------------------------
#: Builder signature: (schedule_name, tasks, estimates, power_model, params).
StrategyBuilder = Callable[
    [str, Mapping[str, TestTask], Mapping[str, int], PowerModel,
     StrategyParams],
    TestSchedule,
]


@dataclass(frozen=True)
class SchedulerStrategy:
    """One registered schedule-generation strategy."""

    name: str
    params_type: Type[StrategyParams]
    builder: StrategyBuilder
    #: One-line description for listings (``python -m repro.explore strategies``).
    summary: str = ""

    def build(self, tasks: Mapping[str, TestTask],
              estimates: Mapping[str, int],
              power_model: Optional[PowerModel] = None,
              params: Optional[StrategyParams] = None,
              name: Optional[str] = None) -> TestSchedule:
        """Build a schedule; the default name is the canonical spec string."""
        if params is None:
            params = self.params_type()
        if not isinstance(params, self.params_type):
            raise TypeError(
                f"strategy {self.name!r} takes {self.params_type.__name__}, "
                f"got {type(params).__name__}")
        spec = ScheduleStrategySpec(strategy=self.name, params=params)
        return self.builder(name if name is not None else spec.canonical,
                            tasks, estimates,
                            power_model or PowerModel(), params)

    def parameter_docs(self) -> List[Tuple[str, str, str]]:
        """``(name, type, default)`` of every parameter, declaration order."""
        return [(f.name, f.type if isinstance(f.type, str)
                 else f.type.__name__, _render_value(f.default))
                for f in fields(self.params_type)]


_REGISTRY: Dict[str, SchedulerStrategy] = {}


def register_strategy(strategy: SchedulerStrategy) -> SchedulerStrategy:
    """Add *strategy* to the registry (its name must be unique and free of
    the spec-string delimiters)."""
    if any(c in strategy.name for c in _RESERVED) or not strategy.name:
        raise ValueError(f"invalid strategy name {strategy.name!r}")
    if strategy.name in _REGISTRY:
        raise ValueError(f"strategy {strategy.name!r} is already registered")
    _REGISTRY[strategy.name] = strategy
    # A name memoized as "not a strategy" may name this one now.
    ScheduleStrategySpec.parse.cache_clear()
    canonical_schedule_name.cache_clear()
    return strategy


def strategy_names() -> List[str]:
    """The registered strategy names, in registration order."""
    return list(_REGISTRY)


def get_strategy(name: str) -> SchedulerStrategy:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler strategy {name!r}; "
            f"registered: {strategy_names()}")


def is_strategy(name: str) -> bool:
    """True when *name* (or the base name of a spec string) is registered."""
    base, _, _ = name.partition(":")
    return base in _REGISTRY


# -- canonical spec strings --------------------------------------------------
def _render_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str) and any(c in value for c in _RESERVED):
        # A delimiter inside a string value would render a canonical spec
        # string that cannot be re-parsed; fail at the rendering site
        # instead of far away at the next canonicalization.
        raise ValueError(
            f"string parameter value {value!r} contains a reserved "
            f"delimiter ({_RESERVED!r})")
    return str(value)


def _parse_value(text: str, target: type, key: str, strategy: str) -> object:
    try:
        if target is bool:
            if text not in ("true", "false"):
                raise ValueError(f"expected true/false, got {text!r}")
            return text == "true"
        if target is int:
            return int(text)
        if target is float:
            return float(text)
        return text
    except ValueError as error:
        raise ValueError(
            f"strategy {strategy!r}: parameter {key!r} expects "
            f"{target.__name__}, got {text!r}") from error


#: How many distinct schedule names the parse memos keep.
_PARSE_MEMO_SIZE = 1024

#: Field types resolvable from the annotation strings used in this module.
_FIELD_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


@dataclass(frozen=True)
class ScheduleStrategySpec:
    """A strategy plus a concrete parameter set (one schedule recipe)."""

    strategy: str
    params: StrategyParams

    @property
    def canonical(self) -> str:
        """The canonical spec string: default parameters omitted, the rest
        in declaration order — equal specs render to equal strings."""
        parts = [f"{f.name}={_render_value(getattr(self.params, f.name))}"
                 for f in fields(self.params)
                 if getattr(self.params, f.name) != f.default]
        if not parts:
            return self.strategy
        return f"{self.strategy}:{','.join(parts)}"

    @property
    def fingerprint(self) -> str:
        """The parameter fingerprint: the ``key=value,...`` part of the
        canonical string ("" when every parameter is at its default)."""
        _, _, params = self.canonical.partition(":")
        return params

    @classmethod
    @functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
    def parse(cls, text: str) -> Optional["ScheduleStrategySpec"]:
        """Parse ``NAME[:key=val,...]``.

        Returns ``None`` when the base name is not a registered strategy
        (the text then refers to a pre-built schedule, e.g. the paper's
        hand-written ``schedule_1``); raises :class:`ValueError` when the
        base name *is* registered but the parameter list is malformed.
        Results are memoized by text (a spec is frozen, so every caller may
        share it); a parse that raises is not, and
        :func:`register_strategy` forgets them all.
        """
        base, separator, params_text = text.partition(":")
        if base not in _REGISTRY:
            if separator:
                raise ValueError(
                    f"unknown scheduler strategy {base!r} in {text!r}; "
                    f"registered: {strategy_names()}")
            return None
        strategy = _REGISTRY[base]
        valid = {f.name: f for f in fields(strategy.params_type)}
        values: Dict[str, object] = {}
        if params_text:
            for part in params_text.split(","):
                key, eq, value_text = part.partition("=")
                if not eq or not key:
                    raise ValueError(
                        f"strategy {base!r}: malformed parameter {part!r} "
                        f"(expected key=value)")
                if key in values:
                    raise ValueError(
                        f"strategy {base!r}: duplicate parameter {key!r}")
                if key not in valid:
                    raise ValueError(
                        f"strategy {base!r} has no parameter {key!r}; "
                        f"parameters: {sorted(valid)}")
                annotation = valid[key].type
                target = (_FIELD_TYPES[annotation]
                          if isinstance(annotation, str) else annotation)
                values[key] = _parse_value(value_text, target, key, base)
        elif separator:
            raise ValueError(f"strategy spec {text!r} has an empty "
                             f"parameter list after ':'")
        return cls(strategy=base, params=strategy.params_type(**values))

    def build(self, tasks: Mapping[str, TestTask],
              estimates: Mapping[str, int],
              power_model: Optional[PowerModel] = None) -> TestSchedule:
        """Build the schedule (named by the canonical spec string)."""
        return get_strategy(self.strategy).build(
            tasks, estimates, power_model=power_model, params=self.params)


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def canonical_schedule_name(text: str) -> str:
    """Canonicalize a schedule name.

    Strategy spec strings are normalized (defaults dropped, declaration
    order); anything else — the name of a pre-built schedule — passes
    through unchanged.  Raises :class:`ValueError` for a malformed spec
    string of a registered strategy.  Memoized by text, like
    :meth:`ScheduleStrategySpec.parse`.
    """
    spec = ScheduleStrategySpec.parse(text)
    return text if spec is None else spec.canonical


def canonical_schedule_names(names) -> Tuple[str, ...]:
    """Canonicalize a schedule-name list, dropping duplicate recipes
    (order-preserving).

    The shared rule behind ``ScenarioSpec.schedules`` and the
    campaign/adaptive schedule overrides: entries that canonicalize to the
    same recipe (``"greedy"`` next to ``"greedy:max_concurrency=0"``)
    collapse to one — a duplicate would simulate the identical schedule
    twice.
    """
    canonical: List[str] = []
    for entry in names:
        name = canonical_schedule_name(entry)
        if name not in canonical:
            canonical.append(name)
    return tuple(canonical)


def strategy_fingerprint(schedule_name: str) -> Tuple[str, str]:
    """``(strategy, parameter fingerprint)`` of a schedule name.

    The pair recorded in campaign artifacts: ``("greedy", "")`` for a
    default-parameter strategy schedule, ``("anneal", "steps=512")`` for a
    parameterized one, and ``("", "")`` for schedules that did not come out
    of the registry (hand-written or malformed names alike — artifact
    writing never raises).
    """
    base, _, _ = schedule_name.partition(":")
    if base not in _REGISTRY:
        return "", ""
    try:
        spec = ScheduleStrategySpec.parse(schedule_name)
    except ValueError:
        return "", ""
    return spec.strategy, spec.fingerprint


def build_strategy_schedule(text: str, tasks: Mapping[str, TestTask],
                            estimates: Mapping[str, int],
                            power_model: Optional[PowerModel] = None,
                            ) -> TestSchedule:
    """Parse *text* and build the schedule; raises for unregistered names."""
    spec = ScheduleStrategySpec.parse(text)
    if spec is None:
        raise KeyError(
            f"unknown scheduler strategy {text!r}; "
            f"registered: {strategy_names()}")
    return spec.build(tasks, estimates, power_model=power_model)


# -- the built-in strategies -------------------------------------------------
def _build_sequential(name, tasks, estimates, power_model, params):
    if params.order == "longest":
        order = sorted(tasks, key=lambda task: estimates[task], reverse=True)
        detail = "longest test first"
    else:
        order = sorted(tasks)
        detail = "lexicographic order"
    return sequential_schedule(name, tasks, order=order,
                               description=f"sequential baseline ({detail})")


def _build_greedy(name, tasks, estimates, power_model, params):
    return greedy_concurrent_schedule(
        name, tasks, estimates, power_model=power_model,
        max_concurrency=params.max_concurrency or None,
        description=f"greedy concurrent schedule "
                    f"(power budget {power_model.budget:g})")


def _build_binpack(name, tasks, estimates, power_model, params):
    return binpack_power_schedule(
        name, tasks, estimates, power_model=power_model,
        max_concurrency=params.max_concurrency or None, fit=params.fit,
        description=f"{params.fit}-fit-decreasing power-window packing "
                    f"(power budget {power_model.budget:g})")


def _build_anneal(name, tasks, estimates, power_model, params):
    initial_builder = (_build_greedy if params.init == "greedy"
                       else _build_binpack)
    initial = initial_builder(
        name, tasks, estimates, power_model,
        GreedyParams(max_concurrency=params.max_concurrency)
        if params.init == "greedy"
        else BinpackParams(max_concurrency=params.max_concurrency))
    return local_search_schedule(
        name, tasks, estimates, power_model=power_model,
        seed=params.seed, steps=params.steps, cost=params.cost,
        peak_weight=params.peak_weight, initial=initial,
        max_concurrency=params.max_concurrency or None,
        description=f"annealed {params.init} schedule "
                    f"({params.steps} steps, cost {params.cost})")


def _build_portfolio(name, tasks, estimates, power_model, params):
    best = None
    for member in params.member_names:
        candidate = _REGISTRY[member].build(
            tasks, estimates, power_model=power_model, name=name)
        key = (schedule_makespan_estimate(candidate, estimates),
               power_model.schedule_peak_power(candidate, tasks),
               member)
        if best is None or key < best[0]:
            best = (key, candidate, member)
    _, schedule, member = best
    schedule.description = (
        f"portfolio best-of-{len(params.member_names)} under the estimator: "
        f"picked {member} ({best[0][0]} cycles, peak {best[0][1]:g})")
    return schedule


register_strategy(SchedulerStrategy(
    name="sequential", params_type=SequentialParams,
    builder=_build_sequential,
    summary="one task at a time (the paper's sequential baselines)"))
register_strategy(SchedulerStrategy(
    name="greedy", params_type=GreedyParams, builder=_build_greedy,
    summary="longest-first first-fit list scheduling under the power budget"))
register_strategy(SchedulerStrategy(
    name="binpack", params_type=BinpackParams, builder=_build_binpack,
    summary="best-fit-decreasing packing into power windows"))
register_strategy(SchedulerStrategy(
    name="anneal", params_type=AnnealParams, builder=_build_anneal,
    summary="seeded simulated annealing over a configurable cost"))
register_strategy(SchedulerStrategy(
    name="portfolio", params_type=PortfolioParams, builder=_build_portfolio,
    summary="best-of-N member pick per scenario under the coarse estimator"))
