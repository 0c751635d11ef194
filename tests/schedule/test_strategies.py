"""Unit tests of the scheduler-strategy subsystem: registry, canonical spec
strings, and the two new optimizers (binpack, anneal)."""

import pytest

from repro.schedule import (
    PowerModel,
    TestKind,
    TestTask,
    binpack_power_schedule,
    local_search_schedule,
)
from repro.schedule.scheduler import (
    greedy_concurrent_schedule,
    schedule_makespan_estimate,
)
from repro.schedule.strategies import (
    AnnealParams,
    BinpackParams,
    PortfolioParams,
    ScheduleStrategySpec,
    SchedulerStrategy,
    StrategyParams,
    build_strategy_schedule,
    canonical_schedule_name,
    get_strategy,
    is_strategy,
    register_strategy,
    strategy_fingerprint,
    strategy_names,
)


@pytest.fixture
def tasks():
    def bist(name, core, power):
        return TestTask(name=name, kind=TestKind.LOGIC_BIST, core=core,
                        pattern_count=100, power=power)
    return {
        "a": bist("a", "c0", 2.0),
        "b": bist("b", "c1", 1.5),
        "c": bist("c", "c2", 1.0),
        "d": TestTask(name="d", kind=TestKind.EXTERNAL_SCAN, core="c3",
                      pattern_count=100, power=1.2),
        "e": TestTask(name="e", kind=TestKind.EXTERNAL_SCAN, core="c4",
                      pattern_count=100, power=0.8),
    }


@pytest.fixture
def estimates():
    return {"a": 1000, "b": 800, "c": 300, "d": 700, "e": 250}


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert strategy_names() == ["sequential", "greedy", "binpack",
                                    "anneal", "portfolio"]
        for name in strategy_names():
            assert is_strategy(name)
            assert get_strategy(name).summary

    def test_unknown_strategy_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            get_strategy("nope")
        assert not is_strategy("nope")
        assert is_strategy("anneal:steps=3")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(SchedulerStrategy(
                name="greedy", params_type=StrategyParams,
                builder=lambda *args: None))

    def test_invalid_names_rejected(self):
        for bad in ("", "a:b", "x,y", "k=v"):
            with pytest.raises(ValueError, match="invalid strategy name"):
                register_strategy(SchedulerStrategy(
                    name=bad, params_type=StrategyParams,
                    builder=lambda *args: None))


class TestCanonicalSpecStrings:
    def test_defaults_render_to_the_bare_name(self):
        for name in strategy_names():
            spec = ScheduleStrategySpec.parse(name)
            assert spec.canonical == name
            assert spec.fingerprint == ""

    def test_parameters_canonicalize_in_declaration_order(self):
        assert canonical_schedule_name("anneal:seed=9,steps=512") == \
            "anneal:steps=512,seed=9"
        assert canonical_schedule_name("binpack:fit=worst") == "binpack:fit=worst"

    def test_default_valued_parameters_are_dropped(self):
        assert canonical_schedule_name("binpack:fit=best") == "binpack"
        assert canonical_schedule_name("anneal:steps=256,seed=1") == "anneal"

    def test_canonicalization_is_idempotent(self):
        text = canonical_schedule_name("anneal:seed=3,cost=makespan")
        assert canonical_schedule_name(text) == text

    def test_non_strategy_names_pass_through(self):
        assert canonical_schedule_name("schedule_1") == "schedule_1"
        assert ScheduleStrategySpec.parse("schedule_1") is None

    def test_float_parameters_round_trip(self):
        spec = ScheduleStrategySpec.parse("anneal:peak_weight=0.25")
        assert spec.params.peak_weight == 0.25
        assert ScheduleStrategySpec.parse(spec.canonical) == spec

    @pytest.mark.parametrize("bad", [
        "greedy:max_concurrency=x",   # wrong value type
        "greedy:nope=1",              # unknown parameter
        "greedy:",                    # empty parameter list
        "greedy:max_concurrency",     # missing '='
        "greedy:max_concurrency=1,max_concurrency=2",  # duplicate key
        "anneal:cost=bogus",          # invalid enum value
        "anneal:peak_weight=2.0",     # out of range
        "typo:steps=1",               # unknown strategy *with* parameters
    ])
    def test_malformed_spec_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            ScheduleStrategySpec.parse(bad)

    def test_reserved_delimiters_in_string_values_rejected_at_render(self):
        # A third-party strategy with a free-form str parameter must not be
        # able to render a canonical string that cannot be re-parsed.
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class TagParams(StrategyParams):
            tag: str = "ok"

        spec = ScheduleStrategySpec(strategy="x", params=TagParams(tag="a,b"))
        with pytest.raises(ValueError, match="reserved"):
            spec.canonical

    def test_canonical_schedule_names_dedupes_recipes(self):
        from repro.schedule.strategies import canonical_schedule_names

        names = canonical_schedule_names(
            ["greedy", "greedy:max_concurrency=0", "schedule_1",
             "binpack:fit=best", "binpack", "schedule_1"])
        assert names == ("greedy", "schedule_1", "binpack")

    def test_fingerprint_for_artifacts(self):
        assert strategy_fingerprint("greedy") == ("greedy", "")
        assert strategy_fingerprint("anneal:steps=512,seed=9") == \
            ("anneal", "steps=512,seed=9")
        # Hand-written schedules and malformed names never raise on the
        # artifact-writing path.
        assert strategy_fingerprint("schedule_4") == ("", "")
        assert strategy_fingerprint("greedy:bogus") == ("", "")


class TestParseMemo:
    @pytest.fixture
    def unregistered(self):
        from repro.schedule import strategies

        yield "memo_probe"
        strategies._REGISTRY.pop("memo_probe", None)
        ScheduleStrategySpec.parse.cache_clear()
        canonical_schedule_name.cache_clear()

    def test_registering_a_name_revokes_its_memoized_parse(self, unregistered,
                                                           tasks, estimates):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ProbeParams(StrategyParams):
            level: int = 0

        text = f"{unregistered}:level=0"
        assert ScheduleStrategySpec.parse(unregistered) is None
        assert canonical_schedule_name(unregistered) == unregistered
        with pytest.raises(ValueError, match="unknown scheduler strategy"):
            canonical_schedule_name(text)
        register_strategy(SchedulerStrategy(
            name=unregistered, params_type=ProbeParams,
            builder=get_strategy("greedy").builder))
        assert ScheduleStrategySpec.parse(unregistered) == \
            ScheduleStrategySpec(strategy=unregistered, params=ProbeParams())
        assert canonical_schedule_name(text) == unregistered
        assert strategy_fingerprint(text) == (unregistered, "")

    def test_a_parse_that_raises_is_not_memoized(self):
        memoized = ScheduleStrategySpec.parse.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="no parameter"):
                ScheduleStrategySpec.parse("greedy:bogus=1")
        assert ScheduleStrategySpec.parse.cache_info().currsize == memoized


class TestBuildThroughRegistry:
    def test_schedule_named_by_canonical_string(self, tasks, estimates):
        schedule = build_strategy_schedule("binpack:fit=best", tasks, estimates)
        assert schedule.name == "binpack"
        schedule.validate(tasks)
        assert sorted(schedule.task_names) == sorted(tasks)

    def test_unregistered_name_raises_keyerror(self, tasks, estimates):
        with pytest.raises(KeyError, match="schedule_1"):
            build_strategy_schedule("schedule_1", tasks, estimates)

    def test_wrong_params_type_rejected(self, tasks, estimates):
        with pytest.raises(TypeError, match="GreedyParams"):
            get_strategy("greedy").build(tasks, estimates,
                                         params=BinpackParams())

    def test_sequential_orderings(self, tasks, estimates):
        longest = build_strategy_schedule("sequential", tasks, estimates)
        assert longest.task_names == ["a", "b", "d", "c", "e"]
        by_name = build_strategy_schedule("sequential:order=name", tasks,
                                          estimates)
        assert by_name.task_names == sorted(tasks)


class TestBinpack:
    def test_respects_budget_and_conflicts(self, tasks, estimates):
        model = PowerModel(budget=3.0)
        schedule = binpack_power_schedule("bp", tasks, estimates,
                                          power_model=model)
        schedule.validate(tasks)
        for phase in schedule.phases:
            assert model.phase_fits_budget(phase, tasks)

    def test_best_fit_hides_short_tasks_under_long_phases(self, tasks,
                                                          estimates):
        # Budget 3.5: greedy first-fit parks "c" (1.0) with "b" in the first
        # phase it fits; best-fit prefers the tightest makespan fit.
        model = PowerModel(budget=3.5)
        greedy = greedy_concurrent_schedule("g", tasks, estimates,
                                            power_model=model)
        packed = binpack_power_schedule("bp", tasks, estimates,
                                        power_model=model)
        assert schedule_makespan_estimate(packed, estimates) <= \
            schedule_makespan_estimate(greedy, estimates)

    def test_worst_fit_lowers_phase_power(self, tasks, estimates):
        model = PowerModel(budget=6.0)
        best = binpack_power_schedule("best", tasks, estimates,
                                      power_model=model, fit="best")
        worst = binpack_power_schedule("worst", tasks, estimates,
                                       power_model=model, fit="worst")
        assert model.schedule_peak_power(worst, tasks) <= \
            model.schedule_peak_power(best, tasks)

    def test_unlimited_budget_matches_conflict_only_packing(self, tasks,
                                                            estimates):
        schedule = binpack_power_schedule("bp", tasks, estimates)
        # Only the two external-scan tests conflict (shared ATE channel), so
        # an unlimited budget packs everything into two phases.
        assert schedule.phase_count == 2

    def test_max_concurrency_enforced(self, tasks, estimates):
        schedule = binpack_power_schedule("bp", tasks, estimates,
                                          max_concurrency=2)
        assert all(len(phase) <= 2 for phase in schedule.phases)

    def test_invalid_fit_rejected(self, tasks, estimates):
        with pytest.raises(ValueError, match="fit"):
            binpack_power_schedule("bp", tasks, estimates, fit="middle")

    def test_missing_estimate_rejected(self, tasks, estimates):
        estimates = dict(estimates)
        estimates.pop("a")
        with pytest.raises(KeyError, match="a"):
            binpack_power_schedule("bp", tasks, estimates)


class TestAnneal:
    def test_never_worse_than_its_initial_schedule(self, tasks, estimates):
        model = PowerModel(budget=3.0)
        initial = greedy_concurrent_schedule("init", tasks, estimates,
                                             power_model=model)
        annealed = local_search_schedule("an", tasks, estimates,
                                         power_model=model, seed=3, steps=200,
                                         cost="makespan", initial=initial)
        assert schedule_makespan_estimate(annealed, estimates) <= \
            schedule_makespan_estimate(initial, estimates)
        annealed.validate(tasks)
        for phase in annealed.phases:
            assert model.phase_fits_budget(phase, tasks)

    def test_peak_power_cost_flattens_the_profile(self, tasks, estimates):
        model = PowerModel(budget=10.0)
        initial = binpack_power_schedule("init", tasks, estimates,
                                         power_model=model)
        annealed = local_search_schedule("an", tasks, estimates,
                                         power_model=model, seed=5, steps=300,
                                         cost="peak_power", initial=initial)
        assert model.schedule_peak_power(annealed, tasks) <= \
            model.schedule_peak_power(initial, tasks)

    def test_same_seed_is_bitwise_deterministic(self, tasks, estimates):
        model = PowerModel(budget=3.0)
        first = local_search_schedule("an", tasks, estimates,
                                      power_model=model, seed=7, steps=150)
        second = local_search_schedule("an", tasks, estimates,
                                       power_model=model, seed=7, steps=150)
        assert first.phases == second.phases

    def test_zero_steps_returns_the_initial_schedule(self, tasks, estimates):
        model = PowerModel(budget=3.0)
        initial = greedy_concurrent_schedule("init", tasks, estimates,
                                             power_model=model)
        annealed = local_search_schedule("an", tasks, estimates,
                                         power_model=model, seed=1, steps=0)
        assert sorted(map(tuple, annealed.phases)) == \
            sorted(map(tuple, initial.phases))

    @pytest.mark.parametrize("kwargs", [
        {"cost": "bogus"}, {"peak_weight": 1.5}, {"steps": -1},
    ])
    def test_invalid_parameters_rejected(self, tasks, estimates, kwargs):
        with pytest.raises(ValueError):
            local_search_schedule("an", tasks, estimates, **kwargs)

    def test_anneal_params_validation(self):
        with pytest.raises(ValueError):
            AnnealParams(cost="x")
        with pytest.raises(ValueError):
            AnnealParams(init="x")
        with pytest.raises(ValueError):
            AnnealParams(peak_weight=-0.1)


class TestPortfolio:
    def test_picks_the_best_member_under_the_estimator(self, tasks,
                                                       estimates):
        model = PowerModel(budget=3.5)
        portfolio = build_strategy_schedule(
            "portfolio:members=greedy|binpack", tasks, estimates,
            power_model=model)
        members = [build_strategy_schedule(member, tasks, estimates,
                                           power_model=model)
                   for member in ("greedy", "binpack")]
        best = min(
            (schedule_makespan_estimate(m, estimates),
             model.schedule_peak_power(m, tasks)) for m in members)
        assert (schedule_makespan_estimate(portfolio, estimates),
                model.schedule_peak_power(portfolio, tasks)) == best

    def test_never_worse_than_any_member(self, tasks, estimates):
        model = PowerModel(budget=6.0)
        portfolio = build_strategy_schedule(
            "portfolio", tasks, estimates, power_model=model)
        portfolio.validate(tasks)
        for member in PortfolioParams().member_names:
            schedule = build_strategy_schedule(member, tasks, estimates,
                                               power_model=model)
            assert schedule_makespan_estimate(portfolio, estimates) <= \
                schedule_makespan_estimate(schedule, estimates)

    def test_description_names_the_winner(self, tasks, estimates):
        model = PowerModel(budget=3.0)
        schedule = build_strategy_schedule(
            "portfolio:members=greedy|binpack", tasks, estimates,
            power_model=model)
        assert "portfolio best-of-2" in schedule.description
        assert ("picked greedy" in schedule.description
                or "picked binpack" in schedule.description)

    def test_member_order_breaks_exact_ties_deterministically(self, tasks,
                                                              estimates):
        # binpack|greedy vs greedy|binpack must both resolve ties by member
        # *name*, not list position, so the two spellings agree.
        model = PowerModel(budget=3.0)
        first = build_strategy_schedule(
            "portfolio:members=greedy|binpack", tasks, estimates,
            power_model=model)
        second = build_strategy_schedule(
            "portfolio:members=binpack|greedy", tasks, estimates,
            power_model=model)
        assert sorted(map(tuple, first.phases)) == \
            sorted(map(tuple, second.phases))

    @pytest.mark.parametrize("members", [
        "", "greedy|", "greedy|greedy", "portfolio", "greedy|nope",
        "greedy|anneal:steps=5",
    ])
    def test_invalid_member_lists_rejected(self, members):
        with pytest.raises(ValueError):
            PortfolioParams(members=members)

    def test_canonical_spec_string_round_trips(self):
        name = canonical_schedule_name("portfolio:members=binpack|greedy")
        assert name == "portfolio:members=binpack|greedy"
        assert canonical_schedule_name("portfolio") == "portfolio"
