"""End-to-end tests of the scheduler-strategy axis through the campaign
stack: spec round-trips, schema-v4 artifacts, shard merge, adaptive search
and resume, the ``tracing_enabled`` exploration mode, and the acceptance
bar — a new strategy Pareto-dominating greedy on a ≥50-scenario grid."""

import json
from dataclasses import replace

import pytest

from repro.explore.adaptive import AdaptiveSearch, Objective
from repro.explore.campaign import (
    Campaign,
    CampaignJob,
    RESULT_COLUMNS,
    campaign_from_axes,
    clear_scenario_cache,
    execute_job,
)
from repro.explore.distrib import merge_shard_documents, plan_shards, run_shard
from repro.explore.scenarios import (
    ScenarioSpec,
    build_scenario,
    spec_from_dict,
    spec_to_dict,
)

#: The strategy mix exercised end to end (canonical forms).
STRATEGIES = ("sequential", "greedy", "binpack", "binpack:fit=worst",
              "anneal:steps=64,seed=3")


def strategy_spec(name="strat", **overrides) -> ScenarioSpec:
    parameters = {"core_count": 2, "patterns_per_core": 32, "seed": 7,
                  "schedules": STRATEGIES}
    parameters.update(overrides)
    return ScenarioSpec(name=name, **parameters)


class TestSpecRoundTrip:
    def test_schedules_canonicalized_at_construction(self):
        spec = ScenarioSpec(name="x", schedules=("anneal:seed=3,steps=64",
                                                 "binpack:fit=best"))
        assert spec.schedules == ("anneal:steps=64,seed=3", "binpack")

    def test_malformed_strategy_entries_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            ScenarioSpec(name="x", schedules=("greedy:bogus=1",))

    def test_spec_to_dict_round_trip_is_lossless(self):
        spec = strategy_spec(memory_words=256)
        document = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(document) == spec

    def test_specs_with_equal_recipes_hash_equal(self):
        a = ScenarioSpec(name="x", schedules=("anneal:seed=1,steps=64",))
        b = ScenarioSpec(name="x", schedules=("anneal:steps=64",))
        assert a == b and hash(a) == hash(b)

    def test_duplicate_recipes_collapse_to_one(self):
        # "greedy:max_concurrency=0" canonicalizes to "greedy": simulating
        # the identical schedule twice would only duplicate rows.
        spec = ScenarioSpec(name="x", schedules=("sequential", "greedy",
                                                 "greedy:max_concurrency=0"))
        assert spec.schedules == ("sequential", "greedy")
        campaign = Campaign([spec], schedules=("greedy", "binpack:fit=best",
                                               "binpack"))
        assert [job.schedule for job in campaign.jobs()] == \
            ["greedy", "binpack"]


class TestStrategySchedulesInScenarios:
    def test_all_strategy_entries_materialized(self):
        scenario = build_scenario(strategy_spec())
        for name in STRATEGIES:
            schedule = scenario.schedule_for(name)
            schedule.validate(scenario.tasks)
            assert sorted(schedule.task_names) == sorted(scenario.tasks)

    def test_lazy_strategies_equal_eager_ones(self):
        eager = build_scenario(strategy_spec())
        lazy = build_scenario(strategy_spec(schedules=("sequential",)))
        for name in STRATEGIES:
            assert lazy.schedule_for(name).phases == \
                eager.schedule_for(name).phases

    def test_power_budget_reaches_the_strategies(self):
        tight = build_scenario(strategy_spec(power_budget=2.0))
        loose = build_scenario(strategy_spec(power_budget=50.0))
        for name in ("greedy", "binpack"):
            # Concurrency (phases with >1 task) only under the budget; a
            # single task that exceeds the budget alone still runs (in a
            # phase of its own), like the greedy scheduler always did.
            for phase in tight.schedule_for(name).phases:
                if len(phase) > 1:
                    assert tight.power_model.phase_fits_budget(
                        phase, tight.tasks)
            assert tight.schedule_for(name).phase_count >= \
                loose.schedule_for(name).phase_count

    def test_jpeg_scenarios_build_strategy_entries(self):
        spec = ScenarioSpec(name="jpeg", kind="jpeg",
                            schedules=("schedule_1", "binpack"))
        scenario = build_scenario(spec)
        assert [s.name for s in scenario.selected_schedules()] == \
            ["schedule_1", "binpack"]

    def test_schedules_of_one_scenario_are_independent_objects(self):
        # greedy, the anneal's start and the portfolio's greedy member are
        # one recipe: changing one schedule must leave the others intact.
        names = ("greedy", "anneal:steps=64,seed=3",
                 "portfolio:members=greedy|binpack")
        spec = strategy_spec(schedules=names)
        for mutated in names:
            scenario = build_scenario(spec)
            target = scenario.schedule_for(mutated)
            target.phases[0].append("intruder")
            target.phases.append(["intruder"])
            target.description = "changed"
            fresh = build_scenario(spec)
            for name in names:
                if name != mutated:
                    kept = scenario.schedule_for(name)
                    assert kept.phases == fresh.schedule_for(name).phases
                    assert kept.description == \
                        fresh.schedule_for(name).description

    def test_unknown_schedule_still_raises(self):
        scenario = build_scenario(strategy_spec(schedules=("sequential",)))
        with pytest.raises(KeyError, match="nope"):
            scenario.schedule_for("nope")


class TestSchemaV4Artifacts:
    @pytest.fixture(scope="class")
    def run(self):
        return Campaign([strategy_spec()]).run()

    def test_strategy_columns_present_and_ordered(self, run):
        for row in run.rows():
            assert tuple(row) == RESULT_COLUMNS
        assert RESULT_COLUMNS.index("strategy") == \
            RESULT_COLUMNS.index("schedule") + 1

    def test_strategy_fingerprints_recorded(self, run):
        by_schedule = {row["schedule"]: row for row in run.rows()}
        assert by_schedule["greedy"]["strategy"] == "greedy"
        assert by_schedule["greedy"]["strategy_params"] == ""
        assert by_schedule["binpack:fit=worst"]["strategy"] == "binpack"
        assert by_schedule["binpack:fit=worst"]["strategy_params"] == \
            "fit=worst"
        annealed = by_schedule["anneal:steps=64,seed=3"]
        assert annealed["strategy"] == "anneal"
        assert annealed["strategy_params"] == "steps=64,seed=3"

    def test_handwritten_schedules_have_empty_fingerprint(self):
        spec = ScenarioSpec(name="jpeg", kind="jpeg",
                            schedules=("schedule_4",))
        row = Campaign([spec]).run().rows()[0]
        assert row["strategy"] == "" and row["strategy_params"] == ""

    def test_parallel_equals_serial_with_strategies(self, run):
        parallel = Campaign([strategy_spec()]).run(workers=2)
        assert parallel.deterministic_rows() == run.deterministic_rows()

    def test_schedule_override_canonicalizes(self):
        campaign = Campaign([strategy_spec()],
                            schedules=("anneal:seed=3,steps=64",))
        assert [job.schedule for job in campaign.jobs()] == \
            ["anneal:steps=64,seed=3"]

    def test_override_strategy_not_in_spec_builds_lazily(self):
        clear_scenario_cache()
        outcome = execute_job(CampaignJob(
            spec=strategy_spec(schedules=("sequential",)),
            schedule="binpack:fit=worst"))
        assert outcome.test_length_cycles > 0


class TestStrategiesThroughShardsAndAdaptive:
    def test_shard_merge_bitwise_with_strategies(self):
        campaign = Campaign([strategy_spec("a"), strategy_spec("b", seed=9)])
        documents = [run_shard(shard).as_document()
                     for shard in plan_shards(campaign, 3)]
        merged = merge_shard_documents(documents)
        mono = campaign.run().as_document(deterministic=True)
        assert json.dumps(merged) == json.dumps(mono)

    def test_adaptive_selects_over_strategy_schedules(self):
        grid_specs = [strategy_spec(f"s{i}", seed=3 + i,
                                    schedules=("greedy", "binpack",
                                               "anneal:steps=48,seed=5"))
                      for i in range(3)]
        search = AdaptiveSearch(grid_specs, eta=2.0, min_budget=0.5)
        result = search.run()
        assert result.front
        schedules = {outcome.schedule for r in result.rounds
                     for outcome in r.run.outcomes}
        assert schedules == {"greedy", "binpack", "anneal:steps=48,seed=5"}

    def test_adaptive_resume_bitwise_with_strategies(self, tmp_path):
        def fresh_search():
            return AdaptiveSearch(
                [strategy_spec(f"s{i}", seed=3 + i,
                               schedules=("greedy", "binpack"))
                 for i in range(2)],
                eta=2.0, min_budget=0.5)

        checkpoint = fresh_search().run(max_rounds=1)
        assert not checkpoint.complete
        path = tmp_path / "ckpt.json"
        checkpoint.write_json(path)
        with open(path) as handle:
            document = json.load(handle)
        resumed = fresh_search().run(resume_from=document)
        full = fresh_search().run()
        assert resumed.as_document() == full.as_document()

    def test_strategy_objective_columns_rejected(self):
        for column in ("strategy", "strategy_params", "schedule"):
            with pytest.raises(ValueError, match="labels"):
                Objective(column)


class TestTracingDisabledMode:
    def test_disabled_tracing_keeps_simulated_behaviour(self):
        clear_scenario_cache()
        base = strategy_spec(schedules=("greedy",))
        traced = execute_job(CampaignJob(spec=base, schedule="greedy"))
        untraced = execute_job(CampaignJob(
            spec=replace(base, config_overrides=(("tracing_enabled", False),)),
            schedule="greedy"))
        # The simulation itself is unchanged...
        assert untraced.test_length_cycles == traced.test_length_cycles
        assert untraced.simulated_activations == traced.simulated_activations
        assert untraced.estimated_cycles == traced.estimated_cycles
        # ...only the trace-derived metrics are skipped.
        assert traced.peak_power > 0 and traced.avg_tam_utilization > 0
        assert untraced.peak_power == 0 and untraced.avg_tam_utilization == 0

    def test_disabled_tracer_retains_no_records(self):
        scenario = build_scenario(replace(
            strategy_spec(schedules=("sequential",)),
            config_overrides=(("tracing_enabled", False),)))
        soc = scenario.build_soc()
        assert not soc.tracer.enabled and not soc.activity_log.enabled
        soc.run_test_schedule(scenario.schedule_for("sequential"),
                              scenario.tasks)
        assert len(soc.tracer) == 0 and len(soc.activity_log) == 0

    def test_tracing_defaults_to_enabled(self):
        soc = build_scenario(strategy_spec(schedules=("sequential",))).build_soc()
        assert soc.tracer.enabled and soc.activity_log.enabled


@pytest.mark.slow
class TestStrategyAcceptanceAtScale:
    def test_a_new_strategy_pareto_dominates_greedy_somewhere(self):
        # The acceptance bar: on a >= 50-scenario grid, at least one of the
        # new optimizers beats greedy on *simulated* test time at equal or
        # lower *simulated* peak power on some scenario.  Everything is
        # seeded, so this demonstration is deterministic, not a flake.
        campaign = campaign_from_axes(
            {"core_count": [4, 5, 6], "power_budget": [2.0, 2.5, 3.0, 4.0],
             "seed": [3, 5, 7, 11, 13, 17, 19]},
            base=ScenarioSpec(
                name="base", patterns_per_core=32, seed=1,
                schedules=("greedy", "binpack",
                           "anneal:steps=512,peak_weight=0.25")),
        )
        assert len(campaign.specs) >= 50
        run = campaign.run(workers=2)
        by_scenario = {}
        for outcome in run.outcomes:
            by_scenario.setdefault(outcome.spec.name, {})[outcome.schedule] = \
                outcome
        dominations = {}
        for name, outcomes in by_scenario.items():
            greedy = outcomes["greedy"]
            for schedule, outcome in outcomes.items():
                if schedule == "greedy":
                    continue
                if (outcome.test_length_cycles < greedy.test_length_cycles
                        and outcome.peak_power <= greedy.peak_power):
                    dominations.setdefault(schedule, []).append(name)
        assert dominations, (
            "no strategy dominated greedy on any scenario of the grid")
        # The annealed schedule is the known winner on this grid.
        assert "anneal:steps=512,peak_weight=0.25" in dominations
