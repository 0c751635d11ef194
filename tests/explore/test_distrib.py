"""Tests of the distribution subsystem: deterministic shard planning, shard
execution on the campaign pool path, and provenance-validated artifact
merging.  The differential core: shard → run → merge is bitwise identical to
the monolithic single-host run for even and uneven shard counts."""

import json
from dataclasses import replace

import pytest

from repro.explore.artifact import write_csv, write_json
from repro.explore.campaign import (
    Campaign,
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
    SCHEMA_VERSION,
    campaign_from_axes,
    result_columns,
)
from repro.explore.distrib import (
    DISTRIB_SCHEMA_VERSION,
    CampaignShard,
    MergeError,
    ShardRun,
    job_from_dict,
    job_to_dict,
    load_artifact,
    merge_shard_documents,
    plan_shards,
    run_shard,
    space_fingerprint,
)
from repro.explore.scenarios import ScenarioSpec, spec_from_dict, spec_to_dict


def small_campaign(**axes) -> Campaign:
    axes = axes or {"core_count": [1, 2], "tam_width_bits": [16, 32]}
    return campaign_from_axes(
        axes, base=ScenarioSpec(name="base", patterns_per_core=16, seed=3))


def fake_jobs(count: int):
    """Pure-data jobs (never simulated) for planner/merger unit tests."""
    return [
        CampaignJob(spec=ScenarioSpec(name=f"s{index:02d}", core_count=1,
                                      patterns_per_core=8, seed=index + 1),
                    schedule="sequential")
        for index in range(count)
    ]


def fake_outcome(job: CampaignJob, value: int) -> CampaignOutcome:
    return CampaignOutcome(
        spec=job.spec, schedule=job.schedule, phase_count=1, task_count=1,
        estimated_cycles=value, test_length_cycles=value * 10,
        peak_tam_utilization=0.5, avg_tam_utilization=0.25,
        peak_power=2.0, avg_power=1.0, simulated_activations=value * 3,
    )


def fake_shard_documents(job_count: int, shard_count: int):
    """Shard artifacts over fake outcomes, JSON-round-tripped like files."""
    jobs = fake_jobs(job_count)
    documents = []
    for shard in plan_shards(jobs, shard_count):
        run = CampaignRun(outcomes=[fake_outcome(job, shard.start + offset)
                                    for offset, job in enumerate(shard.jobs)])
        documents.append(json.loads(json.dumps(
            ShardRun(shard=shard, run=run).as_document())))
    return documents


class TestSpecSerialization:
    def test_spec_round_trips_losslessly(self):
        spec = ScenarioSpec(name="rt", core_count=2, patterns_per_core=40,
                            seed=9, schedules=("greedy",),
                            config_overrides=(("burst_patterns", 8),))
        again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert again == spec
        assert hash(again) == hash(spec)

    def test_tuple_valued_overrides_survive_the_round_trip(self):
        # JSON turns tuples into lists; reconstruction must undo that, or
        # the spec comes back unequal and unhashable (breaking the campaign
        # cache and the adaptive memo on resume).
        spec = ScenarioSpec(name="rt", config_overrides=(
            ("lanes", (1, 2, (3, 4))), ("burst_patterns", 8)))
        again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert again == spec
        assert hash(again) == hash(spec)

    def test_incomplete_spec_document_rejected_with_value_error(self):
        with pytest.raises(ValueError, match="incomplete scenario spec"):
            spec_from_dict({"kind": "generated"})

    def test_unknown_fields_rejected(self):
        document = spec_to_dict(ScenarioSpec(name="x"))
        document["frequency"] = 1
        with pytest.raises(ValueError, match="unknown scenario spec fields"):
            spec_from_dict(document)

    def test_non_json_overrides_rejected_with_clear_error(self):
        from repro.kernel import NS, SimTime

        spec = ScenarioSpec(name="x", kind="jpeg",
                            config_overrides=(("clock_period", SimTime(20, NS)),))
        with pytest.raises(ValueError, match="config_overrides"):
            spec_to_dict(spec)

    def test_job_round_trips(self):
        job = fake_jobs(1)[0]
        assert job_from_dict(json.loads(json.dumps(job_to_dict(job)))) == job


class TestPlanning:
    def test_shards_tile_the_job_list_in_order(self):
        jobs = fake_jobs(10)
        for count in (1, 2, 3, 7, 10):
            shards = plan_shards(jobs, count)
            assert len(shards) == count
            cursor = 0
            collected = []
            for index, shard in enumerate(shards):
                assert shard.index == index
                assert shard.count == count
                assert shard.start == cursor
                assert shard.stop - shard.start == len(shard.jobs) >= 1
                assert shard.total_jobs == len(jobs)
                collected.extend(shard.jobs)
                cursor = shard.stop
            assert cursor == len(jobs)
            assert collected == jobs

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        sizes = [shard.job_count for shard in plan_shards(fake_jobs(10), 7)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) == 1

    def test_planning_is_deterministic(self):
        jobs = fake_jobs(6)
        assert plan_shards(jobs, 3) == plan_shards(jobs, 3)

    def test_plan_accepts_a_campaign(self):
        campaign = small_campaign()
        shards = plan_shards(campaign, 2)
        assert [job for shard in shards for job in shard.jobs] == campaign.jobs()

    def test_fingerprint_tracks_the_scenario_space(self):
        jobs = fake_jobs(4)
        assert space_fingerprint(jobs) == space_fingerprint(list(jobs))
        other = list(jobs)
        other[0] = replace(other[0], schedule="greedy")
        assert space_fingerprint(other) != space_fingerprint(jobs)
        # Every shard of one plan carries the same fingerprint.
        assert len({s.fingerprint for s in plan_shards(jobs, 2)}) == 1

    def test_invalid_counts_rejected(self):
        jobs = fake_jobs(3)
        with pytest.raises(ValueError, match=">= 1"):
            plan_shards(jobs, 0)
        with pytest.raises(ValueError, match="cannot split"):
            plan_shards(jobs, 4)
        with pytest.raises(ValueError, match="empty"):
            plan_shards([], 1)

    def test_shard_spec_json_round_trip(self, tmp_path):
        shard = plan_shards(fake_jobs(5), 2)[1]
        path = tmp_path / "shard.json"
        shard.write_json(path)
        again = CampaignShard.read_json(path)
        assert again == shard
        assert again.jobs == shard.jobs

    def test_shard_spec_version_and_span_validation(self):
        document = plan_shards(fake_jobs(4), 2)[0].as_document()
        wrong = dict(document, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(MergeError, match="schema_version"):
            CampaignShard.from_document(wrong)
        wrong = dict(document, distrib_schema_version=DISTRIB_SCHEMA_VERSION + 1)
        with pytest.raises(MergeError, match="distrib_schema_version"):
            CampaignShard.from_document(wrong)
        truncated = dict(document, jobs=document["jobs"][:-1])
        with pytest.raises(ValueError, match="declares the span"):
            CampaignShard.from_document(truncated)


class TestDifferentialMerge:
    """Sharded execution merged back is bitwise the single-host run."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return small_campaign()

    @pytest.fixture(scope="class")
    def monolithic(self, campaign):
        return campaign.run(workers=1)

    @pytest.mark.parametrize("count", [1, 2, 4, 7])
    def test_merged_artifacts_bitwise_equal_monolithic(self, campaign,
                                                       monolithic, count,
                                                       tmp_path):
        # 8 jobs over 7 shards exercises the maximally uneven split.
        paths = []
        for shard in plan_shards(campaign, count):
            path = tmp_path / f"shard{shard.index}.json"
            run_shard(shard).write_json(path)
            paths.append(path)
        merged = merge_shard_documents([load_artifact(path)
                                        for path in paths])

        mono_json = tmp_path / "mono.json"
        mono_csv = tmp_path / "mono.csv"
        monolithic.write_json(mono_json, deterministic=True)
        monolithic.write_csv(mono_csv, deterministic=True)

        merged_json = tmp_path / "merged.json"
        merged_csv = tmp_path / "merged.csv"
        write_json(merged_json, merged)
        write_csv(merged_csv, merged["columns"], merged["rows"])
        assert merged_json.read_bytes() == mono_json.read_bytes()
        assert merged_csv.read_bytes() == mono_csv.read_bytes()

    def test_shard_rows_are_the_monolithic_slice(self, campaign, monolithic):
        shards = plan_shards(campaign, 2)
        result = run_shard(shards[1])
        expected = monolithic.deterministic_rows()[shards[1].start:shards[1].stop]
        assert result.run.deterministic_rows() == expected

    def test_shard_artifact_embeds_provenance(self, campaign, tmp_path):
        shard = plan_shards(campaign, 4)[2]
        path = tmp_path / "shard.json"
        run_shard(shard).write_json(path)
        document = load_artifact(path)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["distrib_schema_version"] == DISTRIB_SCHEMA_VERSION
        assert document["shard"] == shard.provenance()
        assert document["columns"] == result_columns(deterministic=True)
        assert document["row_count"] == shard.job_count

    def test_timing_artifacts_keep_timing_columns(self, campaign):
        shard = plan_shards(campaign, 4)[0]
        document = run_shard(shard).as_document(deterministic=False)
        assert document["columns"] == result_columns(deterministic=False)
        assert "wall_seconds" in document

    def test_pool_executed_shards_merge_identically(self, campaign,
                                                    monolithic):
        documents = []
        for shard in plan_shards(campaign, 2):
            documents.append(json.loads(json.dumps(
                run_shard(shard, workers=2).as_document())))
        merged = merge_shard_documents(documents)
        assert merged == json.loads(json.dumps(
            monolithic.as_document(deterministic=True)))


class TestMergeValidation:
    def test_merge_of_nothing_rejected(self):
        with pytest.raises(MergeError, match="no shard artifacts"):
            merge_shard_documents([])

    def test_schema_version_mismatch_rejected(self):
        documents = fake_shard_documents(4, 2)
        documents[1]["schema_version"] = SCHEMA_VERSION - 1
        with pytest.raises(MergeError, match="schema_version"):
            merge_shard_documents(documents)

    def test_distrib_version_mismatch_rejected(self):
        documents = fake_shard_documents(4, 2)
        documents[0]["distrib_schema_version"] = DISTRIB_SCHEMA_VERSION + 1
        with pytest.raises(MergeError, match="distrib_schema_version"):
            merge_shard_documents(documents)

    def test_adaptive_artifact_rejected(self):
        documents = fake_shard_documents(4, 2)
        documents[0]["adaptive_schema_version"] = 2
        with pytest.raises(MergeError, match="adaptive artifact"):
            merge_shard_documents(documents)

    def test_plain_campaign_artifact_rejected(self):
        documents = fake_shard_documents(2, 2)
        del documents[0]["shard"]
        with pytest.raises(MergeError, match="no shard provenance"):
            merge_shard_documents(documents)

    def test_shard_spec_file_rejected_with_hint(self):
        # Passing the plan files (shard *specs*) to merge instead of the
        # result artifacts must name the mistake, not KeyError.
        documents = [shard.as_document() for shard in plan_shards(fake_jobs(4), 2)]
        with pytest.raises(MergeError, match="shard \\*spec\\* file"):
            merge_shard_documents(documents)

    def test_non_object_artifact_rejected(self):
        with pytest.raises(MergeError, match="not a JSON object"):
            merge_shard_documents([[], fake_shard_documents(2, 2)[0]])

    def test_fingerprint_mismatch_rejected(self):
        documents = fake_shard_documents(4, 2)
        documents[1]["shard"]["fingerprint"] = "0" * 64
        with pytest.raises(MergeError, match="fingerprints disagree"):
            merge_shard_documents(documents)

    def test_overlapping_shards_rejected(self):
        documents = fake_shard_documents(4, 2)
        with pytest.raises(MergeError, match="overlapping shards"):
            merge_shard_documents([documents[0], documents[0], documents[1]])

    def test_missing_shard_rejected(self):
        documents = fake_shard_documents(6, 3)
        with pytest.raises(MergeError, match="missing shard index"):
            merge_shard_documents([documents[0], documents[2]])

    def test_shard_count_mismatch_rejected(self):
        documents = fake_shard_documents(4, 2)
        documents[1]["shard"]["count"] = 3
        with pytest.raises(MergeError, match="shard counts disagree"):
            merge_shard_documents(documents)

    def test_span_overlap_rejected(self):
        documents = fake_shard_documents(6, 2)
        documents[1]["shard"]["start"] -= 1
        documents[1]["rows"].insert(0, dict(documents[1]["rows"][0]))
        documents[1]["row_count"] += 1
        with pytest.raises(MergeError, match="overlapping shard spans"):
            merge_shard_documents(documents)

    def test_span_gap_rejected(self):
        documents = fake_shard_documents(6, 2)
        documents[1]["shard"]["start"] += 1
        documents[1]["rows"] = documents[1]["rows"][1:]
        documents[1]["row_count"] -= 1
        with pytest.raises(MergeError, match="gapped shard spans"):
            merge_shard_documents(documents)

    def test_row_count_span_mismatch_rejected(self):
        documents = fake_shard_documents(4, 2)
        documents[0]["rows"] = documents[0]["rows"][:-1]
        with pytest.raises(MergeError, match="row"):
            merge_shard_documents(documents)

    def test_mixed_deterministic_and_timing_artifacts_rejected(self):
        jobs = fake_jobs(4)
        shards = plan_shards(jobs, 2)
        runs = [CampaignRun(outcomes=[fake_outcome(job, offset)
                                      for offset, job in enumerate(shard.jobs)])
                for shard in shards]
        documents = [ShardRun(shards[0], runs[0]).as_document(deterministic=True),
                     ShardRun(shards[1], runs[1]).as_document(deterministic=False)]
        with pytest.raises(MergeError, match="column list"):
            merge_shard_documents(documents)

    def test_merge_errors_are_value_errors(self):
        # The CLI's exit-code handling keys on ValueError.
        assert issubclass(MergeError, ValueError)


@pytest.mark.slow
class TestDistribAtScale:
    def test_large_grid_sharded_over_pool_workers_merges_bitwise(self,
                                                                 tmp_path):
        campaign = campaign_from_axes(
            {"core_count": [1, 2], "tam_width_bits": [8, 16, 32],
             "compression_ratio": [10.0, 100.0]},
            base=ScenarioSpec(name="base", patterns_per_core=32, seed=5),
        )
        assert len(campaign) >= 24
        documents = []
        for shard in plan_shards(campaign, 4):
            # Each "host" runs its slice on its own worker pool.
            documents.append(json.loads(json.dumps(
                run_shard(shard, workers=2).as_document())))
        merged = merge_shard_documents(documents)
        monolithic = campaign.run(workers=2)
        mono_path, merged_path = tmp_path / "mono.json", tmp_path / "merged.json"
        monolithic.write_json(mono_path, deterministic=True)
        write_json(merged_path, merged)
        assert merged_path.read_bytes() == mono_path.read_bytes()


class TestPartialMerge:
    """merge --partial: recombine what exists, report the gaps."""

    def test_complete_set_with_partial_equals_full_merge(self):
        documents = fake_shard_documents(8, 3)
        assert merge_shard_documents(documents, partial=True) == \
            merge_shard_documents(documents)

    def test_missing_shard_merges_present_rows_and_reports_gaps(self):
        from repro.explore.distrib import replan_document

        documents = fake_shard_documents(9, 3)
        merged = merge_shard_documents([documents[0], documents[2]],
                                       partial=True)
        assert merged["row_count"] == 6
        # Present shards in shard order: spans [0, 3) and [6, 9).
        assert [row["estimated_cycles"] for row in merged["rows"]] == \
            [0, 1, 2, 6, 7, 8]
        block = merged["partial"]
        assert block["present"] == [0, 2]
        assert block["missing"] == [{"index": 1, "start": 3, "stop": 6}]
        assert block["total_jobs"] == 9
        replan = replan_document(merged)
        assert replan["missing"] == block["missing"]
        assert replan["fingerprint"] == block["fingerprint"]
        assert replan["kind"] == "replan"

    def test_partial_merge_of_single_shard(self):
        documents = fake_shard_documents(10, 4)
        merged = merge_shard_documents([documents[3]], partial=True)
        assert merged["row_count"] == len(documents[3]["rows"])
        assert [span["index"] for span in merged["partial"]["missing"]] == \
            [0, 1, 2]

    def test_partial_merge_still_validates_provenance(self):
        documents = fake_shard_documents(8, 4)
        tampered = dict(documents[1])
        tampered["shard"] = dict(tampered["shard"], fingerprint="0" * 64)
        with pytest.raises(MergeError, match="fingerprints disagree"):
            merge_shard_documents([documents[0], tampered], partial=True)
        with pytest.raises(MergeError, match="overlapping shards"):
            merge_shard_documents([documents[0], documents[0]], partial=True)

    def test_partial_merge_rejects_doctored_spans(self):
        # Span tampering is caught against the canonical i*M/N formula even
        # when the neighbouring shard is absent.
        documents = fake_shard_documents(8, 4)
        tampered = dict(documents[2])
        tampered["shard"] = dict(tampered["shard"], start=3, stop=5)
        tampered["rows"] = [documents[2]["rows"][0]] + documents[2]["rows"]
        tampered["row_count"] = 3
        with pytest.raises(MergeError, match="shard spans"):
            merge_shard_documents([documents[0], tampered], partial=True)

    def test_partial_merge_rejects_out_of_range_indexes(self):
        documents = fake_shard_documents(8, 4)
        tampered = dict(documents[0])
        tampered["shard"] = dict(tampered["shard"], index=7)
        with pytest.raises(MergeError, match="exceed"):
            merge_shard_documents([tampered], partial=True)

    def test_replan_of_a_complete_merge_is_an_error(self):
        from repro.explore.distrib import replan_document

        documents = fake_shard_documents(6, 2)
        merged = merge_shard_documents(documents, partial=True)
        assert "partial" not in merged
        with pytest.raises(ValueError, match="no gaps"):
            replan_document(merged)

    def test_regular_merge_still_rejects_missing_shards(self):
        documents = fake_shard_documents(6, 3)
        with pytest.raises(MergeError, match="missing shard index"):
            merge_shard_documents([documents[0], documents[2]])

    def test_rerunning_the_gap_completes_the_merge(self):
        # The re-plan worklist names exactly the shards whose rerun makes
        # the set complete — the partial-merge workflow end to end.
        campaign = small_campaign()
        shards = plan_shards(campaign, 3)
        documents = [json.loads(json.dumps(run_shard(s).as_document()))
                     for s in (shards[0], shards[2])]
        merged = merge_shard_documents(documents, partial=True)
        missing = merged["partial"]["missing"]
        assert [span["index"] for span in missing] == [1]
        rerun = json.loads(json.dumps(
            run_shard(shards[missing[0]["index"]]).as_document()))
        complete = merge_shard_documents(documents + [rerun], partial=True)
        mono = campaign.run().as_document(deterministic=True)
        assert json.dumps(complete) == json.dumps(mono)


class TestMergePlanning:
    """plan_merge: the header-level validation pass behind both the
    in-memory merge and the streaming store merge."""

    def test_every_duplicate_index_is_listed_once(self):
        # Regression: duplicate detection was an O(n^2) per-element
        # .count() scan; the Counter pass must still report each
        # duplicated index exactly once, sorted.
        documents = fake_shard_documents(8, 4)
        with pytest.raises(MergeError,
                           match=r"index\(es\) \[0, 2\] supplied more than "
                                 r"once"):
            merge_shard_documents([documents[0], documents[0], documents[1],
                                   documents[2], documents[2], documents[2],
                                   documents[3]])

    def test_plan_validates_rowless_headers(self):
        from repro.explore.distrib import plan_merge

        documents = fake_shard_documents(6, 3)
        headers = [{key: value for key, value in document.items()
                    if key != "rows"} for document in documents]
        row_counts = [document["row_count"] for document in documents]
        plan = plan_merge(headers, row_counts=row_counts)
        assert plan.count == 3
        assert plan.row_count == 6
        assert [headers[position]["shard"]["index"]
                for position in plan.order] == [0, 1, 2]
        # The plan's header is exactly the merged document minus its rows.
        merged = merge_shard_documents(documents)
        expected = {key: value for key, value in merged.items()
                    if key not in ("row_count", "rows")}
        assert plan.header() == expected
        assert list(plan.header()) == list(expected)

    def test_plan_rejects_headers_without_row_counts(self):
        from repro.explore.distrib import plan_merge

        documents = fake_shard_documents(4, 2)
        headers = [{key: value for key, value in document.items()
                    if key != "rows"} for document in documents]
        with pytest.raises(MergeError, match="no result rows"):
            plan_merge(headers)
