"""Hypothesis property tests of the shard artifact machinery.

All pure data — outcomes are constructed, never simulated — so the properties
range over far more job-list shapes and shard counts than the differential
tests can afford:

* serialize → merge → load round-trips preserve every result column and the
  monolithic row order for arbitrary shard counts (even and uneven);
* the merger rejects mismatched schema versions and overlapping shard sets
  with clear errors instead of silently recombining.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.artifact import write_csv, write_json
from repro.explore.campaign import (
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
    SCHEMA_VERSION,
    outcome_from_row,
    result_columns,
)
from repro.explore.distrib import (
    DISTRIB_SCHEMA_VERSION,
    MergeError,
    ShardRun,
    merge_shard_documents,
    plan_shards,
)
from repro.explore.scenarios import ScenarioSpec

#: Columns present in deterministic artifacts (the merge unit).
DETERMINISTIC_COLUMNS = tuple(result_columns(deterministic=True))


def build_jobs(count: int, schedules_per_spec: int, prefix: str = "s"):
    jobs = []
    for index in range(count):
        spec = ScenarioSpec(
            name=f"{prefix}{index:03d}",
            core_count=1 + index % 3,
            patterns_per_core=8 + index,
            seed=index + 1,
            schedules=("sequential", "greedy")[:schedules_per_spec],
        )
        for schedule in spec.schedules:
            jobs.append(CampaignJob(spec=spec, schedule=schedule))
    return jobs


def build_outcome(job: CampaignJob, salt: int) -> CampaignOutcome:
    """A deterministic fake outcome whose values encode the job identity."""
    return CampaignOutcome(
        spec=job.spec, schedule=job.schedule,
        phase_count=1 + salt % 4, task_count=2 + salt % 3,
        estimated_cycles=1000 + salt, test_length_cycles=5000 + salt * 7,
        peak_tam_utilization=(salt % 100) / 100.0,
        avg_tam_utilization=(salt % 50) / 100.0,
        peak_power=1.0 + (salt % 13) * 0.25, avg_power=0.5 + (salt % 7) * 0.125,
        simulated_activations=100 + salt * 3,
    )


def shard_documents(jobs, shard_count, deterministic=True):
    """Shard artifacts exactly as run_shard would emit them, minus the
    simulation: each shard's rows come from the same fake outcome table."""
    documents = []
    for shard in plan_shards(jobs, shard_count):
        outcomes = [build_outcome(job, shard.start + offset)
                    for offset, job in enumerate(shard.jobs)]
        document = ShardRun(shard, CampaignRun(outcomes=outcomes)).as_document(
            deterministic=deterministic)
        # Round-trip through the serialized form, like real artifact files.
        documents.append(json.loads(json.dumps(document)))
    return documents


def monolithic_document(jobs, deterministic=True):
    outcomes = [build_outcome(job, index) for index, job in enumerate(jobs)]
    run = CampaignRun(outcomes=outcomes)
    return json.loads(json.dumps(run.as_document(deterministic=deterministic)))


@st.composite
def jobs_and_shard_count(draw):
    spec_count = draw(st.integers(min_value=1, max_value=24))
    schedules = draw(st.integers(min_value=1, max_value=2))
    jobs = build_jobs(spec_count, schedules)
    count = draw(st.integers(min_value=1, max_value=len(jobs)))
    return jobs, count


class TestMergeRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(jobs_and_shard_count())
    def test_merge_round_trips_rows_columns_and_order(self, jobs_count):
        jobs, count = jobs_count
        merged = merge_shard_documents(shard_documents(jobs, count))
        expected = monolithic_document(jobs)
        # Identical to the single-host document: columns, count, row order.
        assert merged == expected
        assert list(merged["columns"]) == list(DETERMINISTIC_COLUMNS)
        assert merged["row_count"] == len(jobs)
        assert [row["scenario"] for row in merged["rows"]] == \
            [job.spec.name for job in jobs]
        assert [row["schedule"] for row in merged["rows"]] == \
            [job.schedule for job in jobs]
        for row in merged["rows"]:
            assert tuple(row) == DETERMINISTIC_COLUMNS

    @settings(max_examples=30, deadline=None)
    @given(jobs_count=jobs_and_shard_count())
    def test_merge_survives_file_round_trip(self, tmp_path_factory, jobs_count):
        jobs, count = jobs_count
        merged = merge_shard_documents(shard_documents(jobs, count))
        directory = tmp_path_factory.mktemp("merged")
        json_path = directory / "merged.json"
        csv_path = directory / "merged.csv"
        write_json(json_path, merged)
        write_csv(csv_path, merged["columns"], merged["rows"])
        assert json.loads(json_path.read_text()) == merged
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",") == list(DETERMINISTIC_COLUMNS)

    @settings(max_examples=30, deadline=None)
    @given(jobs_and_shard_count())
    def test_rows_reconstruct_outcomes(self, jobs_count):
        # outcome_from_row is the resume path's inverse of as_row: metrics
        # survive the artifact round trip for arbitrary fake outcomes.
        jobs, count = jobs_count
        merged = merge_shard_documents(shard_documents(jobs, count))
        for index, (job, row) in enumerate(zip(jobs, merged["rows"])):
            rebuilt = outcome_from_row(row, job.spec)
            assert rebuilt.deterministic_row() == row

    @settings(max_examples=30, deadline=None)
    @given(jobs_and_shard_count(), st.randoms(use_true_random=False))
    def test_merge_accepts_any_supply_order(self, jobs_count, rng):
        jobs, count = jobs_count
        documents = shard_documents(jobs, count)
        rng.shuffle(documents)
        assert merge_shard_documents(documents) == monolithic_document(jobs)


class TestMergeRejectionProperties:
    @settings(max_examples=40, deadline=None)
    @given(jobs_and_shard_count(),
           st.sampled_from(["schema_version", "distrib_schema_version"]),
           st.integers(min_value=-3, max_value=100))
    def test_rejects_mismatched_schema_versions(self, jobs_count, key, delta):
        jobs, count = jobs_count
        documents = shard_documents(jobs, count)
        expected = (SCHEMA_VERSION if key == "schema_version"
                    else DISTRIB_SCHEMA_VERSION)
        documents[-1][key] = expected + delta if delta else None
        with pytest.raises(MergeError, match=key):
            merge_shard_documents(documents)

    @settings(max_examples=40, deadline=None)
    @given(jobs_and_shard_count(), st.data())
    def test_rejects_overlapping_shards(self, jobs_count, data):
        jobs, count = jobs_count
        documents = shard_documents(jobs, count)
        duplicated = data.draw(st.integers(min_value=0, max_value=count - 1))
        documents.append(json.loads(json.dumps(documents[duplicated])))
        with pytest.raises(MergeError, match="overlapping"):
            merge_shard_documents(documents)

    @settings(max_examples=40, deadline=None)
    @given(jobs_and_shard_count(), st.data())
    def test_rejects_incomplete_shard_sets(self, jobs_count, data):
        jobs, count = jobs_count
        if count < 2:
            count = 2
            if len(jobs) < 2:
                jobs = build_jobs(2, 1)
        documents = shard_documents(jobs, count)
        dropped = data.draw(st.integers(min_value=0, max_value=count - 1))
        del documents[dropped]
        with pytest.raises(MergeError, match="missing shard|no shard artifacts"):
            merge_shard_documents(documents)

    @settings(max_examples=40, deadline=None)
    @given(jobs_and_shard_count())
    def test_rejects_foreign_shards(self, jobs_count):
        # Shards planned from a different scenario space never merge in.
        jobs, count = jobs_count
        documents = shard_documents(jobs, count)
        foreign_jobs = build_jobs(len(jobs) // 2 + 1, 1, prefix="foreign")
        foreign_count = min(count, len(foreign_jobs))
        foreign = shard_documents(foreign_jobs, foreign_count)[0]
        if count >= 2:
            documents[0] = foreign   # fingerprint (at least) disagrees
        else:
            documents.append(foreign)  # overlap/count/fingerprint disagree
        with pytest.raises(MergeError):
            merge_shard_documents(documents)
