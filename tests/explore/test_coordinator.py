"""Tests of the live campaign coordinator and its worker loop.

The contract under test is the one the distribution subsystem already
pins for offline merges, extended to the live path: **whatever the fleet
does — dies mid-lease, heartbeats late, completes twice, partitions away —
the final regenerated artifacts are bitwise identical to the monolithic
single-host campaign run.**

Layout:

* ``TestIncrementalShardMerge`` — the streaming ingestion unit in
  isolation: out-of-order buffering, duplicate rejection, completeness.
* ``TestLeaseLifecycle`` — grant/heartbeat/expire/steal semantics against
  a :class:`~tests.explore.conftest.FakeClock`, no workers involved.
* ``TestFaultInjection`` — the scripted failure matrix from the issue:
  killed workers, delayed heartbeats, duplicated completions, queue
  partitions; every scenario byte-compares the artifacts.
* ``TestLeaseLifecycleProperties`` — Hypothesis drives arbitrary
  grant/complete/expire/heartbeat interleavings and checks the span
  partition invariant (each span is exactly one of pending/leased/
  completed) plus final bitwise identity.
* ``TestDifferentialRealExecution`` — real simulated campaigns through
  :class:`~repro.explore.worker.CampaignWorker` with 1/2/4/7 workers
  (including one killed mid-lease), fast sizes plus a slow-marked
  72-scenario case.
* ``TestSocketProtocol`` — the TCP server/session pair for real: threaded
  workers over localhost, protocol errors, shutdown.

Fake outcomes (pure data, never simulated) keep the fault matrix and the
property suite instant; the differential class pays for real simulation
once per worker-count.
"""

import json
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.campaign import (
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
    campaign_from_axes,
)
from repro.explore.coordinator import (
    COORDINATOR_SCHEMA_VERSION,
    Coordinator,
    CoordinatorError,
    CoordinatorServer,
    CoordinatorSession,
)
from repro.explore.distrib import MergeError, ShardRun, job_to_dict, plan_shards
from repro.explore.metrics import (
    MetricsRegistry,
    MetricsServer,
    StructuredLog,
    read_log,
)
from repro.explore.report import format_coordinator_status
from repro.explore.scenarios import ScenarioSpec
from repro.explore.store import (
    IncrementalShardMerge,
    encode_shard_block,
    write_document_json,
)
from repro.explore.worker import CampaignWorker, InProcessClient
from tests.explore.conftest import (
    FakeClock,
    FlakyClient,
    parse_prometheus_text,
)


# -- pure-data campaign fixtures ---------------------------------------------

def fake_jobs(count: int):
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


def scripted_executor(shard) -> dict:
    """What an honest worker would return for *shard*, without simulating:
    outcome values encode the global job index, JSON-round-tripped like the
    wire would."""
    run = CampaignRun(outcomes=[fake_outcome(job, shard.start + offset)
                                for offset, job in enumerate(shard.jobs)])
    return json.loads(json.dumps(
        ShardRun(shard=shard, run=run).as_document(deterministic=True)))


def scripted_block(shard) -> bytes:
    """:func:`scripted_executor`'s document as the shard block a worker
    sends."""
    return encode_shard_block(scripted_executor(shard))


def write_monolithic(jobs, json_path, csv_path) -> None:
    """The single-host reference artifacts for the same fake outcomes."""
    run = CampaignRun(outcomes=[fake_outcome(job, index)
                                for index, job in enumerate(jobs)])
    run.write_json(json_path, deterministic=True)
    run.write_csv(csv_path, deterministic=True)


@pytest.fixture
def coordinator_factory(fake_clock):
    created = []

    def make(**kwargs):
        kwargs.setdefault("lease_timeout", 60.0)
        kwargs.setdefault("clock", fake_clock)
        coordinator = Coordinator(**kwargs)
        created.append(coordinator)
        return coordinator

    yield make
    for coordinator in created:
        coordinator.close()


def submit_fake(coordinator, tmp_path, job_count, shard_count, name="camp"):
    """Submit a fake campaign plus its monolithic reference artifacts.

    Returns ``(campaign_id, jobs, paths)`` where paths maps
    ``coordinated/monolithic`` × ``json/csv``.
    """
    jobs = fake_jobs(job_count)
    paths = {
        "json": tmp_path / f"{name}.json", "csv": tmp_path / f"{name}.csv",
        "mono_json": tmp_path / f"{name}-mono.json",
        "mono_csv": tmp_path / f"{name}-mono.csv",
    }
    write_monolithic(jobs, paths["mono_json"], paths["mono_csv"])
    campaign_id = coordinator.submit_jobs(
        jobs, shard_count, label=name,
        json_path=str(paths["json"]), csv_path=str(paths["csv"]))
    return campaign_id, jobs, paths


def assert_bitwise_identical(paths) -> None:
    assert paths["json"].read_bytes() == paths["mono_json"].read_bytes()
    assert paths["csv"].read_bytes() == paths["mono_csv"].read_bytes()


def scripted_worker(coordinator, name, **kwargs) -> CampaignWorker:
    """A no-thread, no-sleep worker over the in-process client."""
    kwargs.setdefault("max_idle_polls", 1)
    kwargs.setdefault("heartbeat_interval", 0)  # 0 disables the beat thread
    kwargs.setdefault("executor", scripted_executor)
    kwargs.setdefault("sleep", lambda seconds: None)
    client = kwargs.pop("client", None) or InProcessClient(coordinator)
    return CampaignWorker(client, name, **kwargs)


# -- streaming ingestion unit ------------------------------------------------

class TestIncrementalShardMerge:
    def make_merge(self, tmp_path, jobs, shard_count):
        shards = plan_shards(jobs, shard_count)
        documents = [scripted_executor(shard) for shard in shards]
        merge = IncrementalShardMerge(
            tmp_path / "store", count=shard_count,
            total_jobs=len(jobs), fingerprint=shards[0].fingerprint,
            columns=documents[0]["columns"])
        return merge, documents

    def test_out_of_order_arrival_buffers_then_drains_in_canonical_order(
            self, tmp_path):
        jobs = fake_jobs(10)
        merge, documents = self.make_merge(tmp_path, jobs, 4)
        merge.add_shard_document(documents[2])
        merge.add_shard_document(documents[3])
        assert merge.buffered_count == 2  # gap at 0: nothing appended yet
        merge.add_shard_document(documents[0])
        assert merge.buffered_count == 2  # 0 drained, 2..3 still wait on 1
        merge.add_shard_document(documents[1])
        assert merge.is_complete and merge.buffered_count == 0
        store = merge.finalize()
        out = tmp_path / "out.json"
        mono_json = tmp_path / "mono.json"
        write_document_json(store, out)
        write_monolithic(jobs, mono_json, tmp_path / "mono.csv")
        assert out.read_bytes() == mono_json.read_bytes()

    def test_duplicate_shard_rejected_as_double_completion(self, tmp_path):
        merge, documents = self.make_merge(tmp_path, fake_jobs(6), 3)
        merge.add_shard_document(documents[1])
        with pytest.raises(MergeError, match="double completion"):
            merge.add_shard_document(documents[1])
        assert merge.merged_count == 1  # the duplicate changed nothing

    def test_finalize_incomplete_names_the_missing_spans(self, tmp_path):
        merge, documents = self.make_merge(tmp_path, fake_jobs(6), 3)
        merge.add_shard_document(documents[0])
        with pytest.raises(MergeError,
                           match=r"missing shard index\(es\) \[1, 2\]"):
            merge.finalize()

    def test_foreign_document_rejected_without_state_change(self, tmp_path):
        merge, documents = self.make_merge(tmp_path, fake_jobs(6), 3)
        foreign = json.loads(json.dumps(documents[0]))
        foreign["shard"]["fingerprint"] = "0" * 64
        with pytest.raises(MergeError, match="fingerprint"):
            merge.add_shard_document(foreign)
        assert merge.merged_count == 0
        merge.add_shard_document(documents[0])  # the span is still open

    def test_metrics_and_log_record_every_drain(self, tmp_path):
        jobs = fake_jobs(10)
        shards = plan_shards(jobs, 4)
        documents = [scripted_executor(shard) for shard in shards]
        registry = MetricsRegistry()
        clock = FakeClock()
        log_path = tmp_path / "merge.log"
        log = StructuredLog(log_path, clock=clock)
        merge = IncrementalShardMerge(
            tmp_path / "store", count=4, total_jobs=len(jobs),
            fingerprint=shards[0].fingerprint,
            columns=documents[0]["columns"],
            metadata={"campaign": "c0001"},
            metrics=registry, log=log)
        merge.add_shard_document(documents[2])
        merge.add_shard_document(documents[3])
        assert registry.value("merge_rows_appended_total") == 0
        assert registry.value("merge_buffered_shards") == 2
        merge.add_shard_document(documents[0])  # drains shard 0 only
        merge.add_shard_document(documents[1])  # drains the backlog 1..3
        log.close()
        assert registry.value("merge_rows_appended_total") == len(jobs)
        assert registry.value("merge_buffered_shards") == 0
        histogram = registry.get("merge_drain_rows")
        assert histogram.count() == 2  # two passes actually appended rows
        assert histogram.sum() == len(jobs)
        events = read_log(log_path)
        assert [event["event"] for event in events] == ["merge-drain"] * 4
        assert [event["drained_shards"] for event in events] == [0, 0, 1, 3]
        assert [event["buffered"] for event in events] == [1, 2, 2, 0]
        assert all(event["campaign"] == "c0001" for event in events)


# -- lease lifecycle against the fake clock ----------------------------------

class TestLeaseLifecycle:
    def test_grant_execute_complete_round_trip(self, coordinator_factory,
                                               tmp_path):
        coordinator = coordinator_factory()
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 8, 3)
        while True:
            granted = coordinator.request_lease("w1")
            if granted is None:
                break
            lease, shard = granted
            assert lease.worker == "w1"
            assert coordinator.complete_lease(
                lease.lease_id, scripted_block(shard))
        progress = coordinator.campaign_progress(campaign_id)
        assert progress["complete"] and progress["steals"] == 0
        assert_bitwise_identical(paths)

    def test_heartbeat_extends_the_deadline(self, coordinator_factory,
                                            fake_clock, tmp_path):
        coordinator = coordinator_factory(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 4, 2)
        lease, shard = coordinator.request_lease("slow")
        for _ in range(5):  # 5 × 50 s, alive the whole time
            fake_clock.advance(50)
            assert coordinator.heartbeat(lease.lease_id) is True
        assert coordinator.complete_lease(lease.lease_id,
                                          scripted_block(shard)) is True
        assert coordinator.status()["steals"] == 0

    def test_expired_lease_is_stolen_and_regranted(self, coordinator_factory,
                                                   fake_clock, tmp_path):
        coordinator = coordinator_factory(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 4, 2)
        lease, shard = coordinator.request_lease("dead")
        fake_clock.advance(61)
        regrant, reshard = coordinator.request_lease("live")
        assert regrant.shard_index == lease.shard_index  # stolen span first
        assert reshard.as_document() == shard.as_document()
        assert coordinator.heartbeat(lease.lease_id) is False  # old grant
        assert coordinator.heartbeat(regrant.lease_id) is True
        assert coordinator.status()["steals"] == 1

    def test_completion_from_a_stolen_lease_wins_if_first(
            self, coordinator_factory, fake_clock, tmp_path):
        # The presumed-dead worker was merely slow: its result arrives after
        # the steal but before the re-run finishes.  First valid completion
        # wins; the re-run's later result is stale.  Bitwise identity holds
        # either way because deterministic documents are identical.
        coordinator = coordinator_factory(lease_timeout=60.0)
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 4, 2)
        slow_lease, slow_shard = coordinator.request_lease("slow")
        fake_clock.advance(61)
        thief_lease, thief_shard = coordinator.request_lease("thief")
        assert coordinator.complete_lease(
            slow_lease.lease_id, scripted_block(slow_shard)) is True
        assert coordinator.complete_lease(
            thief_lease.lease_id, scripted_block(thief_shard)) is False
        assert coordinator.status()["stale_completions"] == 1
        lease, shard = coordinator.request_lease("live")  # the other span
        coordinator.complete_lease(lease.lease_id, scripted_block(shard))
        assert coordinator.campaign_progress(campaign_id)["complete"]
        assert_bitwise_identical(paths)

    def test_invalid_document_rejected_and_span_stays_leased(
            self, coordinator_factory, tmp_path):
        coordinator = coordinator_factory()
        submit_fake(coordinator, tmp_path, 4, 2)
        lease, shard = coordinator.request_lease("w1")
        tampered = scripted_executor(shard)
        tampered["row_count"] += 1
        with pytest.raises(MergeError):
            coordinator.complete_lease(lease.lease_id,
                                       encode_shard_block(tampered))
        # The lease survives the bad artifact; an honest retry still lands.
        assert coordinator.heartbeat(lease.lease_id) is True
        assert coordinator.complete_lease(lease.lease_id,
                                          scripted_block(shard)) is True

    def test_block_for_another_span_is_rejected_without_ingesting(
            self, coordinator_factory, tmp_path):
        # A valid block of span 1 sent on span 0's lease must change
        # nothing: span 1's own block still lands and the campaign ends
        # with the monolithic artifact.
        coordinator = coordinator_factory()
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 4, 2)
        first, first_shard = coordinator.request_lease("w1")
        second, second_shard = coordinator.request_lease("w2")
        assert (first.shard_index, second.shard_index) == (0, 1)
        with pytest.raises(MergeError, match="declares shard 1"):
            coordinator.complete_lease(first.lease_id,
                                       scripted_block(second_shard))
        assert coordinator.status()["invalid_documents"] == 1
        assert coordinator.campaign_progress(campaign_id)["completed"] == 0
        assert coordinator.complete_lease(second.lease_id,
                                          scripted_block(second_shard))
        assert coordinator.complete_lease(first.lease_id,
                                          scripted_block(first_shard))
        assert coordinator.campaign_progress(campaign_id)["complete"]
        assert_bitwise_identical(paths)

    def test_block_without_shard_count_is_an_invalid_document(
            self, fake_clock, tmp_path):
        # Missing provenance is a MergeError like any other bad block:
        # counted, logged, and the lease stays live for the honest block.
        log_path = tmp_path / "events.log"
        log = StructuredLog(log_path, clock=fake_clock)
        coordinator = Coordinator(lease_timeout=60.0, clock=fake_clock,
                                  log=log)
        try:
            campaign_id, _, paths = submit_fake(coordinator, tmp_path, 2, 1)
            lease, shard = coordinator.request_lease("w1")
            document = scripted_executor(shard)
            del document["shard"]["count"]
            with pytest.raises(MergeError, match="lacks an integer 'count'"):
                coordinator.complete_lease(lease.lease_id,
                                           encode_shard_block(document))
            assert coordinator.status()["invalid_documents"] == 1
            assert coordinator.campaign_progress(campaign_id)["leased"] == 1
            assert coordinator.complete_lease(lease.lease_id,
                                              scripted_block(shard))
            assert coordinator.campaign_progress(campaign_id)["complete"]
        finally:
            coordinator.close()
            log.close()
        invalid = [event for event in read_log(log_path)
                   if event["event"] == "invalid-document"]
        assert len(invalid) == 1
        assert invalid[0]["span"] == 0 and invalid[0]["lease"] == lease.lease_id
        assert_bitwise_identical(paths)

    def test_unknown_lease_and_campaign_raise_coordinator_error(
            self, coordinator_factory, tmp_path):
        coordinator = coordinator_factory()
        with pytest.raises(CoordinatorError, match="unknown lease"):
            coordinator.heartbeat(99)
        with pytest.raises(CoordinatorError, match="unknown campaign"):
            coordinator.campaign_progress("c9999")

    def test_draining_rejects_submissions_and_grants(
            self, coordinator_factory, tmp_path):
        coordinator = coordinator_factory()
        submit_fake(coordinator, tmp_path, 4, 2)
        coordinator.drain()
        assert coordinator.request_lease("w1") is None
        with pytest.raises(CoordinatorError, match="draining"):
            coordinator.submit_jobs(fake_jobs(2), 1)

    def test_fair_share_alternates_between_campaigns(
            self, coordinator_factory, tmp_path):
        coordinator = coordinator_factory()
        first, _, _ = submit_fake(coordinator, tmp_path, 8, 4, name="a")
        second, _, _ = submit_fake(coordinator, tmp_path, 8, 4, name="b")
        order = []
        for _ in range(8):
            lease, shard = coordinator.request_lease("w1")
            order.append(lease.campaign_id)
        # Equal-sized campaigns at equal load alternate strictly, ties
        # broken by submission order.
        assert order == [first, second] * 4

    def test_status_document_counters_and_formatting(
            self, coordinator_factory, fake_clock, tmp_path):
        coordinator = coordinator_factory(lease_timeout=60.0)
        submit_fake(coordinator, tmp_path, 8, 4, name="fleet")
        lease, shard = coordinator.request_lease("w1")
        coordinator.complete_lease(lease.lease_id, scripted_block(shard))
        coordinator.request_lease("w2")
        fake_clock.advance(10)
        status = coordinator.status()
        assert status["coordinator_schema_version"] == COORDINATOR_SCHEMA_VERSION
        assert status["queue_depth"] == 2
        assert status["active_leases"] == 1
        assert status["max_lease_age_seconds"] == pytest.approx(10.0)
        assert status["completed_spans"] == 1
        assert status["completed_rows"] == 2
        assert set(status["workers"]) == {"w1", "w2"}
        rendered = format_coordinator_status(status)
        assert "fleet" in rendered and "1/4" in rendered
        assert "queue depth 2" in rendered


# -- the fault-injection matrix ----------------------------------------------

class TestFaultInjection:
    def test_worker_killed_mid_lease(self, coordinator_factory, fake_clock,
                                     tmp_path):
        # The scripted "kill": a worker takes a lease and is never heard
        # from again.  After the timeout its span is stolen and the
        # survivor drains the campaign; the artifact shows no trace.
        coordinator = coordinator_factory(lease_timeout=60.0)
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 10, 5)
        coordinator.request_lease("victim")
        fake_clock.advance(61)
        scripted_worker(coordinator, "survivor").run()
        progress = coordinator.campaign_progress(campaign_id)
        assert progress["complete"] and progress["steals"] == 1
        assert_bitwise_identical(paths)

    def test_delayed_heartbeats_lose_the_lease_but_not_the_campaign(
            self, coordinator_factory, fake_clock, tmp_path):
        coordinator = coordinator_factory(lease_timeout=60.0)
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 8, 4)
        lease, shard = coordinator.request_lease("laggard")
        fake_clock.advance(90)  # heartbeat arrives 30 s too late
        assert coordinator.heartbeat(lease.lease_id) is False
        scripted_worker(coordinator, "survivor").run()
        # The laggard finishes anyway; its completion must be stale.
        assert coordinator.complete_lease(
            lease.lease_id, scripted_block(shard)) is False
        assert coordinator.campaign_progress(campaign_id)["complete"]
        assert coordinator.status()["stale_completions"] == 1
        assert_bitwise_identical(paths)

    def test_duplicated_lease_completions_merge_exactly_once(
            self, coordinator_factory, tmp_path):
        coordinator = coordinator_factory()
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 9, 4)
        lease, shard = coordinator.request_lease("dup")
        block = scripted_block(shard)
        assert coordinator.complete_lease(lease.lease_id, block) is True
        for _ in range(3):  # a retry loop gone wrong
            assert coordinator.complete_lease(lease.lease_id,
                                              block) is False
        assert coordinator.status()["stale_completions"] == 3
        scripted_worker(coordinator, "rest").run()
        assert coordinator.campaign_progress(campaign_id)["complete"]
        assert_bitwise_identical(paths)

    def test_queue_partition_drops_the_worker_not_the_work(
            self, coordinator_factory, fake_clock, tmp_path):
        # A worker partitioned from the coordinator mid-campaign: its
        # in-flight lease times out and its loop exits on ConnectionError.
        coordinator = coordinator_factory(lease_timeout=60.0)
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 10, 5)
        flaky = FlakyClient(InProcessClient(coordinator))
        partitioned = scripted_worker(coordinator, "partitioned",
                                      client=flaky, max_idle_polls=10)
        lease, shard = coordinator.request_lease("partitioned")  # in flight
        flaky.partition(1000)  # the network goes away
        stats = partitioned.run()
        assert stats == {"leases": 0, "completed": 0, "stale": 0,
                         "idle_polls": 0}  # exited on first contact
        fake_clock.advance(61)  # the in-flight lease ages out
        scripted_worker(coordinator, "survivor").run()
        progress = coordinator.campaign_progress(campaign_id)
        assert progress["complete"] and progress["steals"] == 1
        assert_bitwise_identical(paths)

    def test_every_worker_dies_then_the_fleet_recovers(
            self, coordinator_factory, fake_clock, tmp_path):
        # Repeated generations of workers die mid-lease; each generation's
        # spans are stolen and eventually one generation survives.
        coordinator = coordinator_factory(lease_timeout=60.0)
        campaign_id, _, paths = submit_fake(coordinator, tmp_path, 12, 6)
        for generation in range(3):
            coordinator.request_lease(f"doomed-{generation}-a")
            coordinator.request_lease(f"doomed-{generation}-b")
            fake_clock.advance(61)
        scripted_worker(coordinator, "survivor").run()
        progress = coordinator.campaign_progress(campaign_id)
        assert progress["complete"] and progress["steals"] == 6
        assert_bitwise_identical(paths)

    def test_two_campaigns_survive_interleaved_failures(
            self, coordinator_factory, fake_clock, tmp_path):
        coordinator = coordinator_factory(lease_timeout=60.0)
        first, _, first_paths = submit_fake(coordinator, tmp_path, 8, 4,
                                            name="alpha")
        second, _, second_paths = submit_fake(coordinator, tmp_path, 6, 3,
                                              name="beta")
        coordinator.request_lease("victim")  # one span of alpha, killed
        fake_clock.advance(61)
        scripted_worker(coordinator, "survivor").run()
        assert coordinator.campaign_progress(first)["complete"]
        assert coordinator.campaign_progress(second)["complete"]
        assert_bitwise_identical(first_paths)
        assert_bitwise_identical(second_paths)


# -- structured-log event streams under faults -------------------------------

def _killed_worker_scenario(coordinator, clock, log, tmp_path):
    """A worker takes a lease and dies; a survivor drains the campaign."""
    submit_fake(coordinator, tmp_path, 10, 5)
    coordinator.request_lease("victim")
    clock.advance(61)
    scripted_worker(coordinator, "survivor", log=log).run()


def _duplicated_completion_scenario(coordinator, clock, log, tmp_path):
    """A retry loop re-sends one completion three times."""
    submit_fake(coordinator, tmp_path, 9, 4)
    lease, shard = coordinator.request_lease("dup")
    block = scripted_block(shard)
    assert coordinator.complete_lease(lease.lease_id, block) is True
    for _ in range(3):
        assert coordinator.complete_lease(lease.lease_id, block) is False
    scripted_worker(coordinator, "rest", log=log).run()


def _partition_scenario(coordinator, clock, log, tmp_path):
    """A worker partitions away mid-lease; the lease ages out and a
    survivor absorbs the work."""
    submit_fake(coordinator, tmp_path, 10, 5)
    flaky = FlakyClient(InProcessClient(coordinator))
    partitioned = scripted_worker(coordinator, "partitioned", client=flaky,
                                  max_idle_polls=10, log=log)
    coordinator.request_lease("partitioned")
    flaky.partition(1000)
    partitioned.run()
    clock.advance(61)
    scripted_worker(coordinator, "survivor", log=log).run()


class TestEventStreamPinning:
    """The structured log is an assertable artifact: under a fixed clock
    each fault scenario replays the exact same event stream, byte for byte
    — coordinator and worker events interleaved deterministically because
    everything runs in-process on one thread."""

    def run_logged(self, scenario, base_path) -> bytes:
        base_path.mkdir()
        log_path = base_path / "events.log"
        clock = FakeClock()
        log = StructuredLog(log_path, clock=clock)
        coordinator = Coordinator(lease_timeout=60.0, clock=clock, log=log)
        try:
            scenario(coordinator, clock, log, base_path)
            assert_metrics_match_status(coordinator)
        finally:
            coordinator.close()
            log.close()
        return log_path.read_bytes()

    def events(self, payload: bytes):
        return [json.loads(line) for line in
                payload.decode("utf-8").splitlines()]

    def test_killed_worker_event_stream_is_pinned(self, tmp_path):
        payload = self.run_logged(_killed_worker_scenario, tmp_path / "a")
        events = self.events(payload)
        span_cycle = ["lease", "worker-lease", "merge-drain", "complete",
                      "worker-complete"]
        expected = (["submit", "lease", "steal"]
                    + span_cycle * 4
                    + span_cycle[:4] + ["campaign-complete"]
                    + span_cycle[4:] + ["worker-exit"])
        assert [event["event"] for event in events] == expected
        steal = next(e for e in events if e["event"] == "steal")
        assert steal["worker"] == "victim" and steal["lease"] == 1
        assert steal["age"] == 61
        # The survivor's re-grant covers the stolen span first.
        regrant = events[3]
        assert regrant["event"] == "lease" and regrant["span"] == \
            steal["span"] and regrant["worker"] == "survivor"
        # Timestamps are monotone under the injected clock.
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)
        # Replayable: a second run produces the byte-identical stream.
        assert payload == self.run_logged(_killed_worker_scenario,
                                          tmp_path / "b")

    def test_duplicated_completion_event_stream_is_pinned(self, tmp_path):
        payload = self.run_logged(_duplicated_completion_scenario,
                                  tmp_path / "a")
        events = self.events(payload)
        kinds = [event["event"] for event in events]
        assert kinds.count("stale-completion") == 3
        assert kinds.count("complete") == 4  # one per span, dups dropped
        assert kinds.count("merge-drain") == 4
        stale = [e for e in events if e["event"] == "stale-completion"]
        assert all(e["worker"] == "dup" and e["span"] == 0 and
                   e["lease"] == 1 for e in stale)
        assert payload == self.run_logged(_duplicated_completion_scenario,
                                          tmp_path / "b")

    def test_partition_event_stream_is_pinned(self, tmp_path):
        payload = self.run_logged(_partition_scenario, tmp_path / "a")
        events = self.events(payload)
        kinds = [event["event"] for event in events]
        # The partitioned worker exits on first contact, before any lease
        # of its own; its in-flight span is stolen and re-run.
        exits = [e for e in events if e["event"] == "worker-exit"]
        assert [e["reason"] for e in exits] == ["unreachable", "idle"]
        assert [e["worker"] for e in exits] == ["partitioned", "survivor"]
        assert kinds.count("steal") == 1
        assert kinds.count("complete") == 5
        assert kinds[-1] == "worker-exit"
        assert payload == self.run_logged(_partition_scenario,
                                          tmp_path / "b")


# -- hypothesis: arbitrary interleavings -------------------------------------

def assert_span_partition(coordinator) -> None:
    """Every span is exactly one of pending / leased / completed."""
    for state in coordinator._campaigns.values():
        pending = set(state.pending)
        leased = set(state.leases)
        completed = set(state.completed)
        assert not pending & leased
        assert not pending & completed
        assert not leased & completed
        assert pending | leased | completed == set(range(state.span_count))


def assert_metrics_match_status(coordinator) -> None:
    """Registry, status document and per-campaign bookkeeping agree.

    The status counters are *read from* the registry, so the real content
    of this invariant is the third leg: the independently maintained
    per-campaign state (heaps, lease maps, row counts) must sum to the
    event-sourced registry totals after any interleaving — the exporter
    and the CLI can never tell different stories.
    """
    status = coordinator.status()
    metrics = coordinator.metrics
    states = list(coordinator._campaigns.values())
    assert status["steals"] \
        == metrics.value("coordinator_leases_stolen_total") \
        == sum(state.steals for state in states)
    assert status["completed_spans"] \
        == metrics.value("coordinator_spans_completed_total") \
        == sum(len(state.completed) for state in states)
    assert status["completed_rows"] \
        == metrics.value("coordinator_rows_merged_total") \
        == sum(state.row_count for state in states)
    assert status["stale_completions"] \
        == metrics.value("coordinator_stale_completions_total")
    assert status["leases_granted"] \
        == metrics.value("coordinator_leases_granted_total")
    assert status["heartbeats"] \
        == metrics.value("coordinator_heartbeats_total")
    assert status["active_leases"] \
        == metrics.value("coordinator_active_leases") \
        == sum(len(state.leases) for state in states)
    for state in states:
        assert metrics.value("coordinator_queue_depth",
                             campaign=state.campaign_id) \
            == len(state.pending)
    # A lease ends exactly once, by completion or steal; the lease-age
    # histogram must have observed every ending and nothing else.
    assert metrics.get("coordinator_lease_age_seconds").count() \
        == status["completed_spans"] + status["steals"]
    assert metrics.get("coordinator_span_latency_seconds").count() \
        == status["completed_spans"]
    # And the registry must render as a valid exposition document.
    parse_prometheus_text(metrics.render())


class TestLeaseLifecycleProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_interleavings_never_double_merge_or_drop_a_span(self, data,
                                                             tmp_path_factory):
        """Exactly-once coverage: under arbitrary grant/complete/expire/
        heartbeat interleavings over N workers, the span partition invariant
        and the metrics/status consistency invariant hold after every step,
        and the final artifact is bitwise identical to the monolithic run
        (each span's rows exactly once, in order)."""
        job_count = data.draw(st.integers(2, 10), label="jobs")
        shard_count = data.draw(st.integers(1, job_count), label="spans")
        worker_count = data.draw(st.integers(1, 4), label="workers")
        script = data.draw(st.lists(
            st.tuples(st.sampled_from(["grant", "complete", "expire",
                                       "heartbeat"]),
                      st.integers(0, 10**6)),
            max_size=40), label="script")

        tmp_path = tmp_path_factory.mktemp("interleave")
        clock = FakeClock()
        coordinator = Coordinator(lease_timeout=60.0, clock=clock)
        try:
            _, _, paths = submit_fake(coordinator, tmp_path, job_count,
                                      shard_count)
            held = []  # (lease, shard) grants this test still "owns"
            for op, salt in script:
                if op == "grant":
                    granted = coordinator.request_lease(
                        f"w{salt % worker_count}")
                    if granted is not None:
                        held.append(granted)
                elif op == "complete" and held:
                    lease, shard = held.pop(salt % len(held))
                    coordinator.complete_lease(lease.lease_id,
                                               scripted_block(shard))
                elif op == "expire":
                    clock.advance(61)
                    coordinator.tick()
                elif op == "heartbeat" and held:
                    lease, _ = held[salt % len(held)]
                    coordinator.heartbeat(lease.lease_id)
                assert_span_partition(coordinator)
                assert_metrics_match_status(coordinator)

            # Drain: an honest worker finishes whatever the script left.
            for _ in range(10 * shard_count + 10):
                granted = coordinator.request_lease("drain")
                if granted is None:
                    if coordinator.is_idle:
                        break
                    clock.advance(61)  # everything left is leased: steal it
                    continue
                lease, shard = granted
                coordinator.complete_lease(lease.lease_id,
                                           scripted_block(shard))
                assert_span_partition(coordinator)
            assert_metrics_match_status(coordinator)
            status = coordinator.status()
            assert all(entry["complete"] for entry in status["campaigns"])
            assert_bitwise_identical(paths)
        finally:
            coordinator.close()


# -- differential: real execution through real workers -----------------------

AXES = {"core_count": [1, 2], "tam_width_bits": [16, 32]}
BASE = ScenarioSpec(name="base", patterns_per_core=16, seed=3)


@pytest.fixture(scope="module")
def monolithic_reference(tmp_path_factory):
    """The real 8-job campaign run once, artifacts kept as bytes."""
    campaign = campaign_from_axes(AXES, base=BASE)
    tmp_path = tmp_path_factory.mktemp("monolithic")
    run = campaign.run()
    json_path = tmp_path / "mono.json"
    csv_path = tmp_path / "mono.csv"
    run.write_json(json_path, deterministic=True)
    run.write_csv(csv_path, deterministic=True)
    return {"jobs": campaign.jobs(), "json": json_path.read_bytes(),
            "csv": csv_path.read_bytes()}


class TestDifferentialRealExecution:
    @pytest.mark.parametrize("worker_count", [1, 2, 4])
    def test_coordinated_run_matches_monolithic(self, worker_count, tmp_path,
                                                monolithic_reference):
        coordinator = Coordinator(lease_timeout=600.0)
        json_path = tmp_path / "coord.json"
        csv_path = tmp_path / "coord.csv"
        coordinator.submit_jobs(monolithic_reference["jobs"], 5,
                                json_path=str(json_path),
                                csv_path=str(csv_path))
        try:
            for index in range(worker_count):
                worker = CampaignWorker(InProcessClient(coordinator),
                                        f"w{index}", max_idle_polls=1,
                                        heartbeat_interval=0,
                                        sleep=lambda seconds: None)
                worker.run()
            assert json_path.read_bytes() == monolithic_reference["json"]
            assert csv_path.read_bytes() == monolithic_reference["csv"]
        finally:
            coordinator.close()

    def test_seven_workers_one_killed_mid_run(self, tmp_path,
                                              monolithic_reference):
        clock = FakeClock()
        coordinator = Coordinator(lease_timeout=60.0, clock=clock)
        json_path = tmp_path / "coord.json"
        csv_path = tmp_path / "coord.csv"
        coordinator.submit_jobs(monolithic_reference["jobs"], 7,
                                json_path=str(json_path),
                                csv_path=str(csv_path))
        try:
            coordinator.request_lease("w0")  # w0 dies holding this lease
            clock.advance(61)
            for index in range(1, 7):
                worker = CampaignWorker(InProcessClient(coordinator),
                                        f"w{index}", max_idle_polls=1,
                                        heartbeat_interval=0,
                                        sleep=lambda seconds: None)
                worker.run()
            assert coordinator.status()["steals"] == 1
            assert json_path.read_bytes() == monolithic_reference["json"]
            assert csv_path.read_bytes() == monolithic_reference["csv"]
        finally:
            coordinator.close()

    @pytest.mark.slow
    def test_at_scale_72_scenarios_with_worker_death(self, tmp_path):
        """The slow differential: 72 scenarios (144 jobs), 11 uneven spans,
        4 workers with one killed mid-lease — still byte-identical."""
        axes = {"core_count": [1, 2, 3, 4], "tam_width_bits": [16, 32, 64],
                "compression_ratio": [5.0, 50.0],
                "power_budget": [4.0, 6.0, 8.0]}
        base = ScenarioSpec(name="base", patterns_per_core=8, seed=3)
        campaign = campaign_from_axes(axes, base=base)
        assert len(campaign.specs) >= 50
        run = campaign.run()
        mono_json = tmp_path / "mono.json"
        mono_csv = tmp_path / "mono.csv"
        run.write_json(mono_json, deterministic=True)
        run.write_csv(mono_csv, deterministic=True)

        clock = FakeClock()
        coordinator = Coordinator(lease_timeout=60.0, clock=clock)
        json_path = tmp_path / "coord.json"
        csv_path = tmp_path / "coord.csv"
        coordinator.submit_jobs(campaign.jobs(), 11,
                                json_path=str(json_path),
                                csv_path=str(csv_path))
        try:
            coordinator.request_lease("victim")
            clock.advance(61)
            for index in range(3):
                CampaignWorker(InProcessClient(coordinator), f"w{index}",
                               max_idle_polls=1, heartbeat_interval=0,
                               sleep=lambda seconds: None).run()
            assert coordinator.status()["steals"] == 1
            assert json_path.read_bytes() == mono_json.read_bytes()
            assert csv_path.read_bytes() == mono_csv.read_bytes()
        finally:
            coordinator.close()


# -- the real socket protocol ------------------------------------------------

@pytest.fixture
def live_server():
    coordinator = Coordinator(lease_timeout=600.0)
    server = CoordinatorServer(coordinator)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield coordinator, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    coordinator.close()


class TestSocketProtocol:
    def test_two_tcp_workers_drain_a_real_campaign(self, live_server,
                                                   tmp_path):
        coordinator, server = live_server
        sessions = [CoordinatorSession(port=server.port) for _ in range(3)]
        client = sessions[0]
        campaign = campaign_from_axes(AXES, base=BASE)
        json_path = tmp_path / "coord.json"
        mono_json = tmp_path / "mono.json"
        campaign.run().write_json(mono_json, deterministic=True)
        campaign_id = client.submit(
            [job_to_dict(job) for job in campaign.jobs()], 4,
            label="tcp", json_path=str(json_path))
        threads = [
            threading.Thread(target=CampaignWorker(
                session, f"tcp-w{index}",
                poll_interval=0.01, max_idle_polls=3).run)
            for index, session in enumerate(sessions[1:])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        progress = client.campaign_progress(campaign_id)
        assert progress["complete"]
        status = client.status()
        assert status["completed_spans"] == 4
        assert json_path.read_bytes() == mono_json.read_bytes()
        for session in sessions:
            session.close()

    def test_protocol_errors_are_reported_not_fatal(self, live_server):
        coordinator, server = live_server
        client = CoordinatorSession(port=server.port)
        with pytest.raises(CoordinatorError, match="unknown op"):
            client.call({"op": "bogus"})
        with pytest.raises(CoordinatorError, match="unknown lease"):
            client.complete(12345, scripted_executor(
                plan_shards(fake_jobs(2), 1)[0]))
        # The server survives malformed traffic and still answers.
        assert client.status()["coordinator_schema_version"] == \
            COORDINATOR_SCHEMA_VERSION
        client.close()

    def test_metrics_endpoint_under_concurrent_scrapes(self, live_server,
                                                       tmp_path,
                                                       monolithic_reference):
        """A 2-worker TCP campaign drains while scraper threads hammer
        /metrics: every payload must parse as valid exposition format, the
        counters must be monotone scrape over scrape, and the final scrape
        must agree with the status document."""
        coordinator, server = live_server
        metrics_server = MetricsServer(coordinator.metrics)
        metrics_server.start()
        url = f"http://127.0.0.1:{metrics_server.port}/metrics"
        stop = threading.Event()
        scrapes = {"a": [], "b": []}
        failures = []

        def scraper(bucket):
            try:
                while not stop.is_set():
                    payload = urllib.request.urlopen(
                        url, timeout=10).read().decode("utf-8")
                    assert payload, "empty exposition payload"
                    bucket.append(parse_prometheus_text(payload))
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        sessions = [CoordinatorSession(port=server.port) for _ in range(3)]
        client = sessions[0]
        json_path = tmp_path / "coord.json"
        client.submit([job_to_dict(job)
                       for job in monolithic_reference["jobs"]], 4,
                      label="scraped", json_path=str(json_path))
        workers = [
            threading.Thread(target=CampaignWorker(
                session, f"scrape-w{index}",
                poll_interval=0.01, max_idle_polls=3).run)
            for index, session in enumerate(sessions[1:])
        ]
        scrapers = [threading.Thread(target=scraper, args=(bucket,))
                    for bucket in scrapes.values()]
        try:
            for thread in scrapers + workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60.0)
        finally:
            stop.set()
            for thread in scrapers:
                thread.join(timeout=30.0)
        # One settled scrape after the campaign finished, for the finale.
        final = parse_prometheus_text(urllib.request.urlopen(
            url, timeout=10).read().decode("utf-8"))
        metrics_server.stop()
        assert not failures
        assert all(scrapes.values()), "scrapers never completed a scrape"
        for bucket in scrapes.values():
            for earlier, later in zip(bucket, bucket[1:]):
                for key, value in earlier.items():
                    name = key[0]
                    if name.endswith(("_total", "_bucket", "_count")):
                        assert later.get(key, 0) >= value, \
                            f"counter {key} went backwards"
        status = client.status()
        assert status["completed_spans"] == 4
        spans_key = ("coordinator_spans_completed_total", ())
        assert final[spans_key] == status["completed_spans"]
        assert final[("coordinator_rows_merged_total", ())] == \
            status["completed_rows"]
        assert final[("coordinator_queue_depth",
                      (("campaign", "c0001"),))] == 0
        assert json_path.read_bytes() == monolithic_reference["json"]
        for session in sessions:
            session.close()

    def test_shutdown_op_drains_and_stops_the_server(self, live_server):
        import time

        coordinator, server = live_server
        with CoordinatorSession(port=server.port, timeout=5.0) as client:
            client.shutdown()
        assert coordinator.draining
        # The drained coordinator grants nothing, and the serving loop
        # closes its listening socket shortly after answering, so a fresh
        # session is refused.
        assert coordinator.request_lease("late") is None
        for _ in range(100):
            try:
                with CoordinatorSession(port=server.port,
                                        timeout=5.0) as client:
                    client.status()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server kept answering after the shutdown op")
