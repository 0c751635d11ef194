"""Live campaign coordinator: fair-share queue, span leases, work stealing.

The distribution subsystem (:mod:`repro.explore.distrib`) made campaigns a
pure-data problem — deterministic shard plans in, provenance-validated shard
artifacts out — but execution stayed one-shot: a human assigns ``--shard
I/N`` to hosts and a dead host stalls the merge until someone re-plans the
gap by hand.  This module is the missing control plane, ROADMAP item 1:

* :class:`Coordinator` — a transport-agnostic state machine that accepts
  campaign submissions into a fair-share queue, leases each campaign's
  deterministic spans (planned once via :func:`~repro.explore.distrib.
  plan_shards`) to workers, heartbeats lease age, *steals* expired leases
  back from stragglers and dead hosts (the span simply re-enters the queue:
  spans are pure data, so a re-run is bitwise identical to the lost run),
  and streams completed shard documents into a
  :class:`~repro.explore.store.IncrementalShardMerge` the moment they
  arrive.  When the last span lands, the final JSON/CSV artifacts are
  regenerated from the store — **bitwise identical** to a single-host
  ``campaign`` run of the same grid, the invariant the fault-injection
  differential tests pin down.
* :class:`CoordinatorServer` / :class:`CoordinatorSession` — a localhost
  TCP transport for the state machine: persistent length-prefixed framed
  sessions (one socket per worker for its whole lifetime), batched ops
  (multi-span lease prefetch, one coalesced heartbeat frame for every held
  lease) and one completion format, the *binary columnar shard block*
  (:func:`~repro.explore.store.encode_shard_block`), so every completed
  span streams from worker to :class:`~repro.explore.store.ColumnarStore`
  without ever round-tripping through per-row dicts or JSON.  The op table
  lives in one place, :meth:`Coordinator.dispatch`; the socket handler and
  the in-process test session (:class:`repro.explore.worker.
  InProcessClient`) both reach it through :func:`answer_frame`.  The worker
  side lives in :mod:`repro.explore.worker`.

Determinism and fault injection: the coordinator takes its wall clock as a
constructor argument (``clock=time.monotonic``), performs *no* waiting of
its own (expiry is evaluated lazily on every public call), and mutates
state only inside its public methods — so a test can drive arbitrary
interleavings of grant/complete/expire/heartbeat against a fake clock and
fake workers, byte-compare the final artifacts, and never sleep.

Exactly-once: every span is *executed* at-least-once (steals re-run lost
work) and *merged* exactly once — a completion for an already-merged span
is acknowledged as ``stale`` and dropped before any row lands, and the
incremental merge independently rejects double ingestion.  Because jobs are
deterministic, at-least-once execution plus exactly-once ingestion equals
the monolithic artifact.

The status document (:meth:`Coordinator.status`) is versioned
(``coordinator_schema_version`` = :data:`COORDINATOR_SCHEMA_VERSION`) and
carries the operational counters the ROADMAP's observability item asks
for: queue depth, active lease ages, steal/stale counts, spans and rows
per second, per-campaign progress.
"""

from __future__ import annotations

import heapq
import itertools
import json
import shutil
import socket
import socketserver
import struct
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    BinaryIO, Callable, Dict, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.explore.artifact import write_csv
from repro.explore.campaign import (
    SCHEMA_VERSION,
    CampaignJob,
    result_columns,
    scenario_cache_stats,
)
from repro.explore.distrib import (
    CampaignShard,
    MergeError,
    job_from_dict,
    plan_shards,
)
from repro.explore.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    StructuredLog,
)
from repro.explore.store import (
    ColumnarStore,
    IncrementalShardMerge,
    encode_shard_block,
    write_document_json,
)

#: Version of the coordinator status document and wire protocol.  v2 added
#: the registry-backed counters (leases granted, heartbeats, invalid
#: documents); v3 is the framed-session transport (persistent sessions,
#: batched ops, binary completion payloads, ``protocol_errors`` counter);
#: v4 dropped the JSON Lines transport and the single-span ``lease`` /
#: single-id ``heartbeat`` op forms; v5 dropped the JSON ``complete`` op, so
#: every completion is a block frame.
COORDINATOR_SCHEMA_VERSION = 5

#: Default seconds a lease may go without a heartbeat before it is stolen.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Preamble a client sends once per connection.  A connection that opens
#: with anything else gets one structured error line and is closed.
PROTOCOL_MAGIC = b"RXP2"

#: Frame header: big-endian u32 payload length + u8 frame kind.
FRAME_HEADER = struct.Struct(">IB")

#: Frame kinds: a JSON control/op payload, or a completion carrying a
#: binary columnar shard block after a short JSON meta prefix.
FRAME_KIND_JSON = 0x4A
FRAME_KIND_BLOCK = 0x43

#: Upper bound on a single frame.  Far above any legitimate op — a shard
#: block of a million-row span is a few tens of MB — while bounding what a
#: misbehaving client can make the server buffer.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Largest single read of a frame payload.  A span's shard block (about
#: 42 KB per 128 rows) arrives in one read.
READ_CHUNK_BYTES = 1024 * 1024


class CoordinatorError(ValueError):
    """A submission, lease operation or protocol message is invalid."""


class FrameError(CoordinatorError):
    """A wire frame is malformed, truncated or oversized."""


# -- frame codec --------------------------------------------------------------
def encode_frame(kind: int, payload: bytes) -> bytes:
    """One length-prefixed frame: ``u32 len | u8 kind | payload``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} byte(s) exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    return FRAME_HEADER.pack(len(payload), kind) + payload


def encode_json_frame(request: Mapping[str, object]) -> bytes:
    """A JSON op as one frame (compact separators: wire bytes, not art)."""
    return encode_frame(FRAME_KIND_JSON,
                        json.dumps(request, separators=(",", ":"))
                        .encode("utf-8"))


def encode_block_frame(meta: Mapping[str, object], block: bytes) -> bytes:
    """A completion frame: ``u32 meta_len | meta_json | shard_block``.

    The meta prefix carries the op and lease id; the block bytes are an
    :func:`~repro.explore.store.encode_shard_block` payload passed through
    opaquely — the server hands them to the merge without JSON-parsing a
    single row.
    """
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return encode_frame(FRAME_KIND_BLOCK,
                        struct.pack(">I", len(meta_bytes)) + meta_bytes
                        + block)


def encode_completion_frame(lease_id: int,
                            document: Mapping[str, object]) -> bytes:
    """The completion frame of one span: its result *document* encoded as a
    shard block behind a ``{"op": "complete", "lease_id": L}`` meta."""
    return encode_block_frame({"op": "complete", "lease_id": int(lease_id)},
                              encode_shard_block(document))


def decode_block_payload(payload: bytes) -> Tuple[Dict[str, object], bytes]:
    """Split a completion frame payload into (meta, shard block bytes)."""
    if len(payload) < 4:
        raise FrameError("truncated completion frame")
    (meta_len,) = struct.unpack_from(">I", payload, 0)
    if len(payload) < 4 + meta_len:
        raise FrameError(f"truncated completion meta ({len(payload)} "
                         f"byte(s), meta needs {4 + meta_len})")
    try:
        meta = json.loads(payload[4:4 + meta_len].decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise FrameError(f"malformed completion meta: {error}")
    if not isinstance(meta, dict):
        raise FrameError("completion meta is not a JSON object")
    return meta, payload[4 + meta_len:]


def _read_exact(reader: BinaryIO, size: int) -> Optional[bytes]:
    """Read exactly *size* bytes; None at clean EOF, FrameError mid-frame.

    The bytes are read at most :data:`READ_CHUNK_BYTES` at a time, so what
    is allocated tracks what has arrived, not what a header declares.
    """
    chunks = []
    remaining = size
    while remaining:
        chunk = reader.read(min(remaining, READ_CHUNK_BYTES))
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    data = b"".join(chunks)
    if not data and size:
        return None
    if len(data) != size:
        raise FrameError(f"connection closed mid-frame ({len(data)} of "
                         f"{size} byte(s))")
    return data


def read_frame(reader: BinaryIO) -> Optional[Tuple[int, bytes]]:
    """Read one frame; None at a clean end-of-stream.

    Raises :class:`FrameError` for an oversized declared length or a
    stream truncated inside a frame.
    """
    header = _read_exact(reader, FRAME_HEADER.size)
    if header is None:
        return None
    length, kind = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} byte(s) exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    payload = _read_exact(reader, length)
    if payload is None and length:
        raise FrameError("connection closed mid-frame (0 of "
                         f"{length} byte(s))")
    return kind, payload if length else b""


@dataclass
class SpanLease:
    """One grant of one campaign span to one worker."""

    lease_id: int
    campaign_id: str
    shard_index: int
    worker: str
    granted_at: float
    deadline: float

    def as_document(self) -> Dict[str, object]:
        return {
            "lease_id": self.lease_id,
            "campaign_id": self.campaign_id,
            "shard_index": self.shard_index,
            "worker": self.worker,
        }


class _CampaignState:
    """Internal bookkeeping of one submitted campaign."""

    def __init__(self, campaign_id: str, label: str, sequence: int,
                 shards: List[CampaignShard], merge: IncrementalShardMerge,
                 submitted_at: float,
                 json_path: Optional[str], csv_path: Optional[str]):
        self.campaign_id = campaign_id
        self.label = label
        self.sequence = sequence
        self.shards = shards
        self.merge = merge
        self.submitted_at = submitted_at
        self.json_path = json_path
        self.csv_path = csv_path
        #: Spans waiting for a worker, as a min-heap of shard indexes so a
        #: stolen span re-enters ahead of later work.
        self.pending: List[int] = list(range(len(shards)))
        heapq.heapify(self.pending)
        #: Active lease per outstanding span.
        self.leases: Dict[int, SpanLease] = {}
        self.completed: set = set()
        self.steals = 0
        self.row_count = 0
        self.finished_at: Optional[float] = None
        self.store: Optional[ColumnarStore] = None

    @property
    def span_count(self) -> int:
        return len(self.shards)

    @property
    def complete(self) -> bool:
        return len(self.completed) == self.span_count

    @property
    def in_flight(self) -> int:
        """Spans granted or done — the fair-share load measure."""
        return len(self.leases) + len(self.completed)

    def progress(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign_id,
            "label": self.label,
            "spans": self.span_count,
            "total_jobs": self.shards[0].total_jobs,
            "pending": len(self.pending),
            "leased": len(self.leases),
            "completed": len(self.completed),
            "complete": self.complete,
            "row_count": self.row_count,
            "steals": self.steals,
            "artifacts": {key: value for key, value in
                          (("json", self.json_path), ("csv", self.csv_path),
                           ("store", str(self.merge._store.path)))
                          if value},
        }


class Coordinator:
    """The lease/steal/merge state machine (transport-agnostic).

    All waiting is the caller's problem: expiry is evaluated lazily at the
    top of every public method (:meth:`tick`), so idle-polling workers are
    what drives stealing — no timer thread, no hidden clock reads.  The
    *clock* only needs to be monotone; tests inject a fake.

    The state-machine methods are not thread-safe by themselves; the op
    handler (:meth:`dispatch`, :meth:`dispatch_block`) serializes every wire
    op under one lock.
    """

    def __init__(self, lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 clock: Callable[[], float] = time.monotonic,
                 work_dir=None,
                 on_event: Optional[Callable[[str], None]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 log: Optional[StructuredLog] = None):
        if lease_timeout <= 0:
            raise CoordinatorError("lease timeout must be > 0")
        self._lease_timeout = float(lease_timeout)
        self._clock = clock
        self._on_event = on_event
        self._work_dir = Path(work_dir) if work_dir is not None else None
        self._owns_work_dir = False
        self._campaigns: Dict[str, _CampaignState] = {}
        self._sequence = itertools.count(1)
        self._lease_sequence = itertools.count(1)
        #: Every lease ever granted, by id — completions may legitimately
        #: arrive for leases that have long been stolen.
        self._leases: Dict[int, SpanLease] = {}
        #: Worker name -> last-seen timestamp.
        self._workers: Dict[str, float] = {}
        self._draining = False
        self._lock = threading.Lock()
        self._started = clock()
        #: Optional structured JSONL run log (one event per lease / steal /
        #: completion / merge-drain, timestamped by the injected clock).
        self._log = log
        #: The registry is always live — instrumentation is the status
        #: document's single source of truth, the exporter just renders it.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        metrics = self.metrics
        self._m_submitted = metrics.counter(
            "coordinator_campaigns_submitted_total",
            "Campaigns accepted into the fair-share queue.")
        self._m_campaigns_done = metrics.counter(
            "coordinator_campaigns_completed_total",
            "Campaigns whose final span landed and artifacts finalized.")
        self._m_granted = metrics.counter(
            "coordinator_leases_granted_total",
            "Span leases handed to workers (including re-grants).")
        self._m_heartbeats = metrics.counter(
            "coordinator_heartbeats_total",
            "Heartbeat calls received (live or not).")
        self._m_steals = metrics.counter(
            "coordinator_leases_stolen_total",
            "Expired leases stolen back into the queue.")
        self._m_spans = metrics.counter(
            "coordinator_spans_completed_total",
            "Span completions accepted and merged exactly once.")
        self._m_rows = metrics.counter(
            "coordinator_rows_merged_total",
            "Result rows accepted from completed spans (jobs finished).")
        self._m_stale = metrics.counter(
            "coordinator_stale_completions_total",
            "Valid completions dropped because the span already merged.")
        self._m_invalid = metrics.counter(
            "coordinator_invalid_documents_total",
            "Completions rejected by provenance/span/row validation.")
        self._m_protocol_errors = metrics.counter(
            "coordinator_protocol_errors_total",
            "Malformed or oversized wire frames answered with a structured "
            "error.")
        self._m_worker_rtt = metrics.histogram(
            "worker_heartbeat_rtt_seconds",
            "Worker-observed heartbeat round-trip time, shipped in "
            "heartbeat frames and aggregated per worker.", LATENCY_BUCKETS)
        #: Last cumulative RTT snapshot per worker (delta-merge baseline).
        self._worker_rtt_seen: Dict[str, Tuple[List[int], float, int]] = {}
        self._m_queue = metrics.gauge(
            "coordinator_queue_depth",
            "Spans waiting for a worker, per campaign.")
        self._m_active = metrics.gauge(
            "coordinator_active_leases",
            "Leases currently outstanding across all campaigns.")
        self._m_draining = metrics.gauge(
            "coordinator_draining",
            "1 while the coordinator refuses new leases and submissions.")
        self._m_lease_age = metrics.histogram(
            "coordinator_lease_age_seconds",
            "Age of a lease when it ended (completed or stolen).",
            LATENCY_BUCKETS)
        self._m_span_latency = metrics.histogram(
            "coordinator_span_latency_seconds",
            "Grant-to-accepted-completion latency per span.",
            LATENCY_BUCKETS)
        metrics.gauge(
            "coordinator_uptime_seconds",
            "Seconds since the coordinator started (injected clock)."
        ).set_function(lambda: max(self._now() - self._started, 0.0))
        cache = metrics.gauge(
            "scenario_cache_entries",
            "Scenario cache outcomes in this process (hits/misses/size).")
        cache.set_function(lambda: scenario_cache_stats()["hits"],
                           outcome="hit")
        cache.set_function(lambda: scenario_cache_stats()["misses"],
                           outcome="miss")
        cache.set_function(lambda: scenario_cache_stats()["size"],
                           outcome="size")
        memo = metrics.gauge(
            "simulation_memo_rows",
            "Rows served from a scenario's simulation memo (hit) or "
            "simulated (miss) in this process.")
        memo.set_function(lambda: scenario_cache_stats()["simulation_hits"],
                          outcome="hit")
        memo.set_function(lambda: scenario_cache_stats()["simulation_misses"],
                          outcome="miss")
        self._m_draining.set(0)
        self._m_active.set(0)

    # -- plumbing -----------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def _emit(self, event: str, **fields: object) -> None:
        if self._log is not None:
            self._log.emit(event, **fields)

    def _refresh_gauges(self) -> None:
        """Re-derive queue/lease gauges after any state mutation."""
        self._m_active.set(sum(len(state.leases)
                               for state in self._campaigns.values()))
        for state in self._campaigns.values():
            self._m_queue.set(len(state.pending),
                              campaign=state.campaign_id)

    def _ensure_work_dir(self) -> Path:
        if self._work_dir is None:
            self._work_dir = Path(tempfile.mkdtemp(prefix="repro-coord-"))
            self._owns_work_dir = True
        return self._work_dir

    def close(self) -> None:
        """Drop the coordinator's own spool directory (not user artifacts)."""
        if self._owns_work_dir and self._work_dir is not None and \
                self._work_dir.exists():
            shutil.rmtree(self._work_dir, ignore_errors=True)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Stop granting leases; outstanding completions are still accepted."""
        self._draining = True
        self._m_draining.set(1)
        self._event("draining: no further leases will be granted")
        self._emit("draining")

    @property
    def is_idle(self) -> bool:
        """No pending or leased span anywhere."""
        return all(not state.pending and not state.leases
                   for state in self._campaigns.values())

    # -- submissions --------------------------------------------------------
    def submit_jobs(self, jobs: Sequence[CampaignJob], shard_count: int,
                    label: Optional[str] = None,
                    json_path: Optional[str] = None,
                    csv_path: Optional[str] = None,
                    store_path=None) -> str:
        """Queue a campaign: plan *jobs* into spans, return the campaign id.

        Artifact paths are written by the coordinator process at
        finalization; *store_path* defaults to a spool directory.  Planning
        is the same :func:`~repro.explore.distrib.plan_shards` call a
        ``--shard I/N`` host makes, so the spans — and the final merged
        artifact — are identical to the offline path.
        """
        if self._draining:
            raise CoordinatorError("coordinator is draining; "
                                   "submission rejected")
        shards = plan_shards(list(jobs), shard_count)
        sequence = next(self._sequence)
        campaign_id = f"c{sequence:04d}"
        if store_path is None:
            store_path = self._ensure_work_dir() / f"{campaign_id}.store"
        merge = IncrementalShardMerge(
            store_path, count=shard_count, total_jobs=shards[0].total_jobs,
            fingerprint=shards[0].fingerprint,
            columns=result_columns(deterministic=True),
            metadata={"campaign": campaign_id},
            metrics=self.metrics, log=self._log)
        state = _CampaignState(campaign_id, label or campaign_id, sequence,
                               shards, merge, self._now(), json_path,
                               csv_path)
        self._campaigns[campaign_id] = state
        self._m_submitted.inc()
        self._refresh_gauges()
        self._event(f"submitted {campaign_id} ({state.label}): "
                    f"{shards[0].total_jobs} job(s) in "
                    f"{shard_count} span(s)")
        self._emit("submit", campaign=campaign_id, label=state.label,
                   jobs=shards[0].total_jobs, spans=shard_count)
        return campaign_id

    def submit_job_documents(self, documents: Sequence[Mapping[str, object]],
                             shard_count: int, **kwargs) -> str:
        """:meth:`submit_jobs` over wire-format job dicts (the submit op)."""
        return self.submit_jobs([job_from_dict(doc) for doc in documents],
                                shard_count, **kwargs)

    # -- leases -------------------------------------------------------------
    def tick(self) -> List[SpanLease]:
        """Expire overdue leases, re-queueing their spans (the steal).

        Called implicitly by every public operation; returns the leases
        stolen by this pass.
        """
        now = self._now()
        stolen: List[SpanLease] = []
        for state in self._campaigns.values():
            for index, lease in list(state.leases.items()):
                if lease.deadline <= now:
                    del state.leases[index]
                    heapq.heappush(state.pending, index)
                    state.steals += 1
                    stolen.append(lease)
                    age = now - lease.granted_at
                    self._m_steals.inc()
                    self._m_lease_age.observe(age)
                    self._event(
                        f"stole span {lease.campaign_id}/{index} from "
                        f"{lease.worker} (lease {lease.lease_id} aged out)")
                    self._emit("steal", campaign=lease.campaign_id,
                               span=index, lease=lease.lease_id,
                               worker=lease.worker, age=round(age, 6))
        if stolen:
            self._refresh_gauges()
        return stolen

    def _pick_campaign(self) -> Optional[_CampaignState]:
        """Fair share: the least-served campaign with pending spans.

        Load is the fraction of a campaign's spans already granted or done,
        so a freshly submitted campaign immediately receives a share of the
        fleet instead of queueing behind an earlier large submission;
        submission order breaks ties deterministically.
        """
        candidates = [state for state in self._campaigns.values()
                      if state.pending]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda state: (state.in_flight / state.span_count,
                                      state.sequence))

    def request_lease(self, worker: str
                      ) -> Optional[Tuple[SpanLease, CampaignShard]]:
        """Grant the next span to *worker*, or None when nothing is pending.

        The returned shard document is self-contained (it carries its job
        list), so the worker needs no grid flags — exactly the file a
        ``campaign --shard I/N`` host would have been shipped.
        """
        self.tick()
        now = self._now()
        self._workers[worker] = now
        if self._draining:
            return None
        state = self._pick_campaign()
        if state is None:
            return None
        index = heapq.heappop(state.pending)
        lease = SpanLease(
            lease_id=next(self._lease_sequence),
            campaign_id=state.campaign_id, shard_index=index, worker=worker,
            granted_at=now, deadline=now + self._lease_timeout)
        state.leases[index] = lease
        self._leases[lease.lease_id] = lease
        self._m_granted.inc()
        self._refresh_gauges()
        self._emit("lease", campaign=state.campaign_id, span=index,
                   lease=lease.lease_id, worker=worker)
        return lease, state.shards[index]

    def request_leases(self, worker: str, count: int = 1
                       ) -> List[Tuple[SpanLease, CampaignShard]]:
        """Grant up to *count* spans in one call (the ``--prefetch`` batch).

        Stops early when the queue runs dry or the coordinator drains; the
        grants follow the same fair-share order as *count* single requests.
        """
        if count < 1:
            raise CoordinatorError("lease count must be >= 1")
        granted: List[Tuple[SpanLease, CampaignShard]] = []
        for _ in range(count):
            one = self.request_lease(worker)
            if one is None:
                break
            granted.append(one)
        return granted

    def heartbeat(self, lease_id: int) -> bool:
        """Extend one lease's deadline; False when the lease is no longer
        live (stolen or its span already completed) — the worker's cue to
        abandon cooperatively.  Unlike :meth:`heartbeat_many`, an unknown
        lease id raises :class:`CoordinatorError`."""
        live = self.heartbeat_many([lease_id])[int(lease_id)]
        if int(lease_id) not in self._leases:
            raise CoordinatorError(f"unknown lease id {lease_id}")
        return live

    def heartbeat_many(self, lease_ids: Sequence[int]) -> Dict[int, bool]:
        """Batched heartbeat: every held lease extended from one frame.

        An unknown lease id maps to ``False`` instead of raising — in a
        coalesced batch one stale id (a span completed between frames) must
        not poison the extension of the others.
        """
        self.tick()
        now = self._now()
        results: Dict[int, bool] = {}
        for raw_id in lease_ids:
            lease_id = int(raw_id)
            self._m_heartbeats.inc()
            lease = self._leases.get(lease_id)
            if lease is None:
                results[lease_id] = False
                continue
            state = self._campaigns[lease.campaign_id]
            if state.leases.get(lease.shard_index) is not lease:
                results[lease_id] = False
                continue
            lease.deadline = now + self._lease_timeout
            self._workers[lease.worker] = now
            results[lease_id] = True
        return results

    def record_worker_rtt(self, worker: str,
                          snapshot: Mapping[str, object]) -> None:
        """Aggregate a worker-shipped heartbeat-RTT histogram snapshot.

        Workers piggyback their *cumulative* local
        ``worker_heartbeat_rtt_seconds`` state on heartbeat frames; the
        coordinator keeps the last snapshot per worker and merges only the
        delta into its registry (labelled by worker), so retransmits are
        idempotent and a restarted worker — whose cumulative counts reset —
        simply starts a fresh baseline.
        """
        if not isinstance(snapshot, Mapping):
            raise CoordinatorError(
                f"worker {worker!r} ships an RTT snapshot that is not a JSON "
                f"object: {snapshot!r}")
        bounds = tuple(float(bound) for bound in snapshot.get("bounds", ()))
        if bounds != self._m_worker_rtt.bounds:
            raise CoordinatorError(
                f"worker {worker!r} ships RTT bucket bounds {list(bounds)}, "
                f"expected {list(self._m_worker_rtt.bounds)}")
        counts = [int(count) for count in snapshot.get("counts", ())]
        total = int(snapshot.get("count", 0))
        value_sum = float(snapshot.get("sum", 0.0))
        previous = self._worker_rtt_seen.get(worker)
        if previous is not None and len(previous[0]) == len(counts) and \
                total >= previous[2] and \
                all(now >= then for now, then in zip(counts, previous[0])):
            deltas = [now - then
                      for now, then in zip(counts, previous[0])]
            delta_sum = value_sum - previous[1]
            delta_total = total - previous[2]
        else:
            deltas, delta_sum, delta_total = counts, value_sum, total
        self._worker_rtt_seen[worker] = (counts, value_sum, total)
        if delta_total:
            self._m_worker_rtt.merge_counts(deltas, delta_sum, delta_total,
                                            worker=worker)

    def protocol_error(self, message: str) -> None:
        """Count one malformed/oversized wire frame (server handler hook)."""
        with self._lock:
            self._m_protocol_errors.inc()
            self._emit("protocol-error", error=message)

    def complete_lease(self, lease_id: int, block: bytes) -> bool:
        """Ingest a completed span's shard block; returns False for stale
        completions.

        *block* is an :func:`~repro.explore.store.encode_shard_block`
        payload; its decoded column arrays are validated and merged without
        ever materializing per-row dicts.  Validation happens *before* any
        bookkeeping: a block that does not decode or fails provenance/span/
        row checks raises :class:`~repro.explore.distrib.MergeError`, is
        counted and logged, and changes nothing — the lease stays live, so
        a misbehaving worker cannot poison a campaign.  A valid completion
        for a span that someone else already completed (a steal raced the
        original worker, or a duplicate send) is acknowledged as stale and
        dropped — rows are merged exactly once.
        """
        self.tick()
        lease = self._leases.get(lease_id)
        if lease is None:
            raise CoordinatorError(f"unknown lease id {lease_id}")
        state = self._campaigns[lease.campaign_id]
        now = self._now()
        self._workers[lease.worker] = now
        if lease.shard_index in state.completed:
            self._m_stale.inc()
            self._emit("stale-completion", campaign=lease.campaign_id,
                       span=lease.shard_index, lease=lease_id,
                       worker=lease.worker)
            return False
        # Validate against the planned shard, the lease's own span included,
        # before touching any state; a bad block must not consume a span.
        try:
            index = state.merge.add_shard_block(
                block, expected_shard=lease.shard_index)
        except MergeError as error:
            self._m_invalid.inc()
            self._emit("invalid-document", campaign=lease.campaign_id,
                       span=lease.shard_index, lease=lease_id,
                       worker=lease.worker, error=str(error))
            raise
        state.completed.add(index)
        # Cancel whichever lease is currently active on the span — possibly
        # a re-grant to another worker after this one was presumed dead.
        state.leases.pop(index, None)
        # A stolen span may sit back in the queue when its original worker's
        # completion arrives; leaving it there would hand an already-merged
        # span to the next worker (found by the lease-lifecycle property
        # suite).
        if index in state.pending:
            state.pending.remove(index)
            heapq.heapify(state.pending)
        rows = len(state.shards[index].jobs)
        state.row_count += rows
        latency = now - lease.granted_at
        self._m_spans.inc()
        self._m_rows.inc(rows)
        self._m_span_latency.observe(latency)
        self._m_lease_age.observe(latency)
        self._refresh_gauges()
        self._emit("complete", campaign=lease.campaign_id, span=index,
                   lease=lease_id, worker=lease.worker, rows=rows,
                   latency=round(latency, 6))
        if state.complete:
            self._finalize(state)
        return True

    def _finalize(self, state: _CampaignState) -> None:
        state.store = state.merge.finalize()
        if state.json_path:
            write_document_json(state.store, state.json_path)
        if state.csv_path:
            write_csv(state.csv_path, state.store.columns,
                      state.store.iter_rows())
        state.finished_at = self._now()
        self._m_campaigns_done.inc()
        wrote = [path for path in (state.json_path, state.csv_path) if path]
        self._event(f"completed {state.campaign_id} ({state.label}): "
                    f"{state.row_count} row(s) from {state.span_count} "
                    f"span(s), {state.steals} steal(s)"
                    + (f" -> {', '.join(wrote)}" if wrote else ""))
        self._emit("campaign-complete", campaign=state.campaign_id,
                   rows=state.row_count, spans=state.span_count,
                   steals=state.steals)

    def campaign_store(self, campaign_id: str) -> ColumnarStore:
        """The finalized store of a completed campaign."""
        state = self._state(campaign_id)
        if state.store is None:
            raise CoordinatorError(f"campaign {campaign_id} is not complete")
        return state.store

    def _state(self, campaign_id: str) -> _CampaignState:
        state = self._campaigns.get(campaign_id)
        if state is None:
            raise CoordinatorError(f"unknown campaign {campaign_id!r}")
        return state

    # -- the op handler -----------------------------------------------------
    def dispatch(self, request: Mapping[str, object]) -> Dict[str, object]:
        """Answer one JSON op (the table under "wire protocol" below).

        The only op table: the socket server and the in-process session
        both reach it through :func:`answer_frame`.  Bad arguments raise
        ``ValueError``/``KeyError``/``TypeError``, which the frame layer
        turns into a structured ``{"ok": false}`` answer.
        """
        op = request.get("op")
        with self._lock:
            if op == "lease":
                granted = self.request_leases(str(request["worker"]),
                                              int(request["count"]))
                if not granted and self._draining:
                    return {"ok": True, "shutdown": True}
                return {"ok": True,
                        "heartbeat_seconds": self._lease_timeout / 3.0,
                        "leases": [{"lease": lease.as_document(),
                                    "shard": shard.as_document()}
                                   for lease, shard in granted]}
            if op == "heartbeat":
                rtt = request.get("rtt")
                if rtt is not None:
                    self.record_worker_rtt(str(request.get("worker", "")),
                                           rtt)
                live = self.heartbeat_many(request["lease_ids"])
                return {"ok": True,
                        "live": {str(lease_id): alive
                                 for lease_id, alive in live.items()}}
            if op == "submit":
                campaign_id = self.submit_job_documents(
                    request["jobs"], int(request["shards"]),
                    label=request.get("label"),
                    json_path=request.get("json"),
                    csv_path=request.get("csv"),
                    store_path=request.get("store"))
                return {"ok": True, "campaign": campaign_id}
            if op == "campaign":
                return {"ok": True, "progress": self.campaign_progress(
                    str(request["campaign"]))}
            if op == "status":
                return {"ok": True, "status": self.status()}
            if op == "shutdown":
                self.drain()
                return {"ok": True}
        raise CoordinatorError(f"unknown op {op!r}")

    def dispatch_block(self, meta: Mapping[str, object],
                       block: bytes) -> Dict[str, object]:
        """A completion frame: lease id from the meta, rows from the block
        (the only way a span completes over the wire)."""
        if meta.get("op") != "complete":
            raise FrameError(f"unexpected op {meta.get('op')!r} in a "
                             f"completion frame")
        with self._lock:
            return {"ok": True, "accepted": self.complete_lease(
                int(meta["lease_id"]), block)}

    # -- observability ------------------------------------------------------
    def campaign_progress(self, campaign_id: str) -> Dict[str, object]:
        self.tick()
        return self._state(campaign_id).progress()

    def status(self) -> Dict[str, object]:
        """The structured operational status document (versioned).

        Every counter is read back from the metrics registry — the same
        numbers a ``/metrics`` scrape renders — so the CLI status table and
        the exporter cannot disagree.
        """
        self.tick()
        now = self._now()
        uptime = max(now - self._started, 0.0)
        lease_ages = [now - lease.granted_at
                      for state in self._campaigns.values()
                      for lease in state.leases.values()]
        completed_spans = int(self._m_spans.total())
        completed_rows = int(self._m_rows.total())
        return {
            "coordinator_schema_version": COORDINATOR_SCHEMA_VERSION,
            "uptime_seconds": uptime,
            "lease_timeout_seconds": self._lease_timeout,
            "draining": self._draining,
            "workers": {
                name: {"last_seen_seconds": now - seen}
                for name, seen in sorted(self._workers.items())
            },
            "queue_depth": sum(len(state.pending)
                               for state in self._campaigns.values()),
            "active_leases": len(lease_ages),
            "max_lease_age_seconds": max(lease_ages, default=0.0),
            "leases_granted": int(self._m_granted.total()),
            "heartbeats": int(self._m_heartbeats.total()),
            "completed_spans": completed_spans,
            "completed_rows": completed_rows,
            "steals": int(self._m_steals.total()),
            "stale_completions": int(self._m_stale.total()),
            "invalid_documents": int(self._m_invalid.total()),
            "protocol_errors": int(self._m_protocol_errors.total()),
            "spans_per_second": (completed_spans / uptime
                                 if uptime > 0 else 0.0),
            "rows_per_second": (completed_rows / uptime
                                if uptime > 0 else 0.0),
            "campaigns": [state.progress()
                          for state in self._campaigns.values()],
        }


# -- wire protocol -----------------------------------------------------------
#
# A connection opens with the 4-byte preamble b"RXP2", then carries
# length-prefixed frames (u32 payload length + u8 kind) in both directions
# over one persistent socket — lease, heartbeat and complete ops for a
# worker's whole lifetime are pipelined on a single connection.  Frame
# kinds: 0x4A = JSON op payload, 0x43 = completion (u32 meta length + meta
# JSON + binary columnar shard block).  A completion travels only as a
# 0x43 frame, whatever its row count; there is no JSON "complete" op.
# Responses are always JSON frames.
#
# Ops (Coordinator.dispatch / dispatch_block):
#
#   {"op": "lease", "worker": W,
#    "count": N}                       -> {"ok": true, "heartbeat_seconds": s,
#                                          "leases": [{lease, shard}, ..]}
#                                          (possibly empty)
#                                       | {"ok": true, "shutdown": true}
#   {"op": "heartbeat", "lease_ids":
#    [..], "worker": W, "rtt": {..}}   -> {"ok": true, "live": {id: bool}}
#   (0x43 frame, meta {"op": "complete",
#    "lease_id": L} + block bytes)     -> {"ok": true, "accepted": bool}
#   {"op": "submit", "jobs": [..],
#    "shards": N, "label"/"json"/
#    "csv"/"store": ..}                -> {"ok": true, "campaign": id}
#   {"op": "campaign", "campaign": id} -> {"ok": true, "progress": {..}}
#   {"op": "status"}                   -> {"ok": true, "status": {..}}
#   {"op": "shutdown"}                 -> {"ok": true}   (server then stops)
#
# Failures answer {"ok": false, "error": msg} and the client raises
# CoordinatorError.  Malformed or oversized frames are answered with the
# same structured error (never silently dropped) and counted in
# coordinator_protocol_errors_total; only a frame whose *framing* is lost
# (truncation, oversized length prefix) or a connection without the
# preamble also closes the connection, since the stream cannot be
# resynchronized.  All coordinator state changes happen under one lock,
# frame by frame.

def answer_frame(endpoint, kind: int, payload: bytes) -> Dict[str, object]:
    """The response document to one request frame.

    *endpoint* provides ``dispatch``, ``dispatch_block`` and
    ``protocol_error``: the :class:`CoordinatorServer` for a socket session,
    the :class:`Coordinator` itself for the in-process one, so both run the
    same decode, op and error-mapping code.  A payload defect is a counted
    protocol error, an invalid op a plain structured error; neither ends
    the session.
    """
    try:
        if kind == FRAME_KIND_JSON:
            try:
                request = json.loads(payload.decode("utf-8"))
            except (ValueError, RecursionError) as error:
                raise FrameError(f"malformed JSON frame: {error}")
            if not isinstance(request, dict):
                raise FrameError("JSON frame is not an object")
            return endpoint.dispatch(request)
        if kind == FRAME_KIND_BLOCK:
            meta, block = decode_block_payload(payload)
            return endpoint.dispatch_block(meta, block)
        raise FrameError(f"unknown frame kind 0x{kind:02x}")
    except FrameError as error:
        endpoint.protocol_error(str(error))
        return {"ok": False, "error": str(error)}
    except (ValueError, KeyError, TypeError) as error:
        return {"ok": False, "error": str(error) or repr(error)}


class _CoordinatorHandler(socketserver.StreamRequestHandler):
    # Framed request/response round trips on a persistent socket stall for
    # tens of milliseconds under Nagle + delayed-ACK; answer frames must
    # leave immediately.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server = self.server
        preamble = self.rfile.read(len(PROTOCOL_MAGIC))
        if preamble != PROTOCOL_MAGIC:
            if preamble:
                # The peer does not speak frames; answer in a plain line.
                message = f"unrecognized protocol preamble {preamble!r}"
                server.protocol_error(message)  # type: ignore[attr-defined]
                self._answer(json.dumps({"ok": False, "error": message})
                             .encode("utf-8") + b"\n")
            return
        while True:
            try:
                frame = read_frame(self.rfile)
            except FrameError as error:
                # Framing is lost — answer once, then close: the stream
                # cannot be resynchronized after a bad length prefix.
                server.protocol_error(str(error))  # type: ignore[attr-defined]
                self._answer(encode_json_frame({"ok": False,
                                                "error": str(error)}))
                return
            except OSError:  # pragma: no cover - peer reset mid-read
                return
            if frame is None:
                return
            response = answer_frame(server, *frame)
            if not self._answer(encode_json_frame(response)):
                return

    def _answer(self, data: bytes) -> bool:
        try:
            self.wfile.write(data)
            return True
        except OSError:  # pragma: no cover - peer vanished mid-answer
            return False


class CoordinatorServer(socketserver.ThreadingTCPServer):
    """Serve a :class:`Coordinator` over localhost TCP framed sessions."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, coordinator: Coordinator,
                 address: Tuple[str, int] = ("127.0.0.1", 0)):
        super().__init__(address, _CoordinatorHandler)
        self.coordinator = coordinator

    @property
    def port(self) -> int:
        return self.server_address[1]

    def protocol_error(self, message: str) -> None:
        self.coordinator.protocol_error(message)

    def dispatch_block(self, meta: Mapping[str, object],
                       block: bytes) -> Dict[str, object]:
        return self.coordinator.dispatch_block(meta, block)

    def dispatch(self, request: Mapping[str, object]) -> Dict[str, object]:
        response = self.coordinator.dispatch(request)
        if request.get("op") == "shutdown":
            # shutdown() blocks until serve_forever returns, so it must not
            # run on this handler thread; closing the listening socket
            # afterwards turns further connects into refusals instead of
            # hangs.
            threading.Thread(target=self._stop, daemon=True).start()
        return response

    def _stop(self) -> None:
        self.shutdown()
        self.server_close()


class CoordinatorSession:
    """Persistent client: framed ops pipelined over one socket.

    Opens a single connection (lazily, on first use), announces itself with
    the ``RXP2`` preamble, and then exchanges length-prefixed frames for the
    session's whole lifetime — no per-op connection setup.  Ops travel as
    JSON frames; every completion, of one row or a million, travels as a
    binary columnar shard block frame (:func:`encode_completion_frame`).
    :meth:`exchange` pipelines any mix of the two.  An internal lock
    serializes round trips, so a worker's heartbeat thread can share the
    session with its execution loop.  Any transport fault closes the socket
    and raises :class:`ConnectionError`; the next call transparently
    reconnects.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None

    # -- connection lifecycle -----------------------------------------------
    def _connect(self) -> None:
        connection = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        try:
            # The session is a stream of small request/response frames;
            # Nagle would batch them against the delayed ACK and add tens
            # of milliseconds per round trip.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection.sendall(PROTOCOL_MAGIC)
        except OSError:
            connection.close()
            raise
        self._sock = connection
        self._reader = connection.makefile("rb")

    def _drop(self) -> None:
        reader, sock = self._reader, self._sock
        self._reader = None
        self._sock = None
        for resource in (reader, sock):
            if resource is not None:
                try:
                    resource.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass

    def close(self) -> None:
        with self._lock:
            self._drop()

    def reconnect(self) -> None:
        """Drop the current socket; the next call opens a fresh one."""
        self.close()

    def __enter__(self) -> "CoordinatorSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- framed round trips --------------------------------------------------
    def exchange(self, frames: Iterable[bytes]) -> List[Dict[str, object]]:
        """Pipelined frame exchange: every request frame is written before
        the first response is awaited (frames from a lazy iterable are
        encoded just-in-time, interleaved with the sends).  The server
        answers frames strictly in order, so with *n* requests in flight
        the per-op cost collapses from ``client + wire + server`` to
        whichever side is slowest — e.g. a batch's completion frames plus
        the next lease request in one flight hides the grant latency.
        Returns the parsed responses in request order.
        """
        with self._lock:
            try:
                answers = self._transfer(frames)
            except FrameError as error:
                self._drop()
                raise ConnectionError(
                    f"coordinator sent an unreadable frame: {error}")
            except ConnectionError:
                self._drop()
                raise
            except OSError as error:
                self._drop()
                raise ConnectionError(
                    f"coordinator connection failed: {error}")
        return [self._parse_response(answer) for answer in answers]

    def _transfer(self, frames: Iterable[bytes]) -> List[Tuple[int, bytes]]:
        """Send every request frame, then read one answer frame each."""
        if self._sock is None:
            self._connect()
        assert self._sock is not None and self._reader is not None
        sent = 0
        for frame in frames:
            self._sock.sendall(frame)
            sent += 1
        answers = []
        for _ in range(sent):
            answer = read_frame(self._reader)
            if answer is None:
                raise ConnectionError("coordinator closed the session "
                                      "without a response")
            answers.append(answer)
        return answers

    def _parse_response(self, answer: Tuple[int, bytes]
                        ) -> Dict[str, object]:
        kind, payload = answer
        if kind != FRAME_KIND_JSON:
            self.close()
            raise ConnectionError(
                f"coordinator answered with frame kind 0x{kind:02x}")
        try:
            response = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            self.close()
            raise ConnectionError(
                f"coordinator answered with malformed JSON: {error}")
        if not isinstance(response, dict) or not response.get("ok"):
            error_text = "request failed"
            if isinstance(response, dict):
                error_text = str(response.get("error", error_text))
            raise CoordinatorError(error_text)
        return response

    def call(self, request: Mapping[str, object]) -> Dict[str, object]:
        return self.exchange([encode_json_frame(request)])[0]

    # -- worker plane -------------------------------------------------------
    def request_leases(self, worker: str, count: int) -> Dict[str, object]:
        return self.call({"op": "lease", "worker": worker,
                          "count": int(count)})

    def heartbeat_many(self, lease_ids: Sequence[int],
                       worker: Optional[str] = None,
                       rtt: Optional[Mapping[str, object]] = None,
                       ) -> Dict[int, bool]:
        request: Dict[str, object] = {"op": "heartbeat",
                                      "lease_ids": list(lease_ids)}
        if worker is not None:
            request["worker"] = worker
        if rtt is not None:
            request["rtt"] = dict(rtt)
        live = self.call(request)["live"]
        return {int(lease_id): bool(alive)
                for lease_id, alive in live.items()}

    def complete(self, lease_id: int,
                 document: Mapping[str, object]) -> bool:
        return bool(self.exchange([encode_completion_frame(
            lease_id, document)])[0]["accepted"])

    # -- control plane ------------------------------------------------------
    def submit(self, job_documents: Sequence[Mapping[str, object]],
               shards: int, label: Optional[str] = None,
               json_path: Optional[str] = None,
               csv_path: Optional[str] = None,
               store_path: Optional[str] = None) -> str:
        return str(self.call({
            "op": "submit", "jobs": list(job_documents), "shards": shards,
            "label": label, "json": json_path, "csv": csv_path,
            "store": store_path,
        })["campaign"])

    def campaign_progress(self, campaign_id: str) -> Dict[str, object]:
        return self.call({"op": "campaign",
                          "campaign": campaign_id})["progress"]

    def status(self) -> Dict[str, object]:
        return self.call({"op": "status"})["status"]

    def shutdown(self) -> None:
        self.call({"op": "shutdown"})
