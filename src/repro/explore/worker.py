"""Campaign worker: the execution plane for the live coordinator.

A worker is deliberately dumb: it leases spans, executes them on the
standard :func:`~repro.explore.distrib.run_shard` path (the *same* code a
``campaign --shard I/N`` host runs, which is what keeps coordinated
artifacts bitwise identical to monolithic ones), posts the deterministic
shard documents back, and repeats.  All scheduling intelligence — fairness,
stealing, merge order — lives in the coordinator.

Two clients plug into the same loop, and both speak the same frames:

* :class:`~repro.explore.coordinator.CoordinatorSession` — the framed
  socket session (persistent socket, batched ops, binary columnar
  completions); what the ``work`` CLI subcommand uses.
* :class:`InProcessClient` — the same session with the socket replaced by
  a direct call of :func:`~repro.explore.coordinator.answer_frame` on a
  local :class:`~repro.explore.coordinator.Coordinator`; the deterministic
  test seam (no sockets, no threads unless the test asks for them).

Each loop iteration leases up to ``prefetch`` spans in one round trip.
While they execute, a daemon thread coalesces heartbeats for *all* held
leases into one frame, so a *slow* worker is distinguishable from a *dead*
one, and ships the worker's cumulative heartbeat-RTT histogram snapshot
along for coordinator-side aggregation.  A lease reported not live means
the coordinator already stole it; the loop notes it and keeps going — its
eventual completion is acknowledged as stale and merged by nobody,
preserving exactly-once ingestion.  With ``reconnect_tries > 0`` a
transient connection error triggers bounded exponential backoff instead of
an immediate exit; leases are abandoned only once the budget is exhausted.
"""

from __future__ import annotations

import io
import threading
import time
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple,
)

from repro.explore.coordinator import (
    Coordinator,
    CoordinatorSession,
    answer_frame,
    encode_json_frame,
    read_frame,
)
from repro.explore.distrib import CampaignShard, run_shard
from repro.explore.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    StructuredLog,
)


class InProcessClient(CoordinatorSession):
    """A :class:`~repro.explore.coordinator.CoordinatorSession` wired
    straight to a local coordinator.

    Every request frame is decoded and answered by
    :func:`~repro.explore.coordinator.answer_frame` — the code the socket
    handler runs — and the encoded answer frame is decoded back, so the op,
    frame and block code is the wire's byte for byte; only the socket is
    missing.
    """

    def __init__(self, coordinator: Coordinator):
        super().__init__()
        self._coordinator = coordinator

    def _transfer(self, frames: Iterable[bytes]) -> List[Tuple[int, bytes]]:
        answers = []
        for frame in frames:
            kind, payload = read_frame(io.BytesIO(frame))
            response = answer_frame(self._coordinator, kind, payload)
            answers.append(read_frame(io.BytesIO(
                encode_json_frame(response))))
        return answers


def _default_executor(shard: CampaignShard) -> Dict[str, object]:
    return run_shard(shard).as_document(deterministic=True)


class CampaignWorker:
    """Lease/execute/complete loop against a coordinator client."""

    def __init__(self, client, worker_id: str,
                 poll_interval: float = 0.5,
                 max_idle_polls: Optional[int] = None,
                 heartbeat_interval: Optional[float] = None,
                 prefetch: int = 1,
                 reconnect_tries: int = 0,
                 reconnect_backoff: float = 0.5,
                 sleep: Callable[[float], None] = time.sleep,
                 executor: Callable[[CampaignShard],
                                    Mapping[str, object]] = _default_executor,
                 should_run: Optional[Callable[[], bool]] = None,
                 status_callback: Optional[Callable[[str], None]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 log: Optional[StructuredLog] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.client = client
        self.worker_id = worker_id
        self.poll_interval = poll_interval
        self.max_idle_polls = max_idle_polls
        self.heartbeat_interval = heartbeat_interval
        self.prefetch = max(1, int(prefetch))
        self.reconnect_tries = max(0, int(reconnect_tries))
        self.reconnect_backoff = max(0.0, float(reconnect_backoff))
        self._sleep = sleep
        self._executor = executor
        self._should_run = should_run
        self._status = status_callback
        self._log = log
        self._clock = clock
        self.stats: Dict[str, int] = {
            "leases": 0, "completed": 0, "stale": 0, "idle_polls": 0,
        }
        if self.reconnect_tries > 0:
            self.stats["reconnects"] = 0
        # Worker-side observability: its own registry (the coordinator's
        # lives in another process), dominated by the heartbeat RTT
        # histogram — the one latency only the worker can measure.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_rtt = self.metrics.histogram(
            "worker_heartbeat_rtt_seconds",
            "Round-trip time of heartbeat calls to the coordinator.",
            LATENCY_BUCKETS)
        self._m_spans = self.metrics.counter(
            "worker_spans_total",
            "Spans executed, by acceptance outcome.")

    def _emit(self, event: str, **fields: object) -> None:
        if self._log is not None:
            self._log.emit(event, worker=self.worker_id, **fields)

    def _report(self, message: str) -> None:
        if self._status is not None:
            self._status(f"[{self.worker_id}] {message}")

    def _heartbeat_loop(self, held: Set[int], held_lock: threading.Lock,
                        interval: float, stop: threading.Event) -> None:
        """One frame per beat for *all* held leases, RTT snapshot included.

        The snapshot is cumulative, so retransmits are idempotent — the
        coordinator merges only the delta since the last one it saw."""
        while not stop.wait(interval):
            with held_lock:
                lease_ids = sorted(held)
            if not lease_ids:
                continue
            try:
                sent = self._clock()
                live = self.client.heartbeat_many(
                    lease_ids, worker=self.worker_id,
                    rtt=self._m_rtt.snapshot())
                self._m_rtt.observe(self._clock() - sent)
            except (OSError, ValueError):
                return
            stolen = [lease_id for lease_id, alive in live.items()
                      if not alive]
            if stolen:
                with held_lock:
                    held.difference_update(stolen)
                self._report(f"lease(s) {stolen} were stolen; "
                             "finishing anyway")

    def _complete_span(self, lease: Mapping[str, object], lease_id: int,
                       document: Mapping[str, object]) -> None:
        if self.client.complete(lease_id, document):
            self.stats["completed"] += 1
            self._m_spans.inc(outcome="accepted")
            self._report(f"completed span {lease['campaign_id']}/"
                         f"{lease['shard_index']}")
            self._emit("worker-complete", campaign=lease["campaign_id"],
                       span=lease["shard_index"], lease=lease_id,
                       accepted=True)
        else:
            self.stats["stale"] += 1
            self._m_spans.inc(outcome="stale")
            self._report(f"span {lease['campaign_id']}/"
                         f"{lease['shard_index']} already completed "
                         "elsewhere (stale)")
            self._emit("worker-complete", campaign=lease["campaign_id"],
                       span=lease["shard_index"], lease=lease_id,
                       accepted=False)

    def run_one(self) -> bool:
        """Lease up to ``prefetch`` spans in one round trip and execute them
        back to back under one coalesced heartbeat thread.  False when no
        work was granted."""
        response = self.client.request_leases(self.worker_id, self.prefetch)
        if response.get("shutdown"):
            raise StopIteration
        entries = response.get("leases") or []
        if not entries:
            return False
        held: Set[int] = set()
        held_lock = threading.Lock()
        spans = []
        for entry in entries:
            lease = entry["lease"]
            lease_id = int(lease["lease_id"])
            shard = CampaignShard.from_document(entry["shard"])
            self.stats["leases"] += 1
            self._report(f"leased span {lease['campaign_id']}/"
                         f"{lease['shard_index']} "
                         f"({len(shard.jobs)} job(s))")
            self._emit("worker-lease", campaign=lease["campaign_id"],
                       span=lease["shard_index"], lease=lease_id,
                       jobs=len(shard.jobs))
            held.add(lease_id)
            spans.append((lease, lease_id, shard))
        interval = self.heartbeat_interval
        if interval is None:
            interval = float(response.get("heartbeat_seconds") or 0)
        stop = threading.Event()
        beat: Optional[threading.Thread] = None
        if interval > 0:
            beat = threading.Thread(
                target=self._heartbeat_loop,
                args=(held, held_lock, interval, stop), daemon=True)
            beat.start()
        try:
            for lease, lease_id, shard in spans:
                document = self._executor(shard)
                self._complete_span(lease, lease_id, document)
                with held_lock:
                    held.discard(lease_id)
        finally:
            stop.set()
            if beat is not None:
                beat.join(timeout=5.0)
        return True

    def run(self) -> Dict[str, int]:
        """Loop until the coordinator drains, idle polls run out, or
        ``should_run`` turns false.  Returns the stats counters."""
        idle = 0
        failures = 0
        while self._should_run is None or self._should_run():
            try:
                worked = self.run_one()
            except StopIteration:
                self._report("coordinator is draining; exiting")
                self._emit("worker-exit", reason="draining")
                break
            except ConnectionError:
                failures += 1
                if failures > self.reconnect_tries:
                    self._report("coordinator unreachable; exiting")
                    self._emit("worker-exit", reason="unreachable")
                    break
                delay = self.reconnect_backoff * (2 ** (failures - 1))
                self.stats["reconnects"] += 1
                self._report(f"coordinator unreachable; retry "
                             f"{failures}/{self.reconnect_tries} "
                             f"in {delay:g}s")
                self._emit("worker-reconnect", attempt=failures,
                           budget=self.reconnect_tries,
                           delay_seconds=round(delay, 6))
                self._sleep(delay)
                reconnect = getattr(self.client, "reconnect", None)
                if reconnect is not None:
                    reconnect()
                continue
            failures = 0
            if worked:
                idle = 0
                continue
            idle += 1
            self.stats["idle_polls"] += 1
            if self.max_idle_polls is not None and idle >= self.max_idle_polls:
                self._report("no work after "
                             f"{idle} poll(s); exiting")
                self._emit("worker-exit", reason="idle")
                break
            self._sleep(self.poll_interval)
        return dict(self.stats)
