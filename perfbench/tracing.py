"""In-memory span tracing of the program's layers, from outside ``src/``.

:func:`install` rebinds the public entry point of every layer to a timing
wrapper: in the module that defines the name and in every loaded module
that imported it by name, and on the class for methods.  A span records
its name, start, end, parent span and the unit/row it worked for.  Spans
stay in memory and are written out once, at exit (:meth:`Tracer.write`).
Worker processes write their own files, and :func:`analyze` merges them all
into per-span busy time (self time: a span minus its child spans), per-layer
self time and the share of the wall time no span covers.

All processes read ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux),
so spans from different processes share one time line.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

#: ``(module, attribute path, span name)`` of every traced entry point.  The
#: span name's first component is the layer the time is booked to.  The
#: ``dft`` TLM processes run inside ``Simulator.run`` and book to ``kernel``.
SPAN_TARGETS = (
    ("repro.explore.scenarios", "build_scenario", "scenarios.build_scenario"),
    ("repro.explore.scenarios", "Scenario.schedule_for", "scenarios.schedule_for"),
    ("repro.explore.scenarios", "Scenario.build_soc", "soc.build_soc"),
    ("repro.explore.scenarios", "Scenario.estimated_cycles", "schedule.estimate"),
    ("repro.schedule.strategies", "build_strategy_schedule",
     "schedule.build_strategy_schedule"),
    ("repro.soc.system", "SocTlmBase.run_test_schedule", "soc.run_test_schedule"),
    ("repro.kernel.simulator", "Simulator.run", "kernel.run"),
    ("repro.rtl.scan", "ScanConfiguration.describe", "rtl.scan_describe"),
    ("repro.rtl.lfsr", "MISR.compact_sequence", "rtl.misr_compact"),
    ("repro.memory.march", "run_march_test", "memory.march"),
    ("repro.explore.campaign", "CampaignRun.write_json", "campaign.write_json"),
    ("repro.explore.distrib", "run_shard", "distrib.run_shard"),
    ("repro.explore.distrib", "validate_shard_result", "distrib.validate"),
    ("repro.explore.store", "encode_shard_block", "store.encode_block"),
    ("repro.explore.store", "IncrementalShardMerge.add_shard_block", "store.ingest"),
    ("repro.explore.store", "IncrementalShardMerge.add_shard_document",
     "store.ingest"),
    ("repro.explore.store", "IncrementalShardMerge.finalize", "store.finalize"),
    ("repro.explore.store", "write_document_json", "store.write_json"),
    ("repro.explore.coordinator", "CoordinatorServer.dispatch",
     "coordinator.dispatch"),
    ("repro.explore.coordinator", "CoordinatorServer.dispatch_block",
     "coordinator.dispatch"),
    ("repro.explore.worker", "CampaignWorker.run_one", "worker.run_one"),
    ("repro.explore.adaptive", "surrogate_screen_candidates", "adaptive.screen"),
    ("repro.explore.adaptive", "AdaptiveResult.write_json", "adaptive.write_json"),
)

#: Entry points that mark the start of a new result row (no span of their
#: own: the row's time is the sum of the layer spans inside it).
ROW_TARGETS = (
    ("repro.explore.campaign", "execute_job"),
    ("repro.explore.campaign", "execute_job_raced"),
)

LAYERS = ("scenarios", "campaign", "schedule", "soc", "kernel", "rtl",
          "memory", "distrib", "store", "coordinator", "worker", "adaptive")


class Tracer:
    """Span and counter sink shared by every wrapper of one process."""

    def __init__(self):
        #: Wrappers record nothing while False (one attribute test per call).
        self.enabled = False
        #: ``(id, parent id or -1, name, start, end, tag, row)`` per span.
        self.spans: List[Tuple[int, int, str, float, float, str, int]] = []
        self.counters: Counter = Counter()
        #: What the process works for: the unit index in the benchmark
        #: process, ``campaign-fingerprint/span`` in a worker.
        self.tag = ""
        self.row = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     tracer.tag, tracer.row))
        return traced

    def write(self, path, **extra: object) -> None:
        document = {"spans": self.spans, "counters": dict(self.counters)}
        document.update(extra)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def load_trace(path) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


# -- probes: counters recorded next to the spans ------------------------------
def _count_activations(tracer: Tracer, run: Callable) -> Callable:
    @functools.wraps(run)
    def counted(self, *args, **kwargs):
        before = self.dispatched_activations
        try:
            return run(self, *args, **kwargs)
        finally:
            if tracer.enabled:
                tracer.counters["kernel.activations"] += (
                    self.dispatched_activations - before)
    return counted


def _count_block_bytes(tracer: Tracer, encode: Callable) -> Callable:
    @functools.wraps(encode)
    def counted(*args, **kwargs):
        block = encode(*args, **kwargs)
        if tracer.enabled:
            tracer.counters["store.block_bytes"] += len(block)
        return block
    return counted


def _tag_shard(tracer: Tracer, run_shard: Callable) -> Callable:
    @functools.wraps(run_shard)
    def tagged(shard, *args, **kwargs):
        tracer.tag = f"{shard.fingerprint[:12]}/{shard.index}"
        tracer.row = shard.start - 1
        return run_shard(shard, *args, **kwargs)
    return tagged


def _next_row(tracer: Tracer, execute: Callable) -> Callable:
    @functools.wraps(execute)
    def counted(*args, **kwargs):
        tracer.row += 1
        return execute(*args, **kwargs)
    return counted


_PROBES = {
    "kernel.run": _count_activations,
    "store.encode_block": _count_block_bytes,
    "distrib.run_shard": _tag_shard,
}


def _rebind(module_name: str, path: str,
            make: Callable[[Callable], Callable]) -> None:
    module = sys.modules[module_name]
    owner_name, _, attribute = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attribute, make(raw))
        return
    original = getattr(module, attribute)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`SPAN_TARGETS` and
    :data:`ROW_TARGETS` (the modules must be imported already)."""
    for module_name, path, name in SPAN_TARGETS:
        probe = _PROBES.get(name)

        def make(func, name=name, probe=probe):
            if probe is not None:
                func = probe(tracer, func)
            return tracer.span(name, func)
        _rebind(module_name, path, make)
    for module_name, path in ROW_TARGETS:
        _rebind(module_name, path,
                lambda func: _next_row(tracer, func))


# -- analysis -----------------------------------------------------------------
def _window_index(starts: Sequence[float], windows, moment: float) -> int:
    index = bisect.bisect_right(starts, moment) - 1
    if index >= 0 and moment < windows[index][1]:
        return index
    return -1


def analyze(traces: Iterable[Mapping[str, object]],
            windows: Sequence[Tuple[float, float]]) -> Dict[str, object]:
    """Merge span sets and reduce them over the measured unit *windows*.

    Returns per-span-name ``self``/``calls`` totals (spans starting inside a
    window), per-layer self time, and ``unattributed``: the share of the
    windows' wall time that no span of any process covers.
    """
    windows = sorted(windows)
    starts = [start for start, _ in windows]
    per_name: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    intervals: List[Tuple[float, float]] = []
    for trace in traces:
        spans = trace["spans"]
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end, _tag, _row in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, parent, name, start, end, _tag, _row in spans:
            if _window_index(starts, windows, start) < 0:
                continue
            entry = per_name[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[span_id]
        for _id, _parent, _name, start, end, _tag, _row in spans:
            index = _window_index(starts, windows, start)
            if index >= 0:
                intervals.append((start, min(end, windows[index][1])))
    intervals.sort()
    covered = 0.0
    reach = float("-inf")
    for start, end in intervals:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    wall = sum(end - start for start, end in windows)
    layers = {layer: 0.0 for layer in LAYERS}
    for name, entry in per_name.items():
        layers[name.split(".", 1)[0]] += entry["self"]
    return {"spans": dict(per_name), "layers": layers, "wall": wall,
            "unattributed": (1.0 - covered / wall) if wall > 0 else 0.0}
