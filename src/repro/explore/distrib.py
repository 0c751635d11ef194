"""Sharded campaign execution: plan shards, run them anywhere, merge artifacts.

Campaign jobs are pure data (:class:`~repro.explore.campaign.CampaignJob` is
a frozen spec + schedule name) and campaign artifacts are versioned
CSV/JSON documents, so distributing a campaign across hosts is a pure-data
problem.  This module is the distribution subsystem the ROADMAP left open:

* :func:`plan_shards` — split a campaign's job list into ``N`` self-contained
  :class:`CampaignShard` slices.  The split is deterministic and contiguous
  in the monolithic job order (shard ``i`` owns jobs
  ``[i·M/N, (i+1)·M/N)``), so concatenating shard results in shard order *is*
  the monolithic result.  Every shard carries scenario-space provenance: a
  SHA-256 fingerprint of the complete serialized job list, the total job
  count and its own span.
* :class:`CampaignShard` — a serializable shard spec
  (:meth:`~CampaignShard.write_json` / :meth:`~CampaignShard.read_json`),
  so a coordinator can plan once and ship one file per host.  Because grid
  generation itself is deterministic, hosts can equivalently re-plan locally
  from the same axes (the CLI's ``campaign --shard I/N`` path) — both roads
  produce identical shards.
* :func:`run_shard` — execute one shard through
  :func:`repro.explore.campaign.run_jobs`, i.e. the exact cached/batched
  worker-pool path of a monolithic run, and collect a :class:`ShardRun`
  whose artifact embeds the shard provenance.
* :func:`plan_merge` — validate a set of shard artifacts (schema
  versions, typed provenance, fingerprints, shard count, exactly-once index
  coverage, canonical spans, column agreement) into a :class:`MergePlan`;
  :func:`validate_shard_result` is its one-shard half.  Both share one
  header check.
* :func:`merge_shard_documents` — plan a set of shard documents and merge
  their rows through the one merge engine
  (:class:`repro.explore.store.IncrementalShardMerge`, which every offline
  and live merge runs through) into a document identical to the one a
  single-host run writes.  For
  *deterministic* shard artifacts (the default) the merged document is
  **bitwise identical** to ``CampaignRun.write_json(deterministic=True)`` of
  the monolithic campaign — the property the differential shard tests pin
  down.  ``partial=True`` (CLI: ``merge --partial``) accepts an incomplete
  shard set: surviving shards merge, the result carries a ``partial`` block
  naming the missing spans, and :func:`replan_document` turns those gaps
  into a re-plan worklist (each gap is one ``campaign --shard I/N`` rerun).

Shard and merge documents embed the campaign row schema
(``schema_version`` = :data:`repro.explore.campaign.SCHEMA_VERSION`); the
shard envelope itself (the ``shard`` provenance block) is versioned
separately as ``distrib_schema_version`` = :data:`DISTRIB_SCHEMA_VERSION`.
Validation failures raise :class:`MergeError` (a ``ValueError``), which the
CLI maps to a non-zero exit status.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import (
    Collection, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.explore.artifact import write_json
from repro.explore.campaign import (
    SCHEMA_VERSION,
    Campaign,
    CampaignJob,
    CampaignRun,
    run_jobs,
)
from repro.explore.scenarios import spec_from_dict, spec_to_dict

#: Version of the shard-spec / shard-artifact envelope (the ``shard`` block
#: and the plan-document layout).  Bump on any change to either.
DISTRIB_SCHEMA_VERSION = 1


class MergeError(ValueError):
    """A shard set cannot be merged (version/provenance/coverage mismatch)."""


# -- job serialization ------------------------------------------------------
def job_to_dict(job: CampaignJob,
                validate: bool = True) -> Dict[str, object]:
    """One campaign job as a JSON-serializable dict (lossless)."""
    return {"spec": spec_to_dict(job.spec, validate=validate),
            "schedule": job.schedule}


def job_from_dict(document: Mapping[str, object]) -> CampaignJob:
    """Reconstruct a :class:`CampaignJob` written by :func:`job_to_dict`."""
    return CampaignJob(spec=spec_from_dict(document["spec"]),
                       schedule=str(document["schedule"]))


def space_fingerprint(jobs: Sequence[CampaignJob]) -> str:
    """Deterministic digest of the complete job list (scenario-space
    provenance).  Two shards merge only when they were planned from job
    lists with identical fingerprints — same specs, same schedules, same
    monolithic order."""
    # One serialization pass: this dump both canonicalizes and validates
    # (per-spec probe dumps would double the cost of planning large grids).
    try:
        canonical = json.dumps([job_to_dict(job, validate=False)
                                for job in jobs],
                               sort_keys=True, separators=(",", ":"))
    except TypeError as error:
        raise ValueError(
            f"campaign jobs cannot be serialized to JSON (a spec "
            f"config_overrides value is not JSON-compatible): {error}"
        ) from error
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- planning ---------------------------------------------------------------
def shard_span(index: int, count: int, total_jobs: int) -> Tuple[int, int]:
    """The canonical ``[start, stop)`` span of shard *index* of *count*.

    The single source of truth for the split rule: the planner slices by it,
    the merger validates declared spans against it, and the partial-merge
    gap report derives missing spans from it.
    """
    return index * total_jobs // count, (index + 1) * total_jobs // count


@dataclass(frozen=True)
class CampaignShard:
    """One host's self-contained slice of a campaign's job list."""

    index: int
    count: int
    #: Span of this shard in the monolithic job order: ``[start, stop)``.
    start: int
    stop: int
    total_jobs: int
    fingerprint: str
    jobs: Tuple[CampaignJob, ...]

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    def as_document(self) -> Dict[str, object]:
        """The shard spec as a shippable JSON document."""
        return {
            "schema_version": SCHEMA_VERSION,
            "distrib_schema_version": DISTRIB_SCHEMA_VERSION,
            "shard": self.provenance(),
            # plan_shards' fingerprint pass already proved every job
            # JSON-serializable; skip the per-spec probe dumps.
            "jobs": [job_to_dict(job, validate=False) for job in self.jobs],
        }

    def provenance(self) -> Dict[str, object]:
        """The ``shard`` provenance block embedded in spec and result
        artifacts alike."""
        return {
            "index": self.index,
            "count": self.count,
            "start": self.start,
            "stop": self.stop,
            "total_jobs": self.total_jobs,
            "fingerprint": self.fingerprint,
        }

    def write_json(self, path) -> None:
        write_json(path, self.as_document())

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "CampaignShard":
        _require_version(document, "schema_version", SCHEMA_VERSION,
                         "shard spec")
        _require_version(document, "distrib_schema_version",
                         DISTRIB_SCHEMA_VERSION, "shard spec")
        shard = document["shard"]
        jobs = tuple(job_from_dict(entry) for entry in document["jobs"])
        if len(jobs) != shard["stop"] - shard["start"]:
            raise ValueError(
                f"shard spec carries {len(jobs)} jobs but declares the span "
                f"[{shard['start']}, {shard['stop']})"
            )
        return cls(index=int(shard["index"]), count=int(shard["count"]),
                   start=int(shard["start"]), stop=int(shard["stop"]),
                   total_jobs=int(shard["total_jobs"]),
                   fingerprint=str(shard["fingerprint"]), jobs=jobs)

    @classmethod
    def read_json(cls, path) -> "CampaignShard":
        with open(path) as handle:
            return cls.from_document(json.load(handle))


def plan_shards(source: Union[Campaign, Sequence[CampaignJob]],
                count: int) -> List[CampaignShard]:
    """Split a campaign (or an explicit job list) into *count* shards.

    Shards are contiguous slices of the monolithic job order, sized within
    one job of each other (``i·M/N`` boundaries), so uneven splits are
    handled and merge order equals job order.  Planning is deterministic:
    any host planning the same campaign produces identical shards.
    """
    jobs = list(source.jobs()) if isinstance(source, Campaign) else list(source)
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not jobs:
        raise ValueError("cannot shard an empty job list")
    if count > len(jobs):
        raise ValueError(
            f"cannot split {len(jobs)} job(s) into {count} shards "
            f"(every shard must own at least one job)"
        )
    fingerprint = space_fingerprint(jobs)
    shards = []
    for index in range(count):
        start, stop = shard_span(index, count, len(jobs))
        shards.append(CampaignShard(
            index=index, count=count, start=start, stop=stop,
            total_jobs=len(jobs), fingerprint=fingerprint,
            jobs=tuple(jobs[start:stop]),
        ))
    return shards


# -- execution --------------------------------------------------------------
@dataclass
class ShardRun:
    """The collected outcomes of one executed shard."""

    shard: CampaignShard
    run: CampaignRun

    def as_document(self, deterministic: bool = True) -> Dict[str, object]:
        """A campaign result document plus the shard provenance block.

        Deterministic by default: shard artifacts exist to be merged, and
        only deterministic rows recombine bitwise-identically to a
        single-host run.  The result layout is delegated to
        :meth:`CampaignRun.as_document` so there is exactly one source of
        truth for the key order the merger's bitwise contract depends on.
        """
        document: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "distrib_schema_version": DISTRIB_SCHEMA_VERSION,
            "shard": self.shard.provenance(),
        }
        body = self.run.as_document(deterministic)
        body.pop("schema_version")
        document.update(body)
        return document

    def write_json(self, path, deterministic: bool = True) -> None:
        write_json(path, self.as_document(deterministic))

    def write_csv(self, path, deterministic: bool = True) -> None:
        self.run.write_csv(path, deterministic=deterministic)


def run_shard(shard: CampaignShard, workers: int = 1,
              mp_context: Optional[str] = None,
              batch_size: Optional[int] = None) -> ShardRun:
    """Execute one shard on the standard campaign worker-pool path."""
    run = run_jobs(list(shard.jobs), workers=workers, mp_context=mp_context,
                   batch_size=batch_size)
    return ShardRun(shard=shard, run=run)


# -- merging ----------------------------------------------------------------
def _require_version(document: Mapping[str, object], key: str, expected: int,
                     what: str) -> None:
    found = document.get(key)
    if found != expected:
        raise MergeError(
            f"{what} has {key}={found!r}, expected {expected} — refusing to "
            f"combine artifacts across schema versions"
        )


#: The integer fields of a shard provenance block.
_PROVENANCE_INTS = ("index", "count", "start", "stop", "total_jobs")


def _shard_provenance(document: object, what: str) -> Mapping[str, object]:
    """The provenance block of one shard result header, after the checks
    every merge shares: a JSON object, the row and envelope schema
    versions, and a ``shard`` block whose span fields are JSON integers and
    whose fingerprint is a string.  Raises :class:`MergeError`."""
    if not isinstance(document, Mapping):
        raise MergeError(f"{what} is not a JSON object")
    _require_version(document, "schema_version", SCHEMA_VERSION, what)
    _require_version(document, "distrib_schema_version",
                     DISTRIB_SCHEMA_VERSION, what)
    shard = document.get("shard")
    if not isinstance(shard, Mapping):
        raise MergeError(f"{what} carries no shard provenance block")
    for key in _PROVENANCE_INTS:
        if type(shard.get(key)) is not int:
            raise MergeError(f"{what}'s shard provenance lacks an integer "
                             f"{key!r}: {shard.get(key)!r}")
    if type(shard.get("fingerprint")) is not str:
        raise MergeError(f"{what}'s shard provenance lacks a fingerprint "
                         f"string")
    return shard


@dataclass(frozen=True)
class MergePlan:
    """The validated layout of one shard merge — everything but the rows.

    Produced by :func:`plan_merge`; the merge engine
    (:func:`repro.explore.store.merge_shards`) is built from it and fed the
    shards in :attr:`order`.
    """

    count: int
    total_jobs: int
    fingerprint: str
    columns: Tuple[str, ...]
    #: Shard indexes present / absent (absent only when planned partial).
    present: Tuple[int, ...]
    missing: Tuple[int, ...]
    #: Positions of the input documents in shard-index order — the order
    #: their rows concatenate in.
    order: Tuple[int, ...]
    #: Declared row count of each input document (input order, not shard
    #: order); already validated against the canonical spans.
    row_counts: Tuple[int, ...]

    @property
    def row_count(self) -> int:
        return sum(self.row_counts)

    def header(self) -> Dict[str, object]:
        """The merged document minus ``row_count``/``rows``."""
        return merged_header(self.columns, self.count, self.total_jobs,
                             self.fingerprint, self.missing)


def merged_header(columns: Sequence[str], count: int, total_jobs: int,
                  fingerprint: str,
                  missing: Collection[int] = ()) -> Dict[str, object]:
    """The header of a merged document — the exact key order of
    ``CampaignRun.as_document(deterministic=True)`` (bitwise contract) —
    plus, when shards are *missing*, the ``partial`` block naming the
    present shards and the missing spans."""
    merged: Dict[str, object] = {"schema_version": SCHEMA_VERSION,
                                 "columns": list(columns)}
    if missing:
        merged["partial"] = {
            "count": count,
            "total_jobs": total_jobs,
            "fingerprint": fingerprint,
            "present": [index for index in range(count)
                        if index not in missing],
            "missing": missing_shard_spans(missing, count, total_jobs),
        }
    return merged


def plan_merge(documents: Sequence[Mapping[str, object]],
               partial: bool = False,
               row_counts: Optional[Sequence[Optional[int]]] = None,
               ) -> MergePlan:
    """Validate a shard artifact set and plan its merge without touching rows.

    *documents* are shard result artifacts — or row-less *headers* of them,
    in which case *row_counts* supplies each document's row count (the CLI
    ``merge``, which validates every artifact before re-reading any rows).
    The whole-set validation of every offline merge lives here: schema
    versions, typed provenance, single fingerprint/count/total, exactly-once
    index coverage (``partial=True`` tolerates gaps), canonical spans,
    column agreement and per-span row counts.  Raises :class:`MergeError`.
    """
    if not documents:
        raise MergeError("no shard artifacts to merge")
    declared: List[Optional[int]] = (list(row_counts) if row_counts is not None
                                     else [None] * len(documents))
    if len(declared) != len(documents):
        raise MergeError("row_counts does not match the artifact list")
    for position, document in enumerate(documents):
        what = f"shard artifact #{position}"
        _shard_provenance(document, what)
        if "adaptive_schema_version" in document:
            raise MergeError(f"{what} is an adaptive artifact, not a "
                             f"campaign shard")
        if declared[position] is None and isinstance(document.get("rows"),
                                                     list):
            declared[position] = len(document["rows"])
        if declared[position] is None or "columns" not in document:
            hint = (" (a shard *spec* file, not a shard result artifact?)"
                    if "jobs" in document else "")
            raise MergeError(f"{what} carries no result rows/columns{hint}")
        if not isinstance(document["columns"], list) or \
                set(map(type, document["columns"])) - {str}:
            raise MergeError(f"{what} declares no column-name list")

    def provenance(document) -> Dict[str, object]:
        return document["shard"]

    counts = {provenance(d)["count"] for d in documents}
    if len(counts) != 1:
        raise MergeError(f"shard counts disagree: {sorted(counts)}")
    count = counts.pop()
    fingerprints = {provenance(d)["fingerprint"] for d in documents}
    if len(fingerprints) != 1:
        raise MergeError(
            "scenario-space fingerprints disagree — the shards were planned "
            f"from different campaigns: {sorted(fingerprints)}"
        )
    fingerprints_value = fingerprints.pop()
    totals = {provenance(d)["total_jobs"] for d in documents}
    if len(totals) != 1:
        raise MergeError(f"total job counts disagree: {sorted(totals)}")
    total_jobs = totals.pop()

    indexes = sorted(provenance(d)["index"] for d in documents)
    # One Counter pass: coordinator-scale merges hand this hundreds of
    # shards, where the old indexes.count(i)-per-element scan was O(n²).
    index_counts = Counter(indexes)
    duplicates = sorted(index for index, times in index_counts.items()
                        if times > 1)
    if duplicates:
        raise MergeError(f"overlapping shards: index(es) {duplicates} "
                         f"supplied more than once")
    missing = sorted(set(range(count)) - index_counts.keys())
    if sorted(index_counts.keys() - set(range(count))):
        raise MergeError(f"shard indexes {indexes} exceed the shard count "
                         f"{count}")
    if missing and not partial:
        raise MergeError(f"incomplete shard set: missing shard index(es) "
                         f"{missing} of {count}")

    columns = [list(d["columns"]) for d in documents]
    if any(c != columns[0] for c in columns[1:]):
        raise MergeError("shard artifacts disagree on the column list "
                         "(mixed deterministic/timing artifacts?)")

    order = sorted(range(len(documents)),
                   key=lambda position: provenance(documents[position])["index"])
    for position in order:
        document = documents[position]
        shard = provenance(document)
        start, stop = shard["start"], shard["stop"]
        # Spans are a pure function of (index, count, total): validating
        # against the canonical formula catches overlaps and doctored spans
        # whether or not the neighbouring shard is present.
        expected_start, expected_stop = shard_span(shard["index"], count,
                                                   total_jobs)
        if start != expected_start:
            kind = "overlapping" if start < expected_start else "gapped"
            raise MergeError(
                f"{kind} shard spans: shard {shard['index']} starts at job "
                f"{start}, expected {expected_start}"
            )
        if stop != expected_stop:
            raise MergeError(
                f"shard {shard['index']} declares the span [{start}, {stop}),"
                f" expected [{expected_start}, {expected_stop}) for "
                f"{total_jobs} jobs in {count} shard(s)"
            )
        row_count = declared[position]
        if row_count != stop - start or \
                document.get("row_count") != row_count:
            raise MergeError(
                f"shard {shard['index']} carries {row_count} row(s) for the "
                f"span [{start}, {stop})"
            )

    return MergePlan(
        count=count, total_jobs=total_jobs, fingerprint=fingerprints_value,
        columns=tuple(columns[0]),
        present=tuple(i for i in range(count) if i not in missing),
        missing=tuple(missing), order=tuple(order),
        row_counts=tuple(declared),
    )


def validate_shard_result(document: Mapping[str, object], *,
                          count: int, total_jobs: int, fingerprint: str,
                          columns: Optional[Sequence[str]] = None,
                          actual_rows: int) -> int:
    """Validate a single shard result's row-less header against a plan.

    The per-shard half of :func:`plan_merge`, for callers that receive
    shard results one at a time instead of as a complete set — the
    incremental streaming merge behind the live coordinator
    (:class:`repro.explore.store.IncrementalShardMerge`), which passes a
    decoded :class:`~repro.explore.store.ShardBlock`'s header and its array
    length as *actual_rows*.  Checks schema and envelope versions, the
    provenance block (shard count, total job count, scenario-space
    fingerprint), the canonical ``i·M/N`` span, the declared and actual row
    counts, and — when *columns* is given — the column list.  Returns the
    shard index; raises :class:`MergeError` on any mismatch, so a worker
    returning a doctored, truncated or foreign-campaign result is rejected
    before any of its rows land anywhere.
    """
    what = "shard result"
    shard = _shard_provenance(document, what)
    index = shard["index"]
    if shard["count"] != count:
        raise MergeError(f"{what} was planned into {shard['count']} shard(s),"
                         f" expected {count}")
    if shard["total_jobs"] != total_jobs:
        raise MergeError(f"{what} declares {shard['total_jobs']} total "
                         f"job(s), expected {total_jobs}")
    if shard["fingerprint"] != fingerprint:
        raise MergeError(
            "scenario-space fingerprints disagree — the shard was planned "
            f"from a different campaign: {shard['fingerprint']!r}")
    if not 0 <= index < count:
        raise MergeError(f"shard index {index} exceeds the shard count "
                         f"{count}")
    expected_start, expected_stop = shard_span(index, count, total_jobs)
    if (shard["start"], shard["stop"]) != (expected_start, expected_stop):
        raise MergeError(
            f"shard {index} declares the span [{shard['start']}, "
            f"{shard['stop']}), expected [{expected_start}, {expected_stop})")
    actual = int(actual_rows)
    if actual != expected_stop - expected_start or \
            document.get("row_count") != actual:
        raise MergeError(f"shard {index} carries {actual} row(s) for the "
                         f"span [{expected_start}, {expected_stop})")
    if columns is not None and list(document.get("columns", ())) != \
            list(columns):
        raise MergeError(f"shard {index} disagrees on the column list "
                         f"(mixed deterministic/timing artifacts?)")
    return index


def merge_shard_documents(
        documents: Sequence[Mapping[str, object]],
        partial: bool = False) -> Dict[str, object]:
    """Validate and recombine shard result documents into one result set.

    The returned document has exactly the layout of
    ``CampaignRun.as_document(deterministic=True)`` — for deterministic shard
    artifacts it is bitwise identical (after ``json.dump``) to the artifact
    of a monolithic single-host run.  Raises :class:`MergeError` when the
    shards do not form exactly one complete, non-overlapping cover of one
    campaign.

    ``partial=True`` additionally accepts an *incomplete* shard set (lost
    hosts, straggler shards): the present shards still have to agree on
    provenance, sit on their canonical ``i·M/N`` spans and not overlap, and
    their rows are recombined in shard order.  When shards are actually
    missing, the returned document carries a ``partial`` block (present and
    missing spans — the re-plan worklist) instead of masquerading as a
    complete artifact; a complete set degrades to the ordinary bitwise merge.

    The set is validated by :func:`plan_merge`, then merged by the one merge
    engine (:func:`repro.explore.store.merge_shards`) into memory and read
    back; rows the engine cannot store raise
    :class:`~repro.explore.store.StoreError`.
    """
    from repro.explore.store import merge_shards

    plan = plan_merge(documents, partial=partial)
    return merge_shards(
        plan, (documents[position] for position in plan.order)).document()


def missing_shard_spans(missing: Sequence[int], count: int,
                        total_jobs: int) -> List[Dict[str, int]]:
    """The canonical ``[start, stop)`` spans of the missing shard indexes —
    the gaps a re-plan has to cover."""
    spans = []
    for index in sorted(missing):
        start, stop = shard_span(index, count, total_jobs)
        spans.append({"index": index, "start": start, "stop": stop})
    return spans


def replan_document(merged: Mapping[str, object]) -> Dict[str, object]:
    """A re-plan worklist for the gaps of a partial merge.

    The returned document names the missing shards of the original plan —
    each gap is exactly the job span of one ``campaign --shard I/N`` rerun
    against the same grid (the fingerprint pins the scenario space).  Raises
    :class:`ValueError` when *merged* has no gaps.
    """
    block = merged.get("partial")
    if not isinstance(block, Mapping) or not block.get("missing"):
        raise ValueError("merged document has no gaps to re-plan")
    return {
        "schema_version": SCHEMA_VERSION,
        "distrib_schema_version": DISTRIB_SCHEMA_VERSION,
        "kind": "replan",
        "fingerprint": block["fingerprint"],
        "count": block["count"],
        "total_jobs": block["total_jobs"],
        "missing": list(block["missing"]),
    }


def load_artifact(path) -> Dict[str, object]:
    """Load one JSON artifact (shard, campaign or adaptive) from disk; bytes
    that are not a JSON object, nested too deep for the parser included,
    raise :class:`ValueError` naming *path*."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except (ValueError, RecursionError) as error:
            raise ValueError(
                f"{path}: not a JSON artifact: {error}") from error
    if not isinstance(document, dict):
        raise ValueError(f"{path}: artifact is not a JSON object")
    return document
