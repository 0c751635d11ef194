"""Appendable columnar result store, the shard block and the merge engine.

* :class:`ColumnarStore` — a directory of typed numpy column chunks
  (``chunk-NNNNNN.npz``, one array per column) plus a ``manifest.json``
  carrying the result schema, free-form provenance ``metadata``, the
  *document header* (the exact key prefix of the JSON artifact the rows
  belong to) and each chunk's row count and SHA-256.  Writers append in
  bounded buffers, readers stream chunk by chunk.  Created without a path,
  the store keeps its chunks as in-memory arrays and writes nothing.
* :func:`store_campaign_run` / :func:`store_shard_run` /
  :func:`store_adaptive_result` — persist the existing result objects.
* :func:`encode_shard_block` / :func:`decode_shard_block` — the one format
  a completed span travels in from worker to coordinator: a CRC-guarded
  JSON header with a per-column ``(dtype, byte length)`` layout, then each
  column's raw buffer.
* :class:`IncrementalShardMerge` — the one merge engine: it ingests shard
  blocks in any order into a store kept in canonical shard order.  The
  live coordinator feeds it blocks as spans complete; every offline merge
  (CLI ``merge``, :func:`~repro.explore.distrib.merge_shard_documents`,
  sharded adaptive rounds) validates its shard set with
  :func:`~repro.explore.distrib.plan_merge` and feeds it through
  :func:`merge_shards`.
* :func:`write_document_json` — stream a store back out through
  :func:`repro.explore.artifact.write_json`, **bitwise identical** to
  ``CampaignRun.write_json(deterministic=True)`` of the monolithic run
  (pinned by ``tests/explore/test_store.py`` and the CI shard-smoke
  ``cmp`` step).  CSV output is
  ``write_csv(path, store.columns, store.iter_rows())``.

Column dtypes are *schema-typed*, not inferred: every known result column
(:data:`repro.explore.campaign.RESULT_COLUMNS` plus the adaptive provenance
columns) has a declared int64/float64/bool/str kind, so values survive the
npz and block round trips with their JSON types intact (an int column never
comes back ``1.0``).  Unknown columns fall back to numpy's inference and
are rejected when it produces an ``object`` array.

The on-disk layout itself is versioned (``store_schema_version`` =
:data:`STORE_SCHEMA_VERSION`) independently of the row schema it carries.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import re
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.explore.artifact import atomic_write, write_json
from repro.explore.campaign import (
    RESULT_COLUMNS,
    SCHEMA_VERSION,
)
from repro.explore.distrib import (
    MergeError,
    MergePlan,
    merged_header,
    validate_shard_result,
)
from repro.explore.metrics import DRAIN_ROW_BUCKETS

#: Version of the on-disk store layout (manifest + chunk files).  Independent
#: of the row schema (``schema_version``) the store carries.  Version 2 added
#: the manifest's ``sha256`` checksum, version 3 the per-chunk
#: ``chunk_sha256`` digests.
STORE_SCHEMA_VERSION = 3

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: The only file names a manifest may list as chunks (plain names, so a
#: manifest cannot point outside its directory).
_CHUNK_NAME = re.compile(r"chunk-[0-9]{6,}\.npz")

#: The files a first write leaves when it crashes before its manifest
#: commits: chunks, and the temp files of :func:`atomic_write`.
_FIRST_WRITE_DEBRIS = re.compile(
    r"chunk-[0-9]{6,}\.npz"
    r"|\.(?:chunk-[0-9]{6,}\.npz|manifest\.json)\.[0-9a-f]{12}\.tmp")

#: Every manifest key and the JSON type its value must have.
_MANIFEST_TYPES = {
    "store_schema_version": int, "schema_version": int, "columns": list,
    "row_count": int, "chunk_rows": int, "chunks": list,
    "chunk_row_counts": list, "chunk_sha256": list, "document_header": dict,
    "metadata": dict, "sha256": str,
}

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")

#: Default rows per column chunk: large enough that per-chunk overhead
#: (file open, npz header) amortizes, small enough that a chunk buffer stays
#: a few megabytes even with every column present.
DEFAULT_CHUNK_ROWS = 8192

_STR_COLUMNS = ("scenario", "kind", "schedule", "strategy", "strategy_params")
_FLOAT_COLUMNS = ("compression_ratio", "power_budget", "test_length_mcycles",
                  "peak_tam_utilization", "avg_tam_utilization", "peak_power",
                  "avg_power", "cpu_seconds", "budget", "surrogate_peak_power")
_BOOL_COLUMNS = ("survivor", "race_stopped")

#: Declared dtype kind per known column ("int"/"float"/"str"/"bool").  Every
#: campaign column and adaptive provenance column is covered; ints stay
#: int64 so JSON artifacts regenerated from a store keep integer literals.
COLUMN_KINDS: Dict[str, str] = {
    **{column: "int"
       for column in RESULT_COLUMNS + ("round", "surrogate_cycles")},
    **{column: "str" for column in _STR_COLUMNS},
    **{column: "float" for column in _FLOAT_COLUMNS},
    **{column: "bool" for column in _BOOL_COLUMNS},
}

_KIND_DTYPES = {"int": np.dtype(np.int64), "float": np.dtype(np.float64),
                "bool": np.dtype(bool)}


class StoreError(ValueError):
    """A store directory is missing, malformed or misused."""


def _manifest_digest(manifest: Mapping[str, object]) -> str:
    """SHA-256 of a manifest without its ``sha256`` key."""
    return hashlib.sha256(
        json.dumps(manifest, indent=2).encode("utf-8")).hexdigest()


def _read_manifest(path: Path) -> Dict[str, object]:
    """The validated manifest of the store at *path*; every defect (torn or
    corrupted bytes, a missing key, a wrong type, a chunk name that is not a
    plain ``chunk-N.npz``, row counts or digests that do not cover the
    chunks) raises StoreError."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise StoreError(f"{path} is not a columnar store "
                         f"(no {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except (ValueError, RecursionError) as error:
        raise StoreError(
            f"{manifest_path} is not valid JSON: {error}") from error
    if not isinstance(manifest, dict):
        raise StoreError(f"{manifest_path} is not a JSON object")
    version = manifest.get("store_schema_version")
    if version != STORE_SCHEMA_VERSION:
        raise StoreError(
            f"{path} has store_schema_version={version!r}, expected "
            f"{STORE_SCHEMA_VERSION}")
    for key, kind in _MANIFEST_TYPES.items():
        if type(manifest.get(key)) is not kind:
            raise StoreError(f"{manifest_path}: {key!r} is missing or not "
                             f"a JSON {kind.__name__}")
    if manifest.pop("sha256") != _manifest_digest(manifest):
        raise StoreError(f"{manifest_path} does not match its checksum")
    columns, chunks = manifest["columns"], manifest["chunks"]
    counts = manifest["chunk_row_counts"]
    if not columns or len(set(columns)) != len(columns) or \
            not all(type(column) is str for column in columns):
        raise StoreError(f"{manifest_path}: columns must be distinct strings")
    if len(set(chunks)) != len(chunks) or not all(
            type(name) is str and _CHUNK_NAME.fullmatch(name)
            for name in chunks):
        raise StoreError(f"{manifest_path}: chunks must be distinct plain "
                         f"chunk-N.npz file names")
    if len(counts) != len(chunks) or \
            not all(type(count) is int and count > 0 for count in counts) \
            or sum(counts) != manifest["row_count"]:
        raise StoreError(f"{manifest_path}: chunk_row_counts must be one "
                         f"positive count per chunk adding up to row_count")
    if len(manifest["chunk_sha256"]) != len(chunks) or not all(
            type(digest) is str and _SHA256_HEX.fullmatch(digest)
            for digest in manifest["chunk_sha256"]):
        raise StoreError(f"{manifest_path}: chunk_sha256 must be one "
                         f"SHA-256 hex digest per chunk")
    if manifest["chunk_rows"] < 1:
        raise StoreError(f"{manifest_path}: chunk_rows must be >= 1")
    missing = [name for name in chunks if not (path / name).is_file()]
    if missing:
        raise StoreError(f"{path} lacks chunk file(s) {missing}")
    return manifest


def _column_array(column: str, values: Sequence[object]) -> np.ndarray:
    """One column buffer as a typed numpy array (schema-typed dtypes).

    Already-typed arrays (a decoded shard block's columns) pass straight
    through — ``np.asarray`` with a matching dtype is a no-copy view, and
    the str branch skips its per-value conversion entirely.
    """
    kind = COLUMN_KINDS.get(column)
    if kind == "str":
        if isinstance(values, np.ndarray) and values.dtype.kind == "U":
            return values
        return np.asarray([str(value) for value in values], dtype=np.str_)
    if kind in _KIND_DTYPES:
        try:
            return np.asarray(values, dtype=_KIND_DTYPES[kind])
        except (TypeError, ValueError, OverflowError) as error:
            raise StoreError(f"column {column!r} holds a value its {kind} "
                             f"dtype cannot represent: {error}") from error
    array = np.asarray(values)
    if array.dtype == object:
        raise StoreError(
            f"column {column!r} holds mixed/unsupported values; only "
            f"int/float/bool/str columns can be stored"
        )
    if array.dtype.kind == "U":
        return array
    if array.dtype.kind in "iu":
        if array.dtype.kind == "u" and array.size and \
                array.max() > np.iinfo(np.int64).max:
            raise StoreError(f"column {column!r} holds a value its int dtype "
                             f"cannot represent")
        return array.astype(np.int64)
    if array.dtype.kind == "f":
        return array.astype(np.float64)
    if array.dtype.kind == "b":
        return array
    raise StoreError(f"column {column!r} has unsupported dtype {array.dtype}")


class ColumnarStore:
    """An appendable directory of typed numpy column chunks — or, created
    with ``path=None``, the same chunks held in memory (no files, no
    manifest).

    Create with :meth:`create` (write mode: :meth:`append_row` /
    :meth:`append_rows` / :meth:`append_columns`, then :meth:`close` — or use
    the instance as a context manager), reopen with :meth:`open` (read mode).
    Readers stream: :meth:`iter_column_chunks` yields one column mapping per
    chunk, :meth:`iter_rows` re-materializes dict rows with native Python
    scalars (``.tolist()``), which is what keeps regenerated JSON/CSV
    artifacts bitwise identical to the dict-of-lists writers.
    """

    def __init__(self, path: Path, columns: Sequence[str],
                 schema_version: int, document_header: Mapping[str, object],
                 metadata: Mapping[str, object], chunk_rows: int,
                 writable: bool,
                 chunks: Optional[List[str]] = None,
                 chunk_row_counts: Optional[List[int]] = None,
                 chunk_sha256: Optional[List[str]] = None,
                 row_count: int = 0):
        self.path = None if path is None else Path(path)
        self._columns: Tuple[str, ...] = tuple(columns)
        self._schema_version = int(schema_version)
        self._document_header = dict(document_header)
        self._metadata = dict(metadata)
        self._chunk_rows = int(chunk_rows)
        self._writable = writable
        self._chunks: List[str] = list(chunks or [])
        self._chunk_row_counts: List[int] = list(chunk_row_counts or [])
        self._chunk_sha256: List[str] = list(chunk_sha256 or [])
        # The chunks of a store without a path.
        self._memory: List[Dict[str, np.ndarray]] = []
        self._row_count = int(row_count)
        self._buffer: List[List[object]] = [[] for _ in self._columns]
        # Typed column blocks awaiting coalescing into full-size chunks
        # (append_columns buffers here; _drain_segments writes them out).
        self._segments: List[Dict[str, np.ndarray]] = []
        self._segment_rows = 0
        # Chunk names of the committed store a rewrite replaces: it stays
        # readable until close() commits the new manifest.
        self._replaced: frozenset = frozenset()
        self._next_chunk = 0

    # -- lifecycle ----------------------------------------------------------
    @classmethod
    def create(cls, path, columns: Sequence[str],
               schema_version: int = SCHEMA_VERSION,
               document_header: Optional[Mapping[str, object]] = None,
               metadata: Optional[Mapping[str, object]] = None,
               chunk_rows: int = DEFAULT_CHUNK_ROWS) -> "ColumnarStore":
        """Create (or atomically replace) a store directory for writing;
        ``path=None`` makes an in-memory store.

        An existing store stays intact and readable until :meth:`close`
        commits the new manifest; only then are the chunks it no longer
        lists deleted.  A crash before that leaves the old store.  A
        directory without a manifest is refused unless it holds only what
        a crashed first write leaves (chunks and temp files), which is
        deleted.
        """
        if chunk_rows < 1:
            raise StoreError("chunk_rows must be >= 1")
        if not columns:
            raise StoreError("a store needs at least one column")
        replaced: List[str] = []
        if path is not None:
            path = Path(path)
            if not path.exists():
                path.mkdir(parents=True)
            elif not path.is_dir():
                raise StoreError(f"{path} exists and is not a directory")
            elif (path / MANIFEST_NAME).exists():
                replaced = _read_manifest(path)["chunks"]
            else:
                entries = list(path.iterdir())
                if not all(entry.is_file()
                           and _FIRST_WRITE_DEBRIS.fullmatch(entry.name)
                           for entry in entries):
                    raise StoreError(
                        f"{path} exists, is not empty and carries no "
                        f"{MANIFEST_NAME} — refusing to overwrite")
                for entry in entries:
                    entry.unlink()
        store = cls(path, columns=columns, schema_version=schema_version,
                    document_header=document_header or {},
                    metadata=metadata or {}, chunk_rows=chunk_rows,
                    writable=True)
        store._replaced = frozenset(replaced)
        return store

    @classmethod
    def open(cls, path) -> "ColumnarStore":
        """Open an existing store directory for streaming reads; a missing
        or malformed manifest raises :class:`StoreError`."""
        path = Path(path)
        manifest = _read_manifest(path)
        return cls(path, columns=manifest["columns"],
                   schema_version=manifest["schema_version"],
                   document_header=manifest["document_header"],
                   metadata=manifest["metadata"],
                   chunk_rows=manifest["chunk_rows"],
                   writable=False,
                   chunks=manifest["chunks"],
                   chunk_row_counts=manifest["chunk_row_counts"],
                   chunk_sha256=manifest["chunk_sha256"],
                   row_count=manifest["row_count"])

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    # -- introspection ------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def schema_version(self) -> int:
        return self._schema_version

    @property
    def row_count(self) -> int:
        if not self._writable:
            return self._row_count
        return self._row_count + len(self._buffer[0]) + self._segment_rows

    @property
    def chunk_count(self) -> int:
        return len(self._chunk_row_counts)

    @property
    def document_header(self) -> Dict[str, object]:
        return dict(self._document_header)

    @property
    def metadata(self) -> Dict[str, object]:
        return dict(self._metadata)

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self):
        return (f"ColumnarStore({str(self.path)!r}, {self.row_count} rows in "
                f"{self.chunk_count} chunk(s), "
                f"{len(self._columns)} columns)")

    # -- writing ------------------------------------------------------------
    def _require_writable(self) -> None:
        if not self._writable:
            raise StoreError(f"{self.path} is not open for writing")

    def append_row(self, row: Mapping[str, object]) -> None:
        """Buffer one dict row (must cover every store column)."""
        self._require_writable()
        try:
            for buffer, column in zip(self._buffer, self._columns):
                buffer.append(row[column])
        except KeyError as error:
            raise StoreError(f"row is missing column {error.args[0]!r}")
        if len(self._buffer[0]) >= self._chunk_rows:
            self.flush()

    def append_rows(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            self.append_row(row)

    def append_columns(self, columns: Mapping[str, Sequence[object]]) -> None:
        """Append a block of whole columns (the vectorized fast path).

        Blocks are typed immediately but *coalesced* before hitting disk:
        consecutive blocks accumulate until ``chunk_rows`` rows are pending,
        then drain as full-size chunks.  Many small blocks — the streaming
        merge appending one shard at a time, or the coordinator ingesting
        decoded completion payloads — therefore cost one npz write per
        ``chunk_rows`` rows instead of one per block.
        """
        self._require_writable()
        missing = [c for c in self._columns if c not in columns]
        if missing:
            raise StoreError(f"column block is missing column(s) {missing}")
        lengths = {len(columns[c]) for c in self._columns}
        if len(lengths) > 1:
            raise StoreError(f"column lengths disagree: {sorted(lengths)}")
        length = lengths.pop()
        if length == 0:
            return
        self._materialize_buffer()
        self._segments.append({c: _column_array(c, columns[c])
                               for c in self._columns})
        self._segment_rows += length
        if self._segment_rows >= self._chunk_rows:
            self._drain_segments(final=False)

    def _materialize_buffer(self) -> None:
        """Convert buffered dict-rows into a typed segment (keeps append_row
        and append_columns interleavings in row order)."""
        buffered = len(self._buffer[0])
        if not buffered:
            return
        self._segments.append({column: _column_array(column, buffer)
                               for column, buffer in zip(self._columns,
                                                         self._buffer)})
        self._segment_rows += buffered
        self._buffer = [[] for _ in self._columns]

    def _drain_segments(self, final: bool) -> None:
        """Write pending segments as chunks; keep a sub-chunk remainder
        buffered unless *final*."""
        total = self._segment_rows
        writable = total if final \
            else (total // self._chunk_rows) * self._chunk_rows
        if not writable:
            return
        if len(self._segments) == 1:
            merged = self._segments[0]
        else:
            merged = {c: np.concatenate([segment[c]
                                         for segment in self._segments])
                      for c in self._columns}
        self._segments, self._segment_rows = [], 0
        for start in range(0, writable, self._chunk_rows):
            stop = min(start + self._chunk_rows, writable)
            self._write_chunk({c: merged[c][start:stop]
                               for c in self._columns}, stop - start)
        if writable < total:
            self._segments = [{c: merged[c][writable:]
                               for c in self._columns}]
            self._segment_rows = total - writable

    def _write_chunk(self, arrays: Mapping[str, np.ndarray],
                     rows: int) -> None:
        if self.path is None:
            self._memory.append(dict(arrays))
        else:
            self._write_chunk_file(arrays)
        self._chunk_row_counts.append(rows)
        self._row_count += rows

    def _write_chunk_file(self, arrays: Mapping[str, np.ndarray]) -> None:
        while True:
            name = f"chunk-{self._next_chunk:06d}.npz"
            self._next_chunk += 1
            if name not in self._replaced:
                break
        # Uncompressed: column blocks are already compact binary and the
        # store optimizes for append/stream throughput, not disk size.
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        data = buffer.getvalue()
        with atomic_write(self.path / name, binary=True) as handle:
            handle.write(data)
        self._chunks.append(name)
        self._chunk_sha256.append(hashlib.sha256(data).hexdigest())

    def flush(self) -> None:
        """Write everything pending (dict rows and column blocks) as chunks."""
        self._require_writable()
        self._materialize_buffer()
        self._drain_segments(final=True)

    def close(self) -> None:
        """Flush and write the manifest; the store then serves reads."""
        if not self._writable:
            return
        self.flush()
        if self.path is None:
            self._writable = False
            return
        manifest = {
            "store_schema_version": STORE_SCHEMA_VERSION,
            "schema_version": self._schema_version,
            "columns": list(self._columns),
            "row_count": self._row_count,
            "chunk_rows": self._chunk_rows,
            "chunks": list(self._chunks),
            "chunk_row_counts": list(self._chunk_row_counts),
            "chunk_sha256": list(self._chunk_sha256),
            "document_header": self._document_header,
            "metadata": self._metadata,
        }
        manifest["sha256"] = _manifest_digest(manifest)
        # The commit point: the manifest replace switches readers from the
        # old chunk set to the new one at once.
        write_json(self.path / MANIFEST_NAME, manifest)
        self._writable = False
        listed = set(self._chunks)
        for chunk in self.path.glob("chunk-*.npz"):
            if chunk.name not in listed:
                chunk.unlink()

    # -- reading ------------------------------------------------------------
    def _require_readable(self) -> None:
        if self._writable:
            raise StoreError(
                f"{self.path} is still open for writing — close() it first")

    def iter_column_chunks(self) -> Iterator[Dict[str, np.ndarray]]:
        """Yield one ``column -> array`` mapping per chunk, in row order; a
        chunk file whose bytes do not match the manifest's digest, or that
        does not read back as its columns and row count, raises
        :class:`StoreError`."""
        self._require_readable()
        if self.path is None:
            yield from self._memory
            return
        for name, rows, digest in zip(self._chunks, self._chunk_row_counts,
                                      self._chunk_sha256):
            chunk_path = self.path / name
            try:
                raw = chunk_path.read_bytes()
            except OSError as error:
                raise StoreError(f"{chunk_path}: unreadable chunk "
                                 f"({error})") from error
            if hashlib.sha256(raw).hexdigest() != digest:
                raise StoreError(f"{chunk_path} is not the chunk of {rows} "
                                 f"rows the manifest lists (SHA-256 "
                                 f"mismatch)")
            try:
                with np.load(io.BytesIO(raw)) as data:
                    chunk = {column: data[column] for column in self._columns}
            # What numpy and zipfile raise for damaged bytes.
            except (zipfile.BadZipFile, zlib.error, OSError, ValueError,
                    KeyError, EOFError, RuntimeError,
                    NotImplementedError) as error:
                raise StoreError(f"{chunk_path}: unreadable chunk "
                                 f"({type(error).__name__}: {error})") from error
            if any(array.shape != (rows,) for array in chunk.values()):
                raise StoreError(f"{chunk_path}: columns do not hold the "
                                 f"{rows} rows the manifest lists")
            yield chunk

    def iter_row_chunks(self) -> Iterator[List[Dict[str, object]]]:
        """Yield one list of dict rows per chunk (native Python scalars)."""
        for chunk in self.iter_column_chunks():
            lists = [chunk[column].tolist() for column in self._columns]
            yield [dict(zip(self._columns, values))
                   for values in zip(*lists)]

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Stream every row as a dict (one chunk in memory at a time)."""
        for rows in self.iter_row_chunks():
            yield from rows

    def rows(self) -> List[Dict[str, object]]:
        """Every row, materialized (convenience for small stores/tests)."""
        return list(self.iter_rows())

    def column(self, name: str) -> np.ndarray:
        """One full column as a single typed array (the analytics view)."""
        self._require_readable()
        if name not in self._columns:
            raise StoreError(f"store has no column {name!r}")
        parts = [chunk[name] for chunk in self.iter_column_chunks()]
        if not parts:
            kind = COLUMN_KINDS.get(name)
            return np.empty(0, dtype=_KIND_DTYPES.get(kind, np.float64))
        return np.concatenate(parts)

    def document(self) -> Dict[str, object]:
        """The full JSON document (header + rows), materialized."""
        document = dict(self._document_header)
        document["row_count"] = self.row_count
        document["rows"] = self.rows()
        return document


# -- persisting result objects ----------------------------------------------
def _store_document(document: Mapping[str, object], path,
                    metadata: Mapping[str, object],
                    chunk_rows: int) -> ColumnarStore:
    """Persist a result document (header keys, then ``row_count`` and
    ``rows``) as a store that :func:`write_document_json` turns back into
    the same bytes as :func:`~repro.explore.artifact.write_json`."""
    header = dict(document)
    rows = header.pop("rows")
    del header["row_count"]
    store = ColumnarStore.create(path, header["columns"],
                                 document_header=header, metadata=metadata,
                                 chunk_rows=chunk_rows)
    with store:
        store.append_rows(rows)
    return store


def store_campaign_run(run, path, deterministic: bool = True,
                       chunk_rows: int = DEFAULT_CHUNK_ROWS) -> ColumnarStore:
    """Persist a :class:`~repro.explore.campaign.CampaignRun` as a store of
    its :meth:`~CampaignRun.as_document`."""
    return _store_document(
        run.as_document(deterministic), path,
        {"kind": "campaign", "deterministic": deterministic}, chunk_rows)


def store_shard_run(result, path, deterministic: bool = True,
                    chunk_rows: int = DEFAULT_CHUNK_ROWS) -> ColumnarStore:
    """Persist a :class:`~repro.explore.distrib.ShardRun` as a store of its
    (mergeable) :meth:`~ShardRun.as_document`."""
    return _store_document(
        result.as_document(deterministic), path,
        {"kind": "shard", "deterministic": deterministic,
         "shard": result.shard.provenance()}, chunk_rows)


def store_adaptive_result(result, path, deterministic: bool = True,
                          chunk_rows: int = DEFAULT_CHUNK_ROWS,
                          ) -> ColumnarStore:
    """Persist an adaptive search's result *rows* (all rounds + provenance
    columns) as a store.

    Adaptive JSON artifacts carry search-definition keys *after* the rows
    (``front``), so they are not reconstructable by the header-then-rows
    streaming writer; the store therefore keeps the row table plus the
    search provenance in ``metadata`` and leaves the checkpoint JSON
    artifact to :meth:`AdaptiveResult.write_json`.  CSV output *is*
    equivalent: ``write_csv(path, store.columns, store.iter_rows())``
    matches :meth:`AdaptiveResult.write_csv` byte for byte.
    """
    from repro.explore.adaptive import ADAPTIVE_SCHEMA_VERSION

    columns = result.columns(deterministic)
    header: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "adaptive_schema_version": ADAPTIVE_SCHEMA_VERSION,
        "columns": columns,
    }
    store = ColumnarStore.create(
        path, columns, document_header=header,
        metadata={
            "kind": "adaptive", "deterministic": deterministic,
            "objectives": [str(o) for o in result.objectives],
            "complete": result.complete,
            "planned_rounds": result.planned_rounds,
            "completed_rounds": len(result.rounds),
            "front_size": len(result.front),
        },
        chunk_rows=chunk_rows)
    with store:
        store.append_rows(result.iter_rows(deterministic))
    return store


# -- binary columnar shard payloads ------------------------------------------
#: Magic prefix of an encoded shard block (layout 2: raw column buffers).
#: Layout 1 (``RSB1``, one ``.npy`` file per column) is refused.
SHARD_BLOCK_MAGIC = b"RSB2"

#: Fixed prefix of a block: magic, u32 header length, u32 layout length,
#: u32 CRC-32 of the rest.
_BLOCK_PREFIX = struct.Struct(">4sIII")

#: The only column dtypes a block may declare: object and void dtypes never
#: reach ``np.frombuffer``.
_BLOCK_DTYPE = re.compile(r"<i8|<f8|\|b1|<U[1-9][0-9]{0,6}")

#: The dtype prefix of each declared column kind.
_KIND_DTYPE_CODES = {"int": "<i8", "float": "<f8", "bool": "|b1", "str": "<U"}


@dataclass(frozen=True)
class ShardBlock:
    """A decoded binary shard result: row-less header + typed column arrays.

    The columnar twin of a shard result *document*: ``header`` is exactly
    the document minus its ``rows`` list (schema/envelope versions, shard
    provenance, column list, declared ``row_count``), ``columns`` maps each
    declared column to a typed numpy array.  Produced by
    :func:`decode_shard_block`; the arrays are read-only views of the
    payload.
    """

    header: Dict[str, object]
    columns: Dict[str, np.ndarray] = field(repr=False)

    @property
    def row_count(self) -> int:
        return int(self.header.get("row_count", 0))

    def document(self) -> Dict[str, object]:
        """Materialize the equivalent dict-row shard document.

        The inverse of :func:`encode_shard_block` — key order matches
        :meth:`~repro.explore.distrib.ShardRun.as_document` (``rows`` last),
        and ``.tolist()`` restores native Python scalars, so the round trip
        is JSON-identical to the original document.
        """
        names = [str(column) for column in self.header.get("columns", ())]
        document = dict(self.header)
        lists = [self.columns[name].tolist() for name in names]
        document["rows"] = [dict(zip(names, values))
                            for values in zip(*lists)]
        return document


def _round_trips(array: np.ndarray, values: Sequence[object]) -> bool:
    """Whether ``array.tolist()`` gives back *values* as the same JSON.

    A typed check instead of serializing both sides: every value must have
    the Python type of the array's kind (``bool`` is not an ``int``, an
    ``int`` is not a ``float``: the dtype would coerce them), and no string
    may end in NUL (numpy's fixed-width unicode drops trailing NULs).
    """
    types = set(map(type, values))
    kind = array.dtype.kind
    if kind == "i":
        return types <= {int}
    if kind == "b":
        return types <= {bool}
    base = float if kind == "f" else str
    if not all(issubclass(value_type, base) for value_type in types):
        return False
    return base is float or "\x00" not in "".join(values) or \
        not any(value.endswith("\x00") for value in values)


def encode_shard_block(document: Mapping[str, object]) -> bytes:
    """Encode a shard result document as a binary columnar payload.

    Layout: :data:`_BLOCK_PREFIX` (magic, big-endian u32 header and
    layout lengths, u32 CRC-32 of the rest), the row-less document as
    compact JSON, the layout as compact JSON — one ``[dtype.str, byte
    length]`` entry per column, typed through the store's schema dtypes —
    then each column's raw little-endian buffer (``array.tobytes()``) in
    column order.
    """
    if not isinstance(document, Mapping):
        raise StoreError("shard block source is not a result document")
    rows = document.get("rows")
    if not isinstance(rows, list):
        raise StoreError("shard block source carries no row list")
    columns = document.get("columns")
    if not isinstance(columns, (list, tuple)) or not columns:
        raise StoreError("shard block source declares no columns")
    header = {key: value for key, value in document.items() if key != "rows"}
    arrays = []
    for column in columns:
        try:
            values = [row[column] for row in rows]
        except KeyError as error:
            raise StoreError(
                f"shard block row is missing column {error.args[0]!r}")
        except TypeError:
            raise StoreError("shard block rows are not JSON objects")
        array = _column_array(str(column), values)
        # The decoded document must serialize to the same JSON: refuse a
        # lossy encode rather than corrupt silently.
        if not _round_trips(array, values):
            raise StoreError(
                f"column {column!r} holds values its {array.dtype} dtype cannot "
                f"store losslessly (NUL-terminated strings, or another kind)")
        arrays.append(array.astype(array.dtype.newbyteorder("<"), copy=False))
    layout = [[array.dtype.str, array.nbytes] for array in arrays]
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    layout_bytes = json.dumps(layout, separators=(",", ":")).encode("utf-8")
    body = b"".join([header_bytes, layout_bytes]
                    + [array.tobytes() for array in arrays])
    return _BLOCK_PREFIX.pack(SHARD_BLOCK_MAGIC, len(header_bytes),
                              len(layout_bytes), zlib.crc32(body)) + body


@functools.lru_cache(maxsize=1024)
def _block_plan(columns: Tuple[str, ...], layout_bytes: bytes) -> tuple:
    """``(entries, body length, row count)`` of a block's layout JSON, one
    ``(column, dtype, count, offset)`` entry per column; memoized by the
    layout's bytes, as a campaign's blocks repeat a few layouts.  Refuses a
    layout that does not cover the columns, a dtype outside
    :data:`_BLOCK_DTYPE` or against the column's declared kind, a ragged
    byte length, and unequal columns.
    """
    try:
        layout = json.loads(layout_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise StoreError(f"corrupt shard block layout: {error}")
    if not isinstance(layout, list) or len(layout) != len(columns):
        raise StoreError(f"shard block layout does not cover its "
                         f"{len(columns)} column(s)")
    entries = []
    offset = 0
    for column, entry in zip(columns, layout):
        if type(entry) is not list or len(entry) != 2 or \
                type(entry[0]) is not str or type(entry[1]) is not int or \
                entry[1] < 0 or not _BLOCK_DTYPE.fullmatch(entry[0]):
            raise StoreError(f"shard block column {column!r} has an invalid "
                             f"layout entry {entry!r}")
        code, length = entry
        expected = _KIND_DTYPE_CODES.get(COLUMN_KINDS.get(column, ""))
        if expected is not None and not code.startswith(expected):
            raise StoreError(f"shard block column {column!r} carries dtype "
                             f"{code}, declared {expected}")
        dtype = np.dtype(code)
        count, ragged = divmod(length, dtype.itemsize)
        if ragged:
            raise StoreError(f"shard block column {column!r} carries "
                             f"{length} byte(s), not a multiple of its "
                             f"{code} items")
        entries.append((column, dtype, count, offset))
        offset += length
    counts = sorted({entry[2] for entry in entries})
    if len(counts) > 1:
        raise StoreError(f"shard block column lengths disagree: {counts}")
    return tuple(entries), offset, counts[0]


def decode_shard_block(payload: Union[bytes, bytearray, memoryview]
                       ) -> ShardBlock:
    """Decode an :func:`encode_shard_block` payload back to a ShardBlock.

    Every structural defect (wrong magic, truncation, checksum mismatch,
    corrupt JSON, a bad layout, disagreeing lengths) raises
    :class:`StoreError` naming the defect before any array is made; no
    declared length is allocated.  Validation against a merge plan stays
    with :func:`~repro.explore.distrib.validate_shard_result`.
    """
    data = bytes(payload)
    size = len(data)
    if not data.startswith(SHARD_BLOCK_MAGIC):
        raise StoreError("not a shard block (bad magic)")
    if size < _BLOCK_PREFIX.size:
        raise StoreError(f"truncated shard block ({size} byte(s))")
    _, header_len, layout_len, checksum = _BLOCK_PREFIX.unpack_from(data)
    body = _BLOCK_PREFIX.size
    base = body + header_len + layout_len
    if size < base:
        raise StoreError(
            f"truncated shard block header ({size} byte(s), header and "
            f"layout need {base})")
    if zlib.crc32(memoryview(data)[body:]) != checksum:
        raise StoreError("corrupt shard block payload (checksum mismatch)")
    try:
        header = json.loads(data[body:body + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise StoreError(f"corrupt shard block header: {error}")
    if not isinstance(header, dict):
        raise StoreError("shard block header is not a JSON object")
    columns = header.get("columns")
    if not isinstance(columns, list) or set(map(type, columns)) != {str}:
        raise StoreError("shard block header declares no columns")
    entries, length, row_count = _block_plan(
        tuple(columns), data[body + header_len:base])
    if size < base + length:
        raise StoreError(f"truncated shard block payload ({size} byte(s), "
                         f"columns need {base + length})")
    if size > base + length:
        raise StoreError(
            f"shard block carries {size - base - length} trailing byte(s)")
    if header.get("row_count") != row_count:
        raise StoreError(
            f"shard block declares {header.get('row_count')!r} row(s) but "
            f"carries {row_count}")
    arrays = {column: np.frombuffer(data, dtype, count, base + offset)
              for column, dtype, count, offset in entries}
    return ShardBlock(header=header, columns=arrays)


class IncrementalShardMerge:
    """The merge engine: shard blocks in any order in, one store in
    canonical shard order out.

    The live coordinator receives shard blocks one at a time, in whatever
    order the worker fleet completes them; offline merges
    (:func:`merge_shards`) feed it a validated shard set in shard order.
    Either way a block whose shard index is next in line is appended to the
    :class:`ColumnarStore` immediately (and its rows dropped), out-of-order
    arrivals are buffered until the gap before them closes.  Peak memory is
    therefore bounded by the out-of-order window, not the campaign: with a
    fleet completing roughly in order it stays at one shard.  *gaps* names
    shards the plan leaves out (a partial merge): the drain steps over
    them, :meth:`finalize` does not wait for them, and the header carries
    the ``partial`` block that names them.  ``store_path=None``
    keeps the rows in memory.

    Every block is validated on arrival against the plan the merge was
    created from (:func:`repro.explore.distrib.validate_shard_result`:
    versions, provenance, canonical span, row counts, column agreement) and
    duplicate shard indexes are rejected — the exactly-once guarantee the
    coordinator's lease bookkeeping relies on.  After :meth:`finalize`, the
    closed store regenerates (:func:`write_document_json`,
    :func:`~repro.explore.artifact.write_csv`) artifacts **bitwise
    identical** to the single-host deterministic run.
    """

    def __init__(self, store_path, *, count: int, total_jobs: int,
                 fingerprint: str, columns: Sequence[str],
                 gaps: Iterable[int] = (),
                 metadata: Optional[Mapping[str, object]] = None,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 metrics=None, log=None):
        self._count = int(count)
        self._total_jobs = int(total_jobs)
        self._fingerprint = str(fingerprint)
        self._columns = tuple(columns)
        self._gaps = frozenset(gaps)
        self._store = ColumnarStore.create(
            store_path, self._columns,
            document_header=merged_header(
                self._columns, self._count, self._total_jobs,
                self._fingerprint, self._gaps),
            metadata={
                "kind": "coordinated-campaign",
                "fingerprint": self._fingerprint,
                "shard_count": self._count,
                "total_jobs": self._total_jobs,
                **dict(metadata or {}),
            },
            chunk_rows=chunk_rows)
        self._next = 0
        self._buffered: Dict[int, Dict[str, np.ndarray]] = {}
        self._merged: set = set()
        # Optional observability plane (repro.explore.metrics): a shared
        # MetricsRegistry and/or StructuredLog; the campaign label keeps
        # multi-campaign coordinators apart on one registry.
        self._campaign = str(dict(metadata or {}).get("campaign", ""))
        self._log = log
        if metrics is not None:
            self._m_rows = metrics.counter(
                "merge_rows_appended_total",
                "Rows drained from the in-order prefix into the store.")
            self._m_drains = metrics.histogram(
                "merge_drain_rows",
                "Rows appended per in-order drain pass.", DRAIN_ROW_BUCKETS)
            self._m_buffered = metrics.gauge(
                "merge_buffered_shards",
                "Accepted shards waiting for an earlier gap to close.")
        else:
            self._m_rows = self._m_drains = self._m_buffered = None

    # -- introspection ------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def merged_count(self) -> int:
        """Shards accepted so far (appended or buffered)."""
        return len(self._merged)

    @property
    def buffered_count(self) -> int:
        """Accepted shards still waiting for an earlier gap to close."""
        return len(self._buffered)

    @property
    def is_complete(self) -> bool:
        return len(self._merged) + len(self._gaps) == self._count

    @property
    def missing(self) -> List[int]:
        """Shards still expected (planned gaps are not expected)."""
        return [index for index in range(self._count)
                if index not in self._merged and index not in self._gaps]

    # -- ingestion ----------------------------------------------------------
    def add_shard_document(self, document: Mapping[str, object],
                           expected_shard: Optional[int] = None) -> int:
        """Encode one shard result document and ingest it through
        :meth:`add_shard_block`; a document the codec cannot encode (rows
        that are not objects, values their column's dtype cannot hold)
        raises :class:`StoreError`."""
        return self.add_shard_block(encode_shard_block(document),
                                    expected_shard)

    def add_shard_block(self, payload: Union[bytes, bytearray, memoryview],
                        expected_shard: Optional[int] = None) -> int:
        """Validate and ingest one shard block; returns its shard index.

        The completion path: the :func:`encode_shard_block` payload is
        decoded straight into typed column arrays, which are buffered and
        appended without the rows ever existing as Python dicts.  The
        decoded header is checked by
        :func:`~repro.explore.distrib.validate_shard_result` (versions,
        provenance, canonical span, row counts, column agreement), with the
        decoded array length as the actual row count.  Raises
        :class:`~repro.explore.distrib.MergeError` for a payload that does
        not decode, a block that does not belong to this merge's plan, a
        block declaring another shard than *expected_shard* (when given),
        or a shard index already ingested (double completion of the same
        span).  A rejected block changes nothing.
        """
        try:
            block = decode_shard_block(payload)
        except StoreError as error:
            raise MergeError(str(error)) from error
        index = validate_shard_result(
            block.header, count=self._count, total_jobs=self._total_jobs,
            fingerprint=self._fingerprint, columns=self._columns,
            actual_rows=block.row_count)
        if expected_shard is not None and index != expected_shard:
            raise MergeError(f"expected shard {expected_shard} but the "
                             f"document declares shard {index}")
        if index in self._merged:
            raise MergeError(f"shard {index} was already merged "
                             f"(double completion)")
        self._merged.add(index)
        self._buffered[index] = block.columns
        # Drain the in-order prefix: everything contiguous from _next flows
        # straight into typed column chunks and is dropped from memory;
        # planned gaps are stepped over, each once.
        drained_rows = 0
        drained_shards = 0
        while self._next in self._buffered or self._next in self._gaps:
            pending = self._buffered.pop(self._next, None)
            self._next += 1
            if pending is not None:
                self._store.append_columns(pending)
                drained_rows += len(pending[self._columns[0]])
                drained_shards += 1
        if self._m_rows is not None:
            if drained_shards:
                self._m_rows.inc(drained_rows)
                self._m_drains.observe(drained_rows)
            self._m_buffered.set(len(self._buffered))
        if self._log is not None:
            self._log.emit("merge-drain", campaign=self._campaign,
                           shard=index, drained_shards=drained_shards,
                           drained_rows=drained_rows,
                           buffered=len(self._buffered))
        return index

    def finalize(self) -> ColumnarStore:
        """Close the store once every expected shard arrived; returns it
        readable."""
        if not self.is_complete:
            raise MergeError(f"incomplete shard set: missing shard index(es) "
                             f"{self.missing} of {self._count}")
        self._store.close()
        return self._store


def merge_shards(plan: MergePlan, documents: Iterable[Mapping[str, object]],
                 store_path=None, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 ) -> ColumnarStore:
    """Run an offline merge: the engine built from a validated *plan*, fed
    *documents* — the plan's present shards in plan order.

    Each document is checked again on arrival as the planned shard
    (:meth:`IncrementalShardMerge.add_shard_document`), so a file that
    changed since it was planned is refused.  With *store_path* the rows
    land in a store directory, without it they stay in memory and nothing
    is written.  Returns the finalized store.
    """
    merge = IncrementalShardMerge(
        store_path, count=plan.count, total_jobs=plan.total_jobs,
        fingerprint=plan.fingerprint, columns=plan.columns,
        gaps=plan.missing,
        metadata={"kind": "merged-campaign", "present": list(plan.present),
                  "missing": list(plan.missing)},
        chunk_rows=chunk_rows)
    for index, document in zip(plan.present, documents):
        merge.add_shard_document(document, expected_shard=index)
    return merge.finalize()


# -- streaming artifact writers ----------------------------------------------
def write_document_json(store: ColumnarStore, path) -> None:
    """Stream a store out as a JSON artifact, chunk by chunk.

    The bytes of ``json.dump(store.document(), handle, indent=2)`` plus a
    newline, without ever materializing the row list.
    """
    document = store.document_header
    document["row_count"] = store.row_count
    document["rows"] = store.iter_rows()
    write_json(path, document)
