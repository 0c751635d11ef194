"""Tests of the columnar result store: typed round trips, streaming shard
merge and the bitwise-identity contract of the streaming artifact writers.

The load-bearing property throughout: everything a store regenerates
(``write_document_json`` / ``write_csv``) must be *byte for byte*
identical to what the dict-of-lists writers produce for the same rows —
that is what lets ``merge --store`` artifacts interoperate with every
existing consumer.
"""

import hashlib
import itertools
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explore.artifact import write_csv, write_json
from repro.explore.cli import main
from repro.explore.campaign import (
    SCHEMA_VERSION,
    campaign_from_axes,
    result_columns,
)
from repro.explore.distrib import (
    MergeError,
    ShardRun,
    load_artifact,
    merge_shard_documents,
    plan_merge,
    plan_shards,
    run_shard,
)
from repro.explore.report import format_store_summary, summarize_store
from repro.explore.scenarios import ScenarioSpec
from repro.explore.store import (
    DEFAULT_CHUNK_ROWS,
    STORE_SCHEMA_VERSION,
    ColumnarStore,
    StoreError,
    merge_shards,
    store_campaign_run,
    store_shard_run,
    write_document_json,
)

from repro.explore.campaign import (
    Campaign,
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
)


def small_campaign(**axes) -> Campaign:
    axes = axes or {"core_count": [1, 2], "tam_width_bits": [16, 32]}
    return campaign_from_axes(
        axes, base=ScenarioSpec(name="base", patterns_per_core=16, seed=3))


def fake_shard_documents(job_count: int, shard_count: int):
    """Shard artifacts over constructed (never simulated) outcomes,
    JSON-round-tripped like files — mirrors test_distrib's helper."""
    jobs = [
        CampaignJob(spec=ScenarioSpec(name=f"s{index:02d}", core_count=1,
                                      patterns_per_core=8, seed=index + 1),
                    schedule="sequential")
        for index in range(job_count)
    ]
    documents = []
    for shard in plan_shards(jobs, shard_count):
        outcomes = [
            CampaignOutcome(
                spec=job.spec, schedule=job.schedule, phase_count=1,
                task_count=1, estimated_cycles=shard.start + offset,
                test_length_cycles=(shard.start + offset) * 10,
                peak_tam_utilization=0.5, avg_tam_utilization=0.25,
                peak_power=2.0, avg_power=1.0,
                simulated_activations=(shard.start + offset) * 3)
            for offset, job in enumerate(shard.jobs)
        ]
        documents.append(json.loads(json.dumps(
            ShardRun(shard=shard, run=CampaignRun(outcomes=outcomes))
            .as_document())))
    return documents


#: A small typed schema exercising every declared column kind: str
#: (scenario/schedule), int (seed), float (compression_ratio), bool
#: (survivor).
TYPED_COLUMNS = ("scenario", "seed", "compression_ratio", "survivor",
                 "schedule")


def typed_row(index: int) -> dict:
    return {
        "scenario": f"s{index:03d}",
        "seed": index * 7 - 3,
        "compression_ratio": index * 1.5,
        "survivor": index % 2 == 0,
        "schedule": ("greedy", "sequential")[index % 2],
    }


class TestColumnarStore:
    def test_round_trip_preserves_values_and_types(self, tmp_path):
        rows = [typed_row(i) for i in range(10)]
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=4) as store:
            store.append_rows(rows)

        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == rows
        assert reopened.row_count == 10
        assert reopened.chunk_count == 3  # 4 + 4 + 2
        assert reopened.columns == list(TYPED_COLUMNS)
        assert reopened.schema_version == SCHEMA_VERSION
        # Native Python scalars out, not numpy scalars.
        row = reopened.rows()[3]
        assert type(row["seed"]) is int
        assert type(row["compression_ratio"]) is float
        assert type(row["survivor"]) is bool
        assert type(row["scenario"]) is str

    def test_column_is_typed_numpy_view(self, tmp_path):
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=3) as store:
            store.append_rows(typed_row(i) for i in range(8))
        reopened = ColumnarStore.open(tmp_path / "s")
        seeds = reopened.column("seed")
        assert seeds.dtype == np.int64
        assert seeds.tolist() == [i * 7 - 3 for i in range(8)]
        assert reopened.column("compression_ratio").dtype == np.float64
        assert reopened.column("survivor").dtype == np.bool_
        with pytest.raises(StoreError, match="no column"):
            reopened.column("nope")

    def test_empty_store_round_trips(self, tmp_path):
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS) as store:
            pass
        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == []
        assert reopened.row_count == 0
        assert reopened.chunk_count == 0
        assert reopened.column("seed").dtype == np.int64

    def test_append_columns_matches_append_rows(self, tmp_path):
        rows = [typed_row(i) for i in range(11)]
        with ColumnarStore.create(tmp_path / "a", TYPED_COLUMNS,
                                  chunk_rows=4) as by_row:
            by_row.append_rows(rows)
        with ColumnarStore.create(tmp_path / "b", TYPED_COLUMNS,
                                  chunk_rows=4) as by_block:
            by_block.append_columns(
                {c: [row[c] for row in rows] for c in TYPED_COLUMNS})
        assert (ColumnarStore.open(tmp_path / "a").rows()
                == ColumnarStore.open(tmp_path / "b").rows())

    def test_append_row_missing_column_is_rejected(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS)
        with pytest.raises(StoreError, match="missing column 'survivor'"):
            store.append_row({c: typed_row(0)[c] for c in TYPED_COLUMNS
                              if c != "survivor"})

    def test_append_columns_validates_block(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS)
        with pytest.raises(StoreError, match="missing column"):
            store.append_columns({"scenario": ["a"]})
        block = {c: [typed_row(0)[c]] for c in TYPED_COLUMNS}
        block["seed"] = [1, 2]
        with pytest.raises(StoreError, match="lengths disagree"):
            store.append_columns(block)

    def test_mixed_value_unknown_column_is_rejected(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", ("blob",))
        store.append_row({"blob": {"not": "a scalar"}})
        with pytest.raises(StoreError, match="mixed/unsupported"):
            store.flush()

    def test_create_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "not-a-store"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("data")
        with pytest.raises(StoreError, match="refusing to overwrite"):
            ColumnarStore.create(foreign, TYPED_COLUMNS)
        assert (foreign / "precious.txt").read_text() == "data"

    def test_create_replaces_existing_store(self, tmp_path):
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=1) as store:
            store.append_rows(typed_row(i) for i in range(5))
        assert ColumnarStore.open(tmp_path / "s").chunk_count == 5
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS) as store:
            store.append_row(typed_row(0))
        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == [typed_row(0)]
        # No stale chunk files behind the fresh manifest.
        assert len(list(reopened.path.glob("chunk-*.npz"))) == 1

    def test_open_rejects_non_store_and_future_layout(self, tmp_path):
        with pytest.raises(StoreError, match="not a columnar store"):
            ColumnarStore.open(tmp_path)
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS) as store:
            pass
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["store_schema_version"] = STORE_SCHEMA_VERSION + 1
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="store_schema_version"):
            ColumnarStore.open(tmp_path / "s")

    def test_mode_violations_are_rejected(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS)
        with pytest.raises(StoreError, match="still open for writing"):
            store.column("seed")
        store.close()
        with pytest.raises(StoreError, match="not open for writing"):
            store.append_row(typed_row(0))

    def test_row_count_includes_buffered_rows(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                     chunk_rows=100)
        store.append_rows(typed_row(i) for i in range(7))
        assert store.row_count == 7
        assert store.chunk_count == 0
        store.close()
        assert store.chunk_count == 1


# -- crash safety and manifest validation ------------------------------------

def write_store(path, rows, chunk_rows=2):
    with ColumnarStore.create(
            path, TYPED_COLUMNS, chunk_rows=chunk_rows,
            document_header={"schema_version": 1, "note": "caf\u00e9"},
            metadata={"kind": "test", "ratio": 1.5}) as store:
        store.append_rows(rows)


def store_contents(path):
    store = ColumnarStore.open(path)
    return (store.columns, store.schema_version, store.document_header,
            store.metadata, store.rows())


def rewrite_manifest(path, mutate):
    """Apply *mutate* to the manifest and store it with a valid checksum."""
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["sha256"]
    mutate(manifest)
    manifest["sha256"] = hashlib.sha256(
        json.dumps(manifest, indent=2).encode()).hexdigest()
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


#: (patched function, failing call): a rewrite of 7 rows at chunk_rows=2
#: makes 4 np.savez calls and 5 os.replace calls (4 chunks, the manifest).
REWRITE_FAULTS = [(np, "savez", call) for call in range(1, 5)] \
    + [(os, "replace", call) for call in range(1, 6)]


class TestCrashSafeStore:
    @pytest.mark.parametrize("owner, name, call", REWRITE_FAULTS)
    def test_failed_rewrite_keeps_the_old_store(self, tmp_path, monkeypatch,
                                                owner, name, call):
        path = tmp_path / "s"
        old_rows = [typed_row(i) for i in range(5)]
        new_rows = [typed_row(i) for i in range(10, 17)]
        write_store(path, old_rows)
        original, calls = getattr(owner, name), itertools.count(1)

        def flaky(*args, **kwargs):
            if next(calls) == call:
                raise OSError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, flaky)
        with pytest.raises(OSError, match="injected"):
            write_store(path, new_rows)
        monkeypatch.undo()
        assert ColumnarStore.open(path).rows() == old_rows

        write_store(path, new_rows)
        assert ColumnarStore.open(path).rows() == new_rows
        listed = json.loads((path / "manifest.json").read_text())["chunks"]
        assert sorted(os.listdir(path)) == sorted(["manifest.json", *listed])

    @pytest.mark.parametrize("mutate", [
        lambda m: m.update(chunks=["../../../etc/hostname"]),
        lambda m: m.update(chunks=["../" + name for name in m["chunks"]]),
        lambda m: m.update(chunks=["chunk-000000.npz"] * 3),
        lambda m: m.update(chunks=m["chunks"][:2] + ["sub/chunk-000002.npz"]),
        lambda m: m.update(chunk_row_counts=[2, 2, 2]),
        lambda m: m.update(chunk_row_counts=[2, 3]),
        lambda m: m.update(row_count=True),
        lambda m: m.update(columns=[]),
        lambda m: m.update(columns=["seed", 3]),
        lambda m: m.update(metadata=[]),
        lambda m: m.update(chunk_rows=0),
        lambda m: m.update(chunk_sha256=m["chunk_sha256"][:1]),
        lambda m: m.update(chunk_sha256=["Z" * 64] * len(m["chunks"])),
    ])
    def test_open_rejects_crafted_manifests(self, tmp_path, mutate):
        path = tmp_path / "s"
        write_store(path, [typed_row(i) for i in range(5)])
        # Real chunk files outside the store, for a crafted "../" name to
        # find: only the name check may refuse it.
        for chunk in path.glob("chunk-*.npz"):
            shutil.copy(chunk, tmp_path / chunk.name)
        rewrite_manifest(path, mutate)
        with pytest.raises(StoreError):
            ColumnarStore.open(path)
        with pytest.raises(StoreError):
            ColumnarStore.create(path, TYPED_COLUMNS)

    def test_open_rejects_missing_chunk_and_stale_checksum(self, tmp_path):
        path = tmp_path / "s"
        write_store(path, [typed_row(i) for i in range(5)])
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["metadata"]["kind"] = "tampered"
        (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
        with pytest.raises(StoreError, match="checksum"):
            ColumnarStore.open(path)
        path = tmp_path / "t"
        write_store(path, [typed_row(i) for i in range(5)])
        (path / json.loads((path / "manifest.json").read_text())
         ["chunks"][1]).unlink()
        with pytest.raises(StoreError, match="lacks chunk"):
            ColumnarStore.open(path)

    def test_crashed_first_write_does_not_block_the_rerun(self, tmp_path,
                                                          monkeypatch):
        rows = [typed_row(i) for i in range(3)]
        write_store(tmp_path / "clean", rows, chunk_rows=1)
        path = tmp_path / "s"
        original, calls = np.savez, itertools.count(1)

        def flaky(*args, **kwargs):
            if next(calls) == 2:
                raise OSError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "savez", flaky)
        with pytest.raises(OSError, match="injected"):
            write_store(path, rows, chunk_rows=1)
        monkeypatch.undo()
        assert sorted(os.listdir(path)) == ["chunk-000000.npz"]
        # A kill inside the atomic writer leaves its temp file too.
        (path / ".chunk-000001.npz.0123456789ab.tmp").write_bytes(b"torn")
        write_store(path, rows, chunk_rows=1)
        assert sorted(os.listdir(path)) == sorted(os.listdir(tmp_path / "clean"))
        for name in os.listdir(path):
            assert (path / name).read_bytes() == \
                (tmp_path / "clean" / name).read_bytes()

    @pytest.mark.parametrize("foreign", ["notes.txt", "chunk-1.npz",
                                         ".manifest.json.tmp", "chunk-000009"])
    def test_unfinished_first_write_with_foreign_files_is_refused(
            self, tmp_path, foreign):
        path = tmp_path / "s"
        path.mkdir()
        (path / "chunk-000000.npz").write_bytes(b"left over")
        (path / foreign).write_bytes(b"data")
        with pytest.raises(StoreError, match="refusing to overwrite"):
            ColumnarStore.create(path, TYPED_COLUMNS)
        assert (path / foreign).read_bytes() == b"data"

    def test_chunk_with_other_row_count_raises_store_error(self, tmp_path):
        path = tmp_path / "s"
        write_store(path, [typed_row(i) for i in range(3)])
        first, second = sorted(path.glob("chunk-*.npz"))
        shutil.copy(second, first)  # 1 row where the manifest lists 2
        store = ColumnarStore.open(path)
        with pytest.raises(StoreError, match="rows the manifest lists"):
            store.rows()
        with pytest.raises(StoreError, match="rows the manifest lists"):
            store.column("seed")

    def test_swapped_equal_sized_chunks_raise_store_error(self, tmp_path):
        """Two chunks of equal row count swapped on disk would read back in
        the wrong row order; their SHA-256 digests catch it."""
        path = tmp_path / "s"
        rows = [typed_row(i) for i in range(4)]
        write_store(path, rows, chunk_rows=2)
        first, second = path / "chunk-000000.npz", path / "chunk-000001.npz"
        first_bytes = first.read_bytes()
        first.write_bytes(second.read_bytes())
        second.write_bytes(first_bytes)
        store = ColumnarStore.open(path)
        with pytest.raises(StoreError, match="SHA-256 mismatch"):
            store.rows()
        second.write_bytes(first.read_bytes())
        first.write_bytes(first_bytes)
        assert ColumnarStore.open(path).rows() == rows

    @pytest.mark.slow
    def test_every_bit_flip_of_a_chunk_raises_store_error_or_reads_intact(
            self, tmp_path):
        path = tmp_path / "s"
        rows = [typed_row(i) for i in range(3)]
        write_store(path, rows, chunk_rows=3)
        chunk, = path.glob("chunk-*.npz")
        good = chunk.read_bytes()
        store = ColumnarStore.open(path)
        refused = 0
        for bit in range(len(good) * 8):
            bad = bytearray(good)
            bad[bit // 8] ^= 1 << (bit % 8)
            chunk.write_bytes(bytes(bad))
            try:
                assert store.rows() == rows
            except StoreError:
                refused += 1
        # Most flips land in zip headers, npy headers or CRC-checked data.
        assert refused > len(good) * 4

    # A fresh store per example (the previous one is deleted first), so one
    # tmp_path across hypothesis examples is safe.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(),
           kind=st.sampled_from(["truncate", "flip", "drop", "version"]))
    def test_corrupt_manifest_raises_store_error_or_reads_intact(
            self, tmp_path, data, kind):
        path = tmp_path / "s"
        shutil.rmtree(path, ignore_errors=True)
        write_store(path, [typed_row(i) for i in range(5)])
        expected = store_contents(path)
        good = (path / "manifest.json").read_bytes()
        if kind == "truncate":
            bad = good[:data.draw(st.integers(0, len(good) - 1))]
        elif kind == "flip":
            at = data.draw(st.integers(0, len(good) - 1))
            byte = data.draw(st.integers(0, 255).filter(
                lambda value: value != good[at]))
            bad = good[:at] + bytes([byte]) + good[at + 1:]
        else:
            manifest = json.loads(good)
            if kind == "drop":
                del manifest[data.draw(st.sampled_from(sorted(manifest)))]
            else:
                manifest["store_schema_version"] = data.draw(
                    st.integers().filter(
                        lambda value: value != STORE_SCHEMA_VERSION)
                    | st.none() | st.text(max_size=3) | st.just("2"))
            bad = json.dumps(manifest, indent=2).encode()
        (path / "manifest.json").write_bytes(bad)
        try:
            contents = store_contents(path)
        except StoreError:
            return
        assert contents == expected


# -- hypothesis: arbitrary rows round-trip through disk -----------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
# numpy U-dtype arrays silently drop trailing NUL characters, so the store's
# text support excludes \x00 (JSON artifacts never contain it anyway).
safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\x00"),
    max_size=20)
int64s = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)

typed_rows = st.lists(
    st.fixed_dictionaries({
        "scenario": safe_text,
        "seed": int64s,
        "compression_ratio": finite_floats,
        "survivor": st.booleans(),
        "schedule": safe_text,
    }),
    max_size=120)


class TestStoreProperties:
    # ColumnarStore.create atomically replaces an existing store, so reusing
    # one tmp_path across hypothesis examples is safe.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=typed_rows, chunk_rows=st.integers(min_value=1, max_value=50))
    def test_append_flush_reopen_preserves_rows(self, tmp_path, rows,
                                                chunk_rows):
        """append → close → open streams back exactly the appended rows,
        for arbitrary row counts and chunk sizes (including chunk_rows=1
        and rows spanning many partial chunks)."""
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=chunk_rows) as store:
            store.append_rows(rows)
            assert store.row_count == len(rows)

        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == rows
        assert reopened.row_count == len(rows)
        assert sum(len(chunk) for chunk in reopened.iter_row_chunks()) \
            == len(rows)
        expected_chunks = -(-len(rows) // chunk_rows) if rows else 0
        assert reopened.chunk_count == expected_chunks


# -- persisted result objects: bitwise identity -------------------------------

class TestResultObjectStores:
    def test_campaign_store_regenerates_bitwise_artifacts(self, tmp_path):
        run = small_campaign().run(workers=1)
        run.write_json(tmp_path / "direct.json", deterministic=True)
        run.write_csv(tmp_path / "direct.csv", deterministic=True)

        store = store_campaign_run(run, tmp_path / "run.store", chunk_rows=3)
        write_document_json(store, tmp_path / "store.json")
        write_csv(tmp_path / "store.csv", store.columns, store.iter_rows())

        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "direct.json").read_bytes()
        assert (tmp_path / "store.csv").read_bytes() \
            == (tmp_path / "direct.csv").read_bytes()
        assert store.metadata["kind"] == "campaign"

    def test_nondeterministic_campaign_store_keeps_run_metadata(
            self, tmp_path):
        run = small_campaign().run(workers=1)
        run.write_json(tmp_path / "direct.json", deterministic=False)
        store = store_campaign_run(run, tmp_path / "run.store",
                                   deterministic=False)
        write_document_json(store, tmp_path / "store.json")
        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "direct.json").read_bytes()
        assert store.columns == result_columns(deterministic=False)

    def test_shard_store_regenerates_bitwise_artifact(self, tmp_path):
        campaign = small_campaign()
        shard = plan_shards(campaign.jobs(), 2)[0]
        result = run_shard(shard, workers=1)
        result.write_json(tmp_path / "direct.json")

        store = store_shard_run(result, tmp_path / "shard.store")
        write_document_json(store, tmp_path / "store.json")
        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "direct.json").read_bytes()
        assert store.metadata["shard"]["index"] == 0


# -- the merge engine, both sinks ---------------------------------------------

def concatenation_reference(documents, partial=False):
    """The merged document by plain row concatenation in shard-index order:
    a reference for the merge engine that shares none of its code."""
    ordered = sorted(documents, key=lambda document: document["shard"]["index"])
    shard = ordered[0]["shard"]
    count, total = shard["count"], shard["total_jobs"]
    present = [document["shard"]["index"] for document in ordered]
    merged = {"schema_version": SCHEMA_VERSION,
              "columns": list(ordered[0]["columns"])}
    if partial and len(present) < count:
        merged["partial"] = {
            "count": count, "total_jobs": total,
            "fingerprint": shard["fingerprint"], "present": present,
            "missing": [{"index": index, "start": index * total // count,
                         "stop": (index + 1) * total // count}
                        for index in range(count) if index not in present]}
    rows = [row for document in ordered for row in document["rows"]]
    merged["row_count"] = len(rows)
    merged["rows"] = rows
    return merged


def merge_files(paths, store_path=None, partial=False, chunk_rows=4):
    """Merge shard artifacts the way the CLI does: plan on the loaded set,
    then feed the engine one re-read file at a time."""
    plan = plan_merge([load_artifact(path) for path in paths],
                      partial=partial)
    return merge_shards(plan, (load_artifact(paths[position])
                               for position in plan.order),
                        store_path=store_path, chunk_rows=chunk_rows)


class TestStreamingMerge:
    def write_shards(self, tmp_path, job_count=9, shard_count=3):
        documents = fake_shard_documents(job_count, shard_count)
        paths = []
        for document in documents:
            path = tmp_path / f"shard{document['shard']['index']}.json"
            path.write_text(json.dumps(document, indent=2) + "\n")
            paths.append(path)
        return documents, paths

    def test_merge_artifacts_matches_dict_merge_bitwise(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        merged = concatenation_reference(documents)
        write_json(tmp_path / "dict.json", merged)
        write_csv(tmp_path / "dict.csv", merged["columns"], merged["rows"])

        for name, store_path in (("store", tmp_path / "merged.store"),
                                 ("memory", None)):
            store = merge_files(paths, store_path)
            write_document_json(store, tmp_path / f"{name}.json")
            write_csv(tmp_path / f"{name}.csv", store.columns,
                      store.iter_rows())
            assert (tmp_path / f"{name}.json").read_bytes() \
                == (tmp_path / "dict.json").read_bytes()
            assert (tmp_path / f"{name}.csv").read_bytes() \
                == (tmp_path / "dict.csv").read_bytes()
            assert store.metadata["kind"] == "merged-campaign"
            assert store.metadata["shard_count"] == 3

    def test_merge_documents_matches_merge_artifacts(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        from_memory = merge_files(paths)
        from_disk = merge_files(paths, tmp_path / "disk.store")
        expected = concatenation_reference(documents)["rows"]
        assert from_memory.rows() == expected
        assert ColumnarStore.open(from_disk.path).rows() == expected

    def test_merge_accepts_unordered_paths(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        store = merge_files(list(reversed(paths)), tmp_path / "merged.store")
        assert ColumnarStore.open(store.path).rows() \
            == concatenation_reference(documents)["rows"]
        assert merge_files(list(reversed(paths))).rows() \
            == concatenation_reference(documents)["rows"]

    def test_partial_merge_matches_dict_merge_bitwise(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        merged = concatenation_reference(documents[:2], partial=True)
        write_json(tmp_path / "dict.json", merged)

        for name, store_path in (("store", tmp_path / "merged.store"),
                                 ("memory", None)):
            store = merge_files(paths[:2], store_path, partial=True)
            write_document_json(store, tmp_path / f"{name}.json")
            assert (tmp_path / f"{name}.json").read_bytes() \
                == (tmp_path / "dict.json").read_bytes()
            assert store.metadata["missing"] == [2]

    def test_merge_rejects_bad_shard_sets_before_writing(self, tmp_path,
                                                         capsys):
        documents, paths = self.write_shards(tmp_path)
        assert main(["merge", str(paths[0]), str(paths[0]), str(paths[1]),
                     "--store", str(tmp_path / "merged.store")]) == 2
        assert "overlapping shards" in capsys.readouterr().err
        assert main(["merge", str(paths[0]), str(paths[1]),
                     "--store", str(tmp_path / "m2.store")]) == 2
        assert "missing" in capsys.readouterr().err
        # Validation failed before any store directory was created.
        assert not (tmp_path / "merged.store").exists()
        assert not (tmp_path / "m2.store").exists()

    def test_memory_sink_writes_nothing(self, tmp_path, monkeypatch):
        documents, paths = self.write_shards(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        store = merge_files(paths, chunk_rows=2)
        assert store.path is None
        assert store.chunk_count == 5
        assert store.rows() == concatenation_reference(documents)["rows"]
        assert sorted(os.listdir(tmp_path)) == before

    def test_engine_refuses_rows_that_are_not_objects(self, tmp_path):
        documents = fake_shard_documents(2, 2)
        documents[1]["rows"] = [5]
        with pytest.raises((MergeError, StoreError)):
            merge_shard_documents(documents)
        plan = plan_merge(documents)
        with pytest.raises((MergeError, StoreError)):
            merge_shards(plan, documents, store_path=tmp_path / "m.store")


@pytest.mark.slow
def test_large_streaming_merge_is_bitwise_identical(tmp_path):
    """The at-scale differential: tens of thousands of fake rows through
    both sinks of the merge engine regenerate the plain concatenation's
    JSON byte for byte."""
    documents = fake_shard_documents(20_000, 7)
    write_json(tmp_path / "dict.json", concatenation_reference(documents))
    plan = plan_merge(documents)
    for name, store_path in (("store", tmp_path / "merged.store"),
                             ("memory", None)):
        store = merge_shards(plan, (documents[position]
                                    for position in plan.order),
                             store_path=store_path)
        write_document_json(store, tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_bytes() \
            == (tmp_path / "dict.json").read_bytes()


# -- store analytics ----------------------------------------------------------

class TestStoreSummary:
    def store(self, tmp_path):
        run = small_campaign().run(workers=1)
        return store_campaign_run(run, tmp_path / "run.store"), run

    def test_summary_matches_python_group_by(self, tmp_path):
        store, run = self.store(tmp_path)
        summary = summarize_store(store, group_by="schedule",
                                  metrics=("test_length_cycles",))
        groups = {}
        for outcome in run.outcomes:
            groups.setdefault(outcome.schedule, []).append(
                outcome.test_length_cycles)
        assert [entry["schedule"] for entry in summary] == sorted(groups)
        for entry in summary:
            values = groups[entry["schedule"]]
            assert entry["rows"] == len(values)
            assert entry["mean_test_length_cycles"] == pytest.approx(
                sum(values) / len(values))
            assert entry["min_test_length_cycles"] == min(values)
            assert entry["max_test_length_cycles"] == max(values)

    def test_format_store_summary_renders_table(self, tmp_path):
        store, run = self.store(tmp_path)
        text = format_store_summary(store)
        assert "schedule" in text
        assert f"{store.row_count} rows in {store.chunk_count} chunk(s)" \
            in text
        assert f"schema v{SCHEMA_VERSION}" in text
