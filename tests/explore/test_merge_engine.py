"""Robustness of the offline merge path at its untrusted edges.

* ``TestShardHeaderCheck`` — the one header check that
  :func:`~repro.explore.distrib.plan_merge` and
  :func:`~repro.explore.distrib.validate_shard_result` share: missing or
  mistyped provenance is a :class:`~repro.explore.distrib.MergeError`, never
  a ``KeyError``/``TypeError`` or a silent ``int()`` coercion.
* ``TestArtifactDecoding`` — :func:`~repro.explore.distrib.load_artifact`
  and ``merge`` on hostile files: deep nesting, rows that are not objects,
  and a fuzz over a 2-shard artifact set (truncations and single-bit flips)
  where every case either raises a ``ValueError`` (``MergeError`` and
  ``StoreError`` are ones) or merges to the bytes of a plain row
  concatenation of what the files parse to.
"""

import copy
import json

import pytest

from repro.explore.artifact import write_json
from repro.explore.campaign import campaign_from_axes
from repro.explore.cli import main
from repro.explore.distrib import (
    MergeError,
    load_artifact,
    merge_shard_documents,
    plan_merge,
    plan_shards,
    run_shard,
    validate_shard_result,
)
from repro.explore.scenarios import ScenarioSpec
from repro.explore.store import write_document_json
from tests.explore.test_store import (
    concatenation_reference,
    fake_shard_documents,
    merge_files,
)


def mutated(document, **shard):
    """A copy of *document* with its shard provenance fields replaced
    (a value of ``...`` deletes the field)."""
    document = copy.deepcopy(document)
    for key, value in shard.items():
        if value is ...:
            del document["shard"][key]
        else:
            document["shard"][key] = value
    return document


class TestShardHeaderCheck:
    MISTYPED = [
        {"count": ...},
        {"count": [1]},
        {"start": None},
        {"start": "0"},
        {"total_jobs": "1"},
        {"index": [0]},
        {"index": "zero"},
        {"index": "0"},
        {"index": True},
        {"fingerprint": 7},
    ]

    @pytest.mark.parametrize("fields", MISTYPED, ids=repr)
    def test_plan_merge_refuses_mistyped_provenance(self, fields):
        documents = fake_shard_documents(2, 1)
        with pytest.raises(MergeError, match="shard provenance lacks"):
            plan_merge([mutated(documents[0], **fields)])

    @pytest.mark.parametrize("fields", MISTYPED, ids=repr)
    def test_validate_shard_result_refuses_mistyped_provenance(self, fields):
        document = fake_shard_documents(2, 1)[0]
        shard = document["shard"]
        with pytest.raises(MergeError, match="shard provenance lacks"):
            validate_shard_result(
                mutated(document, **fields), count=1,
                total_jobs=shard["total_jobs"],
                fingerprint=shard["fingerprint"],
                columns=document["columns"], actual_rows=2)

    def test_empty_provenance_block_is_a_merge_error(self):
        document = fake_shard_documents(2, 1)[0]
        document["shard"] = {}
        with pytest.raises(MergeError, match="lacks an integer 'index'"):
            plan_merge([document])

    def test_columns_that_are_not_a_name_list_are_a_merge_error(self):
        documents = fake_shard_documents(2, 1)
        for columns in (5, [1, 2], None):
            documents[0]["columns"] = columns
            with pytest.raises(MergeError, match="column-name list"):
                plan_merge(documents)

    def test_honest_header_still_validates(self):
        document = fake_shard_documents(2, 1)[0]
        shard = document["shard"]
        assert validate_shard_result(
            document, count=1, total_jobs=shard["total_jobs"],
            fingerprint=shard["fingerprint"], columns=document["columns"],
            actual_rows=2) == 0


class TestArtifactDecoding:
    def write_shards(self, tmp_path):
        documents = fake_shard_documents(4, 2)
        paths = []
        for document in documents:
            path = tmp_path / f"shard{document['shard']['index']}.json"
            write_json(path, document)
            paths.append(path)
        return documents, paths

    def test_deep_nesting_is_the_documented_value_error(self, tmp_path,
                                                        capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ValueError, match="deep.json: not a JSON artifact"):
            load_artifact(path)
        assert main(["merge", str(path)]) == 2
        assert "deep.json: not a JSON artifact" in capsys.readouterr().err

    def test_merge_of_rows_that_are_not_objects_exits_2(self, tmp_path,
                                                        capsys):
        documents, paths = self.write_shards(tmp_path)
        documents[1]["rows"] = [5, 5]
        write_json(paths[1], documents[1])
        for extra in ([], ["--store", str(tmp_path / "m.store")]):
            assert main(["merge", *map(str, paths), *extra,
                         "--json", str(tmp_path / "m.json")]) == 2
            assert "not JSON objects" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_plain_merge_writes_only_the_requested_outputs(self, tmp_path,
                                                           monkeypatch):
        _, paths = self.write_shards(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = set(p.name for p in tmp_path.iterdir())
        assert main(["merge", *map(str, paths), "--json", "m.json",
                     "--csv", "m.csv"]) == 0
        assert set(p.name for p in tmp_path.iterdir()) - before \
            == {"m.json", "m.csv"}

    def test_fuzzed_artifacts_raise_value_error_or_merge_faithfully(
            self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        originals = [path.read_bytes() for path in paths]
        write_json(tmp_path / "reference.json",
                   concatenation_reference(documents))
        expected = (tmp_path / "reference.json").read_bytes()

        def cases(data):
            # Every 97th length, plus the cut of the trailing newline alone,
            # which still parses to the same document.
            for size in [*range(0, len(data), 97), len(data) - 1]:
                yield data[:size]
            for position in range(len(data)):
                flipped = bytearray(data)
                flipped[position] ^= 1 << (position % 8)
                yield bytes(flipped)

        outcomes = {"rejected": 0, "merged": 0, "original": 0}
        for target, original in zip(paths, originals):
            for data in cases(original):
                target.write_bytes(data)
                try:
                    store = merge_files(paths)
                except ValueError:
                    outcomes["rejected"] += 1
                    continue
                # What merged is exactly the plain concatenation of what
                # the files say: the original bytes when they say the same.
                parsed = [json.loads(path.read_bytes()) for path in paths]
                write_document_json(store, tmp_path / "merged.json")
                write_json(tmp_path / "parsed.json",
                           concatenation_reference(parsed))
                merged = (tmp_path / "merged.json").read_bytes()
                assert merged == (tmp_path / "parsed.json").read_bytes()
                if parsed == documents:
                    assert merged == expected
                    outcomes["original"] += 1
                else:
                    outcomes["merged"] += 1
            target.write_bytes(original)
        assert outcomes["rejected"] > 0
        assert outcomes["original"] > 0


def test_integer_valued_float_fields_merge():
    # A spec given ints for its float fields writes float columns, so its
    # shards merge (the shard block refuses ints in a float column).
    campaign = campaign_from_axes(
        {"core_count": [1], "compression_ratio": [50], "power_budget": [6]},
        base=ScenarioSpec(name="ints", patterns_per_core=8, seed=1,
                          schedules=("sequential",)))
    documents = [run_shard(shard).as_document()
                 for shard in plan_shards(campaign, 1)]
    row = merge_shard_documents(documents)["rows"][0]
    assert type(row["compression_ratio"]) is float
    assert type(row["power_budget"]) is float
