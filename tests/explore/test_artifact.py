"""The one artifact writer: byte-exact serializers and crash-safe replace.

``write_json`` must produce the bytes of ``json.dumps(doc, indent=2)`` plus
a newline whatever the document holds and whether its rows arrive as a list
or a generator; ``write_csv`` the bytes of ``csv.DictWriter``.  A failure
anywhere in a write (the rows, ``fsync``, ``os.replace``, an interrupt)
must leave the target's old bytes and no temp file.
"""

import csv
import io
import json
import os
import stat

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.explore import artifact
from repro.explore.artifact import atomic_write, write_csv, write_json

TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=8)
SCALARS = (st.none() | st.booleans() | st.floats()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80) | TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=12)


@st.composite
def documents(draw):
    """A document with str keys and, usually, a ``"rows"`` key anywhere."""
    items = list(draw(st.dictionaries(TEXT.filter(lambda key: key != "rows"),
                                      VALUES, max_size=5)).items())
    if draw(st.booleans()):
        position = draw(st.integers(min_value=0, max_value=len(items)))
        items.insert(position, ("rows", draw(st.lists(VALUES, max_size=5))))
    return dict(items)


def expected_json(document) -> bytes:
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


# One tmp_path across hypothesis examples is safe: each example overwrites
# the same file.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=documents(), as_generator=st.booleans())
@example(document={}, as_generator=False)
@example(document={"rows": []}, as_generator=True)
@example(document={"rows": [], "after": {}}, as_generator=False)
@example(document={"head": [], "nested": {"a": {"b": []}},
                   "rows": [{"x": -0.0, "y": 2 ** 70, "z": "é ☃ \n"}, [], {}],
                   "tail": [1.5e-300, -1e308]}, as_generator=True)
def test_write_json_bytes_equal_json_dumps(tmp_path, document, as_generator):
    written = dict(document)
    if as_generator and "rows" in written:
        written["rows"] = (row for row in document["rows"])
    write_json(tmp_path / "doc.json", written)
    assert (tmp_path / "doc.json").read_bytes() == expected_json(document)


def test_write_json_streams_non_list_rows_only(tmp_path):
    # A str or mapping under "rows" is an ordinary value, not a row stream.
    for document in ({"rows": "abc"}, {"rows": {"a": [1]}}, {"rows": 3},
                     {"rows": None}):
        write_json(tmp_path / "doc.json", document)
        assert (tmp_path / "doc.json").read_bytes() == expected_json(document)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=st.lists(TEXT, min_size=1, max_size=4, unique=True),
       data=st.data())
def test_write_csv_bytes_equal_dict_writer(tmp_path, columns, data):
    cell = st.none() | st.integers() | st.floats() | TEXT
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {column: cell for column in columns}), max_size=5))
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    write_csv(tmp_path / "rows.csv", columns, iter(rows))
    assert (tmp_path / "rows.csv").read_bytes() \
        == buffer.getvalue().encode("utf-8")


# -- fault injection ---------------------------------------------------------

def failing_rows(error):
    yield {"row": 0}
    raise error


def inject(monkeypatch, name, error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(artifact.os, name, fail)


@pytest.mark.parametrize("fault", ["rows", "interrupt", "fsync", "replace"])
@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_leaves_old_bytes_and_no_temp_file(
        tmp_path, monkeypatch, fault, existing):
    target = tmp_path / "artifact.json"
    if existing:
        target.write_bytes(b"old bytes\n")
    document = {"schema_version": 1, "rows": [{"row": 0}, {"row": 1}]}
    error = KeyboardInterrupt() if fault == "interrupt" else OSError("injected")
    if fault in ("rows", "interrupt"):
        document["rows"] = failing_rows(error)
    else:
        inject(monkeypatch, fault, error)
    with pytest.raises(type(error)):
        write_json(target, document)
    monkeypatch.undo()
    if existing:
        assert target.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["artifact.json"]
    else:
        assert os.listdir(tmp_path) == []


def test_csv_and_binary_writes_clean_up_on_failure(tmp_path):
    target = tmp_path / "rows.csv"
    target.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        write_csv(target, ["row"], failing_rows(RuntimeError("mid-write")))
    with pytest.raises(RuntimeError):
        with atomic_write(target, binary=True) as handle:
            handle.write(b"partial")
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_written_artifact_gets_plain_open_permissions(tmp_path):
    previous = os.umask(0o027)
    try:
        write_json(tmp_path / "atomic.json", {"rows": []})
        with open(tmp_path / "plain.json", "w") as handle:
            handle.write("{}\n")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(os.stat(tmp_path / "atomic.json").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode)
    assert mode == 0o640
