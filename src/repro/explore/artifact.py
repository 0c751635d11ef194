"""The one writer of every persistent artifact: crash-safe and byte-exact.

Every JSON, CSV and columnar-store file goes through :func:`atomic_write`,
so a crash leaves the old file or the complete new one, never a torn one.
:func:`write_json` and :func:`write_csv` are the only serializers, so
artifacts written from dict rows, row generators and columnar stores agree
byte for byte because they share this code.
"""

import contextlib
import csv
import json
import os
from collections.abc import Iterable, Mapping
from typing import Sequence

#: One encoder for every value: ``json.dumps(..., indent=2)`` builds a new
#: encoder per call, which costs more than encoding a small row.
_ENCODER = json.JSONEncoder(indent=2)


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a handle (UTF-8 text without newline translation, or binary)
    whose bytes replace *path* once the block ends.

    The bytes go to a temp file beside *path* (mode ``0o666`` under the
    umask, as a plain ``open`` gives), which is ``fsync``-ed and
    ``os.replace``-d onto *path*; then the directory is ``fsync``-ed.  On
    any exception, ``KeyboardInterrupt`` included, the temp file is removed
    and *path* keeps its old bytes.
    """
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    descriptor = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with (open(descriptor, "wb") if binary else
              open(descriptor, "w", encoding="utf-8", newline="")) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    descriptor = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def write_json(path, document: Mapping[str, object]) -> None:
    """Write *document* (str keys) as the bytes of ``json.dump(document,
    indent=2)`` plus a newline, atomically.

    A ``"rows"`` value that is an iterable other than a str or mapping (a
    list, a generator, :meth:`ColumnarStore.iter_rows`) is encoded one
    element at a time and never held in memory as a whole.
    """
    with atomic_write(path) as handle:
        handle.write("{")
        for position, (key, value) in enumerate(document.items()):
            handle.write(f"{',' if position else ''}\n  "
                         f"{_ENCODER.encode(key)}: ")
            if key != "rows" or not isinstance(value, Iterable) or \
                    isinstance(value, (str, Mapping)):
                handle.write(_ENCODER.encode(value).replace("\n", "\n  "))
                continue
            handle.write("[")
            row = None
            for row, element in enumerate(value):
                handle.write(f"{',' if row else ''}\n    ")
                handle.write(_ENCODER.encode(element).replace("\n", "\n    "))
            handle.write("]" if row is None else "\n  ]")
        handle.write("\n}\n" if document else "}\n")


def write_csv(path, columns: Sequence[str],
              rows: Iterable[Mapping[str, object]]) -> None:
    """Write dict *rows* as CSV under a *columns* header, atomically."""
    with atomic_write(path) as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)
