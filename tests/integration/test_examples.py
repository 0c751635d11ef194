"""Every script under ``examples/`` runs to completion.

The examples use the public API (the kernel's ``Clock`` and
``cycles_between`` among it), so a change that breaks one of them fails
here.  Each runs as a subprocess, as a reader would start it, with ``src``
on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"

#: Examples that take over 2 s; the fast CI path skips them.
SLOW = {"jpeg_soc_exploration.py"}


def _examples():
    for path in sorted(EXAMPLES.glob("*.py")):
        marks = [pytest.mark.slow] if path.name in SLOW else []
        yield pytest.param(path, id=path.name, marks=marks)


@pytest.mark.parametrize("script", _examples())
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
