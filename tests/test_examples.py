"""Every walkthrough under ``examples/`` runs to completion.

Each example runs in a fresh interpreter on a cold LUT cache, so an API
change or a deletion that breaks one fails here rather than unseen.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
EXAMPLES = sorted((Path(SRC).parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={
            **os.environ,
            "PYTHONPATH": SRC,
            "REPRO_LUT_CACHE": str(tmp_path / "lut-cache"),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
