"""Smoke tests: every example script must run clean end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_all_examples_enumerated():
    # an empty glob would parametrize no runs and pass silently
    assert {e.name for e in EXAMPLES} >= {"quickstart.py", "gcn_layer.py", "sparse_transformer_inference.py"}
