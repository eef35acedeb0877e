"""Each demo script runs to completion on the source tree, with no stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
