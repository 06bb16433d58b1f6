"""Smoke test: every demo script runs to the end without writing to stderr."""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def test_demos_found():
    # an empty glob would leave the parametrized test below silently skipped
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, path], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
