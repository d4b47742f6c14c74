"""Every demo script runs to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=child_env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
