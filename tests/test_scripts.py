"""Smoke test of the scripts: each runs to exit 0 against the current library."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    r = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=src_env(),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    if script.name == "fusion_sweep.py":
        assert "MISMATCHES" not in r.stdout
