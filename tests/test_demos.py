"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_build_a_code.py",
    "02_type_sieve.py",
    "03_base_group.py",
    "04_equivalence.py",
    "05_sampled_search.py",
    "06_verify_tables.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if demo == "05_sampled_search.py":
        assert "all matched to published codes: True" in result.stdout
