"""Smoke tests for the benchmark: each workload at its smallest size.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(ln.startswith("failed_frac: 0.000000") for ln in lines)
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_repeat_exactly():
    """Counts and ratios from two traced runs of one seed are identical."""
    units = run.per_layer_units()
    first, second = (
        _result(
            _bench(
                "--workload", "sample", "--seed", "3", "--smoke", "--trace", "1"
            )
        )
        for _ in range(2)
    )
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    for name, unit in units.items():
        if unit in ("count", "ratio") and not name.startswith("trace."):
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["search.sampled_tau.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "sample", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
