"""Tiny-scale smoke test of the benchmark.

    python -m pytest perfbench

Runs every workload, untraced and traced, on the tiny inputs and checks the
result line: every declared metric present with its unit, and no failed
query (error_rate 0). It also checks that the benchmark refuses to run
without the program. It is kept out of the default test run, which collects
only ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert "matches the recorded run" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "search", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
