"""Checks of the benchmark itself; not part of the library's test suite.

Run from the repository root (about 15 minutes on 2 cores)::

    python3 -m pytest perfbench/test_steadiness.py -q
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = (1, 2, 3)


def _run(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_sets_agree_within_bounds(workload):
    sets = [[_result(_run(workload, seed)) for seed in SEEDS] for _ in range(2)]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        first, second = (
            statistics.median(r["metrics"][name]["value"] for r in results) for results in sets
        )
        assert abs(second - first) <= metric["bound"] * first, (name, first, second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = _result(_run(workload, 1, trace=1))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
