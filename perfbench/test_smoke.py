"""Smoke test of the benchmark at scale 0.05: ``python -m pytest perfbench -q``.

Each workload runs once plain and once traced, and must emit exactly the
metrics ``BENCHMARK.json`` declares.  A planted wrong route and a planted
non-200 request must be caught, and a directory without ``src`` must make
the benchmark fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload run.py offers; BENCHMARK.json gates all but cold-plan.
WORKLOADS = ["cold-plan", "warm-plan", "update-mix"]


def bench(*args: str, cwd: Path = ROOT) -> Tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "0.05", "--seconds", "1",
         "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> Dict[str, Any]:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    code, stdout = bench("--workload", workload, "--trace", str(trace))
    result = result_of(stdout)
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    units = {metric["name"]: metric["unit"] for metric in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert "(unattributed)" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_route_is_caught(workload: str) -> None:
    code, stdout = bench("--workload", workload, "--inject", "wrong-route")
    assert code == 1
    assert not result_of(stdout)["correct"]
    assert "CHECK FAILED" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_non_200_is_counted_as_failed(workload: str) -> None:
    code, stdout = bench("--workload", workload, "--inject", "bad-status")
    result = result_of(stdout)
    assert code == 0 and result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["success_frac"]["value"] < 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0
    assert stdout == ""
