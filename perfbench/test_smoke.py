"""Smoke test of the benchmark: every workload, briefly, in both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, *SPEC["command"][1:]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(RUN + argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in expected}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert report["failed_ratio"] == 0
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_exits_nonzero_without_the_sources():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
