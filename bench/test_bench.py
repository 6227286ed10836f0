"""Self-test of the benchmark: every workload at tiny sizes, untraced and
traced, plus a run outside a checkout.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_harness():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    human = "\n".join(lines[:-1])
    assert "fail_share" in human
    if not trace:
        for name in ("setup_s", "op_p50_s", "op_tail_s", "peak_rss_mb"):
            assert name in human
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0

    record_file = ROOT / "bench" / "results" / f"{workload}-seed7-trace{trace}-tiny.json"
    record = json.loads(record_file.read_text())
    assert record["gates"] and all(isinstance(g["ok"], bool) for g in record["gates"])
    prov = record["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "git_commit", "workload_seed"):
        assert key in prov
    assert prov["blas"]["threads"] == 1
    if trace:
        assert record["spans"]
        assert record["parallel_probe"]["identical"] is True


def test_refuses_directory_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
