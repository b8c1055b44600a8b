"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "points", "arcs", "invalid_nodes", "fn_evals",
          "multi_bracket", "failures")


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    done = _run(workload, 0)
    result = _result(done)
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value == {"value": value["value"], "unit": m["unit"]}
        assert value["value"] > 0
        assert m["name"] in done.stdout.split("{")[0]
    for name in ("item_p90_s", "vertices_per_s", "fail_ratio"):
        assert name in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_metrics_printed_and_repeatable(workload):
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, value in first["metrics"].items():
        if name.rsplit(".", 1)[-1] in COUNTS:
            assert value == second["metrics"][name], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
