"""Smoke test of the benchmark: every named metric is emitted with its unit.

Run from the repository root with ``python3 -m pytest -q perfbench/test_smoke.py``
(about two minutes: each workload once untraced and once traced, with the
shortest measuring window).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics each workload prints in its report besides the gated ones
WORKLOAD_METRICS = {
    "train_toy": ("train_clips_per_s", "train_load_s", "train_loss"),
    "transcribe_full": ("transcribe_p50_ms", "transcribe_tail_ms", "transcribe_audio_s_per_s"),
    "build_corpus": ("build_audio_s_per_s",),
}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if trace == 0:
            assert metric["value"] > 0, name
    if trace == 0:
        for name in WORKLOAD_METRICS[workload]:
            assert f"  {name} " in proc.stdout, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
