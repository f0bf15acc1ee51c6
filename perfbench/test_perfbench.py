"""Tests of the benchmark itself.

Run from the root of a liequant checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run test starts two short benchmark runs (about two minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_exact_counts_repeat_between_traced_runs_with_one_seed():
    args = ("--workload", "quantize-sl2-z2-order3", "--seed", "7", "--seconds", "1",
            "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program_sources():
    bare = ROOT / "perfbench" / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "verify-solv-s3", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
