"""Smoke test of the benchmark itself at tiny n.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py
"""

from __future__ import annotations

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

REPORT_ONLY_ON = {
    "large-greedy": ["failed_share"],
    "verify-refine": ["refine_s", "failed_share"],
    "small-exact": ["oracle_s", "cells_per_s", "cells_per_s_2w", "failed_share"],
}


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def test_spec_matches_the_runner():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_prints_every_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    result = _result(proc)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    report = {line.split()[1]: line.split()[3] for line in proc.stdout.splitlines() if line.startswith("metric ")}
    for name in list(run.END_TO_END) + REPORT_ONLY_ON[workload]:
        unit = run.END_TO_END.get(name) or run.REPORT_ONLY[name]
        assert report.get(name) == unit, name


def test_traced_run_prints_every_layer_metric():
    proc = _bench("--workload", "verify-refine", "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
    result = _result(proc)
    units = run.per_layer_names()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        if units[name] == "s" and name != "trace.overhead_s":
            assert metric["value"] > 0, name
    assert "trace overhead on verify-refine" in proc.stdout


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, run.WORK_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
