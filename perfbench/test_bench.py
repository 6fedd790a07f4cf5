"""Self-tests of the benchmark harness on shrunk workloads.

    python3 -m pytest perfbench -q

Each test starts a few fresh runner processes (about 1 s each).
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def shrunk(name: str, **solver) -> dict:
    """A workload's datum and checks for d=1, p=2 on a 64-cell grid, run briefly."""
    doc = bench.workload_config(name, seed=7)
    doc["grid"] = {"r_max": 5.0, "n": 64}
    doc.update(d=1, p=2, t_end=0.5, record_every=0.025, checks="all")
    doc.pop("record_times", None)
    doc["solver"] = {**doc["solver"], **solver}
    return doc


@pytest.mark.parametrize("workload", ["fd3_gaussian", "fd3_exact_dense"])
def test_every_end_to_end_metric_is_emitted(workload):
    s = bench.bench_workload(f"selftest_{workload}", shrunk(workload), 0.0, trace=False)
    assert (s["correct"], s["failed"]) == (True, 0)
    assert s["attempted"] == bench.SETUP_PROBES + bench.MIN_RUNS
    for m in SPEC["end_to_end"]:
        value = s["end_to_end"][m["name"]]["value"]
        assert value is not None and math.isfinite(value) and value > 0.0, m["name"]


def test_traced_run_emits_every_layer_and_accounts_for_run_s():
    s = bench.bench_workload("selftest_trace", shrunk("fd3_exact_dense"), 0.0, trace=True)
    assert (s["correct"], s["failed"]) == (True, 0)
    layers = {name: m["value"] for name, m in s["per_layer"].items()}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v is not None and math.isfinite(v) for v in layers.values())
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(layers["trace.run_s"], rel=1e-9)
    traced = next(r for r in s["attempts"] if r["kind"] == "traced")
    report = json.loads((bench.WORK / "selftest_trace" / "runs" / "2" / "report.json").read_text())
    assert traced["layers"]["solver.steps"] == report["run"]["n_steps"]
    assert traced["layers"]["functionals.records"] == report["run"]["n_records"]
    assert traced["layers"]["solver.limited_steps"] == report["run"]["limited_steps"]
    assert layers["solver.record_landings"] == layers["functionals.records"] - 1


def test_failed_checks_count_as_failed_runs():
    s = bench.bench_workload("selftest_reject", shrunk("fd3_gaussian"), 0.0, trace=False,
                             tol_scale=1e-12)
    assert not s["correct"]
    assert s["failed"] == bench.MIN_RUNS
    runs = [r for r in s["attempts"] if r["kind"] == "run"]
    assert len(runs) == bench.MIN_RUNS
    assert all(r["problems"][0].startswith("checks failed") for r in runs)


def test_a_raising_run_counts_as_failed():
    # a stable step below dt_min makes evolve raise StiffnessError
    s = bench.bench_workload("selftest_raise", shrunk("fd3_gaussian", dt_min=1.0), 0.0,
                             trace=False)
    assert not s["correct"]
    assert s["failed"] == bench.MIN_RUNS
    runs = [r for r in s["attempts"] if r["kind"] == "run"]
    assert len(runs) == bench.MIN_RUNS
    assert all(r["problems"][0].startswith("StiffnessError") for r in runs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "fd3_gaussian",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
