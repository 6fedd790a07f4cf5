"""Benchmark of renyiflow: fresh single-threaded runs of one config, one at a time.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run every workload in turn. The seed
goes into the config's `seed` field (the gn check's perturbations); the
program sees only the resulting config. The loop is closed: each run is a
new process (perfbench/runner.py) started only after the previous one has
ended, with the BLAS/OpenMP thread counts pinned to 1. A run fails when it
raises, when its outputs fail the gate in runner.py, or when its
trajectory.csv differs from the first run's.

With --trace 1 every second run is traced (runner.py --trace) and the last
stdout line reports the per-layer metrics of BENCHMARK.json; with --trace 0
it reports the end-to-end metrics. Both are medians over the runs of this
invocation. Outputs, spans and a result.json go to .perfbench/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Why each workload is there is recorded in BENCHMARK.json and README.md;
# README.md also says why pm1_gaussian is not one of them.
WORKLOADS = ("fd3_gaussian", "fd3_exact_dense")

MIN_RUNS = 2          # the byte-identical rerun gate compares two runs
SETUP_PROBES = 5      # set-up-only processes, so setup_s is a median of >= 7
HARD_LIMIT_S = 170.0  # no process outlives this, so the benchmark ends in 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def workload_config(name: str, seed: int) -> dict:
    """The config document a workload runs, built from configs/ and the seed."""
    if name == "fd3_exact_dense":
        base = json.loads((ROOT / "configs" / "fd3_gaussian.json").read_text())
        doc = {key: base[key] for key in ("d", "p", "grid", "solver")}
        doc.update(initial_datum={"kind": "barenblatt", "t0": 1.0}, t_end=2.0,
                   record_every=0.0005, checks="all")
    else:
        doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["seed"] = seed
    return doc


def run_child(config: Path, out: Path, deadline: float, trace=False, setup_only=False,
              tol_scale=1.0) -> dict:
    """One fresh process of runner.py; failures come back as problems."""
    timeout = deadline - time.monotonic()
    if timeout <= 0.0:
        return {"problems": ["no time left before the hard limit"]}
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "runner.py"), str(config), str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--tol-scale", repr(tol_scale)]
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic())], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"killed after {timeout:.0f} s"]}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"problems": [f"runner exited {proc.returncode} without a result"]}
    if result["problems"]:
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": os.getloadavg()}


def median_of(values: list) -> float | None:
    return statistics.median(values) if values else None


def bench_workload(name: str, doc: dict, seconds: float, trace: bool,
                   tol_scale: float = 1.0) -> dict:
    """Run one workload for `seconds` and summarise it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "runs").mkdir(parents=True)
    config = work / f"{name}.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    env = environment()

    started = time.monotonic()
    deadline, hard = started + seconds, started + HARD_LIMIT_S
    attempts = []
    for _ in range(SETUP_PROBES):
        attempts.append(run_child(config, work / "probe", hard, setup_only=True))
        attempts[-1]["kind"] = "setup"
    runs: list[dict] = []
    last = 0.0
    while len(runs) < MIN_RUNS or time.monotonic() + last <= deadline:
        t0 = time.monotonic()
        traced = trace and len(runs) % 2 == 1
        runs.append(run_child(config, work / "runs" / str(len(runs) + 1), hard,
                              trace=traced, tol_scale=tol_scale))
        runs[-1]["kind"] = "traced" if traced else "run"
        last = time.monotonic() - t0
        if time.monotonic() >= hard:
            break
    attempts += runs
    digests = [r["csv_sha256"] for r in runs if "csv_sha256" in r]
    for r in runs:
        if "csv_sha256" in r and r["csv_sha256"] != digests[0]:
            r["problems"].append("trajectory.csv differs from the first run's")
    env["loadavg_end"] = os.getloadavg()
    env["versions"] = next((r["versions"] for r in attempts if "versions" in r), None)

    plain = [r for r in runs if r["kind"] == "run"]
    traced = [r for r in runs if r["kind"] == "traced"]
    end_to_end = {}
    for m in spec["end_to_end"]:
        samples = [r[m["name"]] for r in attempts
                   if r["kind"] != "traced" and m["name"] in r]
        end_to_end[m["name"]] = {"value": median_of(samples), "unit": m["unit"]}
    per_layer = {}
    if trace:
        run_s = [r["run_s"] for r in plain if "run_s" in r]
        traced_s = [r["run_s"] for r in traced if "run_s" in r]
        overhead = (statistics.median(traced_s) - statistics.median(run_s)
                    if run_s and traced_s else None)
        for m in spec["per_layer"]:
            value = overhead if m["name"] == "trace.overhead_s" else median_of(
                [r["layers"][m["name"]] for r in traced if "layers" in r])
            per_layer[m["name"]] = {"value": value, "unit": m["unit"]}
    summary = {
        "workload": name, "seed": doc.get("seed"), "seconds": seconds, "trace": trace,
        "environment": env,
        "correct": not any(r["problems"] for r in attempts),
        "attempted": len(attempts),
        "failed": sum(bool(r["problems"]) for r in attempts),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "run_s_samples": [r["run_s"] for r in plain if "run_s" in r],
        "attempts": attempts,
    }
    (work / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def print_summary(s: dict) -> None:
    env = s["environment"]
    print(f"== {s['workload']}  seed {s['seed']}  {s['seconds']:g} s  trace {int(s['trace'])}")
    print(f"   commit {env['commit']}  {env['versions']}  nproc {env['nproc']}  "
          f"cpu {env['cpu']!r}  load {env['loadavg_start']} -> {env['loadavg_end']}")
    for k, r in enumerate(s["attempts"], start=1):
        times = "  ".join(f"{key} {r[key]:.4f}" for key in ("setup_s", "run_s") if key in r)
        status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
        print(f"   {k:2d} {r['kind']:6s} {times}  {status}")
    samples = s["run_s_samples"]
    if samples:
        print(f"   run_s: median {statistics.median(samples):.4f} s, max {max(samples):.4f} s, "
              f"n {len(samples)} (too few runs for a tail percentile)")
    print(f"   runs_failed {s['failed']}/{s['attempted']}")
    for section in ("end_to_end", "per_layer"):
        for name, m in s[section].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {name:32s} {value:>14s} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "renyiflow" / "__init__.py", ROOT / "configs",
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a renyiflow "
                  "checkout", file=sys.stderr)
            return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summaries.append(bench_workload(name, workload_config(name, args.seed),
                                        args.seconds, bool(args.trace)))
        print_summary(summaries[-1])
    section = "per_layer" if args.trace else "end_to_end"
    if len(summaries) == 1:
        metrics = summaries[0][section]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s[section].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
