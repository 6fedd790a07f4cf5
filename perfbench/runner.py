"""One benchmark run of renyiflow in a fresh process.

    python3 perfbench/runner.py CONFIG OUT_DIR SPAWNED [--trace] [--setup-only]
                                [--tol-scale X]

SPAWNED is the parent's time.monotonic() taken just before it started this
process; CLOCK_MONOTONIC is shared by every process on the machine, so
setup_s covers interpreter start, `import renyiflow` and cli.load_config.
The run itself is cli.run_experiment on the loaded config, writing into
OUT_DIR. The last stdout line is one JSON object: the measurements and the
list of reasons the run fails the gate (empty when it passes).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent

# Mass telescopes exactly in the finite-volume update, so the recorded mass
# drifts only by summation round-off (at most 3.6e-15 on the three workloads).
MASS_DRIFT_TOL = 1e-12


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [[float(x) for x in row.split(",")] for row in rows]


def gate(config, report: dict, out: Path) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they are correct."""
    problems = []
    failed = [c["name"] for c in report["checks"] if c["applicable"] and not c["passed"]]
    if failed:
        problems.append(f"checks failed: {', '.join(failed)}")
    columns, rows = read_csv(out / "trajectory.csv")
    t_last = rows[-1][columns.index("t")]
    if t_last != config.t_end:
        problems.append(f"last record at t={t_last!r}, not t_end={config.t_end!r}")
    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("trajectory.csv holds a non-finite value")
    mass = [row[columns.index("mass")] for row in rows]
    drift = max(abs(m - mass[0]) for m in mass) / mass[0]
    if not drift <= MASS_DRIFT_TOL:
        problems.append(f"mass drift {drift:.3g} exceeds {MASS_DRIFT_TOL:g}")
    return problems


def l1_error(config, trajectory, rf) -> float:
    """Volume-weighted L1 distance of the final state from the self-similar
    solution, relative to the state's mass. A barenblatt datum started at t0
    is compared with the exact solution at t0 + t_end; any other datum with
    the profile at its final best-matching time s (its distance from the
    attractor)."""
    final = trajectory.final_state
    if config.datum["kind"] == "barenblatt":
        t_ref = config.datum["t0"] + config.t_end
    else:
        t_ref = trajectory.records[-1].s_match
    exact = rf.self_similar_density(final.grid.centers, t_ref, config.params)
    v = final.grid.volumes
    return float(abs(final.u - exact) @ v / (final.u @ v))


def layer_metrics(tracer, trajectory, report: dict, out: Path, records: int) -> dict:
    """Per-layer split of one traced run, named as in BENCHMARK.json."""
    inclusive, own = spans.split(tracer.spans)
    steps = trajectory.n_steps
    loop_s = own["solver.evolve"]
    diag_s = inclusive["functionals.diagnostics"]
    slacks = [c["slack"] for c in report["checks"] if c["applicable"]]
    metrics = {
        "solver.evolve_s": inclusive["solver.evolve"],
        "solver.loop_s": loop_s,
        "solver.steps": steps,
        "solver.us_per_step": 1e6 * loop_s / steps,
        "solver.limited_steps": trajectory.limited_steps,
        "solver.clipped_mass": trajectory.clipped_mass,
        "solver.record_landings": records - 1,
        "functionals.diagnostics_s": diag_s,
        "functionals.records": records,
        "functionals.us_per_record": 1e6 * diag_s / records,
        "checks.min_slack": min(slacks),
        "cli.csv_bytes": (out / "trajectory.csv").stat().st_size,
        "cli.other_s": own["cli.run_experiment"],
        "trace.run_s": inclusive["cli.run_experiment"],
    }
    for name in ("checks.run_checks", "matching.build_delay_report",
                 "gn.extremality_test", "gn.gn_constant_report",
                 "gn.deficit_identity_check", "cli.write_trajectory_csv",
                 "cli.load_config", "barenblatt.build_reference",
                 "grid.initial_state"):
        metrics[f"{name}_s"] = inclusive.get(name, 0.0)
    # Self time per layer over the run_experiment tree; load_config is set-up
    # and stays out, so these add up to trace.run_s.
    for _, _, name in spans.WRAP_POINTS:
        metrics[name.split(".")[0] + ".self_s"] = 0.0
    for name, seconds in own.items():
        if name != "cli.load_config":
            metrics[name.split(".")[0] + ".self_s"] += seconds
    return metrics


def run(args, result: dict) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import renyiflow as rf
    from renyiflow import cli

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if not Path(rf.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported renyiflow from {rf.__file__}, not from this checkout")
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(sys.modules)
    config = cli.load_config(args.config)
    result["setup_s"] = time.monotonic() - args.spawned
    if args.setup_only:
        return

    captured = {}
    records = 0
    inner_evolve = cli.evolve

    def count_record(record, state) -> None:
        nonlocal records
        records += 1

    def evolve(*a, **kw):
        if tracer is not None:
            kw["observer"] = count_record
        captured["trajectory"] = inner_evolve(*a, **kw)
        return captured["trajectory"]

    cli.evolve = evolve
    out = Path(args.out)
    start = time.perf_counter()
    cli.run_experiment(config, out, tol_scale=args.tol_scale, echo=None)
    result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = json.loads((out / "report.json").read_text())
    trajectory = captured["trajectory"]
    result["problems"] += gate(config, report, out)
    result["csv_sha256"] = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    result["l1_err"] = l1_error(config, trajectory, rf)
    if tracer is not None:
        tracer.write(out / "spans.json")
        result["layers"] = layer_metrics(tracer, trajectory, report, out, records)
        counts = {"n_steps": result["layers"]["solver.steps"],
                  "n_records": result["layers"]["functionals.records"],
                  "limited_steps": result["layers"]["solver.limited_steps"]}
        for key, value in counts.items():
            if report["run"][key] != value:
                result["problems"].append(
                    f"traced {key} {value} differs from report.json {report['run'][key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("spawned", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="scales every check tolerance, as `renyiflow run --tol-scale`")
    args = parser.parse_args(argv)
    result: dict = {"problems": []}
    try:
        run(args, result)
    except Exception as e:  # any failure of the program is a failed run, reported
        traceback.print_exc()
        result["problems"].append(f"{type(e).__name__}: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
