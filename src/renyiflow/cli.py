"""Experiment driver: parse JSON configs, run flows, write reports.

Config document (single JSON object):

    {
      "d": 3,
      "p": "2/3",
      "initial_datum": {"kind": "gaussian", "width": 1.0},
      "grid": {"r_max": 40.0, "n": 800, "stretch": 1.0},
      "t_end": 5.0,
      "record_every": 0.05,
      "checks": "all",
      "seed": 20260814
    }

The README's "Config schema" states the rest: every key, the datum kinds
with their fields, and the form of a config error.

Outputs per run, in the output directory: trajectory.csv with columns
t, dt, mass, theta, E, I, F, G, H, J, q, s, tau, rel_entropy, R (one row
per record, 17 significant digits, so identical configs give byte-identical
files; dt is the length of the step or super-step that reached the record,
and E the whole-space entropy where functionals.diagnostics fits its
far-field tail), written by np.savetxt; report.json, whose objects are
their types' fields (_fields): "reference" is the BarenblattReference's
but params and exponents, plus d, p, regime, c_gn, exponents and
hypotheses; "run" the Trajectory's but reference, records and
final_state, plus n_records and t_end; each of "checks" a CheckResult's
but details, merged with its details (every clause's measured value,
tolerance and margin); summary.txt with the run's step counts per
integrator and one verdict line per check. Every JSON output is strict
JSON (RFC 8259): a non-finite number is written as null.

Commands: `run CONFIG [--check NAME]` (NAME replaces the config's checks),
`sweep DIR|CONFIG` and `reference --d D --p P`.

The gn check's perturbations come from the linear congruential generator
x -> (1664525 x + 1013904223) mod 2**32 (seeded from "seed", default
20260814), documented so other implementations can reproduce the exact
perturbation set from the config alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .barenblatt import (BarenblattReference, build_reference, normalization_constant,
                         self_similar_density)
from .checks import CHECK_NAMES, CheckResult, compatible_checks, incompatibility, run_checks
from .functionals import CSV_COLUMNS, RECORD_NUMBERS
from .gn import DEFAULT_SEED, sharp_constant
from .grid import DensityState, RadialGrid, build_grid, project_initial
from .params import HYPOTHESES, ModelParams, ParameterDomainError, RegimeError, unmet
from .solver import InstabilityError, SolverConfig, StiffnessError, evolve

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "run_experiment",
    "write_trajectory_csv",
    "main",
]

# kind -> (its fields, all required; its profile u(r) given the parsed
# datum, the model and the radii)
_DATUM_KINDS = {
    "barenblatt": (("t0",), lambda datum, params, r: self_similar_density(r, datum["t0"], params)),
    "gaussian": (("width",), lambda datum, params, r: np.exp(-((r / datum["width"]) ** 2))),
    "indicator": (("radius", "smoothing"), lambda datum, params, r: 0.5 * np.array(
        [math.erfc(z) for z in ((r - datum["radius"]) / datum["smoothing"]).tolist()])),
    "table": (("r", "u"), lambda datum, params, r: np.interp(
        r, datum["r"], datum["u"], left=datum["u"][0], right=0.0)),
}

_TOP_KEYS = ("d", "p", "initial_datum", "grid", "solver", "t_end",
             "record_every", "record_from", "checks", "seed")


class ConfigError(ValueError):
    """Config rejected at parse time; the message names the field at fault."""


def _strict(value):
    """value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _dump_json(payload: dict) -> str:
    """Strict JSON (RFC 8259): a non-finite float is written as null."""
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fail(field: str | None, message: str) -> ConfigError:
    """A config error about one field; field None is the whole document,
    and a CLI flag such as --p is named as it is."""
    where = ("config" if field is None else field if field.startswith("--")
             else f"config field {field!r}")
    return ConfigError(f"{where}: {message}")


def _check_keys(raw, field: str | None, allowed: tuple, required: tuple) -> None:
    """The one check of a JSON object's shape: an object, holding every
    required key and no key outside allowed."""
    if not isinstance(raw, dict):
        raise _fail(field, f"expected {{{', '.join(allowed)}}}, got {type(raw).__name__}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise _fail(field, f"missing keys: {', '.join(missing)}")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise _fail(field, f"unknown keys: {', '.join(sorted(unknown))}")


def _as_number(value, field: str) -> float:
    """Accept finite JSON numbers and exact fraction strings like '2/3'."""
    if isinstance(value, bool):
        raise _fail(field, f"expected a number, got {value!r}")
    x = None
    if isinstance(value, (int, float)):
        # an int beyond the double range counts as infinite
        x = float(value) if abs(value) < 2**1024 else math.inf
    elif isinstance(value, str):
        parts = value.split("/")
        try:
            terms = [float(s) for s in parts] if len(parts) in (1, 2) else None
        except ValueError:
            terms = None
        if terms is not None:
            if len(terms) == 2:
                if terms[1] == 0.0:
                    raise _fail(field, "fraction has zero denominator")
                x = terms[0] / terms[1]
            else:
                x = terms[0]
    if x is None:
        raise _fail(field, f"expected a number or 'a/b' fraction string, got {value!r}")
    if not math.isfinite(x):
        raise _fail(field, f"must be finite, got {value!r}")
    return x


def _as_int(value, field: str) -> int:
    """An integer as given (a JSON int keeps every digit), or a float or
    fraction string of integral value."""
    x = _as_number(value, field)
    if x != int(x):
        raise _fail(field, f"expected an integer, got {value!r}")
    return value if isinstance(value, int) else int(x)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    label: str
    params: ModelParams
    datum: dict
    grid: RadialGrid
    solver: SolverConfig
    t_end: float
    checks: tuple[str, ...]
    seed: int


def _parse_datum(raw) -> dict:
    # a known kind picks the fields; a non-object or a missing kind is
    # left to the key check
    names = ()
    if isinstance(raw, dict) and "kind" in raw:
        kind = raw["kind"]
        if not isinstance(kind, str) or kind not in _DATUM_KINDS:
            raise _fail("initial_datum.kind",
                        f"unknown kind {kind!r}; one of {', '.join(_DATUM_KINDS)}")
        names = _DATUM_KINDS[kind][0]
    _check_keys(raw, "initial_datum", ("kind", *names), ("kind", *names))
    out: dict = {"kind": raw["kind"]}
    if out["kind"] == "table":
        r, u = raw["r"], raw["u"]
        if not isinstance(r, list) or not isinstance(u, list) or len(r) != len(u) or len(r) < 2:
            raise _fail("initial_datum", "table needs equal-length lists r, u with >= 2 samples")
        rv = np.array([_as_number(x, "initial_datum.r") for x in r])
        uv = np.array([_as_number(x, "initial_datum.u") for x in u])
        if rv[0] < 0.0 or np.any(np.diff(rv) <= 0.0):
            raise _fail("initial_datum.r", "radii must be nonnegative and strictly increasing")
        if np.any(uv < 0.0) or not np.any(uv > 0.0):
            raise _fail("initial_datum.u", "values must be nonnegative with positive mass")
        out["r"], out["u"] = rv.tolist(), uv.tolist()
        return out
    for name in names:
        val = _as_number(raw[name], f"initial_datum.{name}")
        if val <= 0.0:
            raise _fail(f"initial_datum.{name}", f"must be positive, got {val}")
        out[name] = val
    return out


def _requested_checks(names: list, params: ModelParams) -> tuple[str, ...]:
    """names in first-seen order without repeats, each a known check whose
    hypotheses hold at (d, p); the one gate of a config's "checks" list and
    of run --check."""
    seen: list[str] = []
    for name in names:
        try:
            reason = incompatibility(name, params)
        except ValueError as e:  # an unknown name
            raise _fail("checks", str(e)) from e
        if reason is not None:
            raise _fail("checks", f"incompatible with d={params.d}, p={params.p:g}: {reason}")
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def parse_config(document: dict | str, label: str = "config") -> ExperimentConfig:
    """Validate a config document (dict or JSON text) into an ExperimentConfig.

    Rejection happens here, not at run time: malformed JSON reports line and
    column, bad fields are named, and any requested check whose hypothesis
    the (d, p) regime violates is refused with that hypothesis spelled out.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    _check_keys(document, None, _TOP_KEYS, ("d", "p", "initial_datum", "grid", "t_end"))

    d = _as_int(document["d"], "d")
    p = _as_number(document["p"], "p")
    try:
        params = ModelParams(d, p)
    except (ParameterDomainError, RegimeError, ValueError) as e:
        raise _fail("d/p", str(e)) from e
    try:
        normalization_constant(params)
    except ParameterDomainError as e:
        raise _fail("p", str(e)) from e

    datum = _parse_datum(document["initial_datum"])

    raw_grid = document["grid"]
    _check_keys(raw_grid, "grid", ("r_max", "n", "stretch"), ("r_max", "n"))
    r_max = _as_number(raw_grid["r_max"], "grid.r_max")
    n = _as_int(raw_grid["n"], "grid.n")
    stretch = _as_number(raw_grid.get("stretch", 1.0), "grid.stretch")
    try:
        grid = build_grid(d, r_max, n, stretch=stretch)
    except ValueError as e:
        raise _fail("grid", str(e)) from e

    t_end = _as_number(document["t_end"], "t_end")
    if t_end <= 0.0:
        raise _fail("t_end", f"must be positive, got {t_end}")

    solver_raw = document.get("solver", {})
    _check_keys(solver_raw, "solver", ("dt_min",), ())
    # (config field, SolverConfig field, value): every check SolverConfig
    # makes is on one field, so adding one at a time lets its error name it
    entries = [(f"solver.{k}", k, v) for k, v in solver_raw.items()]
    entries += [(k, k, document[k]) for k in ("record_every", "record_from") if k in document]
    solver = SolverConfig()
    for name, key, raw in entries:
        value = _as_number(raw, name)
        try:
            solver = dataclasses.replace(solver, **{key: value})
        except ValueError as e:
            raise _fail(name, str(e)) from e

    raw_checks = document.get("checks", "all")
    if raw_checks == "all":
        checks = compatible_checks(params)
    elif isinstance(raw_checks, list):
        checks = _requested_checks(raw_checks, params)
    else:
        raise _fail("checks", "expected 'all' or a list of check names")

    seed = _as_int(document.get("seed", DEFAULT_SEED), "seed")
    return ExperimentConfig(label=label, params=params, datum=datum, grid=grid, solver=solver,
                            t_end=t_end, checks=checks, seed=seed)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(text, label=path.stem)


def build_initial_state(config: ExperimentConfig) -> DensityState:
    """The datum projected onto the grid at unit mass; a datum whose
    projected mass is zero or not finite is a config error."""
    profile = _DATUM_KINDS[config.datum["kind"]][1]
    try:
        return project_initial(lambda r: profile(config.datum, config.params, r), config.grid)
    except ValueError as e:
        raise _fail("initial_datum", str(e)) from e


def write_trajectory_csv(path: Path, trajectory) -> None:
    """One row per record, read from the record table and written as it is
    formatted: neither the file nor the records are held in memory whole."""
    np.savetxt(path, trajectory.records.values[:, :len(CSV_COLUMNS)], fmt="%.17g",
               delimiter=",", header=",".join(CSV_COLUMNS), comments="")


# Record fields that may be non-finite, each with the flag that explains it:
# no match time without a finite profile moment, and q = inf when no face
# carries a slope.
_FLAGGED_NON_FINITE = {
    "s_match": "moments_infinite",
    "tau": "moments_infinite",
    "rel_entropy": "moments_infinite",
    "q_ratio": "q_degenerate",
}


def _non_finite_field(trajectory) -> str | None:
    """The first record field that is non-finite without a flag that
    explains it, described with its time and value, or None. One isfinite
    over the record table; only the flags of rows with a non-finite field
    are read."""
    table = trajectory.records
    bad = ~np.isfinite(table.values)
    for i in np.flatnonzero(bad.any(axis=1)).tolist():
        row = table.values[i].tolist()
        for j in np.flatnonzero(bad[i]).tolist():
            name = RECORD_NUMBERS[j]
            if _FLAGGED_NON_FINITE.get(name) not in table.flags[i]:
                return f"{name}={row[j]!r} at t={row[0]!r}"
    return None


def _fields(obj, *omit: str) -> dict:
    """A dataclass's fields as a JSON object, but those named in omit."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in omit}


def _reference_payload(reference: BarenblattReference) -> dict:
    params = reference.params
    return {
        **_fields(reference, "params", "exponents"),
        "d": params.d,
        "p": params.p,
        "regime": params.regime,
        "c_gn": sharp_constant(reference),
        "exponents": _fields(reference.exponents),
        "hypotheses": {name: unmet(params, name) is None for name in HYPOTHESES},
    }


def _summary_lines(label: str, trajectory, results: list[CheckResult]) -> list[str]:
    rec0, rec1 = trajectory.records[0], trajectory.records[-1]
    lines = [
        f"run {label}: {len(trajectory.records)} records, {trajectory.n_steps} steps, "
        f"t in [{rec0.t:g}, {rec1.t:g}], wall {trajectory.wall_time:.2f}s",
        f"  {trajectory.euler_steps} Euler steps ({trajectory.limited_steps} implicit), "
        f"{trajectory.super_steps} super-steps of at most {trajectory.max_stages} stages "
        f"({trajectory.rejected_super_steps} discarded and redone by Euler)",
    ]
    for r in results:
        if "reason" in r.details:
            verdict = "SKIP" if not r.applicable else "FAIL"
            lines.append(f"  {r.name:12s} {verdict}  {r.details['reason']}")
            continue
        binding = min(r.details["clauses"].items(), key=lambda kv: kv[1]["margin"])
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"  {r.name:12s} {verdict}  slack {r.slack:+.4f}  "
            f"binding {binding[0]}: measured {binding[1]['measured']:.6g} "
            f"vs tolerance {binding[1]['tolerance']:.6g}")
    failed = [r.name for r in results if r.applicable and not r.passed]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    elif any(r.applicable for r in results):
        lines.append("all requested checks passed")
    else:
        lines.append("no checks ran")
    return lines


def run_experiment(config: ExperimentConfig, out_dir: str | Path,
                   tol_scale: float = 1.0, echo=print) -> dict:
    """Run one config end to end; returns the report dict (also written
    to report.json, next to trajectory.csv and summary.txt).

    tol_scale multiplies every check tolerance; the CLI always runs at 1,
    and the benchmark's self-test passes 1e-12 to force a failed run."""
    state = build_initial_state(config)
    trajectory = evolve(state, config.t_end, config.params, config.solver)
    out = Path(out_dir)  # made once there is a trajectory to write
    out.mkdir(parents=True, exist_ok=True)
    # written before the checks, so a check that raises keeps the trajectory
    write_trajectory_csv(out / "trajectory.csv", trajectory)
    if trajectory.records[-1].t != config.t_end:
        raise RuntimeError(
            f"trajectory ends at t={trajectory.records[-1].t!r}, not at "
            f"t_end={config.t_end!r}; its trajectory.csv is kept, no check ran")
    bad = _non_finite_field(trajectory)
    if bad is not None:
        raise RuntimeError(
            f"trajectory has a non-finite record field, {bad}; its "
            "trajectory.csv is kept, no check ran")
    results = run_checks(
        config.checks, trajectory, tol_scale=tol_scale,
        # a barenblatt datum, the one kind with a t0, pins the delay at t0
        expected_tau=config.datum.get("t0"), gn_seed=config.seed)
    all_passed = all(r.passed for r in results if r.applicable)
    report = {
        "label": config.label,
        "d": config.params.d,
        "p": config.params.p,
        "tol_scale": tol_scale,
        "reference": _reference_payload(trajectory.reference),
        "run": {"n_records": len(trajectory.records), "t_end": config.t_end,
                **_fields(trajectory, "reference", "records", "final_state")},
        "checks": [{**_fields(r, "details"), **r.details} for r in results],
        "all_passed": all_passed,
    }
    (out / "report.json").write_text(_dump_json(report))
    lines = _summary_lines(config.label, trajectory, results)
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if echo is not None:
        echo("\n".join(lines))
    return report


def _run_path(path: str, out: str | Path | None, echo=print,
              check: str | None = None) -> tuple[str, dict | None, str | None]:
    """Isolated single-config execution used by run and sweep.

    out defaults to out/<label>; check, when given, replaces the config's
    checks by that one name. The error string starts with "config error"
    (exit 2), "solver abort" or "unexpected error" (both exit 3); an
    unexpected error also prints its traceback on stderr, so it can never
    pass for a failed check.
    """
    label = Path(path).stem
    try:
        config = load_config(path)
        if check is not None:
            config = dataclasses.replace(
                config, checks=_requested_checks([check], config.params))
        report = run_experiment(config, out or Path("out") / config.label, echo=echo)
        return label, report, None
    except ConfigError as e:
        return label, None, f"config error: {e}"
    except ParameterDomainError as e:  # evolve's build_reference: p near a threshold
        return label, None, f"config error: {_fail('p', str(e))}"
    except (StiffnessError, InstabilityError) as e:
        return label, None, f"solver abort: {e}"
    except Exception as e:
        return label, None, _unexpected_error(e)


def _unexpected_error(e: Exception) -> str:
    """Print the traceback on stderr; the message maps to exit 3."""
    traceback.print_exc()
    return f"unexpected error: {type(e).__name__}: {e}"


def _collect_configs(spec: str) -> list[str]:
    path = Path(spec)
    if path.is_dir():
        return sorted(str(p) for p in path.glob("*.json"))
    if path.suffix == ".json":
        return [str(path)]
    raise ConfigError(f"sweep target {spec!r} is neither a directory nor a .json config")


def _matrix_table(rows: list[tuple[str, dict | None, str | None]]) -> str:
    width = max([len(r[0]) for r in rows], default=5)
    header = f"{'run':<{width}}  {'d':>2} {'p':>8}  " + " ".join(
        f"{n:>11}" for n in CHECK_NAMES)
    out = [header, "-" * len(header)]
    for label, report, error in rows:
        if report is None:
            out.append(f"{label:<{width}}  ERROR: {error}")
            continue
        # a sweep runs parsed configs, whose every check is applicable
        by_name = {c["name"]: c for c in report["checks"]}
        cells = [f"{'-' if c is None else 'PASS' if c['passed'] else 'FAIL':>11}"
                 for c in map(by_name.get, CHECK_NAMES)]
        out.append(f"{label:<{width}}  {report['d']:>2} {report['p']:>8.4g}  " + " ".join(cells))
        out += [f"{'':<{width}}  {c['name']}: {c['reason']}"
                for c in report["checks"] if "reason" in c]
    return "\n".join(out)


def _exit_code(label: str, report: dict | None, error: str | None) -> int:
    if error is not None:
        print(f"{label}: {error}", file=sys.stderr)
        return 2 if error.startswith("config error") else 3
    return 0 if report["all_passed"] else 1


def cmd_run(args) -> int:
    return _exit_code(*_run_path(args.config, args.out, check=args.check))


def cmd_reference(args) -> int:
    try:
        reference = build_reference(ModelParams(args.d, _as_number(args.p, "--p")))
    except (ParameterDomainError, RegimeError, ConfigError) as e:
        print(f"invalid parameters: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        return _exit_code("reference", None, _unexpected_error(e))
    print(_dump_json(_reference_payload(reference)), end="")
    return 0


def cmd_sweep(args) -> int:
    try:
        paths = _collect_configs(args.configs)
    except ConfigError as e:
        print(f"sweep error: {e}", file=sys.stderr)
        return 2
    out_root = Path(args.out) if args.out else Path("out")
    rows = [_run_path(p, out_root / Path(p).stem, echo=None) for p in paths]

    merged = {
        "runs": [r[1] if r[1] is not None else {"label": r[0], "error": r[2]}
                 for r in rows],
        "all_passed": all(r[1] is not None and r[1]["all_passed"] for r in rows),
    }
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "sweep_report.json").write_text(_dump_json(merged))
    if rows:
        print(_matrix_table(rows))
    else:
        print("no configs found; nothing to run")
    return 0 if merged["all_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="renyiflow",
        description="Run radial nonlinear-diffusion experiments and verification checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", parents=[common], help="run one config")
    p_run.add_argument("config")
    p_run.add_argument("--check", help="run this one check instead of the config's")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a directory of configs (or one config)")
    p_sweep.add_argument("configs")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ref = sub.add_parser("reference", help="print closed-form reference values as JSON")
    p_ref.add_argument("--d", type=int, required=True)
    p_ref.add_argument("--p", required=True)
    p_ref.set_defaults(fn=cmd_reference)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
