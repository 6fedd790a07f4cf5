import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import renyiflow as rf
from renyiflow import barenblatt, cli
from renyiflow.checks import CheckResult
from renyiflow.cli import (
    CSV_COLUMNS,
    ConfigError,
    build_initial_state,
    load_config,
    main,
    parse_config,
    run_experiment,
)
from renyiflow.functionals import FunctionalRecord
from renyiflow.params import ExponentSet
from renyiflow.solver import Trajectory

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = {
    "d": 1,
    "p": 2,
    "initial_datum": {"kind": "gaussian", "width": 1.0},
    "grid": {"r_max": 6.0, "n": 64},
    "t_end": 0.05,
    "record_every": 0.01,
    "checks": ["theorem1", "theorem2"],
}


def tiny_config(**overrides):
    doc = json.loads(json.dumps(TINY))
    doc.update(overrides)
    return doc


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def test_parse_minimal_config():
    cfg = parse_config(tiny_config())
    assert cfg.params == rf.ModelParams(1, 2.0)
    assert cfg.grid.d == 1 and cfg.grid.r_max == 6.0 and cfg.grid.n == 64
    assert np.allclose(np.diff(cfg.grid.edges), 6.0 / 64)  # stretch 1: uniform
    assert cfg.t_end == 0.05
    assert cfg.checks == ("theorem1", "theorem2")
    assert cfg.solver.record_every == 0.01
    assert cfg.datum == {"kind": "gaussian", "width": 1.0}
    assert cfg.seed == 20260814


def test_record_every_and_record_from_parse_together():
    cfg = parse_config(tiny_config(record_every=0.0125, record_from="1/20"))
    assert cfg.solver == rf.SolverConfig(record_every=0.0125, record_from=0.05)


def test_fraction_strings_parse_exactly():
    grid = {"r_max": "80/2", "n": 64, "stretch": 1.01}
    cfg = parse_config(tiny_config(d=3, p="2/3", grid=grid, checks=["theorem2"]))
    assert cfg.params.p == 2.0 / 3.0
    assert cfg.grid.r_max == 40.0
    assert cfg.grid.edges.tobytes() == rf.build_grid(3, 40.0, 64, stretch=1.01).edges.tobytes()


def test_checks_all_expands_to_compatible_subset():
    cfg = parse_config(tiny_config(checks="all"))
    assert cfg.checks == rf.compatible_checks(cfg.params)
    assert "deficit" not in cfg.checks  # p = 2 is not fast diffusion


def test_checks_deduplicate_preserving_order():
    cfg = parse_config(tiny_config(checks=["theorem2", "theorem1", "theorem2"]))
    assert cfg.checks == ("theorem2", "theorem1")


@pytest.mark.parametrize("datum,clauses", [
    ({"kind": "barenblatt", "t0": 1.5}, {"tau_monotone", "tau_flat"}),
    ({"kind": "gaussian", "width": 1.0}, {"tau_monotone"}),
], ids=["barenblatt", "gaussian"])
def test_barenblatt_datum_pins_the_delay(tmp_path, datum, clauses):
    # a barenblatt datum's age is the delay theorem3 holds tau flat at;
    # other data leave tau free
    cfg = parse_config(tiny_config(initial_datum=datum, checks=["theorem3"]))
    (theorem3,) = run_experiment(cfg, tmp_path, echo=None)["checks"]
    assert set(theorem3["clauses"]) == clauses


@pytest.mark.parametrize("mutation,fragment", [
    (dict(checks=["gn"], p=0.4, d=3), "p > 1/2"),
    (dict(checks=["deficit"]), "fast diffusion"),
    (dict(checks=["theorem9"]), "unknown check"),
    (dict(checks="some"), "expected 'all' or a list"),
    (dict(p=1.0), "heat flow"),
    (dict(p="1/0"), "zero denominator"),
    (dict(p=[2]), "expected a number"),
    (dict(d=1.5), "expected an integer"),
    (dict(t_end=-1.0), "must be positive"),
    (dict(grid={"r_max": 6.0}), "config field 'grid': missing keys: n"),
    (dict(grid={"r_max": 6.0, "n": 64, "cells": 3}), "config field 'grid': unknown keys: cells"),
    (dict(grid=[6.0]), "expected {r_max, n, stretch}"),
    (dict(initial_datum={"kind": "blob"}), "unknown kind"),
    (dict(initial_datum={"kind": "gaussian"}),
     "config field 'initial_datum': missing keys: width"),
    (dict(initial_datum={"kind": "gaussian", "width": -1.0}), "must be positive"),
    (dict(initial_datum={"kind": "gaussian", "width": 1.0, "t0": 1.0}),
     "config field 'initial_datum': unknown keys: t0"),
    (dict(initial_datum={"kind": "table", "r": [0.0, 1.0], "u": [1.0]}),
     "equal-length"),
    (dict(initial_datum={"kind": "table", "r": [1.0, 0.5], "u": [1.0, 1.0]}),
     "strictly increasing"),
    (dict(initial_datum={"kind": "table", "r": [0.0, 1.0], "u": [0.0, 0.0]}),
     "positive mass"),
    (dict(solver={"verbose": True}), "config field 'solver': unknown keys: verbose"),
    # the CFL number is the solver's constant: cfl is an unknown key
    (dict(solver={"cfl": 2.0}), "cfl"),
    (dict(record_from=-0.05), "config field 'record_from': record_from must be finite and >= 0"),
    (dict(record_from=math.inf), "config field 'record_from': must be finite, got inf"),
    (dict(cadence=0.1), "config: unknown keys: cadence"),
    (dict(seed=1.5), "expected an integer"),
    (dict(output_dir="out/x"), "config: unknown keys: output_dir"),
    (dict(grid={"r_max": 6.0, "n": 12}), "at least 16 cells"),
    (dict(grid={"r_max": -1.0, "n": 64}), "r_max must be positive"),
    (dict(grid={"r_max": 6.0, "n": 64, "stretch": 0.5}), "stretch must be >= 1"),
    (dict(grid={"r_max": 6.0, "n": 1e999}), "must be finite"),
    (dict(grid={"r_max": math.nan, "n": 64}), "must be finite"),
    # parsed only: evolving it would schedule records without end
    (dict(t_end=1e999), "must be finite"),
    (dict(grid={"r_max": 10**400, "n": 64}), "must be finite"),
    # the grid is an object only, and the solver has no step cap
    (dict(grid=[6.0, 64, 1.0]), "expected {r_max, n, stretch}"),
    (dict(solver={"dt_max": 1.0}), "config field 'solver': unknown keys: dt_max"),
    (dict(record_from=math.nan), "config field 'record_from': must be finite, got nan"),
    # evolve derives the step floor
    (dict(solver={"u_floor": 1e-9}), "config field 'solver': unknown keys: u_floor"),
    # grids whose steps come out NaN: stretch**n overflows to non-finite
    # edges, the inner edges' cubes underflow to 403 cells of zero volume,
    # and r_max**3 overflows
    (dict(grid={"r_max": 6.0, "n": 2000, "stretch": 1.5}),
     "stretch 1.5 over 2000 cells to r_max 6 leaves an empty or non-finite cell"),
    (dict(d=3, grid={"r_max": 896000.0, "n": 1050, "stretch": 1.5}),
     "stretch 1.5 over 1050 cells to r_max 896000 leaves an empty or non-finite cell"),
    (dict(d=3, grid={"r_max": 1e120, "n": 64}),
     "stretch 1 over 64 cells to r_max 1e+120 leaves an empty or non-finite cell"),
    # every object's shape has one check: each datum kind's fields, and a
    # non-object solver or datum
    (dict(initial_datum={"kind": "barenblatt"}),
     "config field 'initial_datum': missing keys: t0"),
    (dict(initial_datum={"kind": "barenblatt", "t0": 1.0, "width": 1.0}),
     "config field 'initial_datum': unknown keys: width"),
    (dict(initial_datum={"kind": "indicator", "radius": 1.0}),
     "config field 'initial_datum': missing keys: smoothing"),
    (dict(initial_datum={"kind": "indicator", "radius": 1.0, "smoothing": 0.25, "t0": 1.0}),
     "config field 'initial_datum': unknown keys: t0"),
    (dict(solver=[0.9]), "config field 'solver': expected {dt_min}, got list"),
    (dict(initial_datum="gaussian"), "config field 'initial_datum': expected {kind}, got str"),
    # a kind that is not a string is unknown too, not a crash
    (dict(initial_datum={"kind": ["gaussian"]}), "unknown kind ['gaussian']"),
    # the record schedule's errors name their own top-level key
    (dict(record_every=-1), "config field 'record_every': record_every must be positive"),
    (dict(record_from=[0.05]), "config field 'record_from': expected a number"),
    (dict(solver={"dt_min": -1e-9}),
     "config field 'solver.dt_min': dt_min must be finite and >= 0, got -1e-09"),
    (dict(solver={"dt_min": math.nan}), "config field 'solver.dt_min': must be finite, got nan"),
    (dict(solver={"dt_min": "inf"}), "config field 'solver.dt_min': must be finite"),
])
def test_parse_rejections(mutation, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(tiny_config(**mutation))
    assert fragment in str(err.value)


def test_missing_required_key():
    doc = tiny_config()
    del doc["t_end"]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "t_end" in str(err.value)


def test_malformed_json_reports_position():
    with pytest.raises(ConfigError) as err:
        parse_config('{\n  "d": ,\n}')
    assert "line 2" in str(err.value)


def test_non_object_rejected():
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


@pytest.mark.parametrize("datum", [
    {"kind": "gaussian", "width": 0.8},
    {"kind": "indicator", "radius": 1.0, "smoothing": 0.25},
    {"kind": "barenblatt", "t0": 1.0},
    {"kind": "table", "r": [0.0, 1.0, 2.0], "u": [1.0, 0.5, 0.0]},
])
def test_initial_states_are_normalized(datum):
    cfg = parse_config(tiny_config(initial_datum=datum))
    state = build_initial_state(cfg)
    assert state.grid.integrate(state.u) == pytest.approx(1.0, abs=1e-13)
    assert np.all(state.u >= 0.0)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_build_unit_mass(path):
    state = build_initial_state(load_config(path))
    assert state.grid.integrate(state.u) == pytest.approx(1.0, abs=1e-13)
    assert np.all(state.u >= 0.0)


def test_table_datum_interpolates_then_vanishes():
    cfg = parse_config(tiny_config(
        grid={"r_max": 6.0, "n": 600},
        initial_datum={"kind": "table", "r": [0.0, 2.0], "u": [1.0, 1.0]}))
    state = build_initial_state(cfg)
    inside = state.u[state.grid.centers < 1.9]
    outside = state.u[state.grid.centers > 2.1]
    assert np.allclose(inside, inside[0])
    assert np.all(outside == 0.0)


def test_run_outputs_and_determinism(tmp_path):
    cfg = parse_config(tiny_config())
    r1 = run_experiment(cfg, tmp_path / "a", echo=None)
    r2 = run_experiment(cfg, tmp_path / "b", echo=None)
    for out in (tmp_path / "a", tmp_path / "b"):
        assert (out / "trajectory.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "summary.txt").exists()
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
           (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert r1["all_passed"] and r2["all_passed"]


def test_trajectory_csv_format(tmp_path):
    cfg = parse_config(tiny_config())
    run_experiment(cfg, tmp_path, echo=None)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == "t,dt,mass,theta,E,I,F,G,H,J,q,s,tau,rel_entropy,R"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6   # t = 0, four interior records, t_end
    for row in rows:
        assert len(row) == len(CSV_COLUMNS)
        for cell in row:
            float(cell)
    # 17 significant digits round-trip the doubles exactly
    t_back = [float(r[0]) for r in rows]
    assert t_back[0] == 0.0 and t_back[-1] == 0.05


def test_report_verdicts_carry_slacks(tmp_path):
    cfg = parse_config(tiny_config())
    report = run_experiment(cfg, tmp_path, echo=None)
    assert json.loads((tmp_path / "report.json").read_text()) is not None
    for check in report["checks"]:
        assert check["applicable"] is True
        assert isinstance(check["passed"], bool)
        # a verdict is never a bare boolean: slack, tolerance, and the
        # per-clause measurements ride along
        assert isinstance(check["slack"], float)
        assert isinstance(check["tolerance"], float)
        for clause in check["clauses"].values():
            assert {"measured", "tolerance", "margin", "passed"} <= set(clause)


def test_gn_seed_flows_from_config(tmp_path):
    cfg = parse_config(tiny_config(checks=["gn"], seed=4242))
    report = run_experiment(cfg, tmp_path, echo=None)
    gn = report["checks"][0]
    assert gn["name"] == "gn" and gn["seed"] == 4242


def test_summary_lines(tmp_path, capsys):
    cfg = parse_config(tiny_config())
    run_experiment(cfg, tmp_path)
    text = (tmp_path / "summary.txt").read_text()
    assert "theorem1" in text and "theorem2" in text
    assert "PASS" in text and "all requested checks passed" in text
    assert capsys.readouterr().out.strip() == text.strip()


def test_main_run_exit_codes(tmp_path):
    path = write_config(tmp_path / "ok.json", tiny_config())
    assert main(["run", path, "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("schedule", [
    {"record_every": 0.1},
    {"record_every": 0.0125, "record_from": 0.1},
], ids=["cadence_of_t_end", "record_from_at_t_end"])
def test_two_record_run_is_judged(tmp_path, schedule):
    # records at t0 and t_end only: the deficit integral is one trapezoid and
    # has no window to judge concavity on, so the run is checked, not a crash
    doc = {"d": 3, "p": "2/3", "initial_datum": {"kind": "barenblatt", "t0": 1.0},
           "grid": {"r_max": 2000.0, "n": 200, "stretch": 1.03}, "t_end": 0.1,
           "checks": "all", **schedule}
    path = write_config(tmp_path / "two.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "two")]) in (0, 1)
    report = json.loads((tmp_path / "two" / "report.json").read_text())
    assert report["run"]["n_records"] == 2
    deficit = next(c for c in report["checks"] if c["name"] == "deficit")
    assert set(deficit["clauses"]) == {
        "partial_nondecreasing", "budget_bound", "concavity_rate_identity"}
    assert deficit["low_confidence"] is True


def test_main_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_grid_error_exit(tmp_path, capsys):
    # a grid build_grid refuses is a config error, not a crash of the run
    path = write_config(tmp_path / "coarse.json", tiny_config(grid={"r_max": 6.0, "n": 12}))
    assert main(["run", path, "--out", str(tmp_path / "coarse")]) == 2
    assert "at least 16 cells" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    # (r / 1e-200)**2 overflows at every node: the datum is exp(-inf) = 0
    dict(initial_datum={"kind": "gaussian", "width": 1e-200}),
    # u r**2 overflows the shell integrals
    dict(d=3, p="2/3", initial_datum={"kind": "table", "r": [0, 1e6], "u": [1e300, 1e300]},
         grid={"r_max": 2e6, "n": 64}),
], ids=["zero", "overflow"])
def test_main_datum_mass_error_exit(tmp_path, capsys, doc):
    # a datum whose projected mass is zero or not finite is a config error,
    # reached with no RuntimeWarning on the way
    path = write_config(tmp_path / "datum.json", tiny_config(**doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", path, "--out", str(tmp_path / "datum")]) == 2
    assert "config field 'initial_datum': initial profile has mass" in capsys.readouterr().err


def test_main_solver_abort_exit(tmp_path, capsys):
    doc = tiny_config(solver={"dt_min": 1e3})
    path = write_config(tmp_path / "stiff.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "stiff")]) == 3
    assert "solver abort" in capsys.readouterr().err


def test_main_reference(capsys):
    assert main(["reference", "--d", "3", "--p", "2/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_star"] == pytest.approx(1.825968029843779, rel=1e-12)
    assert payload["exponents"]["mu"] == pytest.approx(1.0)
    assert payload["regime"] == "singular"

    assert main(["reference", "--d", "3", "--p", "0.2"]) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_main_reference_names_the_flag(capsys):
    # --p is a CLI flag, not a config field
    assert main(["reference", "--d", "3", "--p", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid parameters: --p: expected a number or 'a/b' "
                            "fraction string, got 'abc'\n")


def test_main_run_one_check(tmp_path, capsys):
    path = write_config(tmp_path / "ok.json", tiny_config())
    assert main(["run", path, "--check", "theorem2",
                 "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["theorem2"]

    assert main(["run", path, "--check", "deficit"]) == 2
    assert "fast diffusion" in capsys.readouterr().err
    assert main(["run", path, "--check", "nonsense"]) == 2


def test_sweep_matches_run(tmp_path, capsys):
    # sweep writes each config's outputs to out/<stem>, the bytes run writes
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    write_config(cfg_dir / "one.json", tiny_config())
    write_config(cfg_dir / "two.json", tiny_config(
        initial_datum={"kind": "indicator", "radius": 1.0, "smoothing": 0.3}))

    assert main(["sweep", str(cfg_dir), "--out", str(tmp_path / "sweep")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "one" in out and "two" in out

    for stem in ("one", "two"):
        assert main(["run", str(cfg_dir / f"{stem}.json"),
                     "--out", str(tmp_path / "run" / stem)]) == 0
        a = (tmp_path / "sweep" / stem / "trajectory.csv").read_bytes()
        b = (tmp_path / "run" / stem / "trajectory.csv").read_bytes()
        assert a == b

    merged = json.loads((tmp_path / "sweep" / "sweep_report.json").read_text())
    assert merged["all_passed"] is True
    assert len(merged["runs"]) == 2


def test_sweep_empty_directory(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["sweep", str(empty), "--out", str(tmp_path / "out")]) == 0
    merged = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    assert merged == {"runs": [], "all_passed": True}
    assert "nothing to run" in capsys.readouterr().out


def test_run_all_checks_below_remainder_window(tmp_path):
    # d/(d+2) < p < 1 - 1/d: "all" must expand to checks that can run there
    doc = tiny_config(
        d=3, p=0.63, grid={"r_max": 1000.0, "n": 120, "stretch": 1.06},
        t_end=1.0, record_every=0.05, checks="all")
    path = write_config(tmp_path / "band.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "band")]) == 0
    report = json.loads((tmp_path / "band" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["theorem2", "theorem3"]


def test_run_all_checks_below_moment_threshold(tmp_path):
    # p <= d/(d+2): "all" admits no check, the run still succeeds and the
    # summary does not claim a pass
    doc = tiny_config(
        d=3, p=0.55, grid={"r_max": 1000.0, "n": 120, "stretch": 1.06},
        t_end=0.2, record_every=0.05, checks="all")
    path = write_config(tmp_path / "low.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "low")]) == 0
    report = json.loads((tmp_path / "low" / "report.json").read_text())
    assert report["checks"] == [] and report["all_passed"] is True
    summary = (tmp_path / "low" / "summary.txt").read_text()
    assert "all requested checks passed" not in summary
    assert summary.splitlines()[-1] == "no checks ran"


def _checks_failing_at(p_bad):
    real = cli.run_checks

    def fake(names, trajectory, *args, **kwargs):
        if trajectory.reference.params.p == p_bad:
            raise RuntimeError("injected fault")
        return real(names, trajectory, *args, **kwargs)

    return fake


def test_main_unexpected_error_exit(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path / "ok.json", tiny_config())
    assert main(["run", path, "--out", str(tmp_path / "clean")]) == 0
    monkeypatch.setattr(cli, "run_checks", _checks_failing_at(2.0))
    assert main(["run", path, "--out", str(tmp_path / "ok")]) == 3
    # the finished trajectory outlives the check that raised
    csv = "trajectory.csv"
    assert (tmp_path / "ok" / csv).read_bytes() == (tmp_path / "clean" / csv).read_bytes()
    assert main(["run", path, "--check", "theorem2",
                 "--out", str(tmp_path / "v")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected fault" in err
    assert "unexpected error" in err


def test_sweep_records_unexpected_error_and_continues(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_checks", _checks_failing_at(3.0))
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    write_config(cfg_dir / "a_bad.json", tiny_config(p=3))
    write_config(cfg_dir / "b_good.json", tiny_config())
    assert main(["sweep", str(cfg_dir), "--out", str(tmp_path / "out")]) == 1
    merged = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    bad, good = merged["runs"]
    assert bad["label"] == "a_bad" and "injected fault" in bad["error"]
    assert good["label"] == "b_good" and good["all_passed"] is True
    assert (tmp_path / "out" / "b_good" / "trajectory.csv").exists()
    assert "ERROR: unexpected error" in capsys.readouterr().out


def test_truncated_trajectory_stops_before_checks(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path / "ok.json", tiny_config())
    assert main(["run", path, "--out", str(tmp_path / "clean")]) == 0
    evolve = cli.evolve

    def truncated(*args, **kwargs):
        trajectory = evolve(*args, **kwargs)
        return dataclasses.replace(trajectory, records=trajectory.records[:-1])

    checked = []
    monkeypatch.setattr(cli, "evolve", truncated)
    monkeypatch.setattr(cli, "run_checks", lambda *a, **kw: checked.append(a))
    assert main(["run", path, "--out", str(tmp_path / "cut")]) == 3
    assert not checked
    assert "not at t_end=0.05" in capsys.readouterr().err
    # the trajectory is kept as recorded, and no report claims a verdict
    clean = (tmp_path / "clean" / "trajectory.csv").read_text().splitlines()
    assert (tmp_path / "cut" / "trajectory.csv").read_text().splitlines() == clean[:-1]
    assert not (tmp_path / "cut" / "report.json").exists()


@pytest.mark.parametrize("name,value", [
    ("fisher", math.nan),
    ("tail_frac", math.inf),  # not a CSV column, still a record field
    ("tau", math.nan),        # NaN without the moments_infinite flag
])
def test_non_finite_record_stops_before_checks(tmp_path, capsys, monkeypatch, name, value):
    path = write_config(tmp_path / "ok.json", tiny_config())
    evolve = cli.evolve

    def poisoned(*args, **kwargs):
        trajectory = evolve(*args, **kwargs)
        records = list(trajectory.records)
        records[2] = records[2]._replace(**{name: value})
        return dataclasses.replace(trajectory, records=records)

    checked = []
    monkeypatch.setattr(cli, "evolve", poisoned)
    monkeypatch.setattr(cli, "run_checks", lambda *a, **kw: checked.append(a))
    assert main(["run", path, "--out", str(tmp_path / "bad")]) == 3
    assert not checked
    assert f"non-finite record field, {name}={value!r} at t=0.02" in capsys.readouterr().err
    # the trajectory is kept as recorded, and no report claims a verdict
    assert (tmp_path / "bad" / "trajectory.csv").exists()
    assert not (tmp_path / "bad" / "report.json").exists()


def test_profile_constant_overflow_is_config_error(tmp_path, capsys):
    # ModelParams admits (3, 0.3334), but its c_star = exp(7.1e4) has no
    # double: a config error that names p, at parse time and in `reference`
    doc = tiny_config(d=3, p=0.3334, checks=[])
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "config field 'p'" in str(err.value) and "c_star" in str(err.value)
    path = write_config(tmp_path / "edge.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "edge")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "edge").exists()
    assert main(["reference", "--d", "3", "--p", "0.3334"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid parameters: p = 0.3334" in captured.err


def test_report_records_resolved_floor(tmp_path):
    # the step floor in use: eps * max(u0) for p < 1, 0 for p > 1
    doc = tiny_config(d=3, p="2/3", grid={"r_max": 40.0, "n": 64, "stretch": 1.01},
                      t_end=0.01, checks=[])
    cfg = parse_config(doc)
    report = run_experiment(cfg, tmp_path / "fast", echo=None)
    u0_max = float(build_initial_state(cfg).u.max())
    assert report["run"]["u_floor"] == np.finfo(float).eps * u0_max
    report = run_experiment(parse_config(tiny_config()), tmp_path / "slow", echo=None)
    assert report["run"]["u_floor"] == 0.0
    on_disk = json.loads((tmp_path / "slow" / "report.json").read_text())
    assert on_disk["run"]["u_floor"] == 0.0


def test_report_counts_steps_by_integrator(tmp_path):
    # the tiny Gaussian fills every cell, so RKL2 super-steps carry it;
    # n_steps counts flux evaluations, s >= 4 per super-step
    report = run_experiment(parse_config(tiny_config(t_end=0.5, record_every=0.25)),
                            tmp_path, echo=None)
    run = report["run"]
    assert run["super_steps"] > 0 and run["rejected_super_steps"] == 0
    assert run["n_steps"] >= run["euler_steps"] + 4 * run["super_steps"]
    assert run["whole_space_entropy"] is False  # p > 1: E over the box
    assert 0.0 < run["dt_min"] <= run["dt_max"] <= 0.25  # no step crosses a record
    on_disk = json.loads((tmp_path / "report.json").read_text())["run"]
    assert {k: on_disk[k] for k in run} == run
    summary = (tmp_path / "summary.txt").read_text().splitlines()[1]
    assert summary == (f"  {run['euler_steps']} Euler steps ({run['limited_steps']} implicit), "
                       f"{run['super_steps']} super-steps of at most {run['max_stages']} "
                       "stages (0 discarded and redone by Euler)")


_NEAR = {"0.600000001": "too close to d/(d+2) = 0.6 at d = 3",
         "1.0000001": "too close to 1 at d = 1"}


@pytest.mark.parametrize("d,p", [("3", "0.600000001"), ("1", "1.0000001")])
def test_main_reference_near_threshold_is_config_error(tmp_path, capsys, d, p):
    # next to d/(d+2) and to 1 the closed forms lose their digits and the
    # cross-check fails: p is rejected with the threshold it is near
    # (exit 2), in `reference` and in a run, never a crash or a failed check
    assert main(["reference", "--d", d, "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"invalid parameters: p = {p} is {_NEAR[p]}" in captured.err
    path = write_config(tmp_path / "near.json", tiny_config(d=int(d), p=p, checks=[]))
    assert main(["run", path, "--out", str(tmp_path / "near")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and not (tmp_path / "near").exists()
    assert f"config error: config field 'p': p = {p} is {_NEAR[p]}" in err


def test_main_reference_wrong_closed_form_exits_3(capsys, monkeypatch):
    # far from every threshold a failed cross-check is a fault of the
    # program: a failed run (exit 3) with its traceback
    exact = barenblatt.reference_functionals

    def skewed(params):
        vals = exact(params)
        vals["theta"] *= 1.0 + 1e-7
        return vals

    monkeypatch.setattr(barenblatt, "reference_functionals", skewed)
    assert main(["reference", "--d", "3", "--p", "2/3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "reference: unexpected error: RuntimeError: closed-form theta" in captured.err


def _synthetic_trajectory(values):
    """A trajectory whose records cycle through the given column values."""
    fields = FunctionalRecord._fields[:-1]  # every field but flags
    records = [FunctionalRecord(**{name: values[(k + i) % len(values)]
                                   for i, name in enumerate(fields)})
               for k in range(len(values))]
    return Trajectory(rf.build_reference(rf.ModelParams(1, 2.0)), records=records)


# each trajectory.csv column and the record field it prints, written out
# apart from the writer's rule: a reordered record fails the test below
CSV_FIELD_OF = {"t": "t", "dt": "dt", "mass": "mass", "theta": "theta", "E": "entropy",
                "I": "fisher", "F": "f_power", "G": "g_power", "H": "h_renyi",
                "J": "j_scale", "q": "q_ratio", "s": "s_match", "tau": "tau",
                "rel_entropy": "rel_entropy", "R": "remainder"}


def test_streamed_csv_matches_joined_rendering(tmp_path):
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
              1e308, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -math.pi,
              np.float64(2.0) / 3.0, 123456789.01234567, 1e-17, 2.0, -7.5e-310]
    trajectory = _synthetic_trajectory(values)
    cli.write_trajectory_csv(tmp_path / "t.csv", trajectory)
    assert tuple(CSV_FIELD_OF) == CSV_COLUMNS
    lines = [",".join(CSV_COLUMNS)]
    for rec in trajectory.records:
        lines.append(",".join("%.17g" % getattr(rec, CSV_FIELD_OF[c]) for c in CSV_COLUMNS))
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_streamed_csv_memory_stays_flat(tmp_path):
    # 4,001 records, as the densest benchmark run keeps: the joined text is
    # ~1.4 MB, while writing row by row holds one row and the file buffer
    rng = np.random.default_rng(7)
    trajectory = _synthetic_trajectory([float(x) for x in rng.standard_normal(4001)])
    tracemalloc.start()
    try:
        cli.write_trajectory_csv(tmp_path / "t.csv", trajectory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 1_000_000
    assert peak < 256 * 1024


def test_report_records_diagnostics_time(tmp_path):
    # the seconds evolve spent in its diagnostics blocks, part of wall_time
    report = run_experiment(parse_config(tiny_config()), tmp_path, echo=None)
    run = report["run"]
    assert 0.0 < run["diagnostics_time"] < run["wall_time"]
    on_disk = json.loads((tmp_path / "report.json").read_text())["run"]
    assert on_disk["diagnostics_time"] == run["diagnostics_time"]


def test_unevaluable_envelope_fails_prop_t4_with_its_reason(tmp_path, capsys):
    # a d = 1, p = 0.4 Gaussian starts at q ~ 1.1e66, beyond what the
    # envelope's denominator can hold: prop_t4 fails with the reason, and
    # the run exits 1 instead of 3
    doc = tiny_config(p=0.4, grid={"r_max": 40.0, "n": 160}, t_end=1e-3,
                      record_every=1e-4, checks="all")
    path = write_config(tmp_path / "d1_p04.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "run")]) == 1
    reason = "prop_t4      FAIL  not evaluable: envelope denominator nonpositive"
    assert reason in (tmp_path / "run" / "summary.txt").read_text()
    capsys.readouterr()
    assert main(["sweep", str(tmp_path), "--out", str(tmp_path / "sweep")]) == 1
    table = capsys.readouterr().out
    assert "prop_t4: not evaluable: envelope denominator nonpositive" in table


@pytest.mark.parametrize("command,flag", [("run", "--tol-scale"), ("sweep", "--parallel")])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # run's tolerances are checks.py's, and sweep runs its configs in turn
    path = write_config(tmp_path / "ok.json", tiny_config())
    with pytest.raises(SystemExit) as exit_:
        main([command, path, "--out", str(tmp_path / "out"), flag, "2"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_beyond_double_precision_is_kept_exactly():
    # 2**60 + 1 has no double; the gn generator reads the seed's low 32
    # bits, which must be 1, not the 0 of the rounded 2**60
    seed = 2**60 + 1
    for doc in (tiny_config(seed=seed), json.dumps(tiny_config(seed=seed))):
        cfg = parse_config(doc)
        assert cfg.seed == seed and cfg.seed % 2**32 == 1
    assert parse_config(tiny_config(seed="12/4")).seed == 3
    with pytest.raises(ConfigError) as err:
        parse_config(tiny_config(seed=10**400))
    assert "must be finite" in str(err.value)


def test_report_run_object_is_the_trajectory(tmp_path, monkeypatch):
    # every Trajectory field but the reference, the records and the final
    # state, each equal to the trajectory's, beside n_records and t_end
    captured = []
    evolve = cli.evolve

    def kept(*args, **kwargs):
        captured.append(evolve(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "evolve", kept)
    cfg = parse_config(tiny_config())
    report = run_experiment(cfg, tmp_path, echo=None)
    (trajectory,) = captured
    names = [f.name for f in dataclasses.fields(Trajectory)
             if f.name not in ("reference", "records", "final_state")]
    expected = {"n_records": len(trajectory.records), "t_end": cfg.t_end,
                **{name: getattr(trajectory, name) for name in names}}
    assert report["run"] == expected
    assert json.loads((tmp_path / "report.json").read_text())["run"] == expected


def test_report_reference_and_checks_are_their_types(tmp_path, monkeypatch, capsys):
    # the reference object: the BarenblattReference's fields but params and
    # exponents, plus d, p, regime, c_gn, exponents and hypotheses, and the
    # same object `renyiflow reference` prints; each check object: the
    # CheckResult's fields but details, merged with the details
    captured = []
    run_checks = cli.run_checks

    def kept(*args, **kwargs):
        captured.append(run_checks(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "run_checks", kept)
    report = run_experiment(parse_config(tiny_config()), tmp_path, echo=None)
    assert json.loads((tmp_path / "report.json").read_text()) == report
    reference_keys = {f.name for f in dataclasses.fields(barenblatt.BarenblattReference)}
    assert set(report["reference"]) == reference_keys - {"params"} | {
        "d", "p", "regime", "c_gn", "hypotheses"}
    assert set(report["reference"]["exponents"]) == {
        f.name for f in dataclasses.fields(ExponentSet)}
    assert main(["reference", "--d", "1", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == report["reference"]

    (results,) = captured
    result_keys = {f.name for f in dataclasses.fields(CheckResult)} - {"details"}
    assert [c["name"] for c in report["checks"]] == ["theorem1", "theorem2"]
    for check, result in zip(report["checks"], results, strict=True):
        assert "clauses" in result.details
        assert set(check) == result_keys | set(result.details)
        assert all(check[key] == getattr(result, key) for key in result_keys)


def _strict_json(text: str):
    """text parsed as RFC 8259 JSON: NaN and Infinity are not numbers."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_report_and_reference_are_strict_json(tmp_path, capsys):
    # d = 1, p = 0.3 has an infinite profile second moment: theta and its
    # kin are +inf, h_star and the gn gap nan, each written as null (the
    # verdicts are not what this test reads)
    doc = tiny_config(p=0.3, grid={"r_max": 40.0, "n": 160}, checks="all")
    path = write_config(tmp_path / "heavy.json", doc)
    main(["sweep", path, "--out", str(tmp_path / "sweep")])
    capsys.readouterr()
    report = _strict_json((tmp_path / "sweep" / "heavy" / "report.json").read_text())
    assert report["reference"]["theta"] is None and report["reference"]["h_star"] is None
    assert _strict_json((tmp_path / "sweep" / "sweep_report.json").read_text())["runs"] == [
        report]
    assert main(["reference", "--d", "1", "--p", "0.3"]) == 0
    reference = _strict_json(capsys.readouterr().out)
    assert reference["theta"] is None and reference["hypotheses"]["finite_moments"] is False
    assert reference == report["reference"]


def test_dump_json_refuses_an_unmapped_non_finite_value():
    assert cli._dump_json({"a": [math.inf, (1.5, -math.inf)], "b": {"c": math.nan}}) == (
        '{\n  "a": [\n    null,\n    [\n      1.5,\n      null\n    ]\n  ],\n'
        '  "b": {\n    "c": null\n  }\n}\n')
    # a float key is not a value the mapping reaches: allow_nan=False refuses it
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._dump_json({"a": {math.inf: 1}})


def test_sweep_of_one_config_file(tmp_path, capsys):
    path = write_config(tmp_path / "one.json", tiny_config())
    assert main(["sweep", path, "--out", str(tmp_path / "sweep")]) == 0
    merged = json.loads((tmp_path / "sweep" / "sweep_report.json").read_text())
    assert [run["label"] for run in merged["runs"]] == ["one"]
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 3 and table[2].startswith("one ")


def test_sweep_of_a_non_config_is_an_error(tmp_path, capsys):
    target = tmp_path / "README.md"
    target.write_text("# not a config\n")
    assert main(["sweep", str(target), "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err == (
        f"sweep error: sweep target {str(target)!r} is neither a directory nor a .json config\n")


def test_run_of_a_missing_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")]) == 2
    assert "absent: config error: cannot read config" in capsys.readouterr().err


def test_boolean_dimension_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(tiny_config(d=True))
    assert str(err.value) == "config field 'd': expected a number, got True"
