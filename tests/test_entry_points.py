"""Text that names the package's parts but that no package code runs: the
README's library quick start, the config examples of the README and the
`cli` docstring, the demos, and the benchmark's tracing hooks and workload
configs. A renamed function, a changed signature or a removed config key
would break them silently; these tests run them against the package as it
is."""
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renyiflow as rf
from renyiflow import cli, solver

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_true(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


def test_documented_configs_parse():
    readme = (ROOT / "README.md").read_text()
    examples = {
        "README": re.search(r"### Config schema\n\n```json\n(.*?)```", readme, re.S),
        "cli docstring": re.search(r"\n\n(    \{\n.*?\n    \})\n", cli.__doc__, re.S),
    }
    for source, block in examples.items():
        assert block is not None, source
        cli.parse_config(block.group(1))


def test_config_schema_names_every_top_level_key():
    # a renamed or removed key must not leave the README's schema stale
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"### Config schema\n(.*?)\n### ", readme, re.S).group(1)
    missing = [key for key in cli._TOP_KEYS
               if f"`{key}`" not in section and f'"{key}"' not in section]
    assert not missing, missing


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # as a reader runs it, in its own interpreter; a RuntimeWarning or a
    # DeprecationWarning fails it, as in the other tests
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_wrap_points_resolve(monkeypatch):
    # the traced benchmark run patches each (module, attribute) by name
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)
    spec.loader.exec_module(spans)
    assert spans.WRAP_POINTS
    for module_name, attr, _ in spans.WRAP_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_workload_configs_parse():
    # the benchmark builds its workloads from configs/ (fd3_exact_dense
    # copies fd3_gaussian.json's solver object), so a config edit can break
    # it without breaking any shipped config
    spec = importlib.util.spec_from_file_location("bench", ROOT / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.WORKLOADS
    for name in bench.WORKLOADS:
        cli.parse_config(bench.workload_config(name, seed=1), label=name)


def test_benchmark_wrap_point_sees_every_record(monkeypatch):
    # the traced benchmark times diagnostics through renyiflow.solver; evolve
    # must call it there, once per block, with every record once, in order
    calls = []
    real = solver.diagnostics

    def counted(states, *args, **kwargs):
        calls.append([state.t for state in states])
        return real(states, *args, **kwargs)

    monkeypatch.setattr(solver, "diagnostics", counted)
    grid = rf.build_grid(1, 6.0, 400)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    observed = []
    traj = rf.evolve(state, 0.1, rf.ModelParams(1, 2.0), rf.SolverConfig(record_every=0.001),
                     observer=lambda rec, snap: observed.append(snap.t))
    n_records = len(traj.records)
    block = solver.record_block(grid.n)
    assert n_records > 2 * block
    assert len(calls) == math.ceil(n_records / block)
    assert [t for call in calls for t in call] == traj.series("t").tolist()
    assert observed == traj.series("t").tolist()
