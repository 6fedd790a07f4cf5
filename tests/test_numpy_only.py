"""renyiflow runs on numpy alone: no import and no run may load scipy, and
no run may call LAPACK.

The tests themselves use scipy as an oracle, so a run here proves nothing
about imports; each run happens in a fresh interpreter whose meta path
refuses every scipy module, and its outputs must equal an unblocked run's.
The LAPACK runs replace numpy.linalg._linalg._umath_linalg, the module
eigvalsh (behind leggauss), lstsq (behind polyfit) and every other
numpy.linalg solver go through, by a stub that raises on any attribute
access.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renyiflow as rf
from renyiflow.cli import main

SRC = Path(rf.__file__).resolve().parents[1]

BLOCKED_RUN = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from renyiflow.cli import main

code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
sys.exit(code)
"""

NO_LAPACK = """
import sys
import numpy as np
import numpy.linalg._linalg as linalg

class NoLapack:
    def __getattr__(self, name):
        raise RuntimeError(f"LAPACK reached: {name}")

linalg._umath_linalg = NoLapack()
"""

NO_LAPACK_RUN = NO_LAPACK + "from renyiflow.cli import main\nsys.exit(main(sys.argv[1:]))\n"

NO_LAPACK_REFERENCES = NO_LAPACK + """
import renyiflow as rf
for d in range(1, 9):
    # both regimes, each side of p = d/(d+2), and p near 1 (e large)
    for p in (max(0.0, 1.0 - 2.0 / d) + 0.05, d / (d + 2.0) + 0.01, 0.9, 0.999,
              1.001, 1.5, 2.0, 5.0):
        rf.build_reference(rf.ModelParams(d, p))
"""

TINY = {
    "d": 1,
    "p": 2,
    "grid": {"r_max": 6.0, "n": 200},
    "t_end": 0.05,
    "record_every": 0.01,
    "checks": "all",
}

DATA = [
    {"kind": "gaussian", "width": 0.8},
    {"kind": "indicator", "radius": 1.0, "smoothing": 0.25},
    {"kind": "barenblatt", "t0": 1.0},
    {"kind": "table", "r": [0.0, 1.0, 2.0], "u": [1.0, 0.5, 0.0]},
]

# fast diffusion reaches the deficit and delay-envelope checks, whose time
# integrals used scipy; on this short coarse run theorem1 and deficit fail
FAST = {
    "d": 3,
    "p": "2/3",
    "initial_datum": {"kind": "gaussian", "width": 1.0},
    "grid": {"r_max": 40.0, "n": 200, "stretch": 1.02},
    "t_end": 0.2,
    "record_every": 0.02,
    "checks": "all",
}


def _report(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text())
    del report["run"]["wall_time"], report["run"]["diagnostics_time"]  # timings
    return report


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run the script with args in a fresh interpreter that imports this
    checkout's renyiflow."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("doc,code", [(dict(TINY, initial_datum=datum), 0) for datum in DATA]
                         + [(FAST, 1)], ids=[d["kind"] for d in DATA] + ["fast_diffusion"])
def test_run_without_scipy_matches_unblocked_run(tmp_path, doc, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "unblocked")]) == code
    proc = _fresh(BLOCKED_RUN, "run", str(path), "--out", str(tmp_path / "blocked"))
    assert proc.returncode == code, proc.stderr
    csv = "trajectory.csv"
    assert (tmp_path / "blocked" / csv).read_bytes() == (tmp_path / "unblocked" / csv).read_bytes()
    assert _report(tmp_path / "blocked") == _report(tmp_path / "unblocked")


def test_reference_without_scipy():
    # near-critical fast diffusion: the quadrature's hardest tail
    proc = _fresh(BLOCKED_RUN, "reference", "--d", "2", "--p", "0.01")
    assert proc.returncode == 0, proc.stderr
    reference = json.loads(proc.stdout)
    assert reference["theta"] is None  # infinite, written as JSON null
    assert reference["hypotheses"]["finite_moments"] is False


@pytest.mark.parametrize("call", ["np.polynomial.legendre.leggauss(4)",
                                  "np.polyfit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], 1)"])
def test_lapack_stub_catches_calls(call):
    proc = _fresh(NO_LAPACK + call + "\n")
    assert proc.returncode != 0
    assert "LAPACK reached" in proc.stderr


# the coarse fast-diffusion run reaches build_reference, the gn slope fit,
# the deficit and envelope checks, and the implicit step's solve
@pytest.mark.parametrize("doc,code", [(dict(TINY, initial_datum=DATA[0]), 0), (FAST, 1)],
                         ids=["gaussian", "fast_diffusion"])
def test_run_without_lapack_matches_unstubbed_run(tmp_path, doc, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "free")]) == code
    proc = _fresh(NO_LAPACK_RUN, "run", str(path), "--out", str(tmp_path / "stubbed"))
    assert proc.returncode == code, proc.stderr
    csv = "trajectory.csv"
    assert (tmp_path / "stubbed" / csv).read_bytes() == (tmp_path / "free" / csv).read_bytes()
    report = _report(tmp_path / "stubbed")
    assert {c["name"] for c in report["checks"] if c["applicable"]} >= {"theorem1", "gn"}
    if doc is FAST:
        assert report["run"]["limited_steps"] > 0
    assert report == _report(tmp_path / "free")


def test_build_reference_without_lapack():
    proc = _fresh(NO_LAPACK_REFERENCES)
    assert proc.returncode == 0, proc.stderr
