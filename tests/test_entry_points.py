"""Code outside the package that calls into it by name: the README's library
quick start and the benchmark's tracing hooks. Neither is imported by the
package, so a renamed function or a changed signature would break them
silently; these tests run them against the package as it is."""
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_true(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


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
