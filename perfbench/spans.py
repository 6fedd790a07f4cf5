"""In-memory spans recorded around the package's public functions.

A traced run replaces module attributes of renyiflow with timing wrappers
(the package itself is not edited). Each call becomes one span (name,
start, end, parent); spans stay in memory and are written out once, after
the run. A span's self time is its duration minus the time its child spans
cover, so the self times of a span tree add up to its root's duration.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# (module attribute the package calls through, span name). The span name's
# prefix before the first dot is the layer: the renyiflow module that owns
# the function. Each function is patched where its caller looks it up, since
# the package imports names into the calling module.
WRAP_POINTS = (
    ("renyiflow.cli", "load_config", "cli.load_config"),
    ("renyiflow.cli", "run_experiment", "cli.run_experiment"),
    ("renyiflow.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("renyiflow.cli", "build_initial_state", "grid.initial_state"),
    ("renyiflow.cli", "build_reference", "barenblatt.build_reference"),
    ("renyiflow.solver", "build_reference", "barenblatt.build_reference"),
    ("renyiflow.cli", "evolve", "solver.evolve"),
    ("renyiflow.solver", "diagnostics", "functionals.diagnostics"),
    ("renyiflow.cli", "run_checks", "checks.run_checks"),
    ("renyiflow.checks", "build_delay_report", "matching.build_delay_report"),
    ("renyiflow.checks", "gn_constant_report", "gn.gn_constant_report"),
    ("renyiflow.checks", "extremality_test", "gn.extremality_test"),
    ("renyiflow.checks", "deficit_identity_check", "gn.deficit_identity_check"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records nested spans of the wrapped calls made in this process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every WRAP_POINTS function for the rest of the process."""
        for module_name, attr, span_name in WRAP_POINTS:
            module = modules[module_name]
            setattr(module, attr, self._wrap(getattr(module, attr), span_name))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
        return timed

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def split(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per span name, each summed over spans."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + t
    return inclusive, self_s
