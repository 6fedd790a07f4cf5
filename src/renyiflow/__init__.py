"""Radial nonlinear diffusion flows du/dt = Laplacian(u**p).

Self-similar reference profiles, entropy/information functionals along the
flow, best-matching scale and delay estimates, and the sharp interpolation
constants attached to the profile's extremality.
"""
from .params import ModelParams, ExponentSet, ParameterDomainError, RegimeError, derive_exponents
from .barenblatt import (
    BarenblattReference,
    build_reference,
    profile_density,
    self_similar_density,
)
from .grid import RadialGrid, DensityState, build_grid, project_initial
from .solver import SolverConfig, Trajectory, evolve
from .functionals import FunctionalRecord, diagnostics
from .matching import DelayReport, best_match_scale, build_delay_report
from .gn import GnParams, gn_exponent, gn_quotient
from .checks import (
    CHECK_NAMES,
    CheckResult,
    compatible_checks,
    incompatibility,
    run_check,
    run_checks,
)

__all__ = [
    "ModelParams",
    "ExponentSet",
    "ParameterDomainError",
    "RegimeError",
    "derive_exponents",
    "BarenblattReference",
    "build_reference",
    "profile_density",
    "self_similar_density",
    "RadialGrid",
    "DensityState",
    "build_grid",
    "project_initial",
    "SolverConfig",
    "Trajectory",
    "evolve",
    "FunctionalRecord",
    "diagnostics",
    "DelayReport",
    "best_match_scale",
    "build_delay_report",
    "GnParams",
    "gn_exponent",
    "gn_quotient",
    "CHECK_NAMES",
    "CheckResult",
    "compatible_checks",
    "incompatibility",
    "run_check",
    "run_checks",
]
