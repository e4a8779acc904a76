"""Stochastic flows on compact manifolds and invariance of 0-currents.

The package simulates Stratonovich SDE flows on flat tori and the
Heisenberg nilmanifold, co-evolves flow Jacobians, and decides whether
0-currents (densities against the volume form, or weighted Dirac atoms)
are invariant or invariant-in-mean under those flows, by divergence
criteria, derivative-current residuals against trigonometric test
bases, Monte Carlo simulation, and Lie-algebraic trace criteria for
foliated Brownian motion on homogeneous spaces.

The names below are re-exported lazily (PEP 562): ``import stochflow``
loads no layer module, and ``stochflow.torus`` or ``from stochflow
import torus`` imports the module that defines the name on first use,
so a command pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "manifold": (
        "ChartedManifold",
        "DegenerateDensityError",
        "InvalidPointError",
        "TestBasis",
        "VectorFieldSpec",
        "heisenberg_frame",
        "heisenberg_manifold",
        "lie_bracket",
        "make_test_basis",
        "torus",
    ),
    "liealg": (
        "LieAlgebraData",
        "NotASubalgebraError",
        "Subalgebra",
        "foliated_drift",
        "invariance_verdict",
        "is_nilpotent",
        "is_semisimple",
        "killing_form",
        "tr_ad_restricted",
    ),
    "sde": (
        "FlowResult",
        "NoisePath",
        "StratonovichSystem",
        "flow_with_jacobian",
        "generate_noise",
    ),
    "currents": (
        "DensityCurrent",
        "EmpiricalCurrent",
        "evaluate_many",
        "generator_residuals",
        "strict_residuals",
        "volume_current",
    ),
    "invariance": (
        "EmpiricalRun",
        "FrameRealization",
        "InvarianceReport",
        "RealizationError",
        "check_mean_nform",
        "check_strict_nform",
        "empirical_check",
        "foliation_pipeline",
        "heisenberg_realization",
        "jacobian_check",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
