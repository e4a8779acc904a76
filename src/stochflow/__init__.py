"""Stochastic flows on compact manifolds and invariance of 0-currents.

The package simulates Stratonovich SDE flows on flat tori and the
Heisenberg nilmanifold, co-evolves flow Jacobians, and decides whether
0-currents (densities against the volume form, or weighted Dirac atoms)
are invariant or invariant-in-mean under those flows, by divergence
criteria, derivative-current residuals against trigonometric test
bases, Monte Carlo simulation, and Lie-algebraic trace criteria for
foliated Brownian motion on homogeneous spaces.
"""

__version__ = "0.1.0"

from .manifold import (  # noqa: F401
    ChartedManifold,
    DegenerateDensityError,
    InvalidPointError,
    TestBasis,
    VectorFieldSpec,
    divergence,
    heisenberg_frame,
    heisenberg_manifold,
    lie_bracket,
    make_test_basis,
    quadrature,
    torus,
)
from .liealg import (  # noqa: F401
    LieAlgebraData,
    NotASubalgebraError,
    SubalgebraSpec,
    ad_matrix,
    foliated_drift,
    invariance_verdict,
    is_nilpotent,
    is_semisimple,
    killing_form,
    leaf_connection,
    tr_ad_restricted,
)
from .sde import (  # noqa: F401
    FlowResult,
    NoisePath,
    StratonovichSystem,
    fd_jacobian,
    flow_with_jacobian,
    generate_noise,
)
from .currents import (  # noqa: F401
    DensityCurrent,
    EmpiricalCurrent,
    derivative_current_eval,
    evaluate,
    generator_residuals,
    pullback_eval,
    strict_residuals,
    volume_current,
)
from .invariance import (  # noqa: F401
    FrameRealization,
    InvarianceReport,
    RealizationError,
    check_mean_nform,
    check_strict_nform,
    empirical_check,
    foliation_pipeline,
    heisenberg_realization,
    jacobian_check,
)
