"""Stochastic flows on compact manifolds and invariance of 0-currents.

The package simulates Stratonovich SDE flows on flat tori and the
Heisenberg nilmanifold, co-evolves flow Jacobians, and decides whether
0-currents (densities against the volume form, or weighted Dirac atoms)
are invariant or invariant-in-mean under those flows, by divergence
criteria, derivative-current residuals against trigonometric test
bases, Monte Carlo simulation, and Lie-algebraic trace criteria for
foliated Brownian motion on homogeneous spaces.

Each name is imported from the module that defines it (``from
stochflow.manifold import torus``). ``import stochflow`` loads no layer
module, so a command pays only for the layers it runs.
"""

__version__ = "0.1.0"
