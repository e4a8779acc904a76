"""Example Stratonovich systems that the tests run."""

from __future__ import annotations

from stochflow.manifold import VectorFieldSpec, heisenberg_frame, heisenberg_manifold, torus
from stochflow.sde import StratonovichSystem

__all__ = [
    "hamiltonian_torus_system",
    "translation_bm_system",
    "sin_drift_system",
    "multiplicative_circle_system",
    "heisenberg_foliated_system",
    "heisenberg_fiber_system",
    "THETA_DENSITY",
    "builtin_systems",
]

# Stirring amplitude for the Hamiltonian pair. Kept well below 1 so the
# flow map stays numerically volume-preserving at dt = 1e-3, t = 1
# (stronger stirring is chaotic enough that the Heun map's own volume
# distortion exceeds the 1e-2 cross-check budget).
HAMILTONIAN_AMPLITUDE = 0.25


def hamiltonian_torus_system(amplitude: float = HAMILTONIAN_AMPLITUDE) -> StratonovichSystem:
    """Two Hamiltonian diffusion fields on the flat 2-torus.

    Streams h1 = a sin(2 pi x1) cos(2 pi x2) / 2 pi and
    h2 = a cos(2 pi x1) sin(2 pi x2) / 2 pi, with X_h = (dh/dx2, -dh/dx1);
    the phase shift keeps the joint degeneracies to isolated points.
    """
    a = repr(float(amplitude))
    x1 = VectorFieldSpec.from_strings([
        f"-{a}*sin(2*pi*x1)*sin(2*pi*x2)",
        f"-{a}*cos(2*pi*x1)*cos(2*pi*x2)",
    ])
    x2 = VectorFieldSpec.from_strings([
        f"{a}*cos(2*pi*x1)*cos(2*pi*x2)",
        f"{a}*sin(2*pi*x1)*sin(2*pi*x2)",
    ])
    return StratonovichSystem(manifold=torus(1.0, 1.0),
                              drift=VectorFieldSpec.zero(2),
                              diffusions=(x1, x2))


def translation_bm_system(dim: int = 2) -> StratonovichSystem:
    """Brownian translations: diffusions d/dx_i on the flat torus."""
    m = torus(*([1.0] * dim))
    fields = []
    for i in range(dim):
        comps = ["0"] * dim
        comps[i] = "1"
        fields.append(VectorFieldSpec.from_strings(comps))
    return StratonovichSystem(manifold=m, drift=VectorFieldSpec.zero(dim),
                              diffusions=tuple(fields))


def sin_drift_system() -> StratonovichSystem:
    """Deterministic sin(2 pi x) d/dx on the circle; not volume preserving."""
    return StratonovichSystem(manifold=torus(1.0),
                              drift=VectorFieldSpec.from_strings(["sin(2*pi*x1)"]),
                              diffusions=())


def multiplicative_circle_system() -> StratonovichSystem:
    """sin(2 pi x) d/dx as diffusion; the convergence-study system."""
    field = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    return StratonovichSystem(manifold=torus(1.0),
                              drift=VectorFieldSpec.zero(1),
                              diffusions=(field,))


def heisenberg_foliated_system() -> StratonovichSystem:
    """Foliated BM on the Heisenberg nilmanifold for h = span{X, Z}.

    The subalgebra is abelian, so the drift vanishes and the diffusions
    are the frame fields X and Z.
    """
    x_field, _, z_field = heisenberg_frame()
    return StratonovichSystem(manifold=heisenberg_manifold(),
                              drift=VectorFieldSpec.zero(3),
                              diffusions=(x_field, z_field))


def heisenberg_fiber_system() -> StratonovichSystem:
    """sin(2 pi x1) Z on the Heisenberg nilmanifold: one diffusion along
    the fiber, whose strength varies across the base."""
    return StratonovichSystem(
        manifold=heisenberg_manifold(), drift=VectorFieldSpec.zero(3),
        diffusions=(VectorFieldSpec.from_strings(["0", "0", "sin(2*pi*x1)"]),))


# The Weil-Brezin theta function of central frequency 1 on the Heisenberg
# nilmanifold, truncated at |n| <= 4, as a positive density: it depends on
# the fiber coordinate x3 and descends to the quotient.
THETA_DENSITY = "2 + 0.5*(" + " + ".join(
    f"exp(-(x1 {n:+d})*(x1 {n:+d})/0.08)*cos(2*pi*(x3 {n:+d}*x2))"
    for n in range(-4, 5)) + ")"


def builtin_systems() -> dict:
    return {
        "hamiltonian_torus": hamiltonian_torus_system(),
        "translation_bm_torus": translation_bm_system(),
        "sin_drift_circle": sin_drift_system(),
        "multiplicative_circle": multiplicative_circle_system(),
        "heisenberg_foliation": heisenberg_foliated_system(),
    }
