"""Shipped experiment presets.

hamiltonian_torus        volume preservation under Hamiltonian stirring
frame_divergence_torus   orthonormal-frame divergence criterion with
                         explicit structure constants, realized on T^2
sl2_foliation            the sl(2,R) subalgebra with nonzero trace:
                         designed negative, exit code 2
heisenberg_foliation     foliated Brownian motion on the Heisenberg
                         nilmanifold, harmonic volume current
translation_bm_torus     baseline Brownian translations on T^2
"""

from __future__ import annotations

__all__ = ["PRESETS", "preset_names", "preset_text"]

_HAMILTONIAN = """\
# Volume preservation under Hamiltonian stirring on the flat 2-torus.
# Stream functions a*sin cos / 2pi and a*cos sin / 2pi with a = 0.25.
[manifold]
type = torus
lengths = 1, 1

[fields]
drift = 0, 0
diffusion1 = -0.25*sin(2*pi*x1)*sin(2*pi*x2), -0.25*cos(2*pi*x1)*cos(2*pi*x2)
diffusion2 = 0.25*cos(2*pi*x1)*cos(2*pi*x2), 0.25*sin(2*pi*x1)*sin(2*pi*x2)

[current]
density = 1
grid = 64

[check strict_nform]
tolerance = 1e-8

[check strict_residual]
basis_k = 3

[check mean_residual]
basis_k = 3

[check jacobian]
t = 1.0
dt = 0.001
paths = 100
seed = 7
tolerance = 0.01
x0 = 0.3, 0.7
"""

_FRAME_DIVERGENCE = """\
# Orthonormal-frame divergence criterion with explicit structure
# constants a_ij^l (all zero: the frame d/dx, d/dy commutes), realized
# as Brownian translations on the flat 2-torus.
[liealg]
constants = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0]}]}
subalgebra = 1, 2
realization = torus

[check foliation]
t = 1.0
dt = 0.001
paths = 200
grid = 8
basis_k = 3
seed = 5
"""

_SL2 = """\
# sl(2,R) with brackets [X,Y]=2Y, [X,Z]=-2Z, [Y,Z]=X and h = span{X,Y}.
# Tr_h ad(X) = 2, so the volume measure is not totally invariant:
# this preset is the designed negative and exits with code 2.
[liealg]
algebra = sl2
subalgebra = 1, 2

[check foliation]
seed = 0
"""

_HEISENBERG = """\
# Foliated Brownian motion on the Heisenberg nilmanifold for the
# abelian subalgebra h = span{X, Z}: zero drift, harmonic volume.
[liealg]
algebra = heisenberg
subalgebra = 1, 3
realization = heisenberg

[check foliation]
t = 1.0
dt = 0.001
paths = 1000
grid = 8
basis_k = 3
seed = 11
"""

_TRANSLATION = """\
# Baseline: Brownian translations on the flat 2-torus preserve the
# volume current pathwise and in mean.
[manifold]
type = torus
lengths = 1, 1

[fields]
drift = 0, 0
diffusion1 = 1, 0
diffusion2 = 0, 1

[current]
density = 1
grid = 16

[check strict_nform]
tolerance = 1e-8

[check strict_residual]
basis_k = 3
grid = 32

[check mean_residual]
basis_k = 3
grid = 32

[check empirical_pathwise]
t = 1.0
dt = 0.001
seed = 3
basis_k = 3
tolerance = 0.01

[check empirical_mean]
t = 1.0
dt = 0.001
paths = 1000
seed = 3
basis_k = 3
"""

PRESETS = {
    "hamiltonian_torus": _HAMILTONIAN,
    "frame_divergence_torus": _FRAME_DIVERGENCE,
    "sl2_foliation": _SL2,
    "heisenberg_foliation": _HEISENBERG,
    "translation_bm_torus": _TRANSLATION,
}


def preset_names():
    return sorted(PRESETS)


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return PRESETS[name]
