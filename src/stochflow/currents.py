"""0-currents and the two flow actions on them.

A current is either a density against the volume form, evaluated by
midpoint quadrature on its grid, or a weighted sum of Dirac atoms. The
pathwise pullback evaluates T(f o phi_t) for one noise realization by
flowing the quadrature grid (mass-transport view) or the atoms;
pullback_values does so over many paths, whose mean estimates the mean
action E[T(f o phi_t)]. Derivative currents XT(f) = -T(Xf) and the
generator residual decide strict and mean invariance against a finite
test basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .manifold import (
    ChartedManifold,
    DegenerateDensityError,
    ScalarField,
    TestBasis,
    VectorFieldSpec,
    _as_scalar_fn,
    apply_field,
    grid_points,
)
from .sde import (
    NoisePath,
    StratonovichSystem,
    _check_noise,
    flow_endpoints,
    noise_matrix,
    step_count,
)

__all__ = [
    "DensityCurrent",
    "EmpiricalCurrent",
    "Current",
    "volume_current",
    "evaluate",
    "pullback_eval",
    "pullback_values",
    "derivative_current_eval",
    "generator_residuals",
    "strict_residuals",
]

# paths processed together are capped to roughly this many array elements
_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class DensityCurrent:
    """T(f) = integral of f * density against the volume form."""

    manifold: ChartedManifold
    density: Optional[ScalarField] = None  # None means the constant 1
    grid_n: int = 64
    probability: bool = False
    normalize: bool = False

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("density current needs grid_n >= 2")
        pts, weights = grid_points(self.manifold, self.grid_n)
        if self.density is not None:
            vals = np.asarray(_as_scalar_fn(self.density)(pts), dtype=float)
            if not np.all(vals > 0):
                raise DegenerateDensityError("current density must be positive")
            weights = weights * vals
        total = float(np.sum(weights))
        if not math.isfinite(total):
            raise ValueError("current has non-finite total mass")
        if self.normalize:
            weights = weights / total
            total = 1.0
        if self.probability and abs(total - 1.0) > 1e-10:
            raise ValueError(f"probability current has mass {total!r}")
        weights.setflags(write=False)
        object.__setattr__(self, "_points", pts)
        object.__setattr__(self, "_weights", weights)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def weights(self) -> np.ndarray:
        return self._weights


@dataclass(frozen=True)
class EmpiricalCurrent:
    """T(f) = sum_i w_i f(p_i) over canonical atoms."""

    manifold: ChartedManifold
    atoms: np.ndarray  # (k, dim)
    atom_weights: np.ndarray  # (k,)
    probability: bool = False

    def __post_init__(self):
        pts = self.manifold.wrap(np.atleast_2d(np.asarray(self.atoms, dtype=float)))
        w = np.atleast_1d(np.asarray(self.atom_weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise ValueError("need one weight per atom")
        if not np.all(np.isfinite(w)):
            raise ValueError("atom weights must be finite")
        if self.probability and abs(float(np.sum(w)) - 1.0) > 1e-10:
            raise ValueError("probability current has mass != 1")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "atoms", pts)
        object.__setattr__(self, "atom_weights", w)

    @property
    def points(self) -> np.ndarray:
        return self.atoms

    @property
    def weights(self) -> np.ndarray:
        return self.atom_weights


Current = Union[DensityCurrent, EmpiricalCurrent]


def volume_current(m: ChartedManifold, grid_n: int = 64,
                   probability: bool = False) -> DensityCurrent:
    """The current of the invariant volume (density 1)."""
    return DensityCurrent(manifold=m, density=None, grid_n=grid_n,
                          probability=probability)


def evaluate(T: Current, f: ScalarField) -> float:
    """T(f)."""
    vals = np.asarray(_as_scalar_fn(f)(T.points), dtype=float)
    return float(np.dot(T.weights, vals))


def pullback_eval(T: Current, f: ScalarField, sys: StratonovichSystem,
                  t: float, dt: float, noise: NoisePath) -> float:
    """Pathwise pullback (phi_t^* T)(f) = T(f o phi_t), one realization.

    All support points ride the same noise path.
    """
    _check_noise(sys, t, dt, noise)
    ends = flow_endpoints(sys, T.points, dt, noise.increments)
    vals = np.asarray(_as_scalar_fn(f)(ends), dtype=float)
    return float(np.dot(T.weights, vals))


def pullback_values(T: Current, functions: Sequence[ScalarField],
                    sys: StratonovichSystem, t: float, dt: float,
                    seed: int, n_paths: int) -> np.ndarray:
    """Pullback values for several test functions over many paths.

    Flows the support once per path chunk and reuses the endpoints for
    every function; returns shape (len(functions), n_paths). Paths are
    the streams path_index = 0..n_paths-1 of the given seed, aggregated
    in ascending order so results do not depend on chunking.
    """
    steps = step_count(t, dt)
    pts = T.points
    n_pts = pts.shape[0]
    fns = [_as_scalar_fn(f) for f in functions]
    out = np.empty((len(fns), n_paths))
    chunk = max(1, _CHUNK_ELEMS // max(1, n_pts * sys.manifold.dim))
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        inc = noise_matrix(seed, range(start, stop), sys.m, dt, steps)
        ends = flow_endpoints(sys, pts, dt, inc[:, None, :, :])
        for j, fn in enumerate(fns):
            vals = np.asarray(fn(ends), dtype=float)
            out[j, start:stop] = vals @ T.weights
    return out


def derivative_current_eval(X: VectorFieldSpec, T: Current,
                            f: ScalarField) -> float:
    """The derivative current XT evaluated on f: XT(f) = -T(Xf)."""
    xf = apply_field(T.manifold, X, f)
    return -evaluate(T, xf)


def generator_residuals(T: Current, sys: StratonovichSystem,
                        basis: TestBasis) -> np.ndarray:
    """Mean-invariance residuals r_k = T(X_0 f_k + (1/2) sum_i X_i(X_i f_k)).

    This is T(L f_k) with L the Stratonovich generator; T is invariant
    in mean exactly when every residual vanishes. Derivatives stay
    analytic whenever field and basis are expression-backed.
    """
    m = sys.manifold
    out = np.empty(len(basis))
    for k, f in enumerate(basis.functions):
        acc = 0.0
        if not sys.drift.is_zero:
            acc += evaluate(T, apply_field(m, sys.drift, f))
        for X in sys.diffusions:
            xf = apply_field(m, X, f)
            acc += 0.5 * evaluate(T, apply_field(m, X, xf))
        out[k] = acc
    return out


def strict_residuals(T: Current, sys: StratonovichSystem,
                     basis: TestBasis) -> np.ndarray:
    """Strict-invariance residuals s[i, k] = (X_i T)(f_k), i = 0..m."""
    fields = sys.fields()
    out = np.empty((len(fields), len(basis)))
    for i, X in enumerate(fields):
        for k, f in enumerate(basis.functions):
            out[i, k] = derivative_current_eval(X, T, f)
    return out
