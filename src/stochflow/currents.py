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

from . import expr
from .expr import Expr
from .manifold import (
    ChartedManifold,
    DegenerateDensityError,
    TestBasis,
    VectorFieldSpec,
    apply_field,
    grid_points,
)
from .sde import (
    NoisePath,
    StratonovichSystem,
    flow_endpoints,
    flow_paths,
    step_count,
)

__all__ = [
    "DensityCurrent",
    "EmpiricalCurrent",
    "Current",
    "volume_current",
    "evaluate",
    "evaluate_many",
    "pullback_eval",
    "pullback_values",
    "derivative_current_eval",
    "derivative_currents",
    "generator_residuals",
    "strict_residuals",
]

# paths processed together are capped to roughly this many array
# elements: per path, a state per support point and its noise
_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class DensityCurrent:
    """T(f) = integral of f * density against the volume form."""

    manifold: ChartedManifold
    density: Optional[Expr] = None  # None means the constant 1
    grid_n: int = 64
    probability: bool = False
    normalize: bool = False

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("density current needs grid_n >= 2")
        pts, weights = grid_points(self.manifold, self.grid_n)
        if self.density is not None:
            if not isinstance(self.density, Expr):
                raise TypeError(
                    f"current density must be an expression, not {self.density!r}")
            vals = expr.evaluate(self.density, pts)
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


def evaluate(T: Current, f: Expr) -> float:
    """T(f)."""
    return float(np.dot(T.weights, expr.evaluate(f, T.points)))


class _Functions:
    """Scalar fields evaluated together on point arrays (..., dim).

    The expressions are lowered into one ``expr.Lowering``, so
    subexpressions they share (the cos/sin factors of a trig basis, say)
    are computed once per point array. Functions may be given as an
    iterator: each expression is lowered as it arrives, so its tree need
    not outlive it.
    """

    def __init__(self, functions, dim: int):
        self._low = expr.Lowering()
        inputs = [f"x{i}" for i in range(dim)]
        self._names = [self._low.emit(f, inputs) for f in functions]

    def __len__(self):
        return len(self._names)

    def reduce(self, pts, reduce) -> list:
        """[reduce(f(pts)) for each function f], each value reduced, and
        its temporaries dropped, as soon as it is computed."""
        env = {f"x{i}": pts[..., i] for i in range(pts.shape[-1])}
        return self._low.run(self._names, env, reduce, pts.shape[:-1])


def evaluate_many(T: Current, functions) -> np.ndarray:
    """[T(f) for f in functions], equal to ``evaluate`` for each f.

    The functions are lowered together and share their subexpressions;
    they may be an iterator, consumed once.
    """
    batch = _Functions(functions, T.manifold.dim)
    return np.array(batch.reduce(T.points, lambda v: np.dot(T.weights, v)),
                    dtype=float)


def pullback_eval(T: Current, f: Expr, sys: StratonovichSystem,
                  noise: NoisePath) -> float:
    """Pathwise pullback (phi_t^* T)(f) = T(f o phi_t), one realization
    of the noise up to its horizon t; all support points ride it.
    """
    ends = flow_endpoints(sys, T.points, noise.dt, noise.increments)
    return float(np.dot(T.weights, expr.evaluate(f, ends)))


def pullback_values(T: Current, functions: Sequence[Expr],
                    sys: StratonovichSystem, t: float, dt: float,
                    seed: int, n_paths: int) -> np.ndarray:
    """Pullback values for several test functions over many paths.

    Flows the support once per path chunk and evaluates every function
    on its endpoints in one pass, with the expressions lowered together
    once per call (a trig basis computes each cos/sin factor once per
    chunk); returns shape (len(functions), n_paths). Paths are
    the streams path_index = 0..n_paths-1 of the given seed (flow_paths),
    aggregated in ascending order so results do not depend on chunking.
    A chunk counts about _CHUNK_ELEMS elements of states (support points
    x dim per path) and noise (steps x m per path).
    """
    steps = step_count(t, dt)
    pts = T.points
    n_pts = pts.shape[0]
    batch = _Functions(functions, sys.manifold.dim)
    out = np.empty((len(batch), n_paths))
    chunk = max(1, _CHUNK_ELEMS // (n_pts * sys.manifold.dim + steps * sys.m))
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        ends = flow_paths(sys, "endpoints", pts, dt, steps, seed,
                          range(start, stop))
        for j, vals in enumerate(batch.reduce(ends, lambda v: v @ T.weights)):
            out[j, start:stop] = vals
    return out


def derivative_current_eval(X: VectorFieldSpec, T: Current,
                            f: Expr) -> float:
    """The derivative current XT evaluated on f: XT(f) = -T(Xf)."""
    xf = apply_field(T.manifold, X, f)
    return -evaluate(T, xf)


def derivative_currents(T: Current, fields: Sequence[VectorFieldSpec],
                        functions: Sequence[Expr]) -> np.ndarray:
    """(X_i T)(f_k) = -T(X_i f_k) for every field and function, in one
    ``evaluate_many`` pass; shape (len(fields), len(functions)).

    The terms go function by function, so that the factors of one test
    function are dropped before the next one's are computed.
    """
    m = T.manifold
    xfs = (apply_field(m, X, f) for f in functions for X in fields)
    return -evaluate_many(T, xfs).reshape(len(functions), len(fields)).T


def generator_residuals(T: Current, sys: StratonovichSystem,
                        basis: TestBasis) -> np.ndarray:
    """Mean-invariance residuals r_k = T(X_0 f_k + (1/2) sum_i X_i(X_i f_k)).

    This is T(L f_k) with L the Stratonovich generator; T is invariant
    in mean exactly when every residual vanishes. The terms of every
    residual are evaluated in one ``evaluate_many`` pass.
    """
    m = sys.manifold
    drift = [] if sys.drift.is_zero else [sys.drift]
    weights = [1.0] * len(drift) + [0.5] * len(sys.diffusions)

    def terms(f):
        yield from (apply_field(m, X, f) for X in drift)
        yield from (apply_field(m, X, apply_field(m, X, f)) for X in sys.diffusions)

    vals = evaluate_many(T, (g for f in basis.functions for g in terms(f)))
    out = np.zeros(len(basis))
    for k, row in enumerate(vals.reshape(len(basis), len(weights))):
        for c, v in zip(weights, row):
            out[k] += c * v
    return out


def strict_residuals(T: Current, sys: StratonovichSystem,
                     basis: TestBasis) -> np.ndarray:
    """Strict-invariance residuals s[i, k] = (X_i T)(f_k), i = 0..m."""
    return derivative_currents(T, sys.fields(), basis.functions)
