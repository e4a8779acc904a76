"""0-currents and the two flow actions on them.

A current is either a density against the volume form, evaluated by
midpoint quadrature on its grid, or a weighted sum of Dirac atoms.
pullback_values evaluates the pathwise pullback T(f o phi_t) by flowing
the quadrature grid (mass-transport view) or the atoms along many noise
paths; column p is the pullback of path p alone, and the mean over the
paths estimates the mean action E[T(f o phi_t)]. Derivative currents
XT(f) = -T(Xf) and the generator residual decide strict and mean
invariance against a finite test basis; both are contractions of the
fields' coefficients, weighted on the support once, against the partial
derivatives of the basis.

The midpoint grid (``grid_points``) and the trigonometric test basis
(``make_test_basis``) are defined here, beside the currents that
integrate test functions, and not in ``manifold``: building an
experiment, which every command does, compiles neither.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import Sequence, Union

import numpy as np

from . import expr
from .expr import Expr
from .manifold import (
    ChartedManifold,
    DegenerateDensityError,
    StratonovichSystem,
    VectorFieldSpec,
    apply_field,
    is_compatible_field,
    step_count,
)
from .proofs import is_identically_zero
from .sde import endpoint_arrays, flow_paths

__all__ = [
    "grid_points",
    "TestBasis",
    "make_test_basis",
    "DensityCurrent",
    "EmpiricalCurrent",
    "Current",
    "volume_current",
    "evaluate_many",
    "pullback_values",
    "derivative_currents",
    "generator_residuals",
    "strict_residuals",
]

# paths processed together are capped to roughly this many array
# elements: per path, its noise and, per support point, the most values
# that the flow or the evaluation of the test functions holds at once
_CHUNK_ELEMS = 4_000_000


# ---------------------------------------------------------------------------
# quadrature and test bases

@lru_cache(maxsize=64)
def _grid(m: ChartedManifold, n: int):
    axes = [(np.arange(n) + 0.5) * (li / n) for li in m.box_lengths]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    pts.setflags(write=False)  # shared by every caller
    cell = float(np.prod(m.lengths)) / n ** m.dim
    return pts, cell


def grid_points(m: ChartedManifold, n: int):
    """Midpoint grid (n^dim, dim), read-only and computed once per (m, n),
    and its quadrature weights (n^dim,)."""
    pts, cell = _grid(m, n)
    return pts, np.full(pts.shape[0], cell)


class TestBasis:
    """Trig-monomial test functions with analytic gradients."""

    def __init__(self, manifold: ChartedManifold, cutoff: int, functions: tuple):
        self.manifold = manifold
        self.cutoff = cutoff
        self.functions = functions

    def __len__(self):
        return len(self.functions)


@lru_cache(maxsize=64)
def make_test_basis(m: ChartedManifold, cutoff: int) -> TestBasis:
    """Products of 1, cos(2 pi k x_i / L_i), sin(2 pi k x_i / L_i), k <= cutoff,
    over the axes x_i that are no shear's target x_k; built once per
    (m, cutoff).

    On a torus that is every axis. On the Heisenberg manifold it is x and
    y: the basis is pulled back from the base torus, constant along the
    fiber, so it cannot tell apart densities that differ only along z.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    twisted = {k for _, _, k in m.shears}
    per_axis = []
    for i in sorted(set(range(m.dim)) - twisted):
        factors = [expr.constant(1.0)]
        for k in range(1, cutoff + 1):
            arg = expr.mul(expr.constant(2.0 * math.pi * k / m.box_lengths[i]),
                           expr.coordinate(i))
            factors += [expr.call("cos", arg), expr.call("sin", arg)]
        per_axis.append(factors)
    functions = [reduce(expr.mul, combo, expr.constant(1.0))
                 for combo in itertools.product(*per_axis)]
    return TestBasis(manifold=m, cutoff=cutoff, functions=tuple(functions))


# ---------------------------------------------------------------------------
# currents

class DensityCurrent:
    """T(f) = integral of f * density against the volume form, as a sum
    over the midpoint grid: points (n^dim, dim) and read-only weights
    (n^dim,), the cell volume times the density. The volume is the
    density 1, whose weights are the cell volumes bit for bit. The
    density must be positive and descend to the quotient."""

    def __init__(self, manifold: ChartedManifold, density: Expr,
                 grid_n: int = 64, normalize: bool = False):
        self.manifold = manifold
        self.density = density
        self.grid_n = grid_n
        self.normalize = normalize
        if grid_n < 2:
            raise ValueError("density current needs grid_n >= 2")
        if not isinstance(density, Expr):
            raise TypeError(f"current density must be an expression, not {density!r}")
        pts, weights = grid_points(manifold, grid_n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # a value that is not finite fails one of the two tests below
            vals = expr.evaluate(density, pts)
        if not np.all(vals > 0):
            raise DegenerateDensityError("current density must be positive")
        weights = weights * vals
        total = float(np.sum(weights))
        if not math.isfinite(total):
            raise ValueError("current has non-finite total mass")
        if not is_compatible_field(manifold, density):
            raise DegenerateDensityError("current density does not descend to "
                                         "the quotient")
        if normalize:
            weights = weights / total
        weights.setflags(write=False)
        self.points = pts
        self.weights = weights


class EmpiricalCurrent:
    """T(f) = sum_i w_i f(p_i) over canonical atoms: points (k, dim) and
    read-only weights (k,), and no grid."""

    def __init__(self, manifold: ChartedManifold, atoms, atom_weights):
        pts = manifold.wrap(np.atleast_2d(np.asarray(atoms, dtype=float)))
        w = np.atleast_1d(np.asarray(atom_weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise ValueError("need one weight per atom")
        if not np.all(np.isfinite(w)):
            raise ValueError("atom weights must be finite")
        pts.setflags(write=False)
        w.setflags(write=False)
        self.manifold = manifold
        self.points = pts
        self.weights = w
        self.grid_n = None


Current = Union[DensityCurrent, EmpiricalCurrent]


def volume_current(m: ChartedManifold, grid_n: int = 64) -> DensityCurrent:
    """The current of the invariant volume (density 1)."""
    return DensityCurrent(manifold=m, density=expr.constant(1.0), grid_n=grid_n)


def evaluate_many(T: Current, functions) -> np.ndarray:
    """[T(f) for f in functions]: the dot product of T.weights with the
    values of f on T.points, with the bits of np.dot(T.weights,
    expr.evaluate(f, T.points)).

    The functions are lowered together and share their subexpressions;
    they may be an iterator, consumed once.
    """
    batch = expr.Functions(functions, T.manifold.dim)
    return np.array(batch.reduce(T.points, lambda v: np.dot(T.weights, v)),
                    dtype=float)


def pullback_values(T: Current, functions: Sequence[Expr],
                    sys: StratonovichSystem, t: float, dt: float,
                    seed: int, paths: range, factor: int = 1) -> np.ndarray:
    """Pullback values for several test functions over many paths.

    Flows the support once per path chunk and evaluates every function
    on its endpoints in one pass, with the expressions lowered together
    once per call (a trig basis computes each cos/sin factor once per
    chunk); returns shape (len(functions), len(paths)). Column n is the
    stream path_index = paths[n] of the given seed, drawn at dt / factor
    and summed onto the grid of dt (flow_paths).
    Column n depends on path paths[n] alone: each path's pullback is
    summed over the support in one order (``_weigh``), so its bits do not
    depend on the chunking or on the other paths, and the columns of
    range(k) are the first k of any range(n). A chunk holds about
    _CHUNK_ELEMS elements: per path, its noise (steps x factor x m: a run
    shorter than a noise block draws it all at once) and, per support
    point, the arrays of the flow or, after it, the endpoints (dim) and
    the arrays that evaluating the functions holds at once. So memory
    does not grow with len(paths).
    """
    steps = step_count(t, dt)
    pts = T.points
    n_pts = pts.shape[0]
    batch = expr.Functions(functions, sys.manifold.dim)
    out = np.empty((len(batch), len(paths)))
    arrays = max(endpoint_arrays(sys), sys.manifold.dim + batch.peak_arrays)
    chunk = max(1, _CHUNK_ELEMS // (n_pts * arrays + steps * factor * sys.m))
    for start in range(0, len(paths), chunk):
        ends = flow_paths(sys, "endpoints", pts, dt, steps, seed,
                          paths[start:start + chunk], factor)
        for j, vals in enumerate(batch.reduce(ends, lambda v: _weigh(v, T))):
            out[j, start:start + chunk] = vals
    return out


def _weigh(values: np.ndarray, T: Current) -> np.ndarray:
    """T(f) per path, from the values (..., support) of f on T.points
    moved by each path: each row is summed in the same order whatever
    the number of rows, which a matrix-vector product (BLAS) does not
    do."""
    return np.einsum("...i,i->...", values, T.weights)


def _contract(T: Current, terms, n_out: int, functions) -> np.ndarray:
    """out[o, k] = sum of T(c * d_q f_k) over the terms (c, o, q), q the
    tuple of axes d_q differentiates along; shape (n_out, len(functions)).

    Coefficients that ``proofs.is_identically_zero`` proves zero are
    dropped; the others are evaluated once on T.points, times T.weights,
    into a (rows, support) matrix. The partials d_q f_k other than the
    constant 0 are lowered together, and each is reduced by one mat-vec
    against that matrix as soon as it is computed, so memory stays
    O(rows x support).
    """
    terms = [t for t in terms if not is_identically_zero(t[0])]
    out = np.zeros((n_out, len(functions)))
    if not terms:
        return out
    dim = T.manifold.dim
    rows = np.array(expr.Functions((c for c, _, _ in terms), dim).reduce(
        T.points, lambda v: T.weights * v))
    axes = list(dict.fromkeys(q for _, _, q in terms))
    pairs = [[(r, o) for r, (_, o, q) in enumerate(terms) if q == qa]
             for qa in axes]
    zero = expr.constant(0.0)
    wanted = [(k, i, d) for k, f in enumerate(functions)
              for i, q in enumerate(axes)
              if (d := reduce(expr.diff, q, f)) is not zero]
    batch = expr.Functions((d for _, _, d in wanted), dim)
    for (k, i, _), v in zip(wanted, batch.reduce(T.points, lambda v: rows @ v)):
        for r, o in pairs[i]:
            out[o, k] += v[r]
    return out


def derivative_currents(T: Current, fields: Sequence[VectorFieldSpec],
                        functions: Sequence[Expr]) -> np.ndarray:
    """(X_i T)(f_k) = -T(X_i f_k) = -sum_j T(X_i^j d_j f_k) for every
    field and function, as one contraction; shape
    (len(fields), len(functions)).
    """
    terms = [(c, i, (j,)) for i, X in enumerate(fields)
             for j, c in enumerate(X.components)]
    return -_contract(T, terms, len(fields), tuple(functions))


def generator_residuals(T: Current, sys: StratonovichSystem,
                        basis: TestBasis) -> np.ndarray:
    """Mean-invariance residuals r_k = T(X_0 f_k + (1/2) sum_i X_i(X_i f_k)).

    This is T(L f_k) with L the Stratonovich generator; T is invariant
    in mean exactly when every residual vanishes. By the chain rule
    L f = sum_j b^j d_j f + sum_{j<=l} A^{jl} d_j d_l f, with
    b^j = X_0^j + (1/2) sum_i (X_i . grad) X_i^j and
    A^{jl} = (1/2) sum_i X_i^j X_i^l, doubled off the diagonal; the
    residuals are one contraction of those coefficients against the
    partials of the basis.
    """
    m = sys.manifold
    half = expr.constant(0.5)
    terms = []
    for j in range(m.dim):
        corr = expr.constant(0.0)
        for X in sys.diffusions:
            corr = expr.add(corr, apply_field(m, X, X.components[j]))
        terms.append((expr.add(sys.drift.components[j], expr.mul(half, corr)),
                      0, (j,)))
    for j in range(m.dim):
        for l in range(j, m.dim):
            a = expr.constant(0.0)
            for X in sys.diffusions:
                a = expr.add(a, expr.mul(X.components[j], X.components[l]))
            terms.append((expr.mul(half, a) if j == l else a, 0, (j, l)))
    return _contract(T, terms, 1, basis.functions)[0]


def strict_residuals(T: Current, sys: StratonovichSystem,
                     basis: TestBasis) -> np.ndarray:
    """Strict-invariance residuals s[i, k] = (X_i T)(f_k), i = 0..m."""
    return derivative_currents(T, sys.fields(), basis.functions)
