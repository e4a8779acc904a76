"""Compact charted manifolds: wrapping, fields, differential operators,
quadrature and trigonometric test bases.

Built-ins are flat tori of arbitrary periods and the Heisenberg
nilmanifold presented as a periodic box with the twisted identification
(x,y,z) ~ (x+a, y+b, z+c+a*y), carrying the left-invariant frame
X = d/dx, Y = d/dy + x d/dz, Z = d/dz.

Manifolds, fields and bases are immutable after construction; every
operation here is pure and safe to call from concurrent workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import expr
from .expr import Expr

__all__ = [
    "InvalidPointError",
    "DegenerateDensityError",
    "ChartedManifold",
    "VectorFieldSpec",
    "TestBasis",
    "torus",
    "heisenberg_manifold",
    "heisenberg_frame",
    "divergence",
    "product_divergence_expr",
    "lie_bracket",
    "quadrature",
    "make_test_basis",
    "apply_field",
    "identified_pairs",
    "is_compatible_field",
    "is_invariant_function",
    "linear_combination",
]

TORUS = "torus"
HEISENBERG = "heisenberg"


class InvalidPointError(ValueError):
    pass


class DegenerateDensityError(ValueError):
    pass


@dataclass(frozen=True)
class ChartedManifold:
    """A compact manifold presented as a periodic box with identifications."""

    dim: int
    box_lengths: tuple
    identification: str = TORUS

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "box_lengths",
                           tuple(float(v) for v in self.box_lengths))
        if len(self.box_lengths) != self.dim:
            raise ValueError("need one period length per coordinate")
        if any(not (v > 0 and math.isfinite(v)) for v in self.box_lengths):
            raise ValueError("period lengths must be positive and finite")
        if self.identification not in (TORUS, HEISENBERG):
            raise ValueError(f"unknown identification {self.identification!r}")
        if self.identification == HEISENBERG:
            if self.dim != 3:
                raise ValueError("heisenberg identification needs dim 3")
            lx, ly, lz = self.box_lengths
            if abs((lx * ly / lz) - round(lx * ly / lz)) > 1e-9:
                raise ValueError("heisenberg lattice needs Lx*Ly integer multiple of Lz")

    @property
    def lengths(self) -> np.ndarray:
        return np.asarray(self.box_lengths)

    def wrap(self, p) -> np.ndarray:
        """Canonical representative in the fundamental domain [0, L_i)."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise InvalidPointError(
                f"point has {p.shape[-1] if p.ndim else 0} coordinates, need {self.dim}")
        if not np.all(np.isfinite(p)):
            raise InvalidPointError("non-finite coordinate")
        lengths = self.lengths
        if self.identification == TORUS:
            q = np.mod(p, lengths)
            return np.where(q >= lengths, q - lengths, q)
        lx, ly, lz = self.box_lengths
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        a = np.floor(x / lx)
        xw = x - a * lx
        bump = xw >= lx  # float rounding can land exactly on the boundary
        a = a + bump
        xw = np.where(bump, xw - lx, xw)
        # lattice element (-a*lx, ., .) also shifts z by -a*lx*y
        z1 = z - a * lx * y
        yw = np.mod(y, ly)
        yw = np.where(yw >= ly, yw - ly, yw)
        zw = np.mod(z1, lz)
        zw = np.where(zw >= lz, zw - lz, zw)
        return np.stack([xw, yw, zw], axis=-1)

    def random_points(self, n, rng) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=(n, self.dim)) * self.lengths


def torus(*lengths: float) -> ChartedManifold:
    if not lengths:
        raise ValueError("need at least one period length")
    return ChartedManifold(dim=len(lengths), box_lengths=tuple(lengths))


def heisenberg_manifold() -> ChartedManifold:
    return ChartedManifold(dim=3, box_lengths=(1.0, 1.0, 1.0),
                           identification=HEISENBERG)


@dataclass(frozen=True)
class VectorFieldSpec:
    """Coordinate components of a vector field, as expressions."""

    dim: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise ValueError("need one component per coordinate")
        for c in self.components:
            if not isinstance(c, Expr):
                raise TypeError(f"component must be an expression, not {c!r}")
            if expr.max_coordinate(c) > self.dim:
                raise ValueError(
                    f"component references x{expr.max_coordinate(c)} beyond dim {self.dim}")

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "VectorFieldSpec":
        comps = tuple(expr.parse(s) for s in strings)
        return cls(dim=len(comps), components=comps)

    @classmethod
    def zero(cls, dim: int) -> "VectorFieldSpec":
        return cls(dim=dim, components=tuple(expr.constant(0.0) for _ in range(dim)))

    @property
    def is_zero(self) -> bool:
        return all(isinstance(c, expr.Num) and c.value == 0.0
                   for c in self.components)

    @property
    def is_constant(self) -> bool:
        return all(expr.is_constant(c) for c in self.components)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape)
        for i, c in enumerate(self.components):
            out[..., i] = expr.evaluate(c, pts)
        return out


def heisenberg_frame() -> tuple:
    """Left-invariant frame (X, Y, Z) with [X, Y] = Z."""
    x_field = VectorFieldSpec.from_strings(["1", "0", "0"])
    y_field = VectorFieldSpec.from_strings(["0", "1", "x1"])
    z_field = VectorFieldSpec.from_strings(["0", "0", "1"])
    return x_field, y_field, z_field


def linear_combination(fields: Sequence[VectorFieldSpec],
                       coeffs: Sequence[float]) -> VectorFieldSpec:
    """Constant-coefficient combination of fields."""
    if not fields:
        raise ValueError("need at least one field")
    dim = fields[0].dim
    comps = []
    for i in range(dim):
        acc = expr.constant(0.0)
        for c, f in zip(coeffs, fields):
            acc = expr.add(acc, expr.mul(expr.constant(c), f.components[i]))
        comps.append(acc)
    return VectorFieldSpec(dim=dim, components=tuple(comps))


# ---------------------------------------------------------------------------
# identification sampling and compatibility checks

def identified_pairs(m: ChartedManifold, n: int = 32, seed: int = 987654321):
    """Sample (p, q, dgamma) with q the image of p under a lattice element."""
    rng = np.random.default_rng(seed)
    pts = m.random_points(n, rng)
    shifts = rng.integers(-2, 3, size=(n, m.dim)).astype(float)
    zero_rows = np.all(shifts == 0, axis=1)
    shifts[zero_rows, 0] = 1.0
    lengths = m.lengths
    out = []
    for p, s in zip(pts, shifts):
        delta = s * lengths
        if m.identification == TORUS:
            q = p + delta
            dgamma = np.eye(m.dim)
        else:
            a = delta[0]
            q = np.array([p[0] + delta[0], p[1] + delta[1],
                          p[2] + delta[2] + a * p[1]])
            dgamma = np.eye(3)
            dgamma[2, 1] = a
        out.append((p, q, dgamma))
    return out


def is_compatible_field(m: ChartedManifold, X: VectorFieldSpec,
                        tol: float = 1e-10, samples: int = 32) -> bool:
    """True when the field descends to the quotient: dgamma V(p) = V(q).

    Raises ValueError naming the component when a value of the field at
    a sample point is not finite. The field is evaluated once on all
    sample points p and once on all their images q.
    """
    p, q, dgamma = (np.array(a) for a in zip(*identified_pairs(m, samples)))
    vp, vq = X(p), X(q)
    with np.errstate(invalid="ignore"):
        # a non-finite value makes the difference non-finite
        if np.max(np.abs(np.einsum("nij,nj->ni", dgamma, vp) - vq)) <= tol:
            return True
    for pts, v in ((p, vp), (q, vq)):
        bad = np.argwhere(~np.isfinite(v))
        if bad.size:
            row, comp = bad[0]
            raise ValueError(f"component {comp + 1} is {v[row, comp]} "
                             f"at x = {pts[row].tolist()}")
    return False


def is_invariant_function(m: ChartedManifold, f: Expr,
                          tol: float = 1e-10, samples: int = 32) -> bool:
    """True when f(p) = f(q) on sampled identified pairs; f is evaluated
    once on all sample points p and once on all their images q, and a
    non-finite value is never invariant."""
    p, q, _ = (np.array(a) for a in zip(*identified_pairs(m, samples)))
    fp, fq = expr.evaluate(f, p), expr.evaluate(f, q)
    with np.errstate(invalid="ignore"):
        return bool(np.max(np.abs(fp - fq)) <= tol)


# ---------------------------------------------------------------------------
# differential operators

def divergence(m: ChartedManifold, X: VectorFieldSpec, p,
               density: Optional[Expr] = None):
    """Divergence of X at p with respect to density * volume form."""
    terms = product_divergence_expr(m, X, density)
    if density is None:
        return expr.evaluate(terms, p)
    fvals = expr.evaluate(density, p)
    if np.any(fvals <= 0):
        raise DegenerateDensityError("density must be positive")
    return expr.evaluate(terms, p) / fvals


def product_divergence_expr(m: ChartedManifold, X: VectorFieldSpec,
                            density: Optional[Expr] = None) -> Expr:
    """div(density * X) as an expression; div_{mu}(f X) = f * div_{f mu}(X)."""
    terms = expr.constant(0.0)
    for i in range(m.dim):
        w = X.components[i] if density is None else expr.mul(density, X.components[i])
        terms = expr.add(terms, expr.diff(w, i))
    return terms


def lie_bracket(m: ChartedManifold, X: VectorFieldSpec, Y: VectorFieldSpec, p):
    """[X, Y] = (X.grad)Y - (Y.grad)X at p; shape (..., dim)."""
    pts = np.asarray(p, dtype=float)
    out = np.empty(pts.shape)
    for k, (xk, yk) in enumerate(zip(X.components, Y.components)):
        out[..., k] = expr.evaluate(
            expr.sub(apply_field(m, X, yk), apply_field(m, Y, xk)), pts)
    return out


def apply_field(m: ChartedManifold, X: VectorFieldSpec, f: Expr) -> Expr:
    """Directional derivative Xf as an expression, so that repeated
    application (X(Xf)) stays symbolic."""
    acc = expr.constant(0.0)
    for i in range(m.dim):
        acc = expr.add(acc, expr.mul(X.components[i], expr.diff(f, i)))
    return acc


# ---------------------------------------------------------------------------
# quadrature and test bases

@lru_cache(maxsize=64)
def _grid(m: ChartedManifold, n: int):
    axes = [(np.arange(n) + 0.5) * (li / n) for li in m.box_lengths]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    cell = float(np.prod(m.lengths)) / n ** m.dim
    return pts, cell


def grid_points(m: ChartedManifold, n: int):
    """Midpoint grid (n^dim, dim) and its quadrature weights (n^dim,)."""
    pts, cell = _grid(m, n)
    return pts, np.full(pts.shape[0], cell)


def quadrature(m: ChartedManifold, f: Expr, n: int) -> float:
    """Midpoint rule on the uniform n^dim grid, exact below Nyquist."""
    if n < 2:
        raise ValueError("need at least 2 grid points per axis")
    pts, weights = grid_points(m, n)
    return float(np.dot(weights, expr.evaluate(f, pts)))


@dataclass(frozen=True)
class TestBasis:
    """Trig-monomial test functions with analytic gradients."""

    manifold: ChartedManifold
    cutoff: int
    functions: tuple = field(default=())

    def __len__(self):
        return len(self.functions)

    def evaluate(self, k: int, pts) -> np.ndarray:
        return expr.evaluate(self.functions[k], pts)

    def gradient(self, k: int) -> tuple:
        f = self.functions[k]
        return tuple(expr.diff(f, i) for i in range(self.manifold.dim))


def make_test_basis(m: ChartedManifold, cutoff: int) -> TestBasis:
    """Products of 1, cos(2 pi k x_i / L_i), sin(2 pi k x_i / L_i), k <= cutoff.

    On the Heisenberg manifold the basis is pulled back from the base
    torus (functions of x, y only), hence constant along the fiber.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if m.identification == HEISENBERG:
        active_axes = [0, 1]
    else:
        active_axes = list(range(m.dim))
    per_axis = []
    for i in active_axes:
        li = m.box_lengths[i]
        factors = [expr.constant(1.0)]
        for k in range(1, cutoff + 1):
            arg = expr.mul(expr.constant(2.0 * math.pi * k / li), expr.coordinate(i))
            factors.append(expr.call("cos", arg))
            factors.append(expr.call("sin", arg))
        per_axis.append(factors)
    functions = []
    for combo in itertools.product(*per_axis):
        node = expr.constant(1.0)
        for f in combo:
            node = expr.mul(node, f)
        functions.append(node)
    return TestBasis(manifold=m, cutoff=cutoff, functions=tuple(functions))
