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
from typing import Callable, Optional, Sequence, Union

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
    "divergence_function",
    "product_divergence_expr",
    "product_divergence_function",
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

# central-difference step, as a fraction of the box length per axis
FD_STEP_FRACTION = 1e-5


class InvalidPointError(ValueError):
    pass


class DegenerateDensityError(ValueError):
    pass


ScalarField = Union[Expr, Callable[[np.ndarray], np.ndarray]]


def _as_scalar_fn(f: ScalarField):
    if isinstance(f, (expr.Num, expr.Coord, expr.Neg, expr.BinOp, expr.Call)):
        return lambda pts: expr.evaluate(f, pts)
    if callable(f):
        return f
    raise TypeError(f"not a scalar field: {f!r}")


def _is_expr(f) -> bool:
    return isinstance(f, (expr.Num, expr.Coord, expr.Neg, expr.BinOp, expr.Call))


@dataclass(frozen=True)
class ChartedManifold:
    """A compact manifold presented as a periodic box with identifications."""

    dim: int
    box_lengths: tuple
    identification: str = TORUS
    volume_density: Optional[Callable[[np.ndarray], np.ndarray]] = None  # None means 1

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
        if self.volume_density is not None:
            pts, _ = _grid(self, 8)
            vals = np.asarray(self.volume_density(pts), dtype=float)
            if not np.all(vals > 0):
                raise DegenerateDensityError("volume density must be positive")

    @property
    def lengths(self) -> np.ndarray:
        return np.asarray(self.box_lengths)

    def fd_steps(self) -> np.ndarray:
        return FD_STEP_FRACTION * self.lengths

    def density_values(self, pts) -> np.ndarray:
        if self.volume_density is None:
            return np.ones(np.asarray(pts).shape[:-1])
        return np.asarray(self.volume_density(pts), dtype=float)

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
    """Coordinate components of a vector field; expressions or callables."""

    dim: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise ValueError("need one component per coordinate")
        for c in self.components:
            if _is_expr(c):
                if expr.max_coordinate(c) > self.dim:
                    raise ValueError(
                        f"component references x{expr.max_coordinate(c)} beyond dim {self.dim}")
            elif not callable(c):
                raise TypeError(f"component must be expression or callable: {c!r}")

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "VectorFieldSpec":
        comps = tuple(expr.parse(s) for s in strings)
        return cls(dim=len(comps), components=comps)

    @classmethod
    def zero(cls, dim: int) -> "VectorFieldSpec":
        return cls(dim=dim, components=tuple(expr.constant(0.0) for _ in range(dim)))

    @property
    def analytic(self) -> bool:
        return all(_is_expr(c) for c in self.components)

    @property
    def is_zero(self) -> bool:
        return all(_is_expr(c) and isinstance(c, expr.Num) and c.value == 0.0
                   for c in self.components)

    @property
    def is_constant(self) -> bool:
        return all(_is_expr(c) and expr.is_constant(c) for c in self.components)

    def component_values(self, i: int, pts) -> np.ndarray:
        c = self.components[i]
        if _is_expr(c):
            return expr.evaluate(c, pts)
        return np.asarray(c(pts), dtype=float)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape)
        for i in range(self.dim):
            out[..., i] = self.component_values(i, pts)
        return out


def heisenberg_frame() -> tuple:
    """Left-invariant frame (X, Y, Z) with [X, Y] = Z."""
    x_field = VectorFieldSpec.from_strings(["1", "0", "0"])
    y_field = VectorFieldSpec.from_strings(["0", "1", "x1"])
    z_field = VectorFieldSpec.from_strings(["0", "0", "1"])
    return x_field, y_field, z_field


def linear_combination(fields: Sequence[VectorFieldSpec],
                       coeffs: Sequence[float]) -> VectorFieldSpec:
    """Constant-coefficient combination; stays analytic when fields are."""
    if not fields:
        raise ValueError("need at least one field")
    dim = fields[0].dim
    if all(f.analytic for f in fields):
        comps = []
        for i in range(dim):
            acc = expr.constant(0.0)
            for c, f in zip(coeffs, fields):
                acc = expr.add(acc, expr.mul(expr.constant(c), f.components[i]))
            comps.append(acc)
        return VectorFieldSpec(dim=dim, components=tuple(comps))

    def make(i):
        return lambda pts: sum(c * f.component_values(i, pts)
                               for c, f in zip(coeffs, fields))
    return VectorFieldSpec(dim=dim, components=tuple(make(i) for i in range(dim)))


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


def is_invariant_function(m: ChartedManifold, f: ScalarField,
                          tol: float = 1e-10, samples: int = 32) -> bool:
    """True when f(p) = f(q) on sampled identified pairs; f is evaluated
    once on all sample points p and once on all their images q, and a
    non-finite value is never invariant."""
    p, q, _ = (np.array(a) for a in zip(*identified_pairs(m, samples)))
    fn = _as_scalar_fn(f)
    fp, fq = np.asarray(fn(p), dtype=float), np.asarray(fn(q), dtype=float)
    with np.errstate(invalid="ignore"):
        return bool(np.max(np.abs(fp - fq)) <= tol)


# ---------------------------------------------------------------------------
# differential operators

def _numeric_partial(fn, pts, axis, h):
    pts = np.asarray(pts, dtype=float)
    shift = np.zeros(pts.shape[-1])
    shift[axis] = h
    return (np.asarray(fn(pts + shift), dtype=float)
            - np.asarray(fn(pts - shift), dtype=float)) / (2.0 * h)


def divergence_function(m: ChartedManifold, X: VectorFieldSpec,
                        density: Optional[ScalarField] = None):
    """div w.r.t. (density * volume_density * dx); returns pts -> values.

    Analytic when the field (and density, if any) are expression-backed
    and the metric volume density is the constant 1; otherwise central
    finite differences with step h_i = 1e-5 * L_i.
    """
    terms = product_divergence_expr(m, X, density)
    if terms is not None:
        if density is None:
            return lambda pts: expr.evaluate(terms, pts)

        def div_analytic(pts):
            fvals = expr.evaluate(density, pts)
            if np.any(fvals <= 0):
                raise DegenerateDensityError("density must be positive")
            return expr.evaluate(terms, pts) / fvals
        return div_analytic

    steps = m.fd_steps()
    dens_fn = None if density is None else _as_scalar_fn(density)

    def weight_component(i):
        def w(pts):
            vals = X.component_values(i, pts)
            if dens_fn is not None:
                vals = vals * np.asarray(dens_fn(pts), dtype=float)
            if m.volume_density is not None:
                vals = vals * m.density_values(pts)
            return vals
        return w

    weights = [weight_component(i) for i in range(m.dim)]

    def div_numeric(pts):
        pts = np.asarray(pts, dtype=float)
        acc = np.zeros(pts.shape[:-1])
        for i in range(m.dim):
            acc = acc + _numeric_partial(weights[i], pts, i, steps[i])
        denom = np.ones(pts.shape[:-1])
        if dens_fn is not None:
            fvals = np.asarray(dens_fn(pts), dtype=float)
            if np.any(fvals <= 0):
                raise DegenerateDensityError("density must be positive")
            denom = denom * fvals
        if m.volume_density is not None:
            denom = denom * m.density_values(pts)
        return acc / denom

    return div_numeric


def divergence(m: ChartedManifold, X: VectorFieldSpec, p,
               density: Optional[ScalarField] = None):
    """Divergence of X at p with respect to density * volume form."""
    return divergence_function(m, X, density)(p)


def product_divergence_expr(m: ChartedManifold, X: VectorFieldSpec,
                            density: Optional[ScalarField] = None) -> Optional[Expr]:
    """div_{mu_g}(density * X) as an expression, or None when not analytic."""
    analytic = (X.analytic and m.volume_density is None
                and (density is None or _is_expr(density)))
    if not analytic:
        return None
    terms = expr.constant(0.0)
    for i in range(m.dim):
        w = X.components[i] if density is None else expr.mul(density, X.components[i])
        terms = expr.add(terms, expr.diff(w, i))
    return terms


def product_divergence_function(m: ChartedManifold, X: VectorFieldSpec,
                                density: Optional[ScalarField] = None):
    """div_{mu_g}(density * X); differs from divergence_function by the
    density factor: div_{mu_g}(f X) = f * div_{f mu_g}(X)."""
    node = product_divergence_expr(m, X, density)
    if node is not None:
        return lambda pts: expr.evaluate(node, pts)
    base = divergence_function(m, X, density)
    if density is None:
        return base
    dens_fn = _as_scalar_fn(density)
    return lambda pts: np.asarray(dens_fn(pts), dtype=float) * base(pts)


def lie_bracket(m: ChartedManifold, X: VectorFieldSpec, Y: VectorFieldSpec, p):
    """[X, Y] = (X.grad)Y - (Y.grad)X at p; shape (..., dim)."""
    pts = np.asarray(p, dtype=float)
    out = np.zeros(pts.shape)
    steps = m.fd_steps()
    for k in range(m.dim):
        acc = np.zeros(pts.shape[:-1])
        for j in range(m.dim):
            xj = X.component_values(j, pts)
            yj = Y.component_values(j, pts)
            cy = Y.components[k]
            if _is_expr(cy):
                dyk = expr.evaluate(expr.diff(cy, j), pts)
            else:
                dyk = _numeric_partial(lambda q: Y.component_values(k, q), pts, j, steps[j])
            cx = X.components[k]
            if _is_expr(cx):
                dxk = expr.evaluate(expr.diff(cx, j), pts)
            else:
                dxk = _numeric_partial(lambda q: X.component_values(k, q), pts, j, steps[j])
            acc = acc + xj * dyk - yj * dxk
        out[..., k] = acc
    return out


def apply_field(m: ChartedManifold, X: VectorFieldSpec, f: ScalarField):
    """Directional derivative Xf, as an expression when possible.

    Returns an Expr when both the field and f are expression-backed,
    so repeated application (X(Xf)) stays analytic; otherwise returns
    a callable using central finite differences.
    """
    if X.analytic and _is_expr(f):
        acc = expr.constant(0.0)
        for i in range(m.dim):
            acc = expr.add(acc, expr.mul(X.components[i], expr.diff(f, i)))
        return acc
    fn = _as_scalar_fn(f)
    steps = m.fd_steps()

    def xf(pts):
        pts = np.asarray(pts, dtype=float)
        acc = np.zeros(pts.shape[:-1])
        for i in range(m.dim):
            acc = acc + X.component_values(i, pts) * _numeric_partial(fn, pts, i, steps[i])
        return acc
    return xf


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
    weights = cell * m.density_values(pts)
    return pts, weights


def quadrature(m: ChartedManifold, f: ScalarField, n: int) -> float:
    """Midpoint rule on the uniform n^dim grid, exact below Nyquist."""
    if n < 2:
        raise ValueError("need at least 2 grid points per axis")
    pts, weights = grid_points(m, n)
    vals = np.asarray(_as_scalar_fn(f)(pts), dtype=float)
    return float(np.dot(weights, vals))


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
