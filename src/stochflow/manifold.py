"""Compact charted manifolds: wrapping, fields, Stratonovich systems of
fields and differential operators.

A manifold is a periodic box glued by a lattice, which QUOTIENTS
describes by its shears: a shear (i, j, k) moves x_k by n*L_i*x_j when
x_i moves by n*L_i, so L_i*L_j/L_k must be an integer. A flat torus of
any periods has none. The Heisenberg nilmanifold has (0, 1, 2), that is
(x,y,z) ~ (x+a, y+b, z+c+a*y), and carries the left-invariant frame
X = d/dx, Y = d/dy + x d/dz, Z = d/dz.

A ``StratonovichSystem`` (its fields checked against the
identification) and ``step_count`` live here, not in ``sde``, which
flows them: building an experiment, which every command does, then
loads no flow code.

Manifolds are immutable, and fields are not changed after
construction; every operation here is pure and safe to call from
concurrent workers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import expr
from .expr import Expr

__all__ = [
    "InvalidPointError",
    "DegenerateDensityError",
    "QUOTIENTS",
    "ChartedManifold",
    "VectorFieldSpec",
    "torus",
    "heisenberg_manifold",
    "heisenberg_frame",
    "product_divergence_expr",
    "lie_bracket",
    "apply_field",
    "identified_pairs",
    "is_compatible_field",
    "linear_combination",
    "ConfigurationError",
    "StratonovichSystem",
    "step_count",
]

# name -> (the dimension it needs, None for any; its shears (i, j, k), each
# j and k after its i, messages naming them x, y, z); the first is the default
QUOTIENTS = {
    "torus": (None, ()),
    "heisenberg": (3, ((0, 1, 2),)),
}


class InvalidPointError(ValueError):
    pass


class DegenerateDensityError(ValueError):
    pass


class ChartedManifold:
    """A compact manifold presented as a periodic box with identifications.

    Immutable, and equal to every manifold of the same dimension, box
    and identification, a key of QUOTIENTS: the caches of grids, sample
    pairs and test bases are keyed on it.
    """

    def __init__(self, dim: int, box_lengths: tuple, identification: str = "torus"):
        if dim < 1:
            raise ValueError("dimension must be positive")
        box_lengths = tuple(float(v) for v in box_lengths)
        if len(box_lengths) != dim:
            raise ValueError("need one period length per coordinate")
        if any(not (v > 0 and math.isfinite(v)) for v in box_lengths):
            raise ValueError("period lengths must be positive and finite")
        if identification not in QUOTIENTS:
            raise ValueError(f"unknown identification {identification!r}")
        need, shears = QUOTIENTS[identification]
        if need not in (None, dim):
            raise ValueError(f"a {identification} manifold has {need} lengths, got {dim}")
        for i, j, k in shears:  # a lattice only when x_k's move is a multiple of L_k
            ratio = box_lengths[i] * box_lengths[j] / box_lengths[k]
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"{identification} lattice needs L{'xyz'[i]}*L{'xyz'[j]} "
                                 f"integer multiple of L{'xyz'[k]}")
        vars(self).update(dim=dim, box_lengths=box_lengths,
                          identification=identification)

    def __setattr__(self, name, value=None):
        raise AttributeError("ChartedManifold is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return (self.dim, self.box_lengths, self.identification)

    def __eq__(self, other):
        return type(other) is ChartedManifold and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def lengths(self) -> np.ndarray:
        return np.asarray(self.box_lengths)

    @property
    def shears(self) -> tuple:
        """The (i, j, k) shears of the quotient (QUOTIENTS)."""
        return QUOTIENTS[self.identification][1]

    def wrap(self, p) -> np.ndarray:
        """Canonical representative in the fundamental domain [0, L_i): the
        axes are reduced in order, x_i by its count n of box lengths, each
        of its shears (i, j, k) moving x_k by -n*L_i*x_j, x_j not yet reduced."""
        out = np.array(p, dtype=float)
        if out.shape[-1:] != (self.dim,):
            raise InvalidPointError(
                f"point has {out.shape[-1] if out.ndim else 0} coordinates, need {self.dim}")
        if not np.all(np.isfinite(out)):
            raise InvalidPointError("non-finite coordinate")
        for i, li in enumerate(self.box_lengths):
            x = out[..., i]
            n = np.divmod(x, li, out=(None, x))[0]
            bump = x >= li  # float rounding can land exactly on the boundary
            np.subtract(x, li, out=x, where=bump)
            for a, j, k in self.shears:
                if a == i:
                    out[..., k] -= (n + bump) * li * out[..., j]
        return out


def torus(*lengths: float) -> ChartedManifold:
    if not lengths:
        raise ValueError("need at least one period length")
    return ChartedManifold(dim=len(lengths), box_lengths=tuple(lengths))


def heisenberg_manifold() -> ChartedManifold:
    return ChartedManifold(dim=3, box_lengths=(1.0, 1.0, 1.0),
                           identification="heisenberg")


class VectorFieldSpec:
    """Coordinate components of a vector field, as expressions."""

    def __init__(self, dim: int, components: tuple):
        if len(components) != dim:
            raise ValueError("need one component per coordinate")
        for c in components:
            if not isinstance(c, Expr):
                raise TypeError(f"component must be an expression, not {c!r}")
            if expr.max_coordinate(c) > dim:
                raise ValueError(
                    f"component references x{expr.max_coordinate(c)} beyond dim {dim}")
        self.dim = dim
        self.components = components

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
        """The components evaluated in one batch at points of shape
        (..., dim); shape (..., dim)."""
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape)
        batch = expr.Functions(self.components, pts.shape[-1])
        for i, values in enumerate(batch.reduce(pts, lambda v: v)):
            out[..., i] = values
        return out


def heisenberg_frame() -> tuple:
    """Left-invariant frame (X, Y, Z) with [X, Y] = Z."""
    one, zero = expr.constant(1.0), expr.constant(0.0)
    return (VectorFieldSpec(dim=3, components=(one, zero, zero)),
            VectorFieldSpec(dim=3, components=(zero, one, expr.coordinate(0))),
            VectorFieldSpec(dim=3, components=(zero, zero, one)))


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

def _rd_sequence(n: int, dims: int) -> np.ndarray:
    """The first n points of the R_d low-discrepancy sequence in [0, 1)^dims:
    frac(0.5 + k * alpha), k = 1..n, with alpha_i = phi^-i for phi the
    positive root of x^(dims + 1) = x + 1 (the generalised golden ratio)."""
    phi = 2.0
    for _ in range(64):  # a contraction by at least 1/2 per pass
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -np.arange(1.0, dims + 1.0)
    return np.mod(0.5 + np.arange(1.0, n + 1.0)[:, None] * alpha, 1.0)


@lru_cache(maxsize=64)
def identified_pairs(m: ChartedManifold):
    """Sample points p, their images q = gamma(p) under lattice elements
    gamma, and the differentials dgamma: read-only arrays of shapes
    (n, dim), (n, dim) and (n, dim, dim), n = 32, computed once per m.

    The sample is deterministic and draws no random numbers: the first
    dim coordinates of the R_(2 dim) sequence place p in the box, the
    last dim pick the lattice shift per axis in {-2, ..., 2}, in box
    lengths; a zero shift is replaced by one box length along x1.
    """
    dim, n = m.dim, 32
    u = _rd_sequence(n, 2 * dim)
    lengths = m.lengths
    p = u[:, :dim] * lengths
    shifts = np.floor(5.0 * u[:, dim:]) - 2.0
    shifts[np.all(shifts == 0, axis=1), 0] = 1.0
    delta = shifts * lengths
    q = p + delta
    dgamma = np.tile(np.eye(dim), (n, 1, 1))
    for i, j, k in m.shears:  # x_k also moves by delta_i * x_j
        q[:, k] += delta[:, i] * p[:, j]
        dgamma[:, k, j] = delta[:, i]
    for a in (p, q, dgamma):
        a.setflags(write=False)
    return p, q, dgamma


def is_compatible_field(m: ChartedManifold, X: Union[VectorFieldSpec, Expr]) -> bool:
    """True when X, a field or a scalar function such as a density,
    descends to the quotient: at the identified_pairs p, q = gamma(p),
    a field has dgamma X(p) = X(q) and a function X(p) = X(q). A lattice
    map is a shift times shears, each of determinant 1, so it preserves
    volume and a density needs no Jacobian factor.

    Values count as equal when they differ by at most sqrt(eps) times the
    largest magnitude compared, half the digits of a float: evaluating at
    p and at q, a few box lengths apart, rounds far below that, and an X
    that does not descend jumps by a fair part of its own size. Raises
    ValueError naming the component when a value at a sample point is
    not finite. X is evaluated once on all points p and once on all q.
    """
    p, q, dgamma = identified_pairs(m)
    field = isinstance(X, VectorFieldSpec)
    batch = expr.Functions(X.components if field else [X], m.dim)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vp, vq = (np.stack(batch.reduce(pts, lambda v: v), axis=-1) for pts in (p, q))
    for pts, v in ((p, vp), (q, vq)):
        bad = np.argwhere(~np.isfinite(v))
        if bad.size:
            row, comp = bad[0]
            what = f"component {comp + 1}" if field else "value"
            raise ValueError(f"{what} is {v[row, comp]} at x = {pts[row].tolist()}")
    if field:
        vp = np.einsum("nij,nj->ni", dgamma, vp)
    scale = max(np.max(np.abs(vp)), np.max(np.abs(vq)))
    return bool(np.max(np.abs(vp - vq)) <= np.sqrt(np.finfo(float).eps) * scale)


# ---------------------------------------------------------------------------
# Stratonovich systems

class ConfigurationError(ValueError):
    pass


class StratonovichSystem:
    """Drift X_0 plus m diffusion fields X_1..X_m on a manifold."""

    def __init__(self, manifold: ChartedManifold, drift: VectorFieldSpec,
                 diffusions: tuple = ()):
        self.manifold = manifold
        self.drift = drift
        self.diffusions = tuple(diffusions)
        for name, f in [("drift", drift)] + [
                (f"diffusion {i + 1}", f) for i, f in enumerate(self.diffusions)]:
            if f.dim != manifold.dim:
                raise ConfigurationError(f"{name} has dimension {f.dim}, "
                                         f"manifold has {manifold.dim}")
            try:
                compatible = is_compatible_field(manifold, f)
            except ValueError as e:
                raise ConfigurationError(f"{name} {e}") from None
            if not compatible:
                raise ConfigurationError(
                    f"{name} is not compatible with the identification")
        self._compiled = {}

    @property
    def m(self) -> int:
        return len(self.diffusions)

    def fields(self) -> list:
        return [self.drift, *self.diffusions]

    def _cached(self, key, build):
        """build(self), computed on first use and kept on the system."""
        if key not in self._compiled:
            self._compiled[key] = build(self)
        return self._compiled[key]


def step_count(t: float, dt: float) -> int:
    """The number of dt steps in t; t must be a positive multiple of dt."""
    if not (math.isfinite(t) and math.isfinite(dt)):
        raise ValueError(f"t and dt must be finite, got t={t}, dt={dt}")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(t / dt):  # round would raise OverflowError
        raise ValueError(f"t / dt is too large, got t={t}, dt={dt}")
    steps = int(round(t / dt))
    if steps < 1 or abs(steps * dt - t) > 1e-9 * max(t, dt):
        raise ValueError("t must be an integer multiple of dt")
    return steps


# ---------------------------------------------------------------------------
# differential operators

def product_divergence_expr(m: ChartedManifold, X: VectorFieldSpec,
                            density: Expr = expr.constant(1.0)) -> Expr:
    """div(density * X) as an expression; div_{mu}(f X) = f * div_{f mu}(X).
    The density 1 folds away: the result is div X itself."""
    terms = expr.constant(0.0)
    for i in range(m.dim):
        terms = expr.add(terms, expr.diff(expr.mul(density, X.components[i]), i))
    return terms


def lie_bracket(m: ChartedManifold, X: VectorFieldSpec, Y: VectorFieldSpec):
    """The field [X, Y] = (X.grad)Y - (Y.grad)X, as expressions."""
    return VectorFieldSpec(dim=m.dim, components=tuple(
        expr.sub(apply_field(m, X, yk), apply_field(m, Y, xk))
        for xk, yk in zip(X.components, Y.components)))


def apply_field(m: ChartedManifold, X: VectorFieldSpec, f: Expr) -> Expr:
    """Directional derivative Xf as an expression, so that repeated
    application (X(Xf)) stays symbolic."""
    acc = expr.constant(0.0)
    for i in range(m.dim):
        acc = expr.add(acc, expr.mul(X.components[i], expr.diff(f, i)))
    return acc
