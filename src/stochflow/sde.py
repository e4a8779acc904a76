"""Stratonovich SDE integration on charted manifolds.

The driving equation is dx = sum_{i=0..m} X_i(x) o dB^i with B^0 = t.
Integration uses the Stratonovich Heun predictor-corrector at fixed
step. The log-Jacobian of the flow is co-evolved through
d(log J) = sum_i div(X_i)(x) o dB^i on the augmented state, sharing the
same noise increments; a finite-difference Jacobian serves as an
independent cross-check.

Every integrator runs the one step loop in ``heun_path``, a generator
over the states (and log J) of a batch of points: ``flow_with_jacobian``
records them, ``flow_endpoints`` keeps the last one, and the volume
check in ``invariance`` keeps a running maximum. The step is compiled
once per system and kept on it: expression-backed fields on a manifold
without a volume density become one straight-line function that shares
subexpressions across components, fields and divergences, and leaves out
the divergences that are identically zero; other fields go through
``VectorFieldSpec.__call__`` and ``divergence_function``.

The loop steps unwrapped coordinates. Fields are compatible with the
identification (checked when the system is built) and the Heun step
commutes with the affine lattice maps, so wrapping only keeps numbers
small: once per step a single max|x| decides whether the batch is
still finite and within a few box lengths, re-wraps it when it has
drifted further and raises ``InvalidPointError`` with the step and
point when it is not finite. Results are wrapped into the fundamental
domain when they leave the integrator. (The finite-difference route
wraps every step when it carries log J: its divergences depend, at the
1e-11 level, on which representative of a point they see.) When every field is constant the
Heun step is exact, and ``flow_endpoints`` replaces the loop by one
summed increment per path.

Noise is counter-based (Philox keyed by (seed, path_index)), so paths
are bitwise reproducible and independent across path indices without
shared state: path simulations are embarrassingly parallel, and
aggregations over paths are done in ascending path-index order so
serial and distributed runs agree. ``noise_matrix`` stacks the streams
of a range of path indices for batched integration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .manifold import (
    ChartedManifold,
    InvalidPointError,
    VectorFieldSpec,
    divergence_function,
    is_compatible_field,
    product_divergence_expr,
)

__all__ = [
    "ConfigurationError",
    "StratonovichSystem",
    "NoisePath",
    "FlowResult",
    "generate_noise",
    "noise_matrix",
    "coarsen_noise",
    "step_count",
    "flow_with_jacobian",
    "flow_endpoints",
    "fd_jacobian",
    "write_trajectory_csv",
]

_MASK64 = (1 << 64) - 1

# heun_path re-wraps a batch once some coordinate passes this many box
# lengths; below it, rounding on unwrapped coordinates stays at ulp level
_REWRAP_BOXES = 4.0


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class StratonovichSystem:
    """Drift X_0 plus m diffusion fields X_1..X_m on a manifold."""

    manifold: ChartedManifold
    drift: VectorFieldSpec
    diffusions: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "diffusions", tuple(self.diffusions))
        for name, f in [("drift", self.drift)] + [
                (f"diffusion {i + 1}", f) for i, f in enumerate(self.diffusions)]:
            if f.dim != self.manifold.dim:
                raise ConfigurationError(f"{name} has dimension {f.dim}, "
                                         f"manifold has {self.manifold.dim}")
            try:
                compatible = is_compatible_field(self.manifold, f)
            except ValueError as e:
                raise ConfigurationError(f"{name} {e}") from None
            if not compatible:
                raise ConfigurationError(
                    f"{name} is not compatible with the identification")
        object.__setattr__(self, "_compiled", {})

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


@dataclass(frozen=True)
class NoisePath:
    """Gaussian increments N(0, dt), reproducible from (seed, path_index)."""

    seed: int
    path_index: int
    dt: float
    steps: int
    increments: np.ndarray  # (steps, m)

    @property
    def m(self) -> int:
        return self.increments.shape[1]


def _philox(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, path_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_noise(seed: int, path_index: int, m: int, dt: float,
                   steps: int) -> NoisePath:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    if m < 0:
        raise ValueError("m must be >= 0")
    rng = _philox(seed, path_index)
    increments = rng.normal(0.0, math.sqrt(dt), size=(steps, m))
    increments.setflags(write=False)
    return NoisePath(seed=seed, path_index=path_index, dt=dt, steps=steps,
                     increments=increments)


def noise_matrix(seed: int, paths: range, m: int, dt: float,
                 steps: int) -> np.ndarray:
    """Stacked increments (len(paths), steps, m), one row per path index."""
    out = np.empty((len(paths), steps, m))
    for row, p in enumerate(paths):
        out[row] = generate_noise(seed, p, m, dt, steps).increments
    return out


def coarsen_noise(noise: NoisePath, factor: int) -> NoisePath:
    """Sum consecutive increments: the same Brownian path on a coarser grid."""
    if noise.steps % factor != 0:
        raise ValueError("coarsening factor must divide the step count")
    steps = noise.steps // factor
    inc = noise.increments.reshape(steps, factor, noise.m).sum(axis=1)
    inc.setflags(write=False)
    return NoisePath(seed=noise.seed, path_index=noise.path_index,
                     dt=noise.dt * factor, steps=steps, increments=inc)


def step_count(t: float, dt: float) -> int:
    """The number of dt steps in t; t must be a positive multiple of dt."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = int(round(t / dt))
    if steps < 1 or abs(steps * dt - t) > 1e-9 * max(t, dt):
        raise ValueError("t must be an integer multiple of dt")
    return steps


# ---------------------------------------------------------------------------
# stepping

def _is_zero(node) -> bool:
    return isinstance(node, expr.Num) and node.value == 0.0


def _compile_step(sys: StratonovichSystem, log_jacobian: bool):
    """(step, wrap_each): one Heun step, step(x, db) -> (next x, increment
    of log J or None), and whether its states must be wrapped every step.

    x has shape (..., dim) and db = (dt, dB^1, ..., dB^m), each
    broadcasting against x[..., 0]. Expression-backed fields on a
    manifold without a volume density are lowered to one function whose
    stages compute sum_i X_i dB^i component by component, in the order
    and with the arithmetic of the field-by-field route, sharing
    subexpressions; other systems use that route itself. The lowered
    step leaves out every divergence that ``expr.is_identically_zero``
    shows to be zero as a function (a Hamiltonian field's, say), so a
    divergence-free system carries log J = 0 exactly instead of its
    rounding error; the states are computed as before.
    """
    m = sys.manifold
    fields = [(i, f) for i, f in enumerate(sys.fields()) if not f.is_zero]
    if m.volume_density is not None or not all(f.analytic for _, f in fields):
        return _field_step(sys, fields, log_jacobian)
    divs = []
    if log_jacobian:
        divs = [(i, d) for i, f in fields
                if not expr.is_identically_zero(d := product_divergence_expr(m, f))]
    low = expr.Lowering()
    lines = []

    def stage(inputs, out):
        # <out>j = sum_i X_i^j dB^i for each component j, and
        # <out>l = sum_i div(X_i) dB^i
        start = len(low.code)
        sums = []
        for j in range(m.dim):
            terms = [f"{low.emit(f.components[j], inputs)} * db[{i}]"
                     for i, f in fields if not _is_zero(f.components[j])]
            sums.append(f"{out}{j} = {' + '.join(terms) or '0.0'}")
        if log_jacobian:
            terms = [f"{low.emit(d, inputs)} * db[{i}]" for i, d in divs]
            sums.append(f"{out}l = {' + '.join(terms) or '0.0'}")
        lines.extend(low.source(start) + sums)

    xs = [f"a{j}" for j in range(m.dim)]
    lines.extend(f"a{j} = x[..., {j}]" for j in range(m.dim))
    stage(xs, "p")
    lines.extend(f"b{j} = a{j} + p{j}" for j in range(m.dim))
    stage([f"b{j}" for j in range(m.dim)], "c")
    lines.append("out = np.empty(x.shape)")
    lines.extend(f"out[..., {j}] = a{j} + 0.5 * (p{j} + c{j})"
                 for j in range(m.dim))
    lines.append("return out, " + ("0.5 * (pl + cl)" if log_jacobian else "None"))
    source = "def step(x, db):\n" + "".join(f"    {line}\n" for line in lines)
    return low.define(source, "step"), False


def _field_step(sys, fields, log_jacobian):
    """The Heun step through VectorFieldSpec.__call__ and
    divergence_function, for callable fields or a volume density.

    Its divergences are central differences, whose rounding error
    (about ulp / h, 1e-11) depends on which representative of a point
    they see, so with log J its states are wrapped every step.
    """
    div_fns = ([(i, divergence_function(sys.manifold, f)) for i, f in fields]
               if log_jacobian else [])

    def increment(x, db):
        out = np.zeros(x.shape)
        for i, f in fields:
            out = out + f(x) * np.expand_dims(db[i], -1)
        return out

    def div_increment(x, db):
        return sum((fn(x) * db[i] for i, fn in div_fns), 0.0)

    def step(x, db):
        pred = increment(x, db)
        xbar = x + pred
        x_next = x + 0.5 * (pred + increment(xbar, db))
        if not log_jacobian:
            return x_next, None
        return x_next, 0.5 * (div_increment(x, db) + div_increment(xbar, db))
    return step, log_jacobian


def _constant_velocities(sys: StratonovichSystem):
    """Rows X_0..X_m when every field is a constant expression, else None."""
    if not all(f.is_constant for f in sys.fields()):
        return None
    origin = np.zeros(sys.manifold.dim)
    return np.array([f(origin) for f in sys.fields()])


def _noise_array(sys: StratonovichSystem, increments) -> np.ndarray:
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1] != sys.m:
        raise ConfigurationError(f"noise has {increments.shape[-1]} components, "
                                 f"system has {sys.m}")
    return increments


def _rewrap(m: ChartedManifold, x, step: int) -> np.ndarray:
    bad = ~np.all(np.isfinite(x), axis=-1)
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise InvalidPointError(f"non-finite state at step {step}, point {where}")
    return m.wrap(x)


def _check_noise(sys, t_final, dt, noise):
    if noise.m != sys.m:
        raise ConfigurationError(
            f"noise has {noise.m} components, system has {sys.m}")
    if abs(noise.dt - dt) > 1e-12 * max(dt, noise.dt):
        raise ConfigurationError("noise step does not match dt")
    if abs(noise.steps * dt - t_final) > 1e-9 * max(t_final, dt):
        raise ConfigurationError("t_final does not equal steps * dt")


@dataclass(frozen=True)
class FlowResult:
    """Trajectory at t_k = k dt in canonical coordinates, and log J."""

    dt: float
    trajectory: np.ndarray  # (steps + 1, dim)
    log_jacobian: np.ndarray  # (steps + 1,)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.trajectory.shape[0])

    @property
    def endpoint(self) -> np.ndarray:
        return self.trajectory[-1]

    @property
    def jacobian(self) -> np.ndarray:
        return np.exp(self.log_jacobian)


def heun_path(sys: StratonovichSystem, x0, dt: float, increments,
              log_jacobian: bool = False):
    """The Heun step loop: yields (x, log J) at t_0, t_1, ..., t_steps.

    x0 has shape (..., dim) and increments (..., steps, m), broadcast
    against each other in the leading axes. x0 is wrapped into the
    fundamental domain; later states are not, only kept within a few box
    lengths of it, so callers wrap what they return. A non-finite state
    raises InvalidPointError naming the step and the first leading index
    that holds it. log J is None unless log_jacobian is set.
    """
    x0 = np.asarray(x0, dtype=float)
    increments = _noise_array(sys, increments)
    lead = np.broadcast_shapes(x0.shape[:-1], increments.shape[:-2])
    x = np.broadcast_to(sys.manifold.wrap(x0), lead + x0.shape[-1:]).copy()
    step, wrap_each = sys._cached(("step", log_jacobian),
                                  lambda s: _compile_step(s, log_jacobian))
    bound = _REWRAP_BOXES * max(sys.manifold.box_lengths)
    logj = np.zeros(lead) if log_jacobian else None
    yield x, logj
    noise = np.moveaxis(increments, (-2, -1), (0, 1))  # (steps, m, ...)
    for k in range(noise.shape[0]):
        x, dlogj = step(x, (dt, *noise[k]))
        if wrap_each or not np.max(np.abs(x)) <= bound:  # true for nan
            x = _rewrap(sys.manifold, x, k + 1)
        if log_jacobian:
            logj = logj + dlogj
        yield x, logj


def flow_with_jacobian(sys: StratonovichSystem, x0, t_final: float, dt: float,
                       noise: NoisePath) -> FlowResult:
    """Co-evolves log J through the divergence SDE with shared noise."""
    _check_noise(sys, t_final, dt, noise)
    shape = np.shape(x0)
    traj = np.empty((noise.steps + 1,) + shape)
    logj = np.empty((noise.steps + 1,) + shape[:-1])
    path = heun_path(sys, x0, dt, noise.increments, log_jacobian=True)
    for k, (x, lj) in enumerate(path):
        traj[k] = x
        logj[k] = lj
    return FlowResult(dt=dt, trajectory=sys.manifold.wrap(traj),
                      log_jacobian=logj)


def flow_endpoints(sys: StratonovichSystem, x0, dt: float,
                   increments: np.ndarray) -> np.ndarray:
    """Endpoint-only batched flow.

    x0 has shape (..., dim) and increments (..., steps, m), broadcast
    against each other in the leading axes; returns the wrapped
    endpoints with the broadcast shape. With constant fields each Heun
    step adds sum_i X_i dB^i exactly, so the endpoint is x0 plus one
    summed increment per path.
    """
    velocities = sys._cached("velocities", _constant_velocities)
    if velocities is not None:
        increments = _noise_array(sys, increments)
        steps = increments.shape[-2]
        x = (sys.manifold.wrap(x0) + (dt * steps) * velocities[0]
             + increments.sum(axis=-2) @ velocities[1:])
        return sys.manifold.wrap(x)
    for x, _ in heun_path(sys, x0, dt, increments):
        pass
    return sys.manifold.wrap(x)


def fd_jacobian(sys: StratonovichSystem, x0, t_final: float, dt: float,
                noise: NoisePath, h_fd: float = 1e-4) -> float:
    """Jacobian determinant by central differences under the same noise.

    Column i is the minimal-image displacement between the flows of
    x0 + h e_i and x0 - h e_i divided by 2h.
    """
    _check_noise(sys, t_final, dt, noise)
    x0 = np.asarray(x0, dtype=float)
    dim = sys.manifold.dim
    seeds = np.empty((2 * dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h_fd
        seeds[2 * i] = x0 + e
        seeds[2 * i + 1] = x0 - e
    ends = flow_endpoints(sys, seeds, dt, noise.increments)
    lengths = sys.manifold.lengths
    cols = np.empty((dim, dim))
    for i in range(dim):
        d = ends[2 * i] - ends[2 * i + 1]
        d = d - lengths * np.round(d / lengths)  # stay off the periodic seam
        cols[:, i] = d / (2.0 * h_fd)
    return float(np.linalg.det(cols))


def write_trajectory_csv(result: FlowResult, fileobj) -> None:
    """Columns t, x1..xn, logJ."""
    dim = result.trajectory.shape[-1]
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(dim)] + ["logJ"])
    for k, t in enumerate(result.times):
        row = [f"{t:.12g}"] + [f"{v:.17g}" for v in result.trajectory[k]]
        row.append(f"{result.log_jacobian[k]:.17g}")
        writer.writerow(row)
