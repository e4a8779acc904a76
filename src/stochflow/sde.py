"""Stratonovich SDE integration on charted manifolds.

The driving equation is dx = sum_{i=0..m} X_i(x) o dB^i with B^0 = t.
Integration uses the Stratonovich Heun predictor-corrector at fixed
step. The log-Jacobian of the flow is co-evolved through
d(log J) = sum_i div(X_i)(x) o dB^i on the augmented state, sharing the
same noise increments; a finite-difference Jacobian serves as an
independent cross-check.

Every integrator runs one step loop, ``run_heun``. Per system and per
consumer it compiles the whole loop over a block of noise rows into one
function (``_compile_loop``), which steps a (dim, *lead) state in place
and records, inside the loop, what its consumer keeps of each step:
``flow_with_jacobian`` the states and log J, the volume check in
``invariance`` a running max |J - 1|, ``flow_endpoints`` nothing but
the last state. The fields are lowered to straight-line code that
shares subexpressions across components, fields and divergences and
leaves out the divergences that are identically zero.

The loop steps unwrapped coordinates. Fields are compatible with the
identification (checked when the system is built) and the Heun step
commutes with the affine lattice maps, so wrapping only keeps numbers
small: once per step a single max|x| decides whether the batch is
still finite and within a few box lengths, re-wraps it when it has
drifted further and raises ``InvalidPointError`` with the step and
point when it is not finite. Results are wrapped into the fundamental
domain when they leave the integrator. When every field is constant
the Heun step is exact, and ``flow_endpoints`` replaces the loop by one
summed increment per path.

Noise is counter-based (Philox keyed by (seed, path_index)), so paths
are bitwise reproducible and independent across path indices without
shared state: path simulations are embarrassingly parallel, and
aggregations over paths are done in ascending path-index order so
serial and distributed runs agree. ``noise_matrix`` stacks the streams
of a range of path indices for batched integration; ``noise_blocks``
streams the same numbers in blocks of steps of about _BLOCK_BYTES, one
generator per path, so that a long run never holds all its noise.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .manifold import (
    ChartedManifold,
    InvalidPointError,
    VectorFieldSpec,
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
    "noise_blocks",
    "coarsen_noise",
    "step_count",
    "flow_with_jacobian",
    "flow_endpoints",
    "fd_jacobian",
    "write_trajectory_csv",
]

_MASK64 = (1 << 64) - 1

# the step loop re-wraps a batch once some coordinate passes this many box
# lengths; below it, rounding on unwrapped coordinates stays at ulp level
_REWRAP_BOXES = 4.0

# noise rows reach the step loop in blocks of about this many bytes
_BLOCK_BYTES = 1 << 18


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


def _noise_scale(m: int, dt: float, steps: int) -> float:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    if m < 0:
        raise ValueError("m must be >= 0")
    return math.sqrt(dt)


def _block_rows(m: int, width: int) -> int:
    """Steps per noise block: rows of m * width doubles in _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(1, m * width)))


def generate_noise(seed: int, path_index: int, m: int, dt: float,
                   steps: int) -> NoisePath:
    scale = _noise_scale(m, dt, steps)
    increments = _philox(seed, path_index).normal(0.0, scale, size=(steps, m))
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


def noise_blocks(seed: int, paths: range, m: int, dt: float, steps: int):
    """The increments of noise_matrix(seed, paths, m, dt, steps), streamed.

    Returns an iterator over (b, m, len(paths)) blocks of consecutive
    steps, about _BLOCK_BYTES each, drawn from one Philox generator per
    path index. A stream drawn block by block gives the numbers of one
    whole draw, so the blocks, concatenated over the step axis, equal
    np.moveaxis(noise_matrix(...), 0, -1) bit for bit.
    """
    scale = _noise_scale(m, dt, steps)
    rngs = [_philox(seed, p) for p in paths]
    rows = _block_rows(m, len(rngs))

    def blocks():
        for start in range(0, steps, rows):
            block = np.empty((min(rows, steps - start), m, len(rngs)))
            for col, rng in enumerate(rngs):
                block[:, :, col] = rng.normal(0.0, scale, size=block.shape[:2])
            yield block
    return blocks()


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
# the step loop

def _is_zero(node) -> bool:
    return isinstance(node, expr.Num) and node.value == 0.0


# What the loop keeps of each step, by consumer: the arguments it takes
# after dt, the statements that record the state at step k (x is the
# (..., dim) view of the state) and those that record log J (L).
_CONSUMERS = {
    "endpoints": ((), (), ()),
    "trajectory": (("tx", "tl"), ("tx[k] = x",), ("tl[k] = L",)),
    "volume": (("W",), (), ("np.maximum(W, np.abs(np.exp(L) - 1.0), out=W)",)),
}


def _compile_loop(sys: StratonovichSystem, consumer: str):
    """The Heun loop over one block of noise rows, as one function.

    loop(X, L, noise, k, dt, *out) steps the state X, of shape
    (dim, *lead), in place through the rows of noise, of shape
    (b, m, *noise_lead) with noise_lead broadcasting against lead; k is
    the step number before the block and L holds log J. Each state is
    recorded into out as _CONSUMERS says. Once per step a single max|X|
    test decides whether the state is still finite and within
    _REWRAP_BOXES box lengths of the fundamental domain; when it is not,
    ``_rewrap`` wraps it or raises InvalidPointError naming the step.

    The fields are lowered to straight-line stages that compute
    sum_i X_i dB^i (dB^0 = dt) component by component, sharing
    subexpressions across components, fields and divergences. Each
    divergence that ``expr.is_identically_zero`` shows to be zero (a
    Hamiltonian field's, say) is left out, and with none left log J
    stays 0 exactly and is not carried. The update a += (p + c) / 2 runs
    as t = p + c; t *= 0.5; a += t, the float operations of
    a + 0.5*(p + c).
    """
    args, record_x, record_l = _CONSUMERS[consumer]
    m = sys.manifold
    fields = [(i, f) for i, f in enumerate(sys.fields()) if not f.is_zero]
    low = expr.Lowering()
    divs = []
    if record_l:
        divs = [(i, d) for i, f in fields if not expr.is_identically_zero(
            d := product_divergence_expr(m, f))]
    noise_of = {0: "dt", **{i: f"d{i}" for i, _ in fields if i > 0}}
    body = [f"d{i} = noise[r, {i - 1}]" for i, _ in fields if i > 0]

    def stage(inputs, out):
        # <out>j = sum_i X_i^j dB^i for each component j, and
        # <out>l = sum_i div(X_i) dB^i
        start = len(low.code)
        sums = []
        for j in range(m.dim):
            terms = [f"{low.emit(f.components[j], inputs)} * {noise_of[i]}"
                     for i, f in fields if not _is_zero(f.components[j])]
            sums.append(f"{out}{j} = {' + '.join(terms) or '0.0'}")
        if divs:
            terms = [f"{low.emit(d, inputs)} * {noise_of[i]}" for i, d in divs]
            sums.append(f"{out}l = {' + '.join(terms)}")
        body.extend(low.source(start) + sums)

    stage([f"a{j}" for j in range(m.dim)], "p")
    body.extend(f"b{j} = a{j} + p{j}" for j in range(m.dim))
    stage([f"b{j}" for j in range(m.dim)], "c")
    for j in range(m.dim):
        body.extend([f"t = p{j} + c{j}", "t *= 0.5", f"a{j} += t"])
    if divs:
        body.extend(["t = pl + cl", "t *= 0.5", "L += t"])
    body.extend(["k += 1",
                 "if not np.abs(X).max() <= bound:  # true for nan",
                 "    rewrap(X, k)"])
    body.extend(record_x + (record_l if divs else ()))
    params = ", ".join(("X", "L", "noise", "k", "dt") + args)
    source = (f"def loop({params}):\n"
              + "".join(f"    {line}\n" for line in
                        ["x = np.moveaxis(X, 0, -1)"]
                        + [f"a{j} = X[{j}, ...]" for j in range(m.dim)])
              + "    for r in range(noise.shape[0]):\n"
              + "".join(f"        {line}\n" for line in body))
    return low.define(source, "loop", rewrap=functools.partial(_rewrap, m),
                      bound=_REWRAP_BOXES * max(m.box_lengths))


def _rewrap(m: ChartedManifold, X, step: int) -> None:
    """Wraps the state X, of shape (dim, *lead), in place, or raises
    InvalidPointError naming the step and the first leading index of a
    non-finite point."""
    x = np.moveaxis(X, 0, -1)
    bad = ~np.all(np.isfinite(x), axis=-1)
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise InvalidPointError(f"non-finite state at step {step}, point {where}")
    x[...] = m.wrap(x)


def run_heun(sys: StratonovichSystem, consumer: str, x0, dt: float,
             steps: int, noise_lead: tuple, blocks):
    """Runs the compiled Heun loop of consumer over the noise blocks.

    x0 has shape (..., dim) and broadcasts against noise_lead, the
    leading shape of the (b, m, *noise_lead) blocks, which hold steps
    rows in all. Returns (x, *out): the final state, unwrapped but within
    a few box lengths of the fundamental domain, and what the consumer
    recorded: for "trajectory" the states (steps + 1, *lead, dim) and
    log J (steps + 1, *lead), for "volume" max_k |J_k - 1| per leading
    index, for "endpoints" nothing.
    """
    loop = sys._cached(("loop", consumer), lambda s: _compile_loop(s, consumer))
    x0 = sys.manifold.wrap(x0)
    lead = np.broadcast_shapes(x0.shape[:-1], noise_lead)
    X = np.empty(x0.shape[-1:] + lead)
    x = np.moveaxis(X, 0, -1)
    x[...] = x0
    L = np.zeros(lead)
    out = ()
    if consumer == "trajectory":
        out = (np.empty((steps + 1,) + x.shape), np.zeros((steps + 1,) + lead))
        out[0][0] = x
    elif consumer == "volume":
        out = (np.zeros(lead),)
    k = 0
    for block in blocks:
        loop(X, L, block, k, dt, *out)
        k += block.shape[0]
    return (x, *out)


def _array_blocks(sys: StratonovichSystem, increments):
    """(steps, noise lead shape, blocks) for run_heun, the blocks being
    views of increments (..., steps, m) as (b, m, ...) rows."""
    noise = np.moveaxis(_noise_array(sys, increments), (-2, -1), (0, 1))
    steps, lead = noise.shape[0], noise.shape[2:]
    rows = _block_rows(sys.m, math.prod(lead))
    return steps, lead, (noise[s:s + rows] for s in range(0, steps, rows))


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


def flow_with_jacobian(sys: StratonovichSystem, x0, t_final: float, dt: float,
                       noise: NoisePath) -> FlowResult:
    """Co-evolves log J through the divergence SDE with shared noise."""
    _check_noise(sys, t_final, dt, noise)
    _, traj, logj = run_heun(sys, "trajectory", x0, dt,
                             *_array_blocks(sys, noise.increments))
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
    x, = run_heun(sys, "endpoints", x0, dt, *_array_blocks(sys, increments))
    return sys.manifold.wrap(x.copy())


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
