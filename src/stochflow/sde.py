"""Stratonovich SDE integration on charted manifolds.

The driving equation is dx = sum_{i=0..m} X_i(x) o dB^i with B^0 = t.
Integration uses the Stratonovich Heun predictor-corrector at fixed
step. The log-Jacobian of the flow is co-evolved through
d(log J) = sum_i div(X_i)(x) o dB^i on the augmented state, sharing the
same noise increments; a finite-difference Jacobian serves as an
independent cross-check.

Every integrator runs the one step loop in ``heun_path``, a generator
over the wrapped states (and log J) of a batch of points:
``flow_with_jacobian`` records them, ``flow_endpoints`` keeps the last
one, and the volume check in ``invariance`` keeps a running maximum.

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

from .manifold import (
    ChartedManifold,
    VectorFieldSpec,
    divergence_function,
    is_compatible_field,
)

__all__ = [
    "ConfigurationError",
    "StratonovichSystem",
    "NoisePath",
    "FlowResult",
    "generate_noise",
    "noise_matrix",
    "coarsen_noise",
    "flow_with_jacobian",
    "flow_endpoints",
    "fd_jacobian",
    "write_trajectory_csv",
]

_MASK64 = (1 << 64) - 1


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
            if not is_compatible_field(self.manifold, f):
                raise ConfigurationError(
                    f"{name} is not compatible with the identification")

    @property
    def m(self) -> int:
        return len(self.diffusions)

    def fields(self) -> list:
        return [self.drift, *self.diffusions]


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


# ---------------------------------------------------------------------------
# stepping

def _step_increment(sys: StratonovichSystem, x, db, dt):
    """sum_i X_i(x) dB^i with dB^0 = dt; db has shape (..., m)."""
    out = None
    if not sys.drift.is_zero:
        out = sys.drift(x) * dt
    for i, f in enumerate(sys.diffusions):
        term = f(x) * db[..., i][..., None]
        out = term if out is None else out + term
    if out is None:
        out = np.zeros(np.shape(x))
    return out


def _div_increment(div_fns, x, db, dt):
    out = None
    for i, fn in enumerate(div_fns):
        if fn is None:
            continue
        vals = fn(x)
        term = vals * dt if i == 0 else vals * db[..., i - 1]
        out = term if out is None else out + term
    if out is None:
        out = np.zeros(np.shape(x)[:-1])
    return out


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
    against each other in the leading axes. Each state is wrapped into
    the fundamental domain; the corrector is evaluated on the same sheet
    as the predictor and wrapping happens only after the step. log J is
    None unless log_jacobian is set.
    """
    x0 = np.asarray(x0, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1] != sys.m:
        raise ConfigurationError(f"noise has {increments.shape[-1]} components, "
                                 f"system has {sys.m}")
    lead = np.broadcast_shapes(x0.shape[:-1], increments.shape[:-2])
    x = np.broadcast_to(sys.manifold.wrap(x0), lead + x0.shape[-1:]).copy()
    logj = div_fns = None
    if log_jacobian:
        div_fns = [None if f.is_zero else divergence_function(sys.manifold, f)
                   for f in sys.fields()]
        logj = np.zeros(lead)
    yield x, logj
    for k in range(increments.shape[-2]):
        db = increments[..., k, :]
        pred = _step_increment(sys, x, db, dt)
        xbar = x + pred
        corr = _step_increment(sys, xbar, db, dt)
        if div_fns is not None:
            pred_l = _div_increment(div_fns, x, db, dt)
            corr_l = _div_increment(div_fns, xbar, db, dt)
            logj = logj + 0.5 * (pred_l + corr_l)
        x = sys.manifold.wrap(x + 0.5 * (pred + corr))
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
    return FlowResult(dt=dt, trajectory=traj, log_jacobian=logj)


def flow_endpoints(sys: StratonovichSystem, x0, dt: float,
                   increments: np.ndarray) -> np.ndarray:
    """Endpoint-only batched flow.

    x0 has shape (..., dim) and increments (..., steps, m), broadcast
    against each other in the leading axes; returns the wrapped
    endpoints with the broadcast shape.
    """
    for x, _ in heun_path(sys, x0, dt, increments):
        pass
    return x


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
