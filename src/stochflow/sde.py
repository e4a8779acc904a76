"""Stratonovich SDE integration on charted manifolds.

The driving equation is dx = sum_{i=0..m} X_i(x) o dB^i with B^0 = t.
Integration uses the Stratonovich Heun predictor-corrector at fixed
step. The log-Jacobian of the flow is co-evolved through
d(log J) = sum_i div(X_i)(x) o dB^i on the augmented state, sharing the
same noise increments. The tests check log J against the determinant of
a finite-difference Jacobian of ``flow_endpoints`` under the same noise,
which differentiates the flow itself and so is independent of it.

Every flow runs one core, ``_flow``, over blocks of noise rows, and
its step loop ``heun.run_heun`` compiles, per system and consumer, the
loop over a block into one function; ``heun`` is imported only where a
loop runs. Arrays of points and runs of a single point (one trajectory,
one path) give the same bits, and a point's path does not depend on its
batch.

The loop steps unwrapped coordinates. Fields are compatible with the
identification (checked when the system is built) and the Heun step
commutes with the affine lattice maps, so wrapping only keeps numbers
small: once per step the loop re-wraps the points that have drifted a
few box lengths away and raises ``InvalidPointError`` with the step and
point when the state, or a log J that is carried, is not finite.
Results are wrapped into the fundamental domain when they leave the
integrator. ``divergences`` decides, once per system, which
divergences log J carries, for this module and heun's loops alike.
When every divergence is identically zero, J = 1 exactly and the
volume check is answered without a flow; when every field is constant
the Heun step is exact, and the endpoints take one increment per path,
summed in step order across the blocks. In both cases no loop is
compiled.

Noise is counter-based (``noise.normals``, Philox4x32-10 keyed by the
seed, with the path index and the draw's index as its counter), so paths
are bitwise reproducible and independent across path indices without
shared state: path simulations are embarrassingly parallel, and
aggregations over paths are done in ascending path-index order so
serial and distributed runs agree; ``noise`` is imported only where
noise is drawn. ``flow_paths``, the flow of every command, streams the
paths' noise in blocks of steps of about _BLOCK_BYTES (``noise_blocks``,
any slice of a path's stream being drawn on its own), so a long run
never holds it all; ``flow_endpoints`` and ``flow_with_jacobian``, which
the tests compare it with, flow explicit increments.

The systems this module flows, ``StratonovichSystem``, and
``step_count`` are defined in ``manifold``, so that building an
experiment loads no flow code.
"""

from __future__ import annotations

import math

import numpy as np

from .manifold import (
    ConfigurationError,
    StratonovichSystem,
    product_divergence_expr,
)
from .proofs import is_identically_zero

__all__ = [
    "FlowResult",
    "generate_noise",
    "noise_blocks",
    "flow_with_jacobian",
    "flow_endpoints",
    "flow_paths",
    "divergences",
    "endpoint_arrays",
    "write_trajectory_csv",
]

# noise rows reach the step loop in blocks of about this many bytes
_BLOCK_BYTES = 1 << 18

# trajectory rows that write_trajectory_csv formats at a time: a bound on
# the memory of their Python floats and text
_CSV_ROWS = 256


def _noise_scale(m: int, dt: float, steps: int) -> float:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    if m < 0:
        raise ValueError("m must be >= 0")
    return math.sqrt(dt)


def _check_key(seed: int, paths: range) -> None:
    """Raises ValueError, as ``noise.normals`` would, unless seed and the
    path indices (the seed alone for no paths) are in [0, 2**64)."""
    for p in (paths[0], paths[-1]) if paths else (paths.start,):
        if not (0 <= seed < 2 ** 64 and 0 <= p < 2 ** 64):
            raise ValueError(f"seed and path index must be in [0, 2**64), "
                             f"got {seed} and {p}")


def _block_rows(m: int, width: int) -> int:
    """Steps per noise block: rows of m * width doubles in _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(1, m * width)))


def _increments(seed: int, paths: range, m: int, scale: float, start: int,
                steps: int, factor: int = 1) -> np.ndarray:
    """Steps start .. start+steps-1 of the paths' increments, (len(paths),
    steps, m). Fine step k, component i of a path is scale times normal
    k*m + i of its stream; each factor consecutive fine steps are summed
    into one step."""
    from .noise import normals

    z = normals(seed, paths, start * factor * m, steps * factor * m)
    z *= scale
    z = z.reshape(len(paths), steps, factor, m)
    return z[:, :, 0] if factor == 1 else z.sum(axis=2)


def generate_noise(seed: int, path_index: int, m: int, dt: float,
                   steps: int) -> np.ndarray:
    """The first steps increments N(0, dt) of path_index's stream, as a
    read-only (steps, m) array: row k, column i is sqrt(dt) times normal
    k*m + i of the stream."""
    increments = _increments(seed, range(path_index, path_index + 1), m,
                             _noise_scale(m, dt, steps), 0, steps)[0]
    increments.setflags(write=False)
    return increments


def noise_blocks(seed: int, paths: range, m: int, dt: float, steps: int,
                 factor: int = 1):
    """The increments of the paths' streams, in blocks of steps.

    Returns an iterator over (b, m, len(paths)) blocks of consecutive
    steps, about _BLOCK_BYTES of draws each, each block drawing its
    slice of every path's stream. Column p of the blocks, concatenated
    over steps, is generate_noise(seed, p, m, dt / factor, steps * factor)
    with each factor consecutive increments summed (one path on the grid
    of dt), so results do not depend on the block size.
    """
    scale = _noise_scale(m, dt / factor, steps * factor)
    _check_key(seed, paths)
    rows = _block_rows(m * factor, len(paths))
    return (_increments(seed, paths, m, scale, start, min(rows, steps - start),
                        factor).transpose(1, 2, 0)
            for start in range(0, steps, rows))


def _array_blocks(sys: StratonovichSystem, increments):
    """(steps, noise lead shape, blocks) for ``_flow``, the blocks being
    views of increments (..., steps, m) as (b, m, ...) rows."""
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1] != sys.m:
        raise ConfigurationError(f"noise has {increments.shape[-1]} components, "
                                 f"system has {sys.m}")
    noise = np.moveaxis(increments, (-2, -1), (0, 1))
    steps, lead = noise.shape[0], noise.shape[2:]
    rows = _block_rows(sys.m, math.prod(lead))
    return steps, lead, (noise[s:s + rows] for s in range(0, steps, rows))


def _constant_velocities(sys: StratonovichSystem):
    """Rows X_0..X_m when every field is a constant expression, else None."""
    if not all(f.is_constant for f in sys.fields()):
        return None
    origin = np.zeros(sys.manifold.dim)
    return np.array([f(origin) for f in sys.fields()])


def _flow(sys: StratonovichSystem, consumer: str, x0, dt: float, steps: int,
          lead: tuple, blocks):
    """What flow_paths' consumer returns for x0 (..., dim) over the
    (b, m, *lead) noise blocks, steps rows in all. On constant fields
    X_0..X_m the endpoints are x0 + dt*steps*X_0 + sum_i B^i X_i, each
    path's B summed in step order across the blocks, and are wrapped in
    one call."""
    velocities = sys._cached("velocities", _constant_velocities)
    if consumer == "endpoints" and velocities is not None:
        x0 = sys.manifold.wrap(x0)
        total = np.zeros((sys.m,) + lead)
        for block in blocks:
            sums = np.concatenate((total[None], block))
            total = np.cumsum(sums, axis=0, out=sums)[-1]
        return sys.manifold.wrap(
            x0 + (dt * steps) * velocities[0]
            + np.ascontiguousarray(np.moveaxis(total, 0, -1)) @ velocities[1:])
    from .heun import run_heun

    x, *out = run_heun(sys, consumer, x0, dt, steps, lead, blocks)
    if consumer == "trajectory":
        return sys.manifold.wrap(out[0]), out[1]
    return out[0] if out else sys.manifold.wrap(x.copy())


class FlowResult:
    """Trajectory at t_k = k dt in canonical coordinates, and log J."""

    def __init__(self, dt: float, trajectory: np.ndarray, log_jacobian: np.ndarray):
        self.dt = dt
        self.trajectory = trajectory  # (steps + 1, ..., dim)
        self.log_jacobian = log_jacobian  # (steps + 1, ...)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.trajectory.shape[0])


def flow_with_jacobian(sys: StratonovichSystem, x0, dt: float,
                       increments: np.ndarray) -> FlowResult:
    """The wrapped trajectory and log J of x0 (..., dim) over increments
    (..., steps, m), broadcast as in ``flow_endpoints``."""
    traj, logj = _flow(sys, "trajectory", x0, dt, *_array_blocks(sys, increments))
    return FlowResult(dt=dt, trajectory=traj, log_jacobian=logj)


def flow_endpoints(sys: StratonovichSystem, x0, dt: float,
                   increments: np.ndarray) -> np.ndarray:
    """Endpoint-only batched flow.

    x0 has shape (..., dim) and increments (..., steps, m), broadcast
    against each other in the leading axes; returns the wrapped
    endpoints with the broadcast shape.
    """
    return _flow(sys, "endpoints", x0, dt, *_array_blocks(sys, increments))


def flow_paths(sys: StratonovichSystem, consumer: str, x0, dt: float,
               steps: int, seed: int, paths: range,
               factor: int = 1):
    """Flows x0 (..., dim) along the noise_blocks streams of paths.

    The paths form the first leading axis: consumer "endpoints" returns
    the wrapped endpoints (len(paths), ..., dim), "trajectory" the
    wrapped states (steps + 1, len(paths), ..., dim) and log J
    (steps + 1, len(paths), ...), and "volume" the running max_k
    |J_k - 1| (len(paths), ...). dt, steps, the seed and the path
    indices are validated before any route is taken.

    When every divergence is identically zero (``divergences`` is
    empty: Hamiltonian fields, translations, the Heisenberg frame), the
    log J equation has zero coefficients, J = 1 on every path (Liouville)
    and "volume" returns zeros without flowing: no noise is drawn and no
    loop runs. x0 is validated as for a flow (a non-finite x0 raises
    InvalidPointError), but a state that would stop being finite along
    the way is not seen.
    """
    _noise_scale(sys.m, dt / factor, steps * factor)
    _check_key(seed, paths)
    if consumer == "volume" and not divergences(sys):
        return np.zeros((len(paths),) + sys.manifold.wrap(x0).shape[:-1])
    lead = (len(paths),) + (1,) * (np.ndim(x0) - 1)
    blocks = (b.reshape(b.shape[:2] + lead)
              for b in noise_blocks(seed, paths, sys.m, dt, steps, factor))
    return _flow(sys, consumer, x0, dt, steps, lead, blocks)


def divergences(sys: StratonovichSystem) -> list:
    """(i, div X_i) for each field X_i whose divergence
    ``proofs.is_identically_zero`` does not show to be zero, decided once
    per system. When the list is empty, log J has zero coefficients and
    J = 1 on every path."""
    def find(s):
        m = s.manifold
        return [(i, d) for i, f in enumerate(s.fields()) if not f.is_zero
                and not is_identically_zero(d := product_divergence_expr(m, f))]

    return sys._cached("divergences", find)


def endpoint_arrays(sys: StratonovichSystem) -> int:
    """The most arrays of one value per start point and path that
    flow_paths(sys, "endpoints", ...) holds at once: for constant fields
    the endpoints, wrap's copy of them and its three temporaries, else
    those of the Heun loop."""
    if sys._cached("velocities", _constant_velocities) is not None:
        return 2 * sys.manifold.dim + 3
    from .heun import loop_arrays

    return loop_arrays(sys, "endpoints")


def write_trajectory_csv(result: FlowResult, fileobj) -> None:
    """Columns t, x1..xn, logJ, with the CRLF line ends of csv.writer."""
    dim = result.trajectory.shape[-1]
    fileobj.write(",".join(["t", *(f"x{i + 1}" for i in range(dim)), "logJ"])
                  + "\r\n")
    # one % over the row template repeated for each row of a block;
    # Python floats format as numpy's do, and faster
    row = "%.12g," + "%.17g," * dim + "%.17g\r\n"
    times = result.times
    for s in range(0, len(times), _CSV_ROWS):
        rows = slice(s, s + _CSV_ROWS)
        table = np.column_stack((times[rows], result.trajectory[rows],
                                 result.log_jacobian[rows]))
        fileobj.write((row * len(table)) % tuple(table.ravel().tolist()))
