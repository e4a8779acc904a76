"""Stratonovich SDE integration on charted manifolds.

The driving equation is dx = sum_{i=0..m} X_i(x) o dB^i with B^0 = t.
Integration uses the Stratonovich Heun predictor-corrector at fixed
step. The log-Jacobian of the flow is co-evolved through
d(log J) = sum_i div(X_i)(x) o dB^i on the augmented state, sharing the
same noise increments. The tests check log J against the determinant of
a finite-difference Jacobian of ``flow_endpoints`` under the same noise,
which differentiates the flow itself and so is independent of it.

Every integrator runs one step loop, ``run_heun``. Per system and per
consumer it compiles the whole loop over a block of noise rows into one
function (``_compile_loop``), which steps a (dim, *lead) state in place
and records, inside the loop, what its consumer keeps of each step:
``flow_with_jacobian`` the states and log J, the volume check in
``invariance`` a running max |J - 1|, ``flow_endpoints`` nothing but
the last state. The fields are lowered to straight-line code that
shares subexpressions across components, fields and divergences and
leaves out the divergences that are identically zero; with none left,
J = 1 exactly and the volume check is answered without a flow. On
arrays that code is a list of ufunc calls that write into buffers
allocated once per block, so a step allocates nothing and costs only
numpy's per-call overhead where the batch is small. A run of one point (one trajectory,
one path) executes the same operations on Python floats instead, which
costs a fraction of the per-call overhead of numpy on one element. Both
do the float operations of a + 0.5 * (p + c) in the same order, so they
give the same bits; where Python raises on a division by zero or
sin(inf) and numpy would go on with inf or nan, that block of steps runs
again on arrays.

The loop steps unwrapped coordinates. Fields are compatible with the
identification (checked when the system is built) and the Heun step
commutes with the affine lattice maps, so wrapping only keeps numbers
small: once per step a single max|x| decides whether the batch is
still finite and within a few box lengths, re-wraps the points that
have drifted further (only those, so that a point's path does not
depend on its batch) and raises ``InvalidPointError`` with the step and
point when it is not finite; a log J that is carried is tested for
finiteness once per step too. Results are wrapped into the fundamental
domain when they leave the integrator. When every field is constant
the Heun step is exact, and ``flow_endpoints`` and ``flow_paths``
replace the loop by one summed increment per path.

Noise is counter-based (Philox keyed by (seed, path_index)), so paths
are bitwise reproducible and independent across path indices without
shared state: path simulations are embarrassingly parallel, and
aggregations over paths are done in ascending path-index order so
serial and distributed runs agree. ``flow_paths`` runs a range of path
indices, streaming their noise in blocks of steps of about _BLOCK_BYTES
(``noise_blocks``, one generator per path) or, on constant fields,
summing one path's noise at a time, so a long run never holds it all.
"""

from __future__ import annotations

import functools
import math

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
    "noise_blocks",
    "step_count",
    "flow_with_jacobian",
    "flow_endpoints",
    "flow_paths",
    "write_trajectory_csv",
]

# the step loop re-wraps a batch once some coordinate passes this many box
# lengths; below it, rounding on unwrapped coordinates stays at ulp level
_REWRAP_BOXES = 4.0

# noise rows reach the step loop in blocks of about this many bytes
_BLOCK_BYTES = 1 << 18

# rows turned into Python floats at a time (noise rows and records of the
# one-point step loop, trajectory CSV rows): a bound on the lists' memory
_FLOAT_ROWS = 256


class ConfigurationError(ValueError):
    pass


class StratonovichSystem:
    """Drift X_0 plus m diffusion fields X_1..X_m on a manifold."""

    def __init__(self, manifold: ChartedManifold, drift: VectorFieldSpec,
                 diffusions: tuple = (), label: str = ""):
        self.manifold = manifold
        self.drift = drift
        self.diffusions = tuple(diffusions)
        self.label = label
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


class NoisePath:
    """Gaussian increments N(0, dt), reproducible from (seed, path_index)."""

    def __init__(self, seed: int, path_index: int, dt: float, increments: np.ndarray):
        self.seed = seed
        self.path_index = path_index
        self.dt = dt
        self.increments = increments  # (steps, m)

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]


def _philox(seed: int, path_index: int) -> np.random.Generator:
    if not (0 <= seed < 2 ** 64 and 0 <= path_index < 2 ** 64):
        raise ValueError(f"seed and path index must be in [0, 2**64), got "
                         f"{seed} and {path_index}")
    key = np.array([seed, path_index], dtype=np.uint64)
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
    return NoisePath(seed=seed, path_index=path_index, dt=dt,
                     increments=increments)


def noise_blocks(seed: int, paths: range, m: int, dt: float, steps: int,
                 factor: int = 1):
    """The increments of the paths' streams, in blocks of steps.

    Returns an iterator over (b, m, len(paths)) blocks of consecutive
    steps, about _BLOCK_BYTES of draws each, from one Philox generator
    per path index. A stream drawn block by block gives the numbers of
    one whole draw: column p of the blocks, concatenated over steps, is
    generate_noise(seed, p, m, dt / factor, steps * factor) with each
    factor consecutive increments summed (one path on the grid of dt).
    """
    scale = _noise_scale(m, dt / factor, steps * factor)
    rngs = [_philox(seed, p) for p in paths]
    rows = _block_rows(m * factor, len(rngs))

    def blocks():
        # each path's draws fill a contiguous (b, m) array, and a block is
        # a view of their stack; rng.normal computes 0.0 + scale * z from
        # the same z
        for start in range(0, steps, rows):
            z = np.empty((len(rngs), min(rows, steps - start) * factor, m))
            for col, rng in enumerate(rngs):
                rng.standard_normal(out=z[col])
            z *= scale
            z += 0.0
            yield _coarsen(z.transpose(1, 2, 0), factor)
    return blocks()


def _coarsen(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sums of factor consecutive rows of increments (steps * factor, ...)."""
    if factor == 1:
        return increments
    steps = increments.shape[0] // factor
    return increments.reshape(steps, factor, *increments.shape[1:]).sum(axis=1)


def step_count(t: float, dt: float) -> int:
    """The number of dt steps in t; t must be a positive multiple of dt."""
    if not (math.isfinite(t) and math.isfinite(dt)):
        raise ValueError(f"t and dt must be finite, got t={t}, dt={dt}")
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
# (..., dim) view of the state) and those that record log J (L), as
# statements or as ufunc calls (name, *operands, result) into S, an
# array of the leading shape.
_CONSUMERS = {
    "endpoints": ((), (), ()),
    "trajectory": (("tx", "tl"), ("tx[k] = x",), ("tl[k] = L",)),
    "volume": (("W",), (), (("exp", "L", "S"), ("subtract", "S", "1.0", "S"),
                            ("absolute", "S", "S"), "maximum(W, S, out=W)")),
}

# The same for the one-point loop, which keeps the state in floats
# a0..a{dim-1} (x is their tuple), appends the states of a sub-block of
# steps j..k to the flat list xs and its log J to ls, and stores both
# once per sub-block: the statements run before the loop, the records of
# x and of L, and the stores of xs and of ls.
_POINT_CONSUMERS = {
    "endpoints": ((), (), (), (), ()),
    "trajectory": (("tx = tx.reshape(-1)", "tl = tl.reshape(-1)"),
                   ("xs += {x}",), ("ls.append(L)",),
                   ("tx[j * {dim}:(k + 1) * {dim}] = xs",), ("tl[j:k + 1] = ls",)),
    "volume": ((), (), ("ls.append(L)",), (),
               ("np.maximum(W, np.abs(np.exp(ls) - 1.0).max(), out=W)",)),
}


def _compile_loop(sys: StratonovichSystem, consumer: str, backend: str):
    """The Heun loop over one block of noise rows, as one function.

    loop(X, L, noise, k, dt, *out) steps the state X, of shape
    (dim, *lead), in place through the rows of noise, of shape
    (b, m, *noise_lead) with noise_lead broadcasting against lead; k is
    the step number before the block and L holds log J. Each state is
    recorded into out as _CONSUMERS says. Once per step a single max|X|
    test decides whether the state is still finite and within
    _REWRAP_BOXES box lengths of the fundamental domain; when it is not,
    ``_rewrap`` wraps the points past that bound or raises
    InvalidPointError naming the step. When log J is carried, a second
    test raises InvalidPointError at the first step where it is not
    finite (0 * inf in a divergence, say).

    The fields are lowered to straight-line stages that compute
    sum_i X_i dB^i (dB^0 = dt) component by component, sharing
    subexpressions across components, fields and divergences. The
    divergences are those of ``_divergences``, decided once per system:
    each one that ``expr.is_identically_zero`` shows to be zero (a
    Hamiltonian field's, say) is left out, and with none left log J
    stays 0 exactly and is not carried. Such a system never reaches the
    "volume" loop, whose answer ``flow_paths`` then knows without
    flowing; its other consumers step the state alone. The update
    a += (p + c) / 2 runs as t = p + c; t *= 0.5; a += t, the float
    operations of a + 0.5*(p + c).

    backend "array" runs those operations as ufunc calls that write into
    arrays allocated once per call of the loop (``Lowering.buffered``):
    the lowered temporaries share buffers of shape lead by liveness, the
    constants and dt are arrays of shape lead, and the stage sums go row
    by row into stacked (dim, *lead) arrays P and C (a component with no
    terms keeps a row of zeros). So the predictor input is one
    add(X, P, B), the update is add(P, C, B); multiply(B, 0.5, B);
    add(X, B, X), log J's the same on pl and cl, and the bound test is
    one max|X| reduction, which an empty batch passes; a step allocates
    no array. Row views are P[j, ...], which stays an array when lead
    is () (the array re-run of a one-point block).

    backend "point" runs them, for a lead of one element, on Python
    floats a0..a{dim-1} and L, at a fraction of the cost of numpy calls
    on one element: each sub-block of _FLOAT_ROWS noise rows is read
    with one ``tolist``, the bound test is abs(a0) <= bound and ...
    (false for nan, like the max), a re-wrap writes the floats to X and
    reads them back, and each sub-block's records are stored with one
    slice assignment (_POINT_CONSUMERS). sin and cos are math.sin and
    math.cos, which give numpy's bits; exp stays np.exp, whose last bit
    math.exp does not always match. Float arithmetic is the IEEE
    arithmetic of the arrays, so the two back ends give the same bits,
    except that Python raises where numpy returns inf or nan (1/0.0,
    math.sin(inf)); ``run_heun`` then runs the block again on arrays.
    """
    args, record_x, record_l = _CONSUMERS[consumer]
    m = sys.manifold
    fields = [(i, f) for i, f in enumerate(sys.fields()) if not f.is_zero]
    low = expr.Lowering()
    divs = sys._cached("divergences", _divergences) if record_l else []
    noise_of = {0: "dt", **{i: f"d{i}" for i, _ in fields if i > 0}}
    row = "row[{}]" if backend == "point" else "noise[r, {}]"
    body = [f"d{i} = {row.format(i - 1)}" for i, _ in fields if i > 0]

    def stage(inputs, out):
        # <out>j = sum_i X_i^j dB^i for each component j, and
        # <out>l = sum_i div(X_i) dB^i
        start = len(low.code)
        sums = {f"{out}{j}": [(low.emit(f.components[j], inputs), noise_of[i])
                              for i, f in fields if not _is_zero(f.components[j])]
                for j in range(m.dim)}
        if divs:
            sums[f"{out}l"] = [(low.emit(d, inputs), noise_of[i]) for i, d in divs]
        if backend == "point":
            body.extend(low.source(start) + [
                f"{name} = {' + '.join(f'{v} * {d}' for v, d in terms) or '0.0'}"
                for name, terms in sums.items()])
            return
        # each sum is added up left to right in its row of P or C (or in
        # pl, cl); a component without terms keeps its row of zeros
        body.extend(low.calls(start))
        for name, terms in sums.items():
            for n, (v, d) in enumerate(terms):
                body.extend([("multiply", v, d, name)] if n == 0 else
                            [("multiply", v, d, "S"), ("add", name, "S", name)])

    state = [f"a{j}" for j in range(m.dim)]
    inputs = [f"b{j}" for j in range(m.dim)]
    bound = _REWRAP_BOXES * max(m.box_lengths)
    names = dict(rewrap=functools.partial(_rewrap, m, bound), bound=bound,
                 non_finite=_non_finite, isfinite=math.isfinite)
    if backend == "array":
        # B holds a + p, then (p + c) / 2, then |X|; S is scratch
        stage(state, "p")
        body.append(("add", "X", "P", "B"))
        stage(inputs, "c")
        body.extend([("add", "P", "C", "B"), ("multiply", "B", "0.5", "B"),
                     ("add", "X", "B", "X")])
        if divs:
            body.extend([("add", "pl", "cl", "S"), ("multiply", "S", "0.5", "S"),
                         ("add", "L", "S", "L")])
        body.extend(["k += 1",
                     "if not maximum.reduce(absolute(X, B), None, initial=0.0) "
                     "<= bound:  # true for nan",
                     "    rewrap(X, k)"])
        if divs:
            body.extend(["if not maximum.reduce(absolute(L, S), None, initial=0.0) "
                         "< inf:",
                         "    non_finite('log J', ~np.isfinite(L), k)"])
        body.extend(record_x + (record_l if divs else ()))
        buffers, lines = low.buffered(body)
        head = (["lead = X.shape[1:]", "x = np.moveaxis(X, 0, -1)",
                 "P = np.zeros(X.shape)", "C = np.zeros(X.shape)",
                 "B = np.empty(X.shape)", "S = np.empty(lead)",
                 "dt = np.full(lead, dt)"]
                + (["pl = np.empty(lead)", "cl = np.empty(lead)"] if divs else [])
                + [f"{v}{j} = {a}[{j}, ...]" for v, a in
                   (("a", "X"), ("p", "P"), ("b", "B"), ("c", "C"))
                   for j in range(m.dim)]
                + buffers)
        params = ", ".join(("X", "L", "noise", "k", "dt") + args)
        source = (f"def loop({params}):\n"
                  + "".join(f"    {line}\n" for line in head)
                  + "    for r in range(noise.shape[0]):\n"
                  + "".join(f"        {line}\n" for line in lines))
        return low.define(source, "loop", maximum=np.maximum,
                          absolute=np.absolute, inf=math.inf, **names)

    stage(state, "p")
    body.extend(f"b{j} = a{j} + p{j}" for j in range(m.dim))
    stage(inputs, "c")
    for j in range(m.dim):
        body.extend([f"t = p{j} + c{j}", "t *= 0.5", f"a{j} += t"])
    if divs:
        body.extend(["t = pl + cl", "t *= 0.5", "L += t"])
    body.append("k += 1")
    x = ", ".join(state) + ("," if m.dim == 1 else "")
    setup, point_x, point_l, store_x, store_l = (
        tuple(line.format(x=x, dim=m.dim) for line in lines)
        for lines in _POINT_CONSUMERS[consumer])
    if not divs:
        point_l = store_l = ()
    test = " and ".join(f"abs({a}) <= bound" for a in state)
    body.extend([f"if not ({test}):  # true for nan",
                 f"    xv[:] = {x}", "    rewrap(X, k)", f"    {x} = xv.tolist()"])
    if divs:
        body.extend(["if not isfinite(L):",
                     "    non_finite('log J', np.full(LJ.shape, True), k)"])
    body.extend(point_x + point_l)
    head = ["xv = X.reshape(-1)", f"{x} = xv.tolist()", "dt = float(dt)",
            f"noise = noise.reshape(len(noise), {sys.m})", *setup]
    if divs:
        head.append("L = LJ.item()")
    params = ", ".join(("X", "LJ", "noise", "k", "dt") + args)
    source = (f"def loop({params}):\n"
              + "".join(f"    {line}\n" for line in head)
              + f"    for s in range(0, len(noise), {_FLOAT_ROWS}):\n"
              + "".join(f"        {line}\n" for line in
                        (["j = k + 1"] if store_x + store_l else [])
                        + (["xs = []"] if store_x else [])
                        + (["ls = []"] if store_l else [])
                        + [f"for row in noise[s:s + {_FLOAT_ROWS}].tolist():"])
              + "".join(f"            {line}\n" for line in body)
              + "".join(f"        {line}\n" for line in store_x + store_l)
              + f"    xv[:] = {x}\n"
              + ("    LJ[...] = L\n" if divs else ""))
    return low.define(source, "loop", sin=math.sin, cos=math.cos, **names)


def _divergences(sys: StratonovichSystem) -> list:
    """(i, div X_i) for each field X_i whose divergence
    ``expr.is_identically_zero`` does not show to be zero. When the list
    is empty, log J has zero coefficients and J = 1 on every path."""
    m = sys.manifold
    return [(i, d) for i, f in enumerate(sys.fields()) if not f.is_zero
            and not expr.is_identically_zero(d := product_divergence_expr(m, f))]


def _non_finite(what: str, bad, step: int) -> None:
    """Raises InvalidPointError naming the step and the first leading
    index where bad, of shape lead, is true."""
    where = tuple(int(i) for i in np.argwhere(bad)[0])
    raise InvalidPointError(f"non-finite {what} at step {step}, point {where}")


def _rewrap(m: ChartedManifold, bound: float, X, step: int) -> None:
    """Wraps in place the points of the state X, of shape (dim, *lead),
    that are past bound, or raises InvalidPointError naming the step and
    the first leading index of a non-finite point. The other points stay
    as they are, so that a point's path does not depend on the rest of
    its batch."""
    x = np.moveaxis(X, 0, -1)
    bad = ~np.all(np.isfinite(x), axis=-1)
    if np.any(bad):
        _non_finite("state", bad, step)
    far = np.abs(x).max(axis=-1) > bound
    x[far] = m.wrap(x[far])


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

    def loop(backend):
        return sys._cached(("loop", consumer, backend),
                           lambda s: _compile_loop(s, consumer, backend))

    point = math.prod(lead) == 1
    k = 0
    for block in blocks:
        if point:
            start = X.copy(), L.copy()
            try:
                loop("point")(X, L, block, k, dt, *out)
            except (ArithmeticError, ValueError):
                # Python raised where numpy gives inf or nan (or the state
                # or log J is not finite): the array loop redoes the block,
                # rewrites the same records and raises what it raises
                X[...], L[...] = start
                loop("array")(X, L, block, k, dt, *out)
        else:
            loop("array")(X, L, block, k, dt, *out)
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


class FlowResult:
    """Trajectory at t_k = k dt in canonical coordinates, and log J."""

    def __init__(self, dt: float, trajectory: np.ndarray, log_jacobian: np.ndarray):
        self.dt = dt
        self.trajectory = trajectory  # (steps + 1, dim)
        self.log_jacobian = log_jacobian  # (steps + 1,)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.trajectory.shape[0])

    @property
    def endpoint(self) -> np.ndarray:
        return self.trajectory[-1]

    @property
    def jacobian(self) -> np.ndarray:
        return np.exp(self.log_jacobian)


def flow_with_jacobian(sys: StratonovichSystem, x0,
                       noise: NoisePath) -> FlowResult:
    """Co-evolves log J through the divergence SDE over the steps of noise."""
    _, traj, logj = run_heun(sys, "trajectory", x0, noise.dt,
                             *_array_blocks(sys, noise.increments))
    return FlowResult(dt=noise.dt, trajectory=sys.manifold.wrap(traj),
                      log_jacobian=logj)


def flow_endpoints(sys: StratonovichSystem, x0, dt: float,
                   increments: np.ndarray) -> np.ndarray:
    """Endpoint-only batched flow.

    x0 has shape (..., dim) and increments (..., steps, m), broadcast
    against each other in the leading axes; returns the wrapped
    endpoints with the broadcast shape.
    """
    velocities = sys._cached("velocities", _constant_velocities)
    if velocities is not None:
        return _translate(sys, velocities, sys.manifold.wrap(x0), dt, increments)
    x, = run_heun(sys, "endpoints", x0, dt, *_array_blocks(sys, increments))
    return sys.manifold.wrap(x.copy())


def _translate(sys: StratonovichSystem, velocities: np.ndarray, x0, dt: float,
               increments) -> np.ndarray:
    """flow_endpoints for constant fields X_0..X_m (the rows of
    velocities) from the wrapped x0: each Heun step adds sum_i X_i dB^i
    exactly."""
    increments = _noise_array(sys, increments)
    steps = increments.shape[-2]
    x = (x0 + (dt * steps) * velocities[0]
         + increments.sum(axis=-2) @ velocities[1:])
    return sys.manifold.wrap(x)


def flow_paths(sys: StratonovichSystem, consumer: str, x0, dt: float,
               steps: int, seed: int, paths: range,
               factor: int = 1) -> np.ndarray:
    """Flows x0 (..., dim) along the noise_blocks streams of paths.

    The paths form the first leading axis: consumer "endpoints" returns
    the wrapped endpoints (len(paths), ..., dim), "volume" the running
    max_k |J_k - 1| (len(paths), ...). Constant fields sum each path's
    increments whole, one path at a time, which gives the bits of
    ``flow_endpoints`` on the stacked increments (numpy sums pairwise
    when m = 1, so a sum block by block would not).

    When every divergence is identically zero (``_divergences`` is
    empty: Hamiltonian fields, translations, the Heisenberg frame), the
    log J equation has zero coefficients, J = 1 on every path (Liouville)
    and "volume" returns zeros without flowing: no noise is drawn and no
    loop runs. dt, steps and x0 are validated as for a flow (a non-finite
    x0 raises InvalidPointError), but a state that would stop being
    finite along the way is not seen.
    """
    if consumer == "volume" and not sys._cached("divergences", _divergences):
        _noise_scale(sys.m, dt / factor, steps * factor)
        return np.zeros((len(paths),) + sys.manifold.wrap(x0).shape[:-1])
    velocities = sys._cached("velocities", _constant_velocities)
    if consumer == "endpoints" and velocities is not None:
        x0 = sys.manifold.wrap(x0)
        ends = np.empty((len(paths),) + x0.shape)
        for n, p in enumerate(paths):
            ends[n] = _translate(sys, velocities, x0, dt, _coarsen(generate_noise(
                seed, p, sys.m, dt / factor, steps * factor).increments, factor))
        return ends
    lead = (len(paths),) + (1,) * (np.ndim(x0) - 1)
    blocks = (b.reshape(b.shape[:2] + lead)
              for b in noise_blocks(seed, paths, sys.m, dt, steps, factor))
    x, *out = run_heun(sys, consumer, x0, dt, steps, lead, blocks)
    return out[0] if out else sys.manifold.wrap(x.copy())


def write_trajectory_csv(result: FlowResult, fileobj) -> None:
    """Columns t, x1..xn, logJ, with the CRLF line ends of csv.writer."""
    dim = result.trajectory.shape[-1]
    fileobj.write(",".join(["t", *(f"x{i + 1}" for i in range(dim)), "logJ"])
                  + "\r\n")
    # one template per row; Python floats format as numpy's do, and faster
    row = "%.12g," + "%.17g," * dim + "%.17g\r\n"
    times = result.times
    for s in range(0, len(times), _FLOAT_ROWS):
        rows = slice(s, s + _FLOAT_ROWS)
        table = np.column_stack((times[rows], result.trajectory[rows],
                                 result.log_jacobian[rows]))
        fileobj.write("".join([row % tuple(r) for r in table.tolist()]))
