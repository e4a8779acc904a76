"""The Heun loop of ``sde``'s integrators, compiled per system.

Per system and per consumer, ``_compile_loop`` compiles the whole loop
over a block of noise rows into one function, which steps a (dim, *lead)
state in place and records, inside the loop, what its consumer keeps of
each step, as ``sde.flow_paths`` names them: "trajectory" (``simulate``)
the states and log J, "volume" (the jacobian check) a running
max |J - 1|, "endpoints" nothing but the last state. ``run_heun``
drives it over the blocks.

The step is written once, as a program of operations in ``expr``'s
operator codes: the fields lowered (``expr.Lowering``) to straight-line
code that shares subexpressions across components, fields and
divergences and leaves out the divergences that are identically zero,
the stage sums, the predictor, and the update of the state and of log J.
Two renderers turn that program into Python source.

On arrays, each operation becomes a ufunc call that writes into buffers
allocated once per block, so a step allocates nothing and costs only
numpy's per-call overhead where the batch is small.

A run of one point (one trajectory, one path) renders the same program
as statements on Python floats, which costs a fraction of numpy's
per-call overhead on one element. Both renderings do the same float
operations on the same operands, so they give the same bits; where
Python raises on a division by zero or sin(inf) and numpy would go on
with inf or nan, that block of steps runs again on arrays.

``sde`` imports this module only where a loop runs, so a command whose
flows need no time stepping (constant fields, a volume check of
divergence-free fields) does not compile it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expr, sde
from .manifold import ChartedManifold, InvalidPointError, StratonovichSystem

__all__ = ["run_heun", "loop_arrays"]

# the step loop re-wraps a batch once some coordinate passes this many box
# lengths; below it, rounding on unwrapped coordinates stays at ulp level
_REWRAP_BOXES = 4.0

# the stacked (dim, *lead) arrays of a step program, and the prefix of
# their rows' names: the state X, the stage sums P and C, and B
_ROWS = {"X": "a", "P": "p", "B": "b", "C": "c"}

# the numpy ufunc of each of expr's operator codes; buffered code calls
# it by its name
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp}

# noise rows that the one-point loop turns into Python floats at a time,
# and records it stores at a time: a bound on the lists' memory
_FLOAT_ROWS = 256


def _is_zero(node) -> bool:
    return isinstance(node, expr.Num) and node.value == 0.0


# ---------------------------------------------------------------------------
# rendering a step program as Python source

def _buffered(low: expr.Lowering, body) -> tuple:
    """(head, lines): Python statements that run body in arrays
    allocated once.

    body holds statements (strings, kept as they are) and operations
    (op, *operand names, result name) in ``expr``'s operator codes, each
    rendered as a call ufunc(*operands, result) of op's ufunc, which
    writes into the array result names. The temporaries v<n> live in
    buffers u<i>, assigned by liveness: a buffer is free once the last
    operation that reads its value has run, and that operation may write
    its result into it. Constants k<n> are read as arrays K<n> holding
    their value. head allocates the buffers and fills the constant
    arrays in the shape that the caller's variable ``lead`` holds.
    Statements must not read temporaries, and every temporary must be
    lead-shaped.
    """
    last = {}  # temporary -> index of the last operation that reads it
    for i, item in enumerate(body):
        if isinstance(item, tuple):
            for a in item[1:-1]:
                last[a] = i
    temporaries = {f"v{n}" for n in range(len(low.code))}
    buffers, free, constants, lines = {}, [], {}, []
    count = 0
    for i, item in enumerate(body):
        if isinstance(item, str):
            lines.append(item)
            continue
        op, *args, out = item
        operands = []
        for a in args:
            if low.constant_value(a) is not None:
                a = constants.setdefault(a, f"K{a[1:]}")
            operands.append(buffers.get(a, a))
        for a in dict.fromkeys(args):
            if a in buffers and last[a] == i:
                free.append(buffers.pop(a))
        if out in temporaries:
            if not free:
                free.append(f"u{count}")
                count += 1
            buffers[out] = free.pop()
        lines.append(f"{_UFUNCS[op].__name__}({', '.join(operands)}, "
                     f"{buffers.get(out, out)})")
    head = [f"{array} = np.full(lead, {k})" for k, array in constants.items()]
    head += [f"u{n} = np.empty(lead)" for n in range(count)]
    return head, lines


def _floats(program, dim: int) -> list:
    """Python statements that run program on floats: an operation on
    the stacked arrays of _ROWS runs as one statement per row."""
    lines = []
    for op, *args, out in program:
        for j in range(dim) if out in _ROWS else [""]:
            *a, out_j = (f"{_ROWS[n]}{j}" if n in _ROWS else n for n in (*args, out))
            text = (f"{a[0]} {op} {a[1]}" if len(a) == 2 else
                    f"-{a[0]}" if op == "neg" else f"{op}({a[0]})")
            lines.append(f"{out_j} = {text}")
    return lines


def _define(low: expr.Lowering, source: str, name: str, **names):
    """Runs source, which may read every name low emitted, ``np``, the
    ufuncs that buffered code calls and the given names, and returns the
    function it defines as name."""
    namespace = {**low.namespace, **{u.__name__: u for u in _UFUNCS.values()},
                 "np": np, **names}
    exec(compile(source, f"<lowered {name}>", "exec"), namespace)
    return namespace[name]


# ---------------------------------------------------------------------------
# the step loop

# What the loop keeps of each step, by consumer: the arguments it takes
# after dt, then on arrays and on floats what records the state and what
# records log J. On arrays these are statements that run at step k, with
# x the (..., dim) view of the state and S an array of the leading shape.
# On floats, whose state is a0..a{dim-1} (x is their tuple), they are
# the statements that append step k to the list xs or ls, then those
# that store xs and ls, the steps j..k, once per sub-block of steps.
_CONSUMERS = {
    "endpoints": ((), ((), ()), ((), (), (), ())),
    "trajectory": (("tx", "tl"), (("tx[k] = x",), ("tl[k] = L",)),
                   (("xs += {x}",), ("ls.append(L)",),
                    ("tx.reshape(-1)[j * {dim}:(k + 1) * {dim}] = xs",),
                    ("tl.reshape(-1)[j:k + 1] = ls",))),
    "volume": (("W",), ((), ("exp(L, S)", "subtract(S, 1.0, S)", "absolute(S, S)",
                             "maximum(W, S, out=W)")),
               ((), ("ls.append(L)",), (),
                ("np.maximum(W, np.abs(np.exp(ls) - 1.0).max(), out=W)",))),
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

    The step is one program of (op, *operands, result) operations in
    ``expr``'s operator codes. X, P, C and B name stacked (dim, *lead)
    arrays, whose rows are a<j>, p<j>, c<j> and b<j>: the state X, the
    stage sums P at X and C at the predictor B = X + P, and B. The
    fields are lowered to straight-line code that computes
    sum_i X_i dB^i (dB^0 = dt) component by component, sharing
    subexpressions across components, fields and divergences; each sum
    is added up left to right, through the scratch value S, into its row
    of P or C, and a component with no terms keeps its 0. The
    divergences are those of ``sde.divergences``, decided once per
    system: each one that ``proofs.is_identically_zero`` shows to be zero
    (a Hamiltonian field's, say) is left out, and with none left log J
    stays 0 exactly and is not carried. Such a system never reaches the
    "volume" loop, whose answer ``sde.flow_paths`` then knows without
    flowing; its other consumers step the state alone. The update
    X += (P + C) / 2 runs as B = P + C; B *= 0.5; X += B, the float
    operations of X + 0.5*(P + C), and log J's the same on its stage
    sums pl and cl, through S.

    backend "array" renders each operation as a ufunc call into arrays
    allocated once per call of the loop (``_buffered``): the lowered
    temporaries share buffers of shape lead by liveness, the constants,
    dt and S are arrays of shape lead, P and C start as zeros, and the
    rows are views P[j, ...], which stay arrays when lead is () (the
    array re-run of a one-point block). The bound test is one max|X|
    reduction, which an empty batch passes; a step allocates no array.

    backend "point" renders it, for a lead of one element, as statements
    on Python floats (``_floats``), at a fraction of the cost of numpy
    calls on one element: an operation on a stacked array runs row by
    row, and the rows of P and C start at 0.0. Each sub-block of
    _FLOAT_ROWS noise rows is read with one ``tolist``, the bound
    test is abs(a0) <= bound and ... (false for nan, like the max), a
    re-wrap writes the floats to X and reads them back, and each
    sub-block's records are stored with one slice assignment. sin and
    cos are math.sin and math.cos, which give numpy's bits; exp stays
    np.exp, whose last bit math.exp does not always match. Float
    arithmetic is the IEEE arithmetic of the arrays, so the two back
    ends give the same bits, except that Python raises where numpy
    returns inf or nan (1/0.0, math.sin(inf)); ``run_heun`` then runs
    the block again on arrays.
    """
    args, on_arrays, on_floats = _CONSUMERS[consumer]
    record_x, record_l, *store = on_arrays if backend == "array" else on_floats
    m = sys.manifold
    fields = [(i, f) for i, f in enumerate(sys.fields()) if not f.is_zero]
    low = expr.Lowering()
    divs = sde.divergences(sys) if record_l else []
    if not divs:
        record_l, store = (), store[:1]
    noise_of = {0: "dt", **{i: f"d{i}" for i, _ in fields if i > 0}}
    program = []

    def stage(inputs, out):
        # <out>j = sum_i X_i^j dB^i for each component j, and
        # <out>l = sum_i div(X_i) dB^i
        start = len(low.code)
        sums = {f"{out}{j}": [(low.emit(f.components[j], inputs), noise_of[i])
                              for i, f in fields if not _is_zero(f.components[j])]
                for j in range(m.dim)}
        if divs:
            sums[f"{out}l"] = [(low.emit(d, inputs), noise_of[i]) for i, d in divs]
        program.extend((op, *a, f"v{n}")
                       for n, (op, *a) in enumerate(low.code[start:], start))
        for name, terms in sums.items():
            for n, (v, d) in enumerate(terms):
                program.extend([("*", v, d, name)] if n == 0 else
                               [("*", v, d, "S"), ("+", name, "S", name)])

    state = [f"a{j}" for j in range(m.dim)]
    stage(state, "p")
    program.append(("+", "X", "P", "B"))
    stage([f"b{j}" for j in range(m.dim)], "c")
    program += [("+", "P", "C", "B"), ("*", "B", "0.5", "B"), ("+", "X", "B", "X")]
    if divs:
        program += [("+", "pl", "cl", "S"), ("*", "S", "0.5", "S"), ("+", "L", "S", "L")]

    row = "noise[r, {}]" if backend == "array" else "row[{}]"
    body = [f"d{i} = {row.format(i - 1)}" for i in noise_of if i > 0]
    bound = _REWRAP_BOXES * max(m.box_lengths)
    names = dict(rewrap=functools.partial(_rewrap, m, bound), bound=bound,
                 non_finite=_non_finite, isfinite=math.isfinite)
    if backend == "array":
        # B also holds |X| for the bound test, and S |L|
        body.extend(program + [
            "k += 1",
            "if not maximum.reduce(absolute(X, B), None, initial=0.0) "
            "<= bound:  # true for nan",
            "    rewrap(X, k)"])
        if divs:
            body.extend(["if not maximum.reduce(absolute(L, S), None, initial=0.0) "
                         "< inf:",
                         "    non_finite('log J', ~np.isfinite(L), k)"])
        buffers, lines = _buffered(low, body + [*record_x, *record_l])
        head = (["lead = X.shape[1:]", "x = np.moveaxis(X, 0, -1)",
                 "P = np.zeros(X.shape)", "C = np.zeros(X.shape)",
                 "B = np.empty(X.shape)", "S = np.empty(lead)",
                 "dt = np.full(lead, dt)"]
                + (["pl = np.empty(lead)", "cl = np.empty(lead)"] if divs else [])
                + [f"{v}{j} = {a}[{j}, ...]" for a, v in _ROWS.items()
                   for j in range(m.dim)]
                + buffers)
        params = ", ".join(("X", "L", "noise", "k", "dt") + args)
        source = (f"def loop({params}):\n"
                  + "".join(f"    {line}\n" for line in head)
                  + "    for r in range(noise.shape[0]):\n"
                  + "".join(f"        {line}\n" for line in lines))
        loop = _define(low, source, "loop", maximum=np.maximum,
                       absolute=np.absolute, inf=math.inf, **names)
        # arrays of shape lead held while it runs: P, C and B (dim rows
        # each), S, dt, pl and cl, the buffers, and run_heun's X and L
        loop.arrays = 4 * m.dim + 3 + (2 if divs else 0) + len(buffers)
        return loop

    x = ", ".join(state) + ("," if m.dim == 1 else "")
    test = " and ".join(f"abs({a}) <= bound" for a in state)
    body.extend(_floats(program, m.dim) + [
        "k += 1", f"if not ({test}):  # true for nan",
        f"    xv[:] = {x}", "    rewrap(X, k)", f"    {x} = xv.tolist()"])
    if divs:
        body.extend(["if not isfinite(L):",
                     "    non_finite('log J', np.full(LJ.shape, True), k)"])
    body.extend(line.format(x=x, dim=m.dim) for line in record_x + record_l)
    store = [line.format(x=x, dim=m.dim) for line in sum(store, ())]
    head = ["xv = X.reshape(-1)", f"{x} = xv.tolist()", "dt = float(dt)",
            f"noise = noise.reshape(len(noise), {sys.m})",
            " = ".join(f"{v}{j}" for v in "pc" for j in range(m.dim)) + " = 0.0"]
    if divs:
        head.append("L = LJ.item()")
    params = ", ".join(("X", "LJ", "noise", "k", "dt") + args)
    source = (f"def loop({params}):\n"
              + "".join(f"    {line}\n" for line in head)
              + f"    for s in range(0, len(noise), {_FLOAT_ROWS}):\n"
              + "".join(f"        {line}\n" for line in
                        (["j = k + 1", "xs, ls = [], []"] if store else [])
                        + [f"for row in noise[s:s + {_FLOAT_ROWS}].tolist():"])
              + "".join(f"            {line}\n" for line in body)
              + "".join(f"        {line}\n" for line in store)
              + f"    xv[:] = {x}\n"
              + ("    LJ[...] = L\n" if divs else ""))
    return _define(low, source, "loop", sin=math.sin, cos=math.cos, **names)


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


def _loop(sys: StratonovichSystem, consumer: str, backend: str):
    """The compiled loop of consumer on backend, compiled once per system."""
    return sys._cached(("loop", consumer, backend),
                       lambda s: _compile_loop(s, consumer, backend))


def loop_arrays(sys: StratonovichSystem, consumer: str) -> int:
    """The arrays of the leading shape that run_heun holds on arrays,
    besides what consumer records."""
    return _loop(sys, consumer, "array").arrays


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

    point = math.prod(lead) == 1
    k = 0
    for block in blocks:
        if point:
            start = X.copy(), L.copy()
            try:
                _loop(sys, consumer, "point")(X, L, block, k, dt, *out)
            except (ArithmeticError, ValueError):
                # Python raised where numpy gives inf or nan (or the state
                # or log J is not finite): the array loop redoes the block,
                # rewrites the same records and raises what it raises
                X[...], L[...] = start
                _loop(sys, consumer, "array")(X, L, block, k, dt, *out)
        else:
            _loop(sys, consumer, "array")(X, L, block, k, dt, *out)
        k += block.shape[0]
    return (x, *out)
