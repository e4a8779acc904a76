"""Reference implementations that the tests compare the package against.

Each computes a value the package computes by another route: a tree
walker beside ``expr.Lowering``, a recursive derivative beside the
stack walk of ``expr.diff``, one pullback or derivative current at a
time beside the batched passes of ``currents``, a finite-difference
Jacobian beside the co-evolved log J, invariance of a function on
sampled identified pairs, the torus and Heisenberg quotients written
out by name beside ``manifold``'s table of shears (wrapping, lattice
pairs, test bases and the lattice rule), and the adjoint matrices and Koszul leaf
connection behind the trace criterion and the foliated drift of
``liealg``, and the Philox4x32-10 stream and its Box-Muller normals on
Python ints and ``math`` beside the array arithmetic of ``noise``.
``to_str`` writes an expression back in the grammar that ``expr.parse``
reads.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional

import numpy as np

from stochflow import expr
from stochflow.currents import Current
from stochflow.liealg import LieAlgebraData, Subalgebra
from stochflow.manifold import (
    ChartedManifold,
    StratonovichSystem,
    VectorFieldSpec,
    apply_field,
    identified_pairs,
)
from stochflow.sde import flow_endpoints

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


# ---------------------------------------------------------------------------
# expressions

def _walk(node, pts, memo):
    """The values of node on pts; memo holds the values of the nodes
    already evaluated in this walk, so a shared subtree is walked once."""
    value = memo.get(node)
    if value is None:
        value = memo[node] = _walk_node(node, pts, memo)
    return value


def _walk_node(node, pts, memo):
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Coord):
        if node.axis >= pts.shape[-1]:
            raise ValueError(
                f"expression references x{node.axis + 1} but points have "
                f"dimension {pts.shape[-1]}")
        return pts[..., node.axis]
    if isinstance(node, expr.Neg):
        return -_walk(node.arg, pts, memo)
    if isinstance(node, expr.BinOp):
        a = _walk(node.left, pts, memo)
        b = _walk(node.right, pts, memo)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, expr.Call):
        return _FUNCTIONS[node.fn](_walk(node.arg, pts, memo))
    raise TypeError(f"not an expression node: {node!r}")


def walk(node, pts) -> np.ndarray:
    """node at points of shape (..., dim), by walking the tree: constants
    as Python floats, each distinct node once; shape (...,)."""
    pts = np.asarray(pts, dtype=float)
    out = _walk(node, pts, {})
    if np.ndim(out) == 0:
        return np.full(pts.shape[:-1], float(out))
    return np.asarray(out, dtype=float)


def recursive_diff(node, axis, memo=None):
    """d(node)/d x_{axis+1} by recursion, one frame per tree level, with
    the smart constructors of ``expr``: nodes are interned, so it returns
    the very node that ``expr.diff`` does."""
    memo = {} if memo is None else memo
    if node in memo:
        return memo[node]
    d = functools.partial(recursive_diff, axis=axis, memo=memo)
    if isinstance(node, expr.Num):
        out = expr.constant(0.0)
    elif isinstance(node, expr.Coord):
        out = expr.constant(1.0 if node.axis == axis else 0.0)
    elif isinstance(node, expr.Neg):
        out = expr.neg(d(node.arg))
    elif isinstance(node, expr.BinOp):
        da, db = d(node.left), d(node.right)
        if node.op == "+":
            out = expr.add(da, db)
        elif node.op == "-":
            out = expr.sub(da, db)
        elif node.op == "*":
            out = expr.add(expr.mul(da, node.right), expr.mul(node.left, db))
        else:
            out = expr.div(expr.sub(expr.mul(da, node.right), expr.mul(node.left, db)),
                           expr.mul(node.right, node.right))
    else:
        outer = {"sin": lambda u: expr.call("cos", u),
                 "cos": lambda u: expr.neg(expr.call("sin", u)),
                 "exp": lambda u: node}[node.fn](node.arg)
        out = expr.mul(outer, d(node.arg))
    memo[node] = out
    return out


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_str(node) -> str:
    """node as text of the expression grammar, which parses back to node
    itself when its constants are finite and not negative."""
    if isinstance(node, expr.Num):
        return "pi" if node.value == math.pi else repr(node.value)
    if isinstance(node, expr.Coord):
        return f"x{node.axis + 1}"
    if isinstance(node, expr.Neg):
        return f"-{_operand(node.arg, 3)}"  # binds tighter than * and /
    if isinstance(node, expr.Call):
        return f"{node.fn}({to_str(node.arg)})"
    if isinstance(node, expr.BinOp):
        binds = _PRECEDENCE[node.op]  # and groups to the left
        left, right = _operand(node.left, binds), _operand(node.right, binds + 1)
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def _operand(node, binds):
    """node as an operand of an operator that binds as tightly as binds."""
    s = to_str(node)
    if isinstance(node, expr.BinOp) and _PRECEDENCE[node.op] < binds:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# currents and flows

def pullback_eval(T: Current, f, sys: StratonovichSystem, dt: float,
                  increments: np.ndarray) -> float:
    """Pathwise pullback (phi_t^* T)(f) = T(f o phi_t) for one realization
    of the noise, the (steps, m) increments of steps of dt up to the
    horizon t; all support points ride it."""
    ends = flow_endpoints(sys, T.points, dt, increments)
    return float(np.dot(T.weights, walk(f, ends)))


def current_eval(T: Current, f) -> float:
    """T(f): the weighted sum of f's values on the support."""
    return float(np.dot(T.weights, walk(f, T.points)))


def derivative_current_eval(X: VectorFieldSpec, T: Current, f) -> float:
    """The derivative current XT evaluated on f: XT(f) = -T(Xf)."""
    return -current_eval(T, apply_field(T.manifold, X, f))


def fd_jacobian(sys: StratonovichSystem, x0, dt: float, increments: np.ndarray,
                h_fd: float = 1e-4) -> float:
    """Jacobian determinant by central differences under the same noise,
    the (steps, m) increments of steps of dt.

    Column i is the minimal-image displacement between the flows of
    x0 + h e_i and x0 - h e_i divided by 2h.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = sys.manifold.dim
    seeds = np.empty((2 * dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h_fd
        seeds[2 * i] = x0 + e
        seeds[2 * i + 1] = x0 - e
    ends = flow_endpoints(sys, seeds, dt, increments)
    lengths = sys.manifold.lengths
    cols = np.empty((dim, dim))
    for i in range(dim):
        d = ends[2 * i] - ends[2 * i + 1]
        d = d - lengths * np.round(d / lengths)  # stay off the periodic seam
        cols[:, i] = d / (2.0 * h_fd)
    return float(np.linalg.det(cols))


def is_invariant_function(m: ChartedManifold, f, tol: float = 1e-10,
                          samples: int = 32) -> bool:
    """True when f(p) = f(q) on the first samples (at most 32) identified
    pairs; a non-finite value is never invariant."""
    p, q, _ = (a[:samples] for a in identified_pairs(m))
    with np.errstate(invalid="ignore"):
        return bool(np.max(np.abs(walk(f, p) - walk(f, q))) <= tol)


# ---------------------------------------------------------------------------
# the two quotients written out by name: (x, y, z) ~ (x + a, y + b,
# z + c + a*y) on the Heisenberg box, whole box lengths on a torus

def lattice_issue(kind: str, lengths: tuple) -> Optional[str]:
    """Why ChartedManifold rejects a quotient of this kind and these box
    lengths, or None when it accepts it."""
    if kind == "heisenberg":
        if len(lengths) != 3:
            return f"a heisenberg manifold has 3 lengths, got {len(lengths)}"
        lx, ly, lz = lengths
        if abs((lx * ly / lz) - round(lx * ly / lz)) > 1e-9:
            return "heisenberg lattice needs Lx*Ly integer multiple of Lz"
    return None


def named_wrap(m: ChartedManifold, p) -> np.ndarray:
    """The canonical representative of p in [0, L_i): x_i - floor(x_i/L_i)
    * L_i for the Heisenberg x, whose count of box lengths moves z by
    -count * lx * y before y and z are reduced, and np.mod elsewhere."""
    p = np.asarray(p, dtype=float)
    lengths = m.lengths
    if m.identification == "torus":
        q = np.mod(p, lengths)
        return np.where(q >= lengths, q - lengths, q)
    lx, ly, lz = m.box_lengths
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    a = np.floor(x / lx)
    xw = x - a * lx
    bump = xw >= lx
    a = a + bump
    xw = np.where(bump, xw - lx, xw)
    z1 = z - a * lx * y
    yw = np.mod(y, ly)
    yw = np.where(yw >= ly, yw - ly, yw)
    zw = np.mod(z1, lz)
    zw = np.where(zw >= lz, zw - lz, zw)
    return np.stack([xw, yw, zw], axis=-1)


def named_pairs(m: ChartedManifold):
    """identified_pairs(m) by its recipe: the same R_(2 dim) sample of p
    and shifts, q = p + shift, and on the Heisenberg box z also moved by
    the x shift times y."""
    dim, n = m.dim, 32
    phi = 2.0  # the R_(2 dim) sequence: frac(0.5 + k * alpha), k = 1..n
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (2 * dim + 1))
    alpha = phi ** -np.arange(1.0, 2 * dim + 1.0)
    u = np.mod(0.5 + np.arange(1.0, n + 1.0)[:, None] * alpha, 1.0)
    p = u[:, :dim] * m.lengths
    shifts = np.floor(5.0 * u[:, dim:]) - 2.0
    shifts[np.all(shifts == 0, axis=1), 0] = 1.0
    delta = shifts * m.lengths
    q = p + delta
    dgamma = np.tile(np.eye(dim), (n, 1, 1))
    if m.identification == "heisenberg":
        q[:, 2] += delta[:, 0] * p[:, 1]
        dgamma[:, 2, 1] = delta[:, 0]
    return p, q, dgamma


def named_basis(m: ChartedManifold, cutoff: int) -> tuple:
    """The functions of make_test_basis(m, cutoff): products of 1 and the
    cos and sin of 2 pi k x_i / L_i, k <= cutoff, over x and y alone on
    the Heisenberg box and over every axis of a torus."""
    axes = [0, 1] if m.identification == "heisenberg" else range(m.dim)
    per_axis = []
    for i in axes:
        factors = [expr.constant(1.0)]
        for k in range(1, cutoff + 1):
            arg = expr.mul(expr.constant(2.0 * math.pi * k / m.box_lengths[i]),
                           expr.coordinate(i))
            factors += [expr.call("cos", arg), expr.call("sin", arg)]
        per_axis.append(factors)
    return tuple(functools.reduce(expr.mul, combo, expr.constant(1.0))
                 for combo in itertools.product(*per_axis))


def quotient_gap(m: ChartedManifold, a, b):
    """|b - a| per coordinate once b is moved by the lattice element
    nearest to a: whole box lengths along each axis in turn, the move
    along x_i also moving x_k by L_i * x_j of b for each shear (i, j, k)
    of the quotient. Points on either side of a seam are close in it."""
    d = np.asarray(b, dtype=float) - a
    for i, li in enumerate(m.box_lengths):
        n = np.round(d[..., i] / li)
        d[..., i] -= n * li
        for s, j, k in m.shears:
            if s == i:
                d[..., k] -= n * li * b[..., j]
    return np.abs(d)


# ---------------------------------------------------------------------------
# Lie algebras

def ad_matrix(g: LieAlgebraData, i: int,
              restrict: Optional[Subalgebra] = None) -> np.ndarray:
    """Matrix of ad(v_i), or of its restriction to a subalgebra of g;
    columns are the images of the basis vectors."""
    if restrict is None:
        return g.c[i].T.copy()
    if i not in restrict.indices:
        raise IndexError(f"basis index {i} is not in the subalgebra")
    idx = list(restrict.indices)
    return g.c[np.ix_([i], idx, idx)][0].T.copy()


def leaf_connection(h: Subalgebra, i: int, j: int) -> np.ndarray:
    """Coefficients of nabla^E_{V_i} V_j on the subalgebra frame.

    Koszul formula on an orthonormal invariant frame:
    <nabla_{V_i} V_j, V_k> = (c_ij^k - c_jk^i - c_ik^j) / 2 for k in h.
    """
    if i not in h.indices or j not in h.indices:
        raise IndexError("connection indices must lie in the subalgebra")
    g = h.algebra
    return np.array([0.5 * (g.c[i, j, k] - g.c[j, k, i] - g.c[i, k, j])
                     for k in h.indices])


# ---------------------------------------------------------------------------
# noise

_WORD = 0xFFFFFFFF


def philox4x32(counter, key, rounds: int = 10) -> tuple:
    """Philox4x32 of four 32-bit counter words under two key words, on
    Python ints (Salmon et al., SC 2011)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(rounds):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ k0, p1 & _WORD,
                          (p0 >> 32) ^ c3 ^ k1, p0 & _WORD)
        k0, k1 = (k0 + 0x9E3779B9) & _WORD, (k1 + 0xBB67AE85) & _WORD
    return c0, c1, c2, c3


def philox_words(seed: int, path: int, block: int) -> tuple:
    """The four words of block `block` of the stream of (seed, path)."""
    return philox4x32((block & _WORD, block >> 32, path & _WORD, path >> 32),
                      (seed & _WORD, seed >> 32))


def philox_normals(seed: int, path: int, first: int, count: int) -> list:
    """Normals first .. first+count-1 of the stream of (seed, path): Box-
    Muller with math.log, math.cos and math.sin on each word pair."""
    out = []
    for block in range(first // 4, (first + count + 3) // 4):
        w = philox_words(seed, path, block)
        for wa, wb in ((w[0], w[1]), (w[2], w[3])):
            r = math.sqrt(-2.0 * math.log((wa + 0.5) * 2.0 ** -32))
            t = 2.0 * math.pi * (wb + 0.5) * 2.0 ** -32
            out += [r * math.cos(t), r * math.sin(t)]
    return out[first % 4:first % 4 + count]
