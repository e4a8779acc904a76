"""Structure-constant computations for Lie algebras with orthonormal bases.

Everything is expressed through the constants c[i, j, k] of
[v_i, v_j] = sum_k c[i, j, k] v_k: traces of adjoint maps restricted
to a subalgebra, the Killing form, nilpotency, the drift of the
foliated Brownian motion of an induced foliation, and the trace
criterion deciding whether the invariant volume is totally invariant
under that motion. A ``Subalgebra`` checks its indices and closure once,
when it is built, and the functions that read it check nothing again.
A ``FrameRealization`` carries frame fields on a manifold that realize
the constants; ``foliated_system`` checks them at the fixed points of
``manifold.identified_pairs`` and builds the foliated BM from them.
The drift is read off the constants directly; the tests check it against
the leaf connection of the Koszul formula, and the restricted traces
against the adjoint matrices.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .expr import Functions, constant
from .manifold import (
    ChartedManifold,
    VectorFieldSpec,
    heisenberg_frame,
    heisenberg_manifold,
    identified_pairs,
    lie_bracket,
    linear_combination,
    torus,
)
from .sde import StratonovichSystem

__all__ = [
    "LieAlgebraData",
    "Subalgebra",
    "NotASubalgebraError",
    "tr_ad_restricted",
    "killing_form",
    "is_semisimple",
    "is_nilpotent",
    "is_closed",
    "foliated_drift",
    "invariance_verdict",
    "RealizationError",
    "FrameRealization",
    "heisenberg_realization",
    "torus_translation_realization",
    "REALIZATIONS",
    "foliated_system",
    "abelian",
    "heisenberg3",
    "sl2",
    "so3",
    "algebra_zoo",
    "load_structure_constants",
]

TOL = 1e-10


class NotASubalgebraError(ValueError):
    pass


class LieAlgebraData:
    """Structure constants c (n, n, n), read-only, with [v_i, v_j] =
    sum_k c[i, j, k] v_k, and optional names of the basis vectors.
    Equal to any algebra of the same constants and names."""

    def __init__(self, n: int, c: np.ndarray, basis_labels: Optional[tuple] = None):
        c = np.ascontiguousarray(np.asarray(c, dtype=float))
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must be {(n,) * 3}, got {c.shape}")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > TOL:
            raise ValueError("structure constants are not antisymmetric in (i, j)")
        # Jacobi: sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0
        t1 = np.einsum("ijm,mkl->ijkl", c, c)
        jac = t1 + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
        if np.max(np.abs(jac)) > TOL:
            raise ValueError("structure constants violate the Jacobi identity")
        c.setflags(write=False)
        if basis_labels is not None:
            basis_labels = tuple(str(s) for s in basis_labels)
            if len(basis_labels) != n:
                raise ValueError("need one label per basis vector")
        self.n = n
        self.c = c
        self.basis_labels = basis_labels

    def __eq__(self, other):
        return (type(other) is LieAlgebraData and np.array_equal(self.c, other.c)
                and self.basis_labels == other.basis_labels)

    __hash__ = None

    def label(self, i: int) -> str:
        if self.basis_labels is not None:
            return self.basis_labels[i]
        return f"v{i + 1}"


def is_closed(g: LieAlgebraData, indices) -> bool:
    """True when the basis vectors with these (0-based) indices span a
    subalgebra; an index past the algebra is named 1-based."""
    inside = list(indices)
    outside = [k for k in range(g.n) if k not in inside]
    if max(inside) >= g.n:
        raise ValueError(f"subalgebra index {max(inside) + 1} beyond algebra "
                         f"dimension {g.n}")
    if not outside:
        return True
    # on arrays this small, take costs a fraction of an np.ix_ index
    block = g.c.take(inside, 0).take(inside, 1).take(outside, 2)
    return bool(np.abs(block).max() <= TOL)


class Subalgebra:
    """The subalgebra spanned by the basis vectors with these (0-based)
    indices, checked once when built; ``constants`` is then the read-only
    array of c[i, j, k] for i, j, k in the subalgebra. Errors name the
    indices 1-based, as the wire formats and the config write them."""

    def __init__(self, algebra: LieAlgebraData, indices: tuple):
        idx = tuple(sorted(int(i) for i in indices))
        if not idx:
            raise ValueError("subalgebra indices must be a nonempty set")
        for i, j in zip(idx, idx[1:]):
            if i == j:
                raise ValueError(f"subalgebra indices repeat index {i + 1}")
        if idx[0] < 0:
            raise ValueError("subalgebra indices must be positive")
        if not is_closed(algebra, idx):
            raise NotASubalgebraError(f"indices {tuple(i + 1 for i in idx)} "
                                      "do not span a subalgebra")
        c = algebra.c.take(idx, 0).take(idx, 1).take(idx, 2)
        c.setflags(write=False)
        self.algebra = algebra
        self.indices = idx
        self.constants = c


def tr_ad_restricted(h: Subalgebra, i: int) -> float:
    """Trace of ad(v_i) restricted to the subalgebra: sum_{j in h} c_ij^j."""
    if i not in h.indices:
        raise IndexError(f"basis index {i} is not in the subalgebra")
    return float(np.trace(h.constants[h.indices.index(i)]))


def killing_form(g: LieAlgebraData) -> np.ndarray:
    """K_ij = Tr(ad(v_i) ad(v_j))."""
    return np.einsum("ilk,jkl->ij", g.c, g.c)


def is_semisimple(g: LieAlgebraData) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate, its rank
    decided as ``is_nilpotent`` decides ranks, so that scaling the
    constants, which scales det K by s^(2n), does not change the answer."""
    return _span_rank(killing_form(g)).shape[0] == g.n


def _span_rank(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the span, rank decided by singular values."""
    if vectors.size == 0:
        return np.zeros((0, vectors.shape[-1]))
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > TOL * max(scale, 1.0)))
    return vt[:rank]


def is_nilpotent(g: LieAlgebraData) -> bool:
    """Lower central series by bracket spans; must hit {0} within n steps."""
    series = np.eye(g.n)
    for _ in range(g.n + 1):
        if series.shape[0] == 0:
            return True
        brackets = np.einsum("ijk,sj->isk", g.c, series).reshape(-1, g.n)
        nxt = _span_rank(brackets)
        if nxt.shape[0] >= series.shape[0]:
            return False
        series = nxt
    return series.shape[0] == 0


def foliated_drift(h: Subalgebra) -> np.ndarray:
    """Drift coefficients d_k = (1/2) sum_{i in h} c_ik^i of the foliated BM."""
    return 0.5 * np.trace(h.constants, axis1=0, axis2=2)


def invariance_verdict(h: Subalgebra):
    """Trace criterion: totally invariant iff Tr_h ad(v_i) = 0 for i in h.

    Returns (totally_invariant, offending) where offending lists
    (index, trace) for every nonzero restricted trace.
    """
    traces = np.trace(h.constants, axis1=1, axis2=2)
    offending = [(i, float(tr)) for i, tr in zip(h.indices, traces)
                 if abs(tr) > TOL]
    return (not offending), offending


# ---------------------------------------------------------------------------
# realizations: frames on a manifold whose brackets are the constants

class RealizationError(ValueError):
    pass


class FrameRealization:
    """A manifold carrying frame fields that realize structure constants."""

    def __init__(self, manifold: ChartedManifold, frame: tuple):
        self.manifold = manifold
        self.frame = frame  # one VectorFieldSpec per algebra basis vector


def heisenberg_realization() -> FrameRealization:
    return FrameRealization(manifold=heisenberg_manifold(), frame=heisenberg_frame())


def torus_translation_realization(dim: int) -> FrameRealization:
    """Coordinate frame on the flat torus, realizing the abelian algebra."""
    m = torus(*([1.0] * dim))
    frame = tuple(VectorFieldSpec(dim=dim, components=tuple(
        constant(float(i == j)) for j in range(dim))) for i in range(dim))
    return FrameRealization(manifold=m, frame=frame)


# a config's realization labels, each naming the builder of the
# realization of an algebra of dimension n
REALIZATIONS = {"heisenberg": lambda n: heisenberg_realization(),
                "torus": torus_translation_realization}


def _verify_realization(g: LieAlgebraData, real: FrameRealization) -> None:
    """Raise RealizationError at the first pair i < j whose field
    [V_i, V_j] - sum_k c_ij^k V_k exceeds 1e-6 at the identified_pairs."""
    if len(real.frame) != g.n:
        raise RealizationError(
            f"realization has {len(real.frame)} frame fields, algebra needs {g.n}")
    m = real.manifold
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    residuals = []
    for i, j in pairs:
        bracket = lie_bracket(m, real.frame[i], real.frame[j])
        residuals += linear_combination((bracket, *real.frame),
                                        (1.0, *(-g.c[i, j]))).components
    p, _, _ = identified_pairs(m)
    peaks = Functions(residuals, m.dim).reduce(p, lambda v: np.max(np.abs(v)))
    for n, (i, j) in enumerate(pairs):
        if max(peaks[n * m.dim:(n + 1) * m.dim]) > 1e-6:
            raise RealizationError(
                f"frame brackets disagree with structure constants at "
                f"([{g.label(i)}, {g.label(j)}])")


def foliated_system(h: Subalgebra, real: FrameRealization) -> StratonovichSystem:
    """The foliated BM: drift (1/2) sum_i c_ik^i V_k, diffusions V_i, i in h.

    Raises RealizationError unless the frame realizes the algebra of h.
    """
    _verify_realization(h.algebra, real)
    sub_frame = [real.frame[i] for i in h.indices]
    drift = linear_combination(sub_frame, foliated_drift(h))
    return StratonovichSystem(manifold=real.manifold, drift=drift,
                              diffusions=tuple(sub_frame))


# ---------------------------------------------------------------------------
# built-in algebra zoo

def _from_brackets(n, brackets, labels=None):
    c = np.zeros((n, n, n))
    for (i, j), coeffs in brackets.items():
        c[i, j, :] = coeffs
        c[j, i, :] = [-v for v in coeffs]
    return LieAlgebraData(n=n, c=c, basis_labels=labels)


def abelian(n: int) -> LieAlgebraData:
    return LieAlgebraData(n=n, c=np.zeros((n, n, n)))


def heisenberg3() -> LieAlgebraData:
    """[X, Y] = Z, all other brackets zero."""
    return _from_brackets(3, {(0, 1): (0, 0, 1)}, labels=("X", "Y", "Z"))


def sl2() -> LieAlgebraData:
    """Basis (X, Y, Z) with [X,Y] = 2Y, [X,Z] = -2Z, [Y,Z] = X."""
    return _from_brackets(3, {
        (0, 1): (0, 2, 0),
        (0, 2): (0, 0, -2),
        (1, 2): (1, 0, 0),
    }, labels=("X", "Y", "Z"))


def so3() -> LieAlgebraData:
    """[e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2."""
    return _from_brackets(3, {
        (0, 1): (0, 0, 1),
        (1, 2): (1, 0, 0),
        (2, 0): (0, 1, 0),
    }, labels=("e1", "e2", "e3"))


def algebra_zoo() -> dict:
    return {
        "abelian1": abelian(1),
        "abelian2": abelian(2),
        "abelian3": abelian(3),
        "heisenberg": heisenberg3(),
        "sl2": sl2(),
        "so3": so3(),
    }


# ---------------------------------------------------------------------------
# structure-constant files

def _integer(value, what: str) -> int:
    """value as an int, or ValueError naming what: JSON gives an index as
    an integer or an integral float, never as null, a bool or a string."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _coefficients(coeffs, n: int, where: str) -> np.ndarray:
    """coeffs as an array of n floats, or ValueError naming where."""
    try:
        numeric = isinstance(coeffs, list) and all(
            not isinstance(v, bool) and math.isfinite(v) for v in coeffs)
    except (TypeError, OverflowError):  # not a number, or too large a float
        numeric = False
    if not numeric:
        raise ValueError(f"{where}: 'coeffs' must be a list of finite "
                         f"numbers, not {coeffs!r}")
    if len(coeffs) != n:
        raise ValueError(f"{where} needs {n} coefficients")
    return np.array(coeffs, dtype=float)


def load_structure_constants(source) -> LieAlgebraData:
    """Read the JSON wire format for structure constants.

    {"dim": n, "brackets": [{"i": 1, "j": 2, "coeffs": [...n reals...]}, ...]}

    Indices are 1-based; unspecified brackets default to zero and the
    antisymmetric completion is applied automatically. A malformed value
    raises ValueError naming the entry.
    """
    import json  # only a liealg experiment reads constants

    if isinstance(source, (str, bytes)):
        data = json.loads(source)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("structure-constant file must be an object with 'dim'")
    n = _integer(data["dim"], "dim")
    if n < 1:
        raise ValueError("dim must be positive")
    if n > 32:  # the Jacobi check's n^4 arrays: about 60 MB at n = 32
        raise ValueError(f"dim must be at most 32, not {n}")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ValueError(f"'brackets' must be a list, not {brackets!r}")
    c = np.zeros((n, n, n))
    seen = {}
    for number, entry in enumerate(brackets, 1):
        where = f"bracket entry {number}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object with 'i', 'j' and "
                             f"'coeffs', not {entry!r}")
        for key in ("i", "j", "coeffs"):
            if key not in entry:
                raise ValueError(f"{where} has no {key!r}")
        i = _integer(entry["i"], f"{where}: 'i'") - 1
        j = _integer(entry["j"], f"{where}: 'j'") - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket index out of range: ({i + 1}, {j + 1})")
        coeffs = _coefficients(entry["coeffs"], n, f"bracket ({i + 1}, {j + 1})")
        if i == j:
            if np.any(coeffs != 0):
                raise ValueError(f"bracket ({i + 1}, {i + 1}) must vanish")
            continue
        for key, value in ((i, j), coeffs), ((j, i), -coeffs):
            if key in seen and not np.array_equal(seen[key], value):
                raise ValueError(f"conflicting entries for bracket {key}")
            seen[key] = value
        c[i, j, :] = coeffs
        c[j, i, :] = -coeffs
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError(f"'labels' must be a list, not {labels!r}")
    return LieAlgebraData(n=n, c=c, basis_labels=tuple(labels) if labels else None)
