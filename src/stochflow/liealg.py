"""Structure-constant computations for Lie algebras with orthonormal bases.

Everything is expressed through the constants c[i, j, k] of
[v_i, v_j] = sum_k c[i, j, k] v_k: adjoint matrices, restricted traces,
the Killing form, nilpotency, leaf connection coefficients of an
induced foliation, the drift of the foliated Brownian motion, and the
trace criterion deciding whether the invariant volume is totally
invariant under that motion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "LieAlgebraData",
    "SubalgebraSpec",
    "NotASubalgebraError",
    "ad_matrix",
    "tr_ad_restricted",
    "killing_form",
    "is_semisimple",
    "is_nilpotent",
    "is_closed",
    "leaf_connection",
    "foliated_drift",
    "invariance_verdict",
    "abelian",
    "heisenberg3",
    "sl2",
    "so3",
    "algebra_zoo",
    "load_structure_constants",
    "parse_subalgebra",
]

TOL = 1e-10


class NotASubalgebraError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class LieAlgebraData:
    n: int
    c: np.ndarray  # (n, n, n), c[i, j, k] with [v_i, v_j] = sum_k c[i,j,k] v_k
    basis_labels: Optional[tuple] = None

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.c, dtype=float))
        if c.shape != (self.n, self.n, self.n):
            raise ValueError(f"structure constants must be {(self.n,) * 3}, got {c.shape}")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > TOL:
            raise ValueError("structure constants are not antisymmetric in (i, j)")
        # Jacobi: sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0
        t1 = np.einsum("ijm,mkl->ijkl", c, c)
        jac = t1 + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
        if np.max(np.abs(jac)) > TOL:
            raise ValueError("structure constants violate the Jacobi identity")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if self.basis_labels is not None:
            labels = tuple(str(s) for s in self.basis_labels)
            if len(labels) != self.n:
                raise ValueError("need one label per basis vector")
            object.__setattr__(self, "basis_labels", labels)

    def label(self, i: int) -> str:
        if self.basis_labels is not None:
            return self.basis_labels[i]
        return f"v{i + 1}"


@dataclass(frozen=True)
class SubalgebraSpec:
    """Indices (0-based) of the basis vectors spanning the subalgebra."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx) or not idx:
            raise ValueError("subalgebra indices must be a nonempty set")
        if any(i < 0 for i in idx):
            raise ValueError("subalgebra indices must be >= 0")
        object.__setattr__(self, "indices", idx)


def is_closed(g: LieAlgebraData, h: SubalgebraSpec, tol: float = TOL) -> bool:
    inside = list(h.indices)
    outside = [k for k in range(g.n) if k not in h.indices]
    if max(inside) >= g.n:
        raise ValueError("subalgebra index beyond algebra dimension")
    if not outside:
        return True
    # on arrays this small, take costs a fraction of an np.ix_ index
    block = g.c.take(inside, 0).take(inside, 1).take(outside, 2)
    return bool(np.abs(block).max() <= tol)


def _require_closed(g, h):
    if not is_closed(g, h):
        raise NotASubalgebraError(f"indices {h.indices} do not span a subalgebra")


def _restricted_constants(g: LieAlgebraData, h: SubalgebraSpec) -> np.ndarray:
    """c[i, j, k] for i, j, k in h, once h is checked to be closed."""
    _require_closed(g, h)
    idx = list(h.indices)
    return g.c.take(idx, 0).take(idx, 1).take(idx, 2)


def ad_matrix(g: LieAlgebraData, i: int,
              restrict: Optional[SubalgebraSpec] = None) -> np.ndarray:
    """Matrix of ad(v_i); columns are the images of the basis vectors."""
    if restrict is None:
        return g.c[i].T.copy()
    sub = _restricted_constants(g, restrict)
    if i not in restrict.indices:
        raise IndexError(f"basis index {i} is not in the subalgebra")
    return sub[restrict.indices.index(i)].T.copy()


def tr_ad_restricted(g: LieAlgebraData, h: SubalgebraSpec, i: int) -> float:
    """Trace of ad(v_i) restricted to the subalgebra: sum_{j in h} c_ij^j."""
    sub = _restricted_constants(g, h)
    if i not in h.indices:
        raise IndexError(f"basis index {i} is not in the subalgebra")
    return float(np.trace(sub[h.indices.index(i)]))


def killing_form(g: LieAlgebraData) -> np.ndarray:
    """K_ij = Tr(ad(v_i) ad(v_j))."""
    return np.einsum("ilk,jkl->ij", g.c, g.c)


def is_semisimple(g: LieAlgebraData, tol: float = 1e-8) -> bool:
    return bool(abs(np.linalg.det(killing_form(g))) > tol)


def _span_rank(vectors: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Orthonormal row basis of the span, rank decided by singular values."""
    if vectors.size == 0:
        return np.zeros((0, vectors.shape[-1]))
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > tol * max(scale, 1.0)))
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


def leaf_connection(g: LieAlgebraData, h: SubalgebraSpec,
                    i: int, j: int) -> np.ndarray:
    """Coefficients of nabla^E_{V_i} V_j on the subalgebra frame.

    Koszul formula on an orthonormal invariant frame:
    <nabla_{V_i} V_j, V_k> = (c_ij^k - c_jk^i - c_ik^j) / 2 for k in h.
    """
    _require_closed(g, h)
    if i not in h.indices or j not in h.indices:
        raise IndexError("connection indices must lie in the subalgebra")
    out = np.empty(len(h.indices))
    for a, k in enumerate(h.indices):
        out[a] = 0.5 * (g.c[i, j, k] - g.c[j, k, i] - g.c[i, k, j])
    return out


def foliated_drift(g: LieAlgebraData, h: SubalgebraSpec) -> np.ndarray:
    """Drift coefficients d_k = (1/2) sum_{i in h} c_ik^i of the foliated BM."""
    return 0.5 * np.trace(_restricted_constants(g, h), axis1=0, axis2=2)


def invariance_verdict(g: LieAlgebraData, h: SubalgebraSpec,
                       tol: float = TOL):
    """Trace criterion: totally invariant iff Tr_h ad(v_i) = 0 for i in h.

    Returns (totally_invariant, offending) where offending lists
    (index, trace) for every nonzero restricted trace.
    """
    traces = np.trace(_restricted_constants(g, h), axis1=1, axis2=2)
    offending = [(i, float(tr)) for i, tr in zip(h.indices, traces)
                 if abs(tr) > tol]
    return (not offending), offending


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

def load_structure_constants(source) -> LieAlgebraData:
    """Read the JSON wire format for structure constants.

    {"dim": n, "brackets": [{"i": 1, "j": 2, "coeffs": [...n reals...]}, ...]}

    Indices are 1-based; unspecified brackets default to zero and the
    antisymmetric completion is applied automatically.
    """
    if isinstance(source, (str, bytes)):
        data = json.loads(source)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("structure-constant file must be an object with 'dim'")
    n = int(data["dim"])
    if n < 1:
        raise ValueError("dim must be positive")
    c = np.zeros((n, n, n))
    seen = {}
    for entry in data.get("brackets", []):
        i, j = int(entry["i"]) - 1, int(entry["j"]) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket index out of range: ({i + 1}, {j + 1})")
        coeffs = np.asarray(entry["coeffs"], dtype=float)
        if coeffs.shape != (n,):
            raise ValueError(f"bracket ({i + 1}, {j + 1}) needs {n} coefficients")
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
    return LieAlgebraData(n=n, c=c, basis_labels=tuple(labels) if labels else None)


def parse_subalgebra(text: str) -> SubalgebraSpec:
    """Parse '1,3' (1-based, as in the wire formats) to a SubalgebraSpec."""
    try:
        idx = tuple(int(part) - 1 for part in str(text).split(",") if part.strip())
    except ValueError as e:
        raise ValueError(f"bad subalgebra spec {text!r}") from e
    return SubalgebraSpec(indices=idx)
