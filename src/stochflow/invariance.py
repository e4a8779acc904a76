"""High-level invariance checkers and the homogeneous-foliation pipeline.

Each checker produces an InvarianceReport whose verdict is
(residual <= tolerance); the metadata records everything needed to
reproduce the run (dt, horizon, paths, grid, basis cutoff, seed).
The foliation pipeline reads a ``liealg.Subalgebra``, checked closed
when it was built, and flows the foliated BM that ``liealg`` builds from
a realization of its algebra.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .currents import (
    Current,
    DensityCurrent,
    derivative_currents,
    evaluate_many,
    generator_residuals,
    pullback_values,
    strict_residuals,
    volume_current,
)
from .expr import Functions
from .manifold import (
    VectorFieldSpec,
    apply_field,
    make_test_basis,
    product_divergence_expr,
)
from .sde import StratonovichSystem, flow_paths, step_count

# liealg is imported by the foliation functions that use it, so that the
# flow checks do not load it

__all__ = [
    "InvarianceReport",
    "check_strict_nform",
    "check_mean_nform",
    "residual_check",
    "EmpiricalRun",
    "empirical_check",
    "jacobian_check",
    "foliation_pipeline",
    "calibrate_bias_constant",
    "DEFAULT_TOLERANCES",
    "EXACT_BIAS_C",
    "FALLBACK_BIAS_C",
]

# Each report kind and the tolerance it takes when given none. Mean Monte
# Carlo has its own, 3*stderr + C*dt; the foliation verdict's is liealg.TOL.
DEFAULT_TOLERANCES = {
    "strict_nform": 1e-8,
    "mean_nform": 1e-6,
    "strict_residual": 1e-8,
    "mean_residual": 1e-6,
    "empirical_pathwise": 1e-2,
    "empirical_mean": None,
    "foliation_verdict": 1e-10,
    "jacobian": 1e-2,
}

# Weak-error constant C in the mean-mode tolerance 3*stderr + C*dt when
# no bias_c is given, decided by the system that runs. With every field
# constant the Heun step is exact and C only covers rounding: at C = 0
# the per-path values of Brownian translations differ by rounding alone,
# and the translation_bm_torus preset fails on 40 of 49 basis functions
# (residual 1.6e-16, tolerance 1.4e-17). Otherwise C bounds the Heun weak
# error (Talay & Tubaro 1990); calibrate_bias_constant estimates it for a
# given system.
EXACT_BIAS_C = 0.1
FALLBACK_BIAS_C = 1.0

# independent noise paths that the pathwise empirical check probes
_PROBE_PATHS = 5


class InvarianceReport:
    """The verdict residual <= tolerance of one check; a tolerance of
    None is DEFAULT_TOLERANCES[kind]."""

    def __init__(self, kind: str, residual: float, tolerance: Optional[float] = None,
                 metadata: Optional[dict] = None, per_basis: Optional[list] = None,
                 subchecks: Optional[list] = None):
        if kind not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown report kind {kind!r}")
        if tolerance is None:
            tolerance = DEFAULT_TOLERANCES[kind]
        self.kind = kind
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        self.metadata = {} if metadata is None else metadata
        self.per_basis = [] if per_basis is None else per_basis
        self.subchecks = [] if subchecks is None else subchecks

    @property
    def verdict(self) -> bool:
        return self.residual <= self.tolerance

    def payload(self) -> dict:
        meta = self.metadata
        out = {
            "kind": self.kind,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "dt": meta.get("dt"),
            "T": meta.get("T"),
            "n_paths": meta.get("n_paths"),
            "grid": meta.get("grid"),
            "basisK": meta.get("basisK"),
            "seed": meta.get("seed"),
            "per_basis": self.per_basis,
        }
        extra = {k: v for k, v in meta.items()
                 if k not in ("dt", "T", "n_paths", "grid", "basisK", "seed")}
        if extra:
            out["extra"] = extra
        if self.subchecks:
            out["subchecks"] = [s.payload() for s in self.subchecks]
        return out

    def all_verdicts(self) -> bool:
        return self.verdict and all(s.all_verdicts() for s in self.subchecks)


# ---------------------------------------------------------------------------
# n-form checks (divergence criteria)

def check_strict_nform(T: DensityCurrent, fields: Sequence[VectorFieldSpec],
                       tolerance: Optional[float] = None) -> InvarianceReport:
    """Strict invariance of T = f*mu_g: residual = max_i max_p |div(f X_i)|."""
    m, pts = T.manifold, T.points
    divs = Functions((product_divergence_expr(m, X, T.density) for X in fields),
                     m.dim)
    peaks = divs.reduce(pts, lambda v: float(np.max(np.abs(v))) if v.size else 0.0)
    rows = [{"field_index": i, "value": peak} for i, peak in enumerate(peaks)]
    worst = max(peaks, default=0.0)
    meta = {"grid": T.grid_n, "n_fields": len(fields)}
    return InvarianceReport("strict_nform", worst, tolerance, meta, per_basis=rows)


def check_mean_nform(T: DensityCurrent, fields: Sequence[VectorFieldSpec],
                     tolerance: Optional[float] = None) -> InvarianceReport:
    """Mean invariance of T = f*mu_g via the divergence condition.

    Residual is max over the grid of
    |div(f X_0) - (1/2) sum_i (X_i + div X_i)(div(f X_i))|,
    reported as sufficient evidence only (the absolute value makes the
    overall sign of the condition irrelevant).
    """
    if not fields:
        raise ValueError("need at least the drift field")
    m, density, pts = T.manifold, T.density, T.points

    def terms():
        # div(f X_0), then b_i = div(f X_i), X_i b_i and div X_i per diffusion
        yield product_divergence_expr(m, fields[0], density)
        for X in fields[1:]:
            b = product_divergence_expr(m, X, density)
            yield from (b, apply_field(m, X, b), product_divergence_expr(m, X))

    acc, *rest = Functions(terms(), m.dim).reduce(pts, lambda v: v)
    for b_vals, xb_vals, divx_vals in zip(rest[0::3], rest[1::3], rest[2::3]):
        acc = acc - 0.5 * (xb_vals + divx_vals * b_vals)
    residual = float(np.max(np.abs(acc)))
    meta = {"grid": T.grid_n, "n_fields": len(fields)}
    return InvarianceReport("mean_nform", residual, tolerance, meta)


# ---------------------------------------------------------------------------
# residual checks against a test basis

def residual_check(T: Current, sys: StratonovichSystem, basis,
                   mode: str, tolerance: Optional[float] = None) -> InvarianceReport:
    """Strict (X_i T = 0) or mean ((X_0 - 1/2 sum X_i^2)T = 0) residuals."""
    if mode == "strict":
        values = strict_residuals(T, sys, basis)
    elif mode == "mean":
        values = generator_residuals(T, sys, basis)
    else:
        raise ValueError(f"unknown residual mode {mode!r}")
    return _residual_report(T, basis, values, tolerance)


def _residual_report(T: Current, basis, values: np.ndarray,
                     tolerance: Optional[float] = None) -> InvarianceReport:
    """The strict_residual report of derivative currents values[i, k] =
    (X_i T)(f_k), or the mean_residual report of generator residuals."""
    if values.ndim == 2:
        kind = "strict_residual"
        rows = [{"field_index": i, "basis_index": k, "value": float(values[i, k])}
                for i, k in np.ndindex(values.shape)]
    else:
        kind = "mean_residual"
        rows = [{"basis_index": k, "value": float(v)} for k, v in enumerate(values)]
    residual = float(np.max(np.abs(values))) if values.size else 0.0
    meta = {"basisK": basis.cutoff, "grid": T.grid_n}
    return InvarianceReport(kind, residual, tolerance, meta, per_basis=rows)


# ---------------------------------------------------------------------------
# simulation-based checks

class EmpiricalRun:
    """The targets T(f_k) and the pullbacks of paths 0..n_paths-1 of one
    (T, sys, basis, t, dt, seed), from which empirical_check builds the
    report of any first paths: the first k columns of the pullbacks are
    those of a run over k paths, bit for bit (``pullback_values``)."""

    def __init__(self, T: Current, sys: StratonovichSystem, basis, t: float,
                 dt: float, seed: int, n_paths: int):
        exact = all(f.is_constant for f in sys.fields())
        self.bias_c = EXACT_BIAS_C if exact else FALLBACK_BIAS_C  # when none is given
        self.targets = evaluate_many(T, basis.functions)
        self.values = pullback_values(T, basis.functions, sys, t, dt, seed, n_paths)
        self.meta = {"dt": dt, "T": t, "seed": seed, "basisK": basis.cutoff,
                     "grid": T.grid_n}


def empirical_check(run: EmpiricalRun, mode: str, n_paths: Optional[int] = None,
                    tolerance: Optional[float] = None,
                    bias_c: Optional[float] = None) -> InvarianceReport:
    """Simulation evidence for phi_t^*T = T (pathwise) or its mean version,
    from the first paths of run.

    Pathwise mode compares the worst |pullback - eval| over the first
    _PROBE_PATHS paths with tolerance; it takes no n_paths or bias_c.
    Mean mode requires, per basis function over the first n_paths,
    |mean - eval| <= 3*stderr + C*dt with C = bias_c, else run.bias_c;
    that is its tolerance, so it takes no other. Its (residual,
    tolerance) pair is the worst basis function by signed excess, so the
    scalar verdict is the per-function rule.
    """
    if mode == "pathwise":
        if n_paths is not None or bias_c is not None:
            raise ValueError(f"pathwise mode reads the first {_PROBE_PATHS} "
                             f"paths and takes no n_paths or bias_c")
        n_paths = _PROBE_PATHS
    elif mode != "mean":
        raise ValueError(f"unknown empirical mode {mode!r}")
    elif tolerance is not None:
        raise ValueError("mean mode takes no tolerance: it is 3*stderr + C*dt "
                         "per basis function (set bias_c for C)")
    if not 2 <= (n_paths or 0) <= run.values.shape[1]:
        raise ValueError(f"{mode} mode needs n_paths >= 2, and at most the "
                         f"{run.values.shape[1]} paths of the run; got {n_paths}")
    vals = run.values[:, :n_paths]
    meta = {**run.meta, "n_paths": n_paths}
    if mode == "pathwise":
        diffs = np.abs(vals - run.targets[:, None])
        rows = [{"basis_index": k, "value": float(np.max(d))}
                for k, d in enumerate(diffs)]
        residual = float(np.max(diffs)) if diffs.size else 0.0
        return InvarianceReport("empirical_pathwise", residual, tolerance, meta,
                                per_basis=rows)
    bias_c = run.bias_c if bias_c is None else bias_c
    stderrs = vals.std(axis=1, ddof=1) / np.sqrt(n_paths)
    diffs = np.abs(vals.mean(axis=1) - run.targets)
    tols = 3.0 * stderrs + bias_c * run.meta["dt"]
    rows = [{"basis_index": k, "value": float(diffs[k]),
             "std_error": float(stderrs[k]), "tolerance": float(tols[k])}
            for k in range(len(diffs))]
    worst = int(np.argmax(diffs - tols))
    return InvarianceReport("empirical_mean", diffs[worst], tols[worst],
                            {**meta, "bias_c": bias_c}, per_basis=rows)


def jacobian_check(sys: StratonovichSystem, x0, t: float, dt: float,
                   seed: int, n_paths: int,
                   tolerance: Optional[float] = None) -> InvarianceReport:
    """Pathwise volume deviation: residual = max over paths and times of
    |J - 1| from the co-evolved log-Jacobian. The noise is streamed in
    blocks of steps, so memory does not grow with the step count.

    When every divergence of the system is identically zero, J = 1 on
    every path and the check is answered exactly, without flowing: each
    row is 0.0. A state that would blow up along such a flow is then
    reported by the checks that do flow it (``empirical_*``,
    ``simulate``), not by this one. n_paths, t, dt and x0 are validated
    either way."""
    if n_paths < 1:
        raise ValueError(f"jacobian check needs n_paths >= 1, got {n_paths}")
    worst = flow_paths(sys, "volume", x0, dt, step_count(t, dt), seed,
                       range(n_paths))
    rows = [{"path_index": p, "value": float(worst[p])} for p in range(n_paths)]
    meta = {"dt": dt, "T": t, "n_paths": n_paths, "seed": seed}
    return InvarianceReport("jacobian", float(np.max(worst)), tolerance, meta,
                            per_basis=rows)


# ---------------------------------------------------------------------------
# foliation pipeline

def foliation_pipeline(h: Subalgebra,
                       realization: Optional[FrameRealization] = None, *,
                       t: float = 1.0, dt: float = 1e-3, seed: int = 0,
                       n_paths: int = 1000, grid_n: int = 8,
                       basis_k: int = 3,
                       bias_c: Optional[float] = None) -> InvarianceReport:
    """Algebraic verdict plus, given a realization, simulation evidence.

    (a) trace criterion on the subalgebra; (b) foliated BM system from
    the frame; (c) generator residuals and frame derivative-currents of
    the volume current, the empirical mean check, and (when the verdict
    is totally-invariant) the pathwise check, at their default tolerances.
    Both empirical checks read one EmpiricalRun, of max(n_paths,
    _PROBE_PATHS) paths when both run.
    """
    from .liealg import foliated_drift, foliated_system, invariance_verdict

    verdict, offending = invariance_verdict(h)
    drift_coeffs = foliated_drift(h)
    residual = max((abs(tr) for _, tr in offending), default=0.0)
    meta = {
        "subalgebra": [i + 1 for i in h.indices],
        "offending": [{"index": i + 1, "label": h.algebra.label(i), "trace": tr}
                      for i, tr in offending],
        "drift_coeffs": [float(v) for v in drift_coeffs],
        "seed": seed,
    }
    subchecks = []
    if realization is not None:
        sys = foliated_system(h, realization)
        basis = make_test_basis(realization.manifold, basis_k)
        T = volume_current(realization.manifold, grid_n)
        subchecks.append(residual_check(T, sys, basis, "mean"))
        subchecks.append(_residual_report(
            T, basis, derivative_currents(T, realization.frame, basis.functions)))
        run = EmpiricalRun(T, sys, basis, t, dt, seed,
                           max(n_paths, _PROBE_PATHS) if verdict else n_paths)
        subchecks.append(empirical_check(run, "mean", n_paths, bias_c=bias_c))
        if verdict:
            subchecks.append(empirical_check(run, "pathwise"))
        meta.update({"dt": dt, "T": t, "n_paths": n_paths,
                     "grid": grid_n, "basisK": basis_k})
    return InvarianceReport("foliation_verdict", residual, None, meta,
                            subchecks=subchecks)


# ---------------------------------------------------------------------------
# bias-constant calibration

def calibrate_bias_constant(T: Current, sys: StratonovichSystem, basis,
                            t: float, dt: float, seed: int = 0,
                            n_paths: int = 200) -> float:
    """Estimate C in bias ~ C*dt by a common-noise dt-halving run.

    The same Brownian paths drive a fine (dt/2) and a coarsened (dt)
    integration; the Monte Carlo noise cancels in the difference of the
    pullback means, leaving ~C*dt/2 per basis function. Each pass is
    pullback_values, so memory does not grow with n_paths.
    """
    coarse = pullback_values(T, basis.functions, sys, t, dt, seed, n_paths, 2)
    fine = pullback_values(T, basis.functions, sys, t, dt / 2, seed, n_paths)
    diffs = np.abs(coarse.mean(axis=1) - fine.mean(axis=1))
    return float(2.0 * np.max(diffs) / dt) if diffs.size else 0.0
