import inspect
import math
import re

import numpy as np
import pytest

from example_systems import (
    THETA_DENSITY,
    builtin_systems,
    hamiltonian_torus_system,
    heisenberg_fiber_system,
    heisenberg_foliated_system,
    sin_drift_system,
    translation_bm_system,
)
from stochflow import expr, invariance, liealg
from stochflow.currents import (
    DensityCurrent,
    EmpiricalCurrent,
    grid_points,
    make_test_basis,
    volume_current,
)
from stochflow.invariance import (
    DEFAULT_TOLERANCES,
    EXACT_BIAS_C,
    FALLBACK_BIAS_C,
    EmpiricalRun,
    InvarianceReport,
    calibrate_bias_constant,
    check_mean_nform,
    check_strict_nform,
    empirical_check,
    foliation_pipeline,
    jacobian_check,
    residual_check,
)
from stochflow.liealg import (
    FrameRealization,
    RealizationError,
    foliated_system,
    heisenberg_realization,
    torus_translation_realization,
)
from stochflow.manifold import (
    InvalidPointError,
    StratonovichSystem,
    VectorFieldSpec,
    apply_field,
    heisenberg_frame,
    heisenberg_manifold,
    product_divergence_expr,
    torus,
)

T1 = torus(1.0)
T2 = torus(1.0, 1.0)


# ---------------------------------------------------------------------------
# report invariants

def test_report_verdict_must_match_comparison():
    r = InvarianceReport(kind="strict_nform", residual=2.0, tolerance=1.0)
    assert r.verdict is False and r.payload()["verdict"] is False
    r = InvarianceReport(kind="strict_nform", residual=0.5, tolerance=1.0)
    assert r.payload()["verdict"] is True
    r = InvarianceReport(kind="jacobian", residual=float("nan"), tolerance=1.0)
    assert r.verdict is False and r.payload()["verdict"] is False
    assert not r.all_verdicts()


def test_report_takes_the_default_tolerance_of_its_kind():
    for kind, default in DEFAULT_TOLERANCES.items():
        if default is not None:
            assert InvarianceReport(kind, 0.0).tolerance == default
    with pytest.raises(ValueError, match="unknown report kind"):
        InvarianceReport("strict", 0.0)


def test_foliation_default_tolerance_is_the_trace_bound():
    # the verdict (residual <= tolerance) and the offending list (traces
    # above liealg.TOL) must agree
    assert DEFAULT_TOLERANCES["foliation_verdict"] == liealg.TOL


def test_no_public_function_writes_its_own_default_tolerance():
    # the defaults live in DEFAULT_TOLERANCES alone
    takers = []
    for name in invariance.__all__:
        obj = getattr(invariance, name)
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception)):
            param = inspect.signature(obj).parameters.get("tolerance")
            if param is not None:
                assert param.default is None, name
                takers.append(name)
    assert len(takers) == 6  # InvarianceReport and the five check functions


def test_report_payload_carries_metadata():
    r = InvarianceReport(kind="empirical_mean", residual=0.0, tolerance=1.0,
                         metadata={"dt": 0.1, "T": 1.0, "n_paths": 3,
                                   "grid": 8, "basisK": 2, "seed": 5})
    p = r.payload()
    assert p["dt"] == 0.1 and p["T"] == 1.0 and p["n_paths"] == 3
    assert p["grid"] == 8 and p["basisK"] == 2 and p["seed"] == 5


# ---------------------------------------------------------------------------
# strict n-form check

def test_strict_nform_hamiltonian_passes():
    sys = hamiltonian_torus_system()
    rep = check_strict_nform(volume_current(T2), sys.fields())
    assert rep.verdict and rep.residual < 1e-8


def test_strict_nform_sin_field_fails_at_2pi():
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    rep = check_strict_nform(volume_current(T1), [X])
    assert not rep.verdict
    assert rep.residual == pytest.approx(2 * math.pi, rel=0.01)


def test_strict_nform_density_construction():
    f = expr.parse("exp(-sin(2*pi*x1))")
    X = VectorFieldSpec.from_strings(["1"])
    T = DensityCurrent(T1, f, 64)
    rep = check_strict_nform(T, [X])
    assert not rep.verdict
    X_inv = VectorFieldSpec.from_strings(["exp(sin(2*pi*x1))"])  # 1/f
    rep2 = check_strict_nform(T, [X_inv])
    assert rep2.verdict and rep2.residual < 1e-8


# ---------------------------------------------------------------------------
# mean n-form check

def test_mean_nform_passes_when_strict_passes():
    sys = translation_bm_system(1)
    rep = check_mean_nform(volume_current(T1), sys.fields())
    assert rep.verdict and rep.residual < 1e-12


def test_mean_nform_detects_second_derivative_term():
    f = expr.parse("1 + 0.5*sin(2*pi*x1)")
    fields = [VectorFieldSpec.zero(1), VectorFieldSpec.from_strings(["1"])]
    rep = check_mean_nform(DensityCurrent(T1, f, 64), fields)
    assert not rep.verdict
    assert rep.residual == pytest.approx(math.pi ** 2, rel=0.01)


def test_mean_nform_drift_constructed_to_cancel():
    # X_0 = f'/(2f) restores mean invariance for X_1 = d/dx
    f = expr.parse("1 + 0.5*sin(2*pi*x1)")
    drift = VectorFieldSpec.from_strings(["pi*cos(2*pi*x1)/(2 + sin(2*pi*x1))"])
    fields = [drift, VectorFieldSpec.from_strings(["1"])]
    rep = check_mean_nform(DensityCurrent(T1, f, 64), fields)
    assert rep.verdict and rep.residual < 1e-6


# ---------------------------------------------------------------------------
# empirical checks

def test_empirical_pathwise_translation_invariance():
    sys = translation_bm_system(2)
    T = volume_current(T2, 16)
    basis = make_test_basis(T2, 2)
    rep = empirical_check(EmpiricalRun(T, sys, basis, 1.0, 1e-2, 4), "pathwise")
    assert rep.verdict and rep.residual < 1e-12
    assert rep.metadata["n_paths"] == 5


def test_empirical_pathwise_sin_drift_fails():
    sys = sin_drift_system()
    T = volume_current(T1, 32)
    basis = make_test_basis(T1, 2)
    rep = empirical_check(EmpiricalRun(T, sys, basis, 1.0, 1e-3, 4), "pathwise")
    assert not rep.verdict
    assert rep.residual > 0.1  # mass piles near the sink


def test_empirical_pathwise_sin_drift_residual_grows_with_t():
    from oracles import pullback_eval
    from stochflow.sde import generate_noise
    sys = sin_drift_system()
    T = volume_current(T1, 32)
    cos_f = expr.parse("cos(2*pi*x1)")
    values = {}
    for t in (0.25, 1.0):
        noise = generate_noise(0, 0, 0, 1e-3, int(t / 1e-3))
        values[t] = abs(pullback_eval(T, cos_f, sys, 1e-3, noise))
        # dense reference solve as an independent oracle for the same value
        fine = generate_noise(0, 0, 0, 1e-3 / 50, int(t / 1e-3) * 50)
        ref = abs(pullback_eval(T, cos_f, sys, 1e-3 / 50, fine))
        assert values[t] == pytest.approx(ref, abs=1e-4)
    assert values[1.0] > values[0.25] > 0.01


def test_empirical_mean_translation():
    sys = translation_bm_system(1)
    T = volume_current(T1, 16)
    basis = make_test_basis(T1, 3)
    rep = empirical_check(EmpiricalRun(T, sys, basis, 1.0, 1e-2, 9), "mean", 64)
    assert rep.verdict
    assert len(rep.per_basis) == len(basis)
    assert all(row["value"] <= row["tolerance"] for row in rep.per_basis)


def test_empirical_mean_verdict_equals_per_basis_rule():
    sys = sin_drift_system()  # drift breaks invariance of Lebesgue
    T = volume_current(T1, 16)
    basis = make_test_basis(T1, 2)
    rep = empirical_check(EmpiricalRun(T, sys, basis, 0.5, 1e-2, 2), "mean", 16)
    per_rule = all(row["value"] <= row["tolerance"] for row in rep.per_basis)
    assert rep.verdict == per_rule
    assert not rep.verdict


def small_run():
    sys = translation_bm_system(1)
    return EmpiricalRun(volume_current(T1, 4), sys, make_test_basis(T1, 1), 0.02,
                        1e-2, 0)


def test_empirical_reports_reject_what_their_mode_does_not_read():
    run = small_run()
    # the mean report's tolerance is its own rule, 3*stderr + C*dt
    with pytest.raises(ValueError, match="mean mode takes no tolerance"):
        empirical_check(run, "mean", 4, tolerance=0.5)
    for kwargs in ({"n_paths": 5}, {"bias_c": 0.5}):
        with pytest.raises(ValueError, match="takes no n_paths or bias_c"):
            empirical_check(run, "pathwise", **kwargs)
    with pytest.raises(ValueError, match="unknown empirical mode"):
        empirical_check(run, "median", 4)


def test_a_run_grown_by_its_reports_equals_a_fresh_run(monkeypatch):
    # reading 3 paths, then 7, flows paths 0-2 and then 3-6, once each;
    # the 7 columns are those of a fresh 7-path run, bit for bit
    flows = []
    pullback = invariance.pullback_values
    monkeypatch.setattr(invariance, "pullback_values",
                        lambda *args: flows.append(args[-1]) or pullback(*args))
    run = small_run()
    assert empirical_check(run, "mean", 3).metadata["n_paths"] == 3
    grown = empirical_check(run, "mean", 7)
    assert flows == [range(3), range(3, 7)]
    fresh = empirical_check(small_run(), "mean", 7)
    assert flows[2:] == [range(7)]
    assert grown.payload() == fresh.payload()
    np.testing.assert_array_equal(run.first(7), small_run().first(7))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the pathwise verdict "
                   "compares with an absolute 1e-2, which the moved grid's "
                   "quadrature and the Heun error exceed on grid 16")
def test_pathwise_passes_the_exactly_invariant_hamiltonian_volume():
    # the Hamiltonian fields are divergence-free, so the volume current is
    # strictly invariant; the pathwise report gives 0.105 against 0.01
    sys = hamiltonian_torus_system()
    T = volume_current(T2, 16)
    run = EmpiricalRun(T, sys, make_test_basis(T2, 3), 1.0, 0.04, 3)
    assert empirical_check(run, "pathwise").verdict


def test_jacobian_check_hamiltonian():
    sys = hamiltonian_torus_system()
    rep = jacobian_check(sys, [0.3, 0.7], 1.0, 1e-2, seed=0, n_paths=10)
    assert rep.verdict and rep.residual < 1e-2
    assert len(rep.per_basis) == 10


@pytest.mark.parametrize("n_paths", [0, -1])
def test_jacobian_check_needs_a_path(n_paths):
    with pytest.raises(ValueError, match="n_paths >= 1"):
        jacobian_check(hamiltonian_torus_system(), [0.3, 0.7], 0.01, 0.001,
                       1, n_paths)


@pytest.mark.parametrize("x0", [[math.nan, 0.7], [0.3, math.inf]])
def test_divergence_free_jacobian_check_rejects_a_non_finite_x0(x0):
    with pytest.raises(InvalidPointError, match="non-finite"):
        jacobian_check(hamiltonian_torus_system(), x0, 0.01, 0.001, seed=0,
                       n_paths=2)


def test_horizon_must_be_a_multiple_of_dt():
    # 1.0 is not a multiple of 0.3: the runs would stop at t = 0.9
    # the divergence-free system is answered without a flow, after the same test
    for sys, x0 in ((sin_drift_system(), [0.3]),
                    (hamiltonian_torus_system(), [0.3, 0.7])):
        with pytest.raises(ValueError, match="multiple of dt"):
            jacobian_check(sys, x0, 1.0, 0.3, seed=0, n_paths=2)
    T = volume_current(T2, 8)
    basis = make_test_basis(T2, 1)
    with pytest.raises(ValueError, match="multiple of dt"):
        calibrate_bias_constant(T, translation_bm_system(2), basis, 1.0, 0.3)


def test_calibrate_bias_constant_vanishes_where_heun_is_exact():
    sys = translation_bm_system(2)
    T = volume_current(T2, 8)
    basis = make_test_basis(T2, 2)
    c = calibrate_bias_constant(T, sys, basis, 0.5, 1e-2, seed=3, n_paths=20)
    assert 0.0 <= c <= 1e-9


def test_calibrate_bias_constant_hamiltonian_finite_positive():
    # a Dirac atom, not the volume: the volume is invariant and shows no bias
    sys = hamiltonian_torus_system()
    T = EmpiricalCurrent(manifold=T2, atoms=[[0.3, 0.7]], atom_weights=[1.0])
    basis = make_test_basis(T2, 1)
    c = calibrate_bias_constant(T, sys, basis, 0.5, 1e-2, seed=3, n_paths=8)
    assert math.isfinite(c) and c > 1e-6


def test_residual_check_modes():
    sys = translation_bm_system(2)
    T = volume_current(T2, 32)
    basis = make_test_basis(T2, 3)
    strict = residual_check(T, sys, basis, "strict")
    mean = residual_check(T, sys, basis, "mean")
    assert strict.verdict and strict.residual < 1e-8
    assert mean.verdict and mean.residual < 1e-8
    with pytest.raises(ValueError):
        residual_check(T, sys, basis, "bogus")


# ---------------------------------------------------------------------------
# foliation pipeline

def test_foliation_sl2_verdict_false_no_simulation():
    h = liealg.Subalgebra(liealg.sl2(), (0, 1))
    rep = foliation_pipeline(h)
    assert not rep.verdict
    assert rep.residual == pytest.approx(2.0)
    off = rep.metadata["offending"]
    assert off == [{"index": 1, "label": "X", "trace": 2.0}]
    assert rep.subchecks == []


def test_foliation_heisenberg_with_realization():
    h = liealg.Subalgebra(liealg.heisenberg3(), (0, 2))
    rep = foliation_pipeline(h, heisenberg_realization(),
                             t=0.2, dt=1e-2, seed=1, n_paths=40,
                             grid_n=8, basis_k=2)
    assert rep.verdict
    assert rep.metadata["drift_coeffs"] == [0.0, 0.0]
    kinds = [s.kind for s in rep.subchecks]
    assert kinds == ["mean_residual", "strict_residual",
                     "empirical_mean", "empirical_pathwise"]
    assert rep.all_verdicts()


def test_foliation_abelian_on_torus():
    h = liealg.Subalgebra(liealg.abelian(2), (0, 1))
    rep = foliation_pipeline(h, torus_translation_realization(2),
                             t=0.2, dt=1e-2, seed=3, n_paths=40,
                             grid_n=8, basis_k=2)
    assert rep.verdict and rep.all_verdicts()
    assert rep.metadata["drift_coeffs"] == [0.0, 0.0]


def test_foliation_subchecks_keep_the_pipeline_tolerances():
    h = liealg.Subalgebra(liealg.abelian(2), (0, 1))
    rep = foliation_pipeline(h, torus_translation_realization(2),
                             t=0.1, dt=1e-2, seed=3, n_paths=10,
                             grid_n=8, basis_k=1)
    tolerance = {s.kind: s.tolerance for s in rep.subchecks}
    assert tolerance["mean_residual"] == 1e-6
    assert tolerance["strict_residual"] == 1e-8
    assert tolerance["empirical_pathwise"] == 1e-2


# X and Z of the Heisenberg frame are constant, Y = d/dy + x d/dz is not
@pytest.mark.parametrize("indices", [(0, 2), (1, 2)])
@pytest.mark.parametrize("n_paths", [2, 5, 6, 30])
def test_foliation_empirical_checks_share_one_flow(indices, n_paths, monkeypatch):
    h = liealg.Subalgebra(liealg.heisenberg3(), indices)
    real = heisenberg_realization()
    t, dt, seed = 0.05, 1e-2, 2
    flows = []
    pullback = invariance.pullback_values
    monkeypatch.setattr(invariance, "pullback_values",
                        lambda *args: flows.append(args[-1]) or pullback(*args))
    rep = foliation_pipeline(h, real, t=t, dt=dt, seed=seed, n_paths=n_paths,
                             grid_n=4, basis_k=1)
    monkeypatch.undo()
    # the mean check flows its paths, and the pathwise one any of 0-4 left
    assert [p for paths in flows for p in paths] == list(range(max(n_paths, 5)))
    mean, pathwise = rep.subchecks[2:]
    sys = foliated_system(h, real)
    T = volume_current(real.manifold, 4)
    basis = make_test_basis(real.manifold, 1)
    # each equals the report of a run of exactly the paths it reads
    alone = EmpiricalRun(T, sys, basis, t, dt, seed)
    assert mean.payload() == empirical_check(alone, "mean", n_paths).payload()
    alone = EmpiricalRun(T, sys, basis, t, dt, seed)
    assert pathwise.payload() == empirical_check(alone, "pathwise").payload()


def test_foliation_rejects_mismatched_realization():
    h = liealg.Subalgebra(liealg.sl2(), (0, 1))
    with pytest.raises(RealizationError):
        foliation_pipeline(h, torus_translation_realization(3))


def test_nform_and_residual_verdicts_agree_on_builtin_configurations():
    # the divergence criterion and the derivative-current criterion are
    # two sides of the same condition, strict and in mean; their verdicts
    # must agree
    from example_systems import multiplicative_circle_system

    inv_density = expr.parse("exp(-sin(2*pi*x1))")
    inv_field = VectorFieldSpec.from_strings(["exp(sin(2*pi*x1))"])  # 1/f d/dx
    tilted = expr.parse("1 + 0.5*sin(2*pi*x1)")
    plain = VectorFieldSpec.from_strings(["1"])
    # the 2-D Gibbs analogue: drift -grad V, V = (cos(2 pi x1) + cos(2 pi
    # x2))/(2 pi), additive noise sigma = 0.5 and density exp(-2V/sigma^2),
    # invariant in mean only
    gibbs = StratonovichSystem(
        manifold=T2, drift=VectorFieldSpec.from_strings(["sin(2*pi*x1)",
                                                          "sin(2*pi*x2)"]),
        diffusions=(VectorFieldSpec.from_strings(["0.5", "0"]),
                    VectorFieldSpec.from_strings(["0", "0.5"])))
    gibbs_density = expr.parse("exp(-(cos(2*pi*x1) + cos(2*pi*x2))/(pi*0.25))")
    # the Gibbs circle: drift sin(2 pi x1) = -V', sigma = 0.5
    gibbs_circle = StratonovichSystem(
        manifold=T1, drift=VectorFieldSpec.from_strings(["sin(2*pi*x1)"]),
        diffusions=(VectorFieldSpec.from_strings(["0.5"]),))
    gibbs_circle_density = expr.parse("exp(-cos(2*pi*x1)/(pi*0.25))")

    volume = expr.constant(1.0)
    cases = [
        (translation_bm_system(2), volume, T2),
        (hamiltonian_torus_system(), volume, T2),
        (sin_drift_system(), volume, T1),
        (multiplicative_circle_system(), volume, T1),
        (StratonovichSystem(manifold=T1, drift=VectorFieldSpec.zero(1),
                            diffusions=(plain,)), tilted, T1),
        (StratonovichSystem(manifold=T1, drift=VectorFieldSpec.zero(1),
                            diffusions=(inv_field,)), inv_density, T1),
        (gibbs_circle, gibbs_circle_density, T1),
        (gibbs, gibbs_density, T2),
        (hamiltonian_torus_system(), tilted, T2),
    ]
    verdicts = []
    for i, (sys, density, m) in enumerate(cases):
        T = DensityCurrent(manifold=m, density=density, grid_n=64)
        basis = make_test_basis(m, 3)
        nform = check_strict_nform(T, sys.fields(), tolerance=1e-8)
        residual = residual_check(T, sys, basis, "strict", tolerance=1e-8)
        assert nform.verdict == residual.verdict, f"case {i}, strict"
        mean_nform = check_mean_nform(T, sys.fields())
        mean_residual = residual_check(T, sys, basis, "mean")
        assert mean_nform.verdict == mean_residual.verdict, f"case {i}, mean"
        verdicts.append((nform.verdict, mean_nform.verdict))
    for route in zip(*verdicts):
        assert any(route) and not all(route)
    # the Gibbs currents are invariant in mean and not strictly; the
    # tilted density on the Hamiltonian fields is neither
    assert verdicts[-2:] == [(False, True), (False, False)]
    assert verdicts[-3] == (False, True)


def fiber_case():
    """sin(2 pi x1) Z with the theta density: div(rho X_1) = sin(2 pi x1)
    d_z rho is not 0, so the current is invariant neither strictly nor in
    mean. Grid 16, basis_k 2."""
    sys = heisenberg_fiber_system()
    T = DensityCurrent(sys.manifold, expr.parse(THETA_DENSITY), 16)
    return sys, T, make_test_basis(sys.manifold, 2)


def test_nform_routes_fail_the_fiber_density():
    sys, T, _ = fiber_case()
    assert check_strict_nform(T, sys.fields()).residual == pytest.approx(1.93, abs=0.01)
    assert check_mean_nform(T, sys.fields()).residual == pytest.approx(5.22, abs=0.01)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, fiber basis: every "
                   "Heisenberg test function is pulled back from the base "
                   "torus, so none sees the fiber; both routes pass at 0")
def test_residual_routes_fail_the_fiber_density():
    sys, T, basis = fiber_case()
    assert not residual_check(T, sys, basis, "strict").verdict
    assert not residual_check(T, sys, basis, "mean").verdict


def test_strict_implies_mean_at_report_level():
    # no built-in configuration may give strict=true and mean=false
    cases = []
    for name, sys, m, grid in [("translation_bm", translation_bm_system(2), T2, 32),
                               ("hamiltonian", hamiltonian_torus_system(), T2, 32),
                               ("sin_drift", sin_drift_system(), T1, 32)]:
        T = volume_current(m, grid)
        basis = make_test_basis(m, 3)
        strict = residual_check(T, sys, basis, "strict")
        mean = residual_check(T, sys, basis, "mean")
        cases.append((name, strict.verdict, mean.verdict))
        assert not (strict.verdict and not mean.verdict), name
    assert any(s for _, s, _ in cases)       # battery includes positives
    assert any(not s for _, s, _ in cases)   # and negatives


# ---------------------------------------------------------------------------
# bias constant of the mean-mode tolerance

def mean_bias_c(sys, **kwargs):
    T = volume_current(sys.manifold, 4)
    basis = make_test_basis(sys.manifold, 1)
    rep = empirical_check(EmpiricalRun(T, sys, basis, 0.02, 1e-2, 0), "mean", 4,
                          **kwargs)
    return rep.metadata["bias_c"]


def test_bias_constant_follows_the_fields_that_run():
    # Heun is exact for constant fields, so only rounding needs room
    assert mean_bias_c(translation_bm_system(2)) == EXACT_BIAS_C
    assert mean_bias_c(heisenberg_foliated_system()) == EXACT_BIAS_C
    assert mean_bias_c(sin_drift_system()) == FALLBACK_BIAS_C
    assert mean_bias_c(hamiltonian_torus_system()) == FALLBACK_BIAS_C


def test_explicit_bias_constant_wins():
    for sys in (translation_bm_system(2), sin_drift_system()):
        assert mean_bias_c(sys, bias_c=0.37) == 0.37
    sys = translation_bm_system(2)
    T = volume_current(sys.manifold, 4)
    basis = make_test_basis(sys.manifold, 1)
    rep = empirical_check(EmpiricalRun(T, sys, basis, 0.02, 1e-2, 0), "mean", 4,
                          bias_c=3.0)
    for row in rep.per_basis:
        assert row["tolerance"] == pytest.approx(3.0 * row["std_error"] + 3.0 * 1e-2)


def test_foliation_bias_constant_follows_the_frame():
    g = liealg.heisenberg3()
    real = heisenberg_realization()

    def bias(indices, **kwargs):
        rep = foliation_pipeline(liealg.Subalgebra(g, indices), real,
                                 t=0.02, dt=1e-2, seed=0, n_paths=4, grid_n=4,
                                 basis_k=1, **kwargs)
        (mean,) = [s for s in rep.subchecks if s.kind == "empirical_mean"]
        return mean.metadata["bias_c"]

    assert bias((0, 2)) == EXACT_BIAS_C      # X = d/dx and Z = d/dz
    assert bias((1, 2)) == FALLBACK_BIAS_C   # Y = d/dy + x d/dz
    assert bias((1, 2), bias_c=0.25) == 0.25


SHEARED_TORUS = FrameRealization(
    manifold=torus(1.0, 1.0),
    frame=(VectorFieldSpec.from_strings(["1", "0"]),
           VectorFieldSpec.from_strings(["0", "sin(2*pi*x1)"])))
DOUBLED_Z = FrameRealization(
    manifold=heisenberg_manifold(),
    frame=(*heisenberg_frame()[:2], VectorFieldSpec.from_strings(["0", "0", "2"])))


@pytest.mark.parametrize("algebra,real,pair", [
    # [X, Y] = 2 pi cos(2 pi x1) d/dx2 vanishes only at x1 = 1/4 and 3/4
    (liealg.abelian(2), SHEARED_TORUS, "[v1, v2]"),
    # [X, Y] = Z, but the constants ask for the third frame field, 2Z
    (liealg.heisenberg3(), DOUBLED_Z, "[X, Y]"),
], ids=["sheared_torus", "doubled_z"])
def test_realization_mismatch_is_found_at_the_sample_points(algebra, real, pair):
    with pytest.raises(RealizationError, match=re.escape(f"at ({pair})")):
        foliated_system(liealg.Subalgebra(algebra, (0,)), real)


def test_foliated_system_checks_its_realization():
    with pytest.raises(RealizationError, match=r"\[X, Y\]"):
        foliated_system(liealg.Subalgebra(liealg.sl2(), (0, 1)),
                        torus_translation_realization(3))
    with pytest.raises(RealizationError, match="frame fields"):
        foliated_system(liealg.Subalgebra(liealg.sl2(), (0, 1)),
                        torus_translation_realization(2))


# ---------------------------------------------------------------------------
# n-form checks against one evaluation per divergence

def per_tree_strict_nform(m, density, fields, grid_n):
    pts, _ = grid_points(m, grid_n)
    return [float(np.max(np.abs(expr.evaluate(product_divergence_expr(m, X, density),
                                              pts))))
            for X in fields]


def per_tree_mean_nform(m, density, fields, grid_n):
    pts, _ = grid_points(m, grid_n)
    acc = expr.evaluate(product_divergence_expr(m, fields[0], density), pts)
    for X in fields[1:]:
        b = product_divergence_expr(m, X, density)
        b_vals = expr.evaluate(b, pts)
        xb_vals = expr.evaluate(apply_field(m, X, b), pts)
        divx_vals = expr.evaluate(product_divergence_expr(m, X), pts)
        acc = acc - 0.5 * (xb_vals + divx_vals * b_vals)
    return float(np.max(np.abs(acc)))


def nform_cases():
    cases = [(s.manifold, expr.constant(1.0), s.fields())
             for s in builtin_systems().values()]
    ham = hamiltonian_torus_system()
    cases.append((T2, expr.parse("1.5 + 0.5*cos(2*pi*x1)*sin(2*pi*x2)"), ham.fields()))
    cases.append((T2, expr.parse("1.5 + 0.5*cos(2*pi*x1)"),
                  [VectorFieldSpec.from_strings(["0.1", "0.05*sin(2*pi*x1)"]),
                   VectorFieldSpec.from_strings(["0.3*sin(2*pi*x2)", "0.2*cos(2*pi*x1)"]),
                   ham.diffusions[0]]))
    return cases


@pytest.mark.parametrize("case", range(len(nform_cases())))
def test_nform_checks_equal_per_tree_route(case):
    m, density, fields = nform_cases()[case]
    T = DensityCurrent(m, density, 16)
    strict = check_strict_nform(T, fields)
    assert [row["value"] for row in strict.per_basis] == \
        per_tree_strict_nform(m, density, fields, 16)
    assert strict.residual == max(row["value"] for row in strict.per_basis)
    mean = check_mean_nform(T, fields)
    assert mean.residual == per_tree_mean_nform(m, density, fields, 16)
