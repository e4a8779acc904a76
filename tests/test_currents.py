import math

import numpy as np
import pytest

from stochflow import expr
from stochflow.currents import (
    DensityCurrent,
    EmpiricalCurrent,
    derivative_current_eval,
    evaluate,
    generator_residuals,
    pullback_eval,
    pullback_values,
    strict_residuals,
    volume_current,
)
from stochflow.manifold import VectorFieldSpec, make_test_basis, torus
from stochflow.invariance import empirical_check
from stochflow.sde import StratonovichSystem, flow_with_jacobian, generate_noise

T1 = torus(1.0)
T2 = torus(1.0, 1.0)
SIN = expr.parse("sin(2*pi*x1)")
COS = expr.parse("cos(2*pi*x1)")
TILTED = expr.parse("1 + 0.5*sin(2*pi*x1)")


def zero_system(dim=1):
    m = torus(*([1.0] * dim))
    return StratonovichSystem(manifold=m, drift=VectorFieldSpec.zero(dim),
                              diffusions=())


def translation_system(dim=1):
    m = torus(*([1.0] * dim))
    fields = []
    for i in range(dim):
        comps = ["0"] * dim
        comps[i] = "1"
        fields.append(VectorFieldSpec.from_strings(comps))
    return StratonovichSystem(manifold=m, drift=VectorFieldSpec.zero(dim),
                              diffusions=tuple(fields))


# ---------------------------------------------------------------------------
# construction and evaluation

def test_eval_lebesgue_normalization():
    T = volume_current(T2, 16, probability=True)
    assert evaluate(T, expr.parse("1")) == pytest.approx(1.0, abs=1e-12)


def test_eval_single_atom():
    T = EmpiricalCurrent(manifold=T1, atoms=[[0.25]], atom_weights=[2.0])
    assert evaluate(T, SIN) == pytest.approx(2.0, abs=1e-14)


def test_eval_tilted_density_closed_form():
    # integral of (1 + sin/2) sin = 1/4
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=32)
    assert evaluate(T, SIN) == pytest.approx(0.25, abs=1e-12)


def test_eval_linearity_in_f_and_weights():
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=16)
    a, b = 1.7, -2.3
    combo = expr.add(expr.mul(expr.constant(a), SIN), expr.mul(expr.constant(b), COS))
    assert evaluate(T, combo) == pytest.approx(
        a * evaluate(T, SIN) + b * evaluate(T, COS), abs=1e-14)
    T2x = EmpiricalCurrent(manifold=T1, atoms=[[0.1], [0.4]], atom_weights=[2.0, -1.0])
    Ta = EmpiricalCurrent(manifold=T1, atoms=[[0.1]], atom_weights=[2.0])
    Tb = EmpiricalCurrent(manifold=T1, atoms=[[0.4]], atom_weights=[-1.0])
    assert evaluate(T2x, SIN) == pytest.approx(evaluate(Ta, SIN) + evaluate(Tb, SIN),
                                               abs=1e-14)


def test_probability_flag_validated():
    with pytest.raises(ValueError):
        EmpiricalCurrent(manifold=T1, atoms=[[0.0]], atom_weights=[2.0],
                         probability=True)
    heavy = expr.parse("2 + sin(2*pi*x1)")
    with pytest.raises(ValueError):
        DensityCurrent(manifold=T1, density=heavy, grid_n=16, probability=True,
                       normalize=False)
    ok = DensityCurrent(manifold=T1, density=heavy, grid_n=16, normalize=True,
                        probability=True)
    assert evaluate(ok, expr.parse("1")) == pytest.approx(1.0, abs=1e-12)


def test_density_must_be_positive():
    from stochflow.manifold import DegenerateDensityError
    with pytest.raises(DegenerateDensityError):
        DensityCurrent(manifold=T1, density=expr.parse("sin(2*pi*x1)"), grid_n=16)


def test_empirical_atoms_are_canonicalized():
    T = EmpiricalCurrent(manifold=T1, atoms=[[1.25]], atom_weights=[1.0])
    assert T.points[0, 0] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# pullback

def test_pullback_zero_system_is_eval():
    sys = zero_system(1)
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=16)
    noise = generate_noise(0, 0, 0, 0.1, 10)
    assert pullback_eval(T, SIN, sys, 1.0, 0.1, noise) == pytest.approx(
        evaluate(T, SIN), abs=1e-14)


def test_pullback_translation_invariance_of_lebesgue():
    sys = translation_system(1)
    T = volume_current(T1, 16)
    for p in range(4):
        noise = generate_noise(5, p, 1, 1e-2, 100)
        assert abs(pullback_eval(T, SIN, sys, 1.0, 1e-2, noise)) < 1e-12


def test_pullback_deterministic_rotation():
    alpha = 1 / math.sqrt(3)
    sys = StratonovichSystem(
        manifold=T2, drift=VectorFieldSpec.from_strings(["1", repr(alpha)]),
        diffusions=())
    T = volume_current(T2, 16)
    f = expr.parse("sin(2*pi*x1)*cos(2*pi*x2)")
    noise = generate_noise(0, 0, 0, 1e-2, 100)
    assert pullback_eval(T, f, sys, 1.0, 1e-2, noise) == pytest.approx(
        evaluate(T, f), abs=1e-8)


def test_pullback_empirical_flows_atoms():
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.from_strings(["1"]),
                             diffusions=())
    T = EmpiricalCurrent(manifold=T1, atoms=[[0.0]], atom_weights=[1.0])
    noise = generate_noise(0, 0, 0, 1e-3, 250)
    got = pullback_eval(T, SIN, sys, 0.25, 1e-3, noise)
    assert got == pytest.approx(math.sin(2 * math.pi * 0.25), abs=1e-9)


# ---------------------------------------------------------------------------
# mean action

def mean_action(T, f, sys, t, dt, seed, n_paths):
    """Monte Carlo mean of T(f o phi_t) over n_paths, and its std error."""
    vals = pullback_values(T, [f], sys, t, dt, seed, n_paths)[0]
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_paths))


def test_mean_action_zero_system():
    sys = zero_system(1)
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=16)
    value, std_error = mean_action(T, SIN, sys, 1.0, 0.1, seed=3, n_paths=4)
    assert value == pytest.approx(evaluate(T, SIN), abs=1e-14)
    assert std_error == pytest.approx(0.0, abs=1e-15)
    assert pullback_values(T, [SIN], sys, 1.0, 0.1, seed=3, n_paths=4).shape == (1, 4)


def test_mean_action_translation_lebesgue():
    sys = translation_system(1)
    T = volume_current(T1, 16)
    value, std_error = mean_action(T, SIN, sys, 1.0, 1e-2, seed=11, n_paths=50)
    assert abs(value - 0.0) <= 3 * std_error + 1e-9


def test_mean_action_deterministic_dirac():
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.from_strings(["1"]),
                             diffusions=())
    T = EmpiricalCurrent(manifold=T1, atoms=[[0.0]], atom_weights=[1.0])
    value, std_error = mean_action(T, SIN, sys, 0.25, 1e-3, seed=0, n_paths=2)
    assert value == pytest.approx(1.0, abs=1e-6)
    assert std_error == 0.0


def test_mean_action_requires_two_paths():
    sys = zero_system(1)
    T = volume_current(T1, 8)
    basis = make_test_basis(T1, 1)
    with pytest.raises(ValueError):
        empirical_check(T, sys, basis, 1.0, 0.1, seed=0, n_paths=1, mode="mean")


# ---------------------------------------------------------------------------
# derivative currents

def test_derivative_current_constant_function():
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    T = volume_current(T1, 16)
    assert derivative_current_eval(X, T, expr.parse("2")) == 0.0


def test_derivative_current_total_derivative_integrates_to_zero():
    X = VectorFieldSpec.from_strings(["1"])
    T = volume_current(T1, 32)
    basis = make_test_basis(T1, 3)
    for f in basis.functions:
        assert abs(derivative_current_eval(X, T, f)) < 1e-10


def test_derivative_current_tilted_density_closed_form():
    # -T(Xf) with X=d/dx, f=cos(2 pi x), density 1+sin/2: value pi/2
    X = VectorFieldSpec.from_strings(["1"])
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=32)
    assert derivative_current_eval(X, T, COS) == pytest.approx(math.pi / 2, abs=1e-10)


# ---------------------------------------------------------------------------
# generator and strict residuals

def test_generator_residuals_zero_system():
    sys = zero_system(2)
    T = volume_current(T2, 16)
    basis = make_test_basis(T2, 2)
    np.testing.assert_array_equal(generator_residuals(T, sys, basis),
                                  np.zeros(len(basis)))


def test_generator_residuals_brownian_torus():
    sys = translation_system(2)
    T = volume_current(T2, 32)
    basis = make_test_basis(T2, 3)
    assert np.max(np.abs(generator_residuals(T, sys, basis))) < 1e-8


def test_generator_residual_sin_drift_closed_form():
    sys = StratonovichSystem(manifold=T1,
                             drift=VectorFieldSpec.from_strings(["sin(2*pi*x1)"]),
                             diffusions=())
    T = volume_current(T1, 32)
    basis = make_test_basis(T1, 1)  # functions: 1, cos, sin
    r = generator_residuals(T, sys, basis)
    assert r[1] == pytest.approx(-math.pi, abs=1e-10)


def test_strict_residuals_divergence_free():
    sys = translation_system(2)
    T = volume_current(T2, 32)
    basis = make_test_basis(T2, 3)
    assert np.max(np.abs(strict_residuals(T, sys, basis))) < 1e-8


def test_strict_residuals_zero_fields():
    sys = zero_system(1)
    T = volume_current(T1, 16)
    basis = make_test_basis(T1, 2)
    np.testing.assert_array_equal(strict_residuals(T, sys, basis),
                                  np.zeros((1, len(basis))))


def test_strict_residual_sin_field_closed_form():
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.zero(1),
                             diffusions=(X,))
    T = volume_current(T1, 32)
    basis = make_test_basis(T1, 1)
    s = strict_residuals(T, sys, basis)
    assert s[1, 1] == pytest.approx(math.pi, abs=1e-10)


def test_strict_implies_mean_on_divergence_free_systems():
    sys = translation_system(2)
    T = volume_current(T2, 32)
    basis = make_test_basis(T2, 3)
    assert np.max(np.abs(strict_residuals(T, sys, basis))) < 1e-8
    assert np.max(np.abs(generator_residuals(T, sys, basis))) < 1e-8


# ---------------------------------------------------------------------------
# evaluation commutes with discretized stochastic-integral sums

@pytest.mark.parametrize("make_current", [
    lambda: volume_current(T1, 8),
    lambda: EmpiricalCurrent(manifold=T1, atoms=[[0.1], [0.7], [0.4]],
                             atom_weights=[0.2, 0.5, -0.3]),
])
def test_discrete_commutation_of_current_and_integral(make_current):
    T = make_current()
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.zero(1),
                             diffusions=(X,))
    steps = 20
    noise = generate_noise(13, 0, 1, 0.05, steps)
    res = flow_with_jacobian(sys, T.points, 1.0, 0.05, noise)  # (steps+1, P, 1)
    g = expr.parse("cos(2*pi*x1)")
    gvals = np.stack([expr.evaluate(g, res.trajectory[k]) for k in range(steps)])
    db = noise.increments[:, 0]
    # T applied to x -> sum_k g(phi_k(x)) dB_k, versus the summed evaluations
    lhs = float(np.dot(T.weights, (gvals * db[:, None]).sum(axis=0)))
    rhs = float(sum(np.dot(T.weights, gvals[k]) * db[k] for k in range(steps)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_pullback_values_matches_pullback_eval():
    sys = translation_system(1)
    T = volume_current(T1, 8)
    basis = make_test_basis(T1, 1)
    vals = pullback_values(T, basis.functions, sys, 0.5, 1e-2, seed=7, n_paths=3)
    for p in range(3):
        noise = generate_noise(7, p, 1, 1e-2, 50)
        for k, f in enumerate(basis.functions):
            assert vals[k, p] == pytest.approx(
                pullback_eval(T, f, sys, 0.5, 1e-2, noise), abs=1e-14)
