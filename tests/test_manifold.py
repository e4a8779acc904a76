import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochflow import expr
from stochflow.manifold import (
    ChartedManifold,
    DegenerateDensityError,
    InvalidPointError,
    VectorFieldSpec,
    divergence,
    heisenberg_frame,
    heisenberg_manifold,
    identified_pairs,
    is_compatible_field,
    is_invariant_function,
    lie_bracket,
    make_test_basis,
    product_divergence_function,
    quadrature,
    torus,
)

T1 = torus(1.0)
T2 = torus(1.0, 1.0)
HEIS = heisenberg_manifold()


# ---------------------------------------------------------------------------
# wrapping

def test_wrap_torus_example():
    np.testing.assert_allclose(T2.wrap([1.25, -0.5]), [0.25, 0.5])


def test_wrap_identity_in_domain():
    p = np.array([0.3, 0.9])
    np.testing.assert_array_equal(T2.wrap(p), p)


def test_wrap_heisenberg_example():
    # wrapping x by one unit shifts z by -y before z wraps
    np.testing.assert_allclose(HEIS.wrap([1.2, 0.5, 0.1]), [0.2, 0.5, 0.6])


def test_heisenberg_wrap_preserves_invariant_functions():
    basis = make_test_basis(HEIS, 2)
    p = np.array([1.2, 0.5, 0.1])
    q = HEIS.wrap(p)
    for k in range(len(basis)):
        assert basis.evaluate(k, p) == pytest.approx(basis.evaluate(k, q), abs=1e-12)


@settings(max_examples=200)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_wrap_idempotent_and_in_domain(coords):
    for m in (torus(1.0, 2.0, 0.5), HEIS):
        q = m.wrap(np.array(coords))
        assert np.all(q >= 0) and np.all(q < m.lengths)
        np.testing.assert_array_equal(m.wrap(q), q)


def test_wrap_rejects_nonfinite():
    with pytest.raises(InvalidPointError):
        T1.wrap([np.nan])
    with pytest.raises(InvalidPointError):
        T2.wrap([1.0, np.inf])
    with pytest.raises(InvalidPointError):
        T2.wrap([1.0])


def test_heisenberg_needs_compatible_lattice():
    with pytest.raises(ValueError):
        ChartedManifold(dim=3, box_lengths=(1.0, 1.0, 0.7), identification="heisenberg")


# ---------------------------------------------------------------------------
# identification compatibility

def test_heisenberg_frame_is_compatible():
    for f in heisenberg_frame():
        assert is_compatible_field(HEIS, f)


def test_raw_y_translation_field_is_not_compatible_on_heisenberg():
    # d/dy alone does not descend to the quotient (misses the x dz twist)
    bad = VectorFieldSpec.from_strings(["0", "1", "0"])
    assert not is_compatible_field(HEIS, bad)


def test_nonperiodic_field_rejected_on_torus():
    bad = VectorFieldSpec.from_strings(["x1"])
    assert not is_compatible_field(T1, bad)
    good = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    assert is_compatible_field(T1, good)


def test_compatibility_check_names_a_non_finite_component():
    with pytest.raises(ValueError, match="component 2 is inf"):
        is_compatible_field(torus(1.0, 1.0),
                            VectorFieldSpec.from_strings(["1", "1e999"]))


def test_invariant_function_check():
    assert is_invariant_function(T1, expr.parse("cos(2*pi*x1)"))
    assert not is_invariant_function(T1, expr.parse("x1"))


def test_invariant_function_check_is_batched_and_rejects_non_finite():
    calls = []

    def f(pts):
        calls.append(np.shape(pts))
        return np.cos(2 * np.pi * pts[..., 0])

    assert is_invariant_function(torus(1.0, 2.0), f, samples=16)
    # once on all sample points, once on all their images
    assert calls == [(16, 2), (16, 2)]
    assert not is_invariant_function(T1, lambda pts: np.full(pts.shape[:-1], np.nan))


# ---------------------------------------------------------------------------
# divergence

def test_divergence_constant_field_is_zero():
    X = VectorFieldSpec.from_strings(["1", "0"])
    pts = np.random.default_rng(0).random((50, 2))
    np.testing.assert_allclose(divergence(T2, X, pts), 0.0, atol=1e-12)


def test_divergence_hamiltonian_field_vanishes():
    # X_h = (dh/dx2, -dh/dx1) for h = sin(2 pi x1) cos(2 pi x2)
    X = VectorFieldSpec.from_strings(
        ["-2*pi*sin(2*pi*x1)*sin(2*pi*x2)", "-2*pi*cos(2*pi*x1)*cos(2*pi*x2)"])
    pts = np.random.default_rng(1).random((100, 2))
    assert np.max(np.abs(divergence(T2, X, pts))) < 1e-8


def test_divergence_sin_field_analytic_value():
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    assert float(divergence(T1, X, np.array([0.0]))) == pytest.approx(2 * math.pi)


def test_divergence_sin_field_against_independent_fd():
    # richer-step finite-difference oracle, implemented here independently
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)"])
    rng = np.random.default_rng(2)
    for x in rng.random(10):
        got = float(divergence(T1, X, np.array([x])))
        for h in (1e-4, 1e-5, 1e-6):
            fd = (math.sin(2 * math.pi * (x + h)) - math.sin(2 * math.pi * (x - h))) / (2 * h)
            assert got == pytest.approx(fd, abs=1e-5)


def test_divergence_numeric_path_matches_analytic():
    X_analytic = VectorFieldSpec.from_strings(["sin(2*pi*x1)*cos(2*pi*x2)", "x1*0 + 1"])
    X_callable = VectorFieldSpec(dim=2, components=(
        lambda p: np.sin(2 * np.pi * p[..., 0]) * np.cos(2 * np.pi * p[..., 1]),
        lambda p: np.ones(p.shape[:-1]),
    ))
    pts = np.random.default_rng(3).random((20, 2))
    a = divergence(T2, X_analytic, pts)
    b = divergence(T2, X_callable, pts)
    np.testing.assert_allclose(a, b, atol=1e-7)


def test_divergence_leibniz_relation():
    # div_mu(f X) = f div_mu(X) + Xf, within 10 h^2 on the numeric path
    f = expr.parse("1 + 0.5*sin(2*pi*x1)")
    X = VectorFieldSpec.from_strings(["cos(2*pi*x1)"])
    pts = np.random.default_rng(4).random((30, 1))
    left = product_divergence_function(T1, X, f)(pts)
    divx = divergence(T1, X, pts)
    fx = expr.evaluate(f, pts)
    df = expr.evaluate(expr.diff(f, 0), pts)
    xf = df * expr.evaluate(X.components[0], pts)
    np.testing.assert_allclose(left, fx * divx + xf, atol=1e-9)


def test_divergence_leibniz_relation_numeric_path():
    # same Leibniz identity through the finite-difference fallback,
    # tolerance 10 h^2 with h = 1e-5 * box length
    f_expr = expr.parse("1 + 0.5*sin(2*pi*x1)")
    f_call = lambda p: 1 + 0.5 * np.sin(2 * np.pi * p[..., 0])  # noqa: E731
    X = VectorFieldSpec(dim=1, components=(
        lambda p: np.cos(2 * np.pi * p[..., 0]),))
    pts = np.random.default_rng(10).random((20, 1))
    left = product_divergence_function(T1, X, f_call)(pts)
    divx = divergence(T1, X, pts)
    fx = expr.evaluate(f_expr, pts)
    xf = expr.evaluate(expr.diff(f_expr, 0), pts) * np.cos(2 * np.pi * pts[..., 0])
    np.testing.assert_allclose(left, fx * divx + xf, atol=10 * (1e-5) ** 2)


def test_divergence_rejects_nonpositive_density():
    X = VectorFieldSpec.from_strings(["1"])
    with pytest.raises(DegenerateDensityError):
        divergence(T1, X, np.array([0.5]), density=expr.parse("0 - 1"))


# ---------------------------------------------------------------------------
# lie bracket

def test_bracket_of_field_with_itself_vanishes():
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)", "cos(2*pi*x2)"])
    pts = np.random.default_rng(5).random((10, 2))
    np.testing.assert_allclose(lie_bracket(T2, X, X, pts), 0.0, atol=1e-12)


def test_bracket_heisenberg_frame():
    X, Y, Z = heisenberg_frame()
    pts = np.random.default_rng(6).random((10, 3))
    np.testing.assert_allclose(lie_bracket(HEIS, X, Y, pts), Z(pts), atol=1e-12)
    np.testing.assert_allclose(lie_bracket(HEIS, X, Z, pts), 0.0, atol=1e-12)
    np.testing.assert_allclose(lie_bracket(HEIS, Y, Z, pts), 0.0, atol=1e-12)


def test_bracket_constant_fields_commute():
    X = VectorFieldSpec.from_strings(["1", "0"])
    Y = VectorFieldSpec.from_strings(["0", "1"])
    pts = np.random.default_rng(7).random((5, 2))
    np.testing.assert_allclose(lie_bracket(T2, X, Y, pts), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# quadrature

def test_quadrature_normalization():
    assert quadrature(T2, expr.parse("1"), 8) == pytest.approx(1.0)


def test_quadrature_kills_pure_harmonics():
    for n in (2, 3, 5, 16):
        assert abs(quadrature(T2, expr.parse("sin(2*pi*x1)"), n)) < 1e-12


def test_quadrature_sin_squared():
    f = expr.parse("sin(2*pi*x1)*sin(2*pi*x1)")
    assert quadrature(T1, f, 16) == pytest.approx(0.5, abs=1e-13)


def test_quadrature_exact_below_nyquist():
    rng = np.random.default_rng(8)
    n = 16
    # random trig polynomial with frequencies < n/2
    coeffs = rng.normal(size=(7, 2))
    text = " + ".join(
        f"({c:.6f})*cos(2*pi*{k+1}*x1) + ({s:.6f})*sin(2*pi*{k+1}*x1)"
        for k, (c, s) in enumerate(coeffs))
    node = expr.parse("0.37 + " + text)
    assert quadrature(T1, node, n) == pytest.approx(0.37, abs=1e-12)


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_quadrature_linearity(a, b):
    f = expr.parse("sin(2*pi*x1)*sin(2*pi*x1)")
    g = expr.parse("cos(2*pi*x1)")
    qf = quadrature(T1, f, 16)
    qg = quadrature(T1, g, 16)
    combo = expr.add(expr.mul(expr.constant(a), f), expr.mul(expr.constant(b), g))
    assert quadrature(T1, combo, 16) == pytest.approx(a * qf + b * qg, abs=1e-12)


# ---------------------------------------------------------------------------
# test basis

def test_basis_counts_and_constant_first():
    b1 = make_test_basis(T1, 1)
    assert len(b1) == 3
    assert expr.is_constant(b1.functions[0])
    assert float(b1.evaluate(0, np.array([0.42]))) == 1.0
    assert len(make_test_basis(T2, 1)) == 9
    assert len(make_test_basis(T2, 3)) == 49


def test_heisenberg_basis_constant_in_fiber():
    basis = make_test_basis(HEIS, 1)
    assert len(basis) == 9
    rng = np.random.default_rng(9)
    pts = rng.random((10, 3))
    shifted = pts.copy()
    shifted[:, 2] = rng.random(10)
    for k in range(len(basis)):
        np.testing.assert_allclose(basis.evaluate(k, pts),
                                   basis.evaluate(k, shifted), atol=0)


def test_basis_functions_identification_invariant():
    for m, cutoff in ((T2, 2), (HEIS, 1)):
        basis = make_test_basis(m, cutoff)
        for k in range(len(basis)):
            assert is_invariant_function(m, basis.functions[k], tol=1e-10)


def test_basis_gradients_match_fd():
    basis = make_test_basis(T2, 2)
    pt = np.array([0.21, 0.83])
    h = 1e-6
    for k in (1, 5, 11):
        grads = basis.gradient(k)
        for axis in (0, 1):
            e = np.zeros(2)
            e[axis] = h
            fd = (basis.evaluate(k, pt + e) - basis.evaluate(k, pt - e)) / (2 * h)
            assert float(expr.evaluate(grads[axis], pt)) == pytest.approx(float(fd), abs=1e-5)


def test_identified_pairs_relate_points():
    for p, q, dg in identified_pairs(HEIS, 8):
        assert not np.allclose(p, q)
        np.testing.assert_allclose(HEIS.wrap(p), HEIS.wrap(q), atol=1e-10)
