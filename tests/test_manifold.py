import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from example_systems import THETA_DENSITY
from oracles import is_invariant_function
from stochflow import expr
from stochflow.currents import evaluate_many, volume_current
from stochflow.manifold import (
    ChartedManifold,
    InvalidPointError,
    VectorFieldSpec,
    grid_points,
    heisenberg_frame,
    heisenberg_manifold,
    identified_pairs,
    is_compatible_field,
    lie_bracket,
    make_test_basis,
    product_divergence_expr,
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
        f = basis.functions[k]
        assert expr.evaluate(f, p) == pytest.approx(expr.evaluate(f, q), abs=1e-12)


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


@pytest.mark.parametrize("kind", ["torus", "heisenberg"])
@pytest.mark.parametrize("lengths", [
    (1.0,), (0.7, 1 / 3), (1.0, 1.0), (1.0, 2.0, 0.5, 3.0), (1.0, 1.0, 1.0),
    (1.0, 1.0, 0.7), (1.0, 1.0, 2.0), (2.0, 0.5, 1.0), (1.0, 1.0, 0.5),
    (0.7, 10 / 7, 1.0), (0.1, 10.0, 1.0), (1.0, 1.0, 1 / 3), (3.0, 1 / 3, 0.5),
    (1.0, 1.0, 1.000001), (1.0, 1.0, 1.0 + 1e-12)])
def test_the_table_accepts_the_quotients_the_names_did(kind, lengths):
    issue = oracles.lattice_issue(kind, lengths)
    if issue is None:
        assert ChartedManifold(len(lengths), lengths, kind).identification == kind
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(issue)}$"):
            ChartedManifold(len(lengths), lengths, kind)


def test_a_quotient_outside_the_table_is_rejected():
    with pytest.raises(ValueError, match="unknown identification 'sol'"):
        ChartedManifold(3, (1.0, 1.0, 1.0), "sol")


@st.composite
def quotient_points(draw):
    """(m, points, dyadic): a torus of up to 4 arbitrary lengths, 0.7 and
    1/3 among them, or a Heisenberg box (Lx, k*Lz/Lx, Lz), and points up
    to 1e6 box lengths out, whole multiples of the box among them;
    dyadic when every length that a shear multiplies is a power of 2."""
    length = st.sampled_from([0.7, 1 / 3, 0.1]) | st.integers(-3, 3).map(
        lambda e: 2.0 ** e) | st.floats(0.05, 20)
    if draw(st.booleans()):
        m = torus(*draw(st.lists(length, min_size=1, max_size=4)))
    else:
        lx, lz = draw(length), draw(length)
        m = ChartedManifold(3, (lx, draw(st.integers(1, 4)) * lz / lx, lz), "heisenberg")
    scale = draw(st.sampled_from([4, 1000, 10 ** 6]))
    unit = st.floats(-scale, scale) | st.integers(-scale, scale).map(float)
    units = draw(st.lists(st.lists(unit, min_size=m.dim, max_size=m.dim),
                          min_size=1, max_size=16))
    dyadic = all(math.frexp(m.box_lengths[i])[0] == 0.5 for i, _, _ in m.shears)
    return m, np.array(units) * m.lengths, dyadic


@settings(max_examples=200, deadline=None)
@given(quotient_points())
def test_wrap_equals_the_named_wrap(case):
    # bit for bit on every torus and on a Heisenberg box whose Lx is a
    # power of 2. At another Lx the named wrap rounds x twice, and can
    # pick the neighbouring representative, its x a rounding below 0
    # (test_wrap_lands_in_the_box_where_the_named_wrap_did_not). The wrap
    # lands in the box and is the same point of the quotient to rounding:
    # the other axes within 2 ulp of the largest input or box length, and
    # the target x_k of a shear (i, j, k) within 8 ulp of that or of the
    # shear's products x_i * x_j and L_i * L_j, which both sides round
    # (measured: 1 and 3.7 ulp over 5 million points, multiples of Lx
    # among them)
    m, p, dyadic = case
    got, want = m.wrap(p), oracles.named_wrap(m, p)
    assert np.all((got >= 0) & (got < m.lengths))
    if dyadic:
        assert np.array_equal(got, want)
        return
    size = np.maximum(np.abs(p).max(axis=-1, keepdims=True), m.lengths.max()) * np.ones(m.dim)
    ulps = np.full(m.dim, 2.0)
    for i, j, k in m.shears:
        size[:, k] = np.maximum(size[:, k], np.maximum(np.abs(p[:, i] * p[:, j]),
                                                       m.lengths[i] * m.lengths[j]))
        ulps[k] = 8.0
    assert np.all(oracles.quotient_gap(m, want, got) <= ulps * np.spacing(size))


def test_wrap_lands_in_the_box_where_the_named_wrap_did_not():
    # 1.7 / 0.1 rounds up to 17, so the named wrap took x one box length
    # too far, to -2.2e-16, and z by one y too far
    m = ChartedManifold(3, (0.1, 10.0, 1.0), "heisenberg")
    p = np.array([1.7, 0.25, 0.5])
    named = oracles.named_wrap(m, p)
    assert named[0] == -2.220446049250313e-16
    got = m.wrap(p)
    assert got.tolist() == [0.09999999999999987, 0.25, 0.09999999999999998]
    assert oracles.quotient_gap(m, named, got).max() <= 1e-15


def test_wrap_writes_a_new_array():
    p = np.array([[1.2, 0.5, 0.1], [-0.3, 2.5, 7.0]])
    before = p.copy()
    assert HEIS.wrap(p) is not p
    np.testing.assert_array_equal(p, before)


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


def descent_gap(m, f):
    """The largest |f(q) - f(p)| over the identified_pairs."""
    p, q, _ = identified_pairs(m)
    return float(np.max(np.abs(expr.evaluate(f, q) - expr.evaluate(f, p))))


def test_a_density_that_jumps_at_the_seam_does_not_descend():
    density = expr.parse("1 + x1")
    assert descent_gap(T1, density) == pytest.approx(2.0)
    assert not is_compatible_field(T1, density)


def test_the_theta_density_descends_to_rounding():
    density = expr.parse(THETA_DENSITY)
    assert 0 < descent_gap(HEIS, density) <= 4.5e-16
    assert is_compatible_field(HEIS, density)
    # one fiber mode alone does not: the twist z -> z + a*y moves it
    assert not is_compatible_field(HEIS, expr.parse("cos(2*pi*(x3 + x2))"))


@st.composite
def compatible_inputs(draw):
    """A manifold, a random positive density and a random field that
    descend to it, a point p and a lattice element gamma: (m, density,
    field, p, gamma(p), dgamma). On the Heisenberg manifold the field
    is a X + b Y + c Z with the frame's coefficients a, b, c functions
    of x1 and x2, and the density is one of x1 and x2."""
    heisenberg = draw(st.booleans())
    if heisenberg:
        lengths = (1.0, 1.0, 1.0)
    else:
        lengths = tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                      min_size=1, max_size=2)))
    base = lengths[:2] if heisenberg else lengths

    def trig():  # a trig polynomial of period L_i in x_i, and its size bound
        terms, size = [], 0.0
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.integers(-10, 10)) / 10
            arg = " + ".join(f"{draw(st.integers(-2, 2))}*x{i + 1}/{length}"
                             for i, length in enumerate(base))
            terms.append(f"{a}*cos(2*pi*({arg}) + {draw(st.integers(0, 6))})")
            size += abs(a)
        return " + ".join(terms), size

    poly, size = trig()
    density = expr.parse(f"{size + 0.5} + {poly}")
    if heisenberg:
        a, b, c = (trig()[0] for _ in range(3))
        field = VectorFieldSpec.from_strings([a, b, f"({b})*x1 + {c}"])
    else:
        field = VectorFieldSpec.from_strings([trig()[0] for _ in lengths])
    m = ChartedManifold(len(lengths), lengths,
                        "heisenberg" if heisenberg else "torus")
    p = np.array([draw(st.floats(0, 1, exclude_max=True)) * length
                  for length in lengths])
    shift = np.array([draw(st.integers(-3, 3)) for _ in lengths]) * m.lengths
    q, dgamma = p + shift, np.eye(len(lengths))
    if heisenberg:  # (x, y, z) -> (x + a, y + b, z + c + a*y)
        q[2] += shift[0] * p[1]
        dgamma[2, 1] = shift[0]
    return m, density, field, p, q, dgamma


@settings(max_examples=60, deadline=None)
@given(compatible_inputs())
def test_lattice_shifts_of_compatible_inputs_give_equal_values(inputs):
    m, density, field, p, q, dgamma = inputs
    assert is_compatible_field(m, density) and is_compatible_field(m, field)
    rho_p, rho_q = (expr.evaluate(density, x[None]) for x in (p, q))
    np.testing.assert_allclose(rho_q, rho_p, rtol=1e-10)
    v_p, v_q = field(p[None])[0], field(q[None])[0]
    np.testing.assert_allclose(v_q, dgamma @ v_p, rtol=0, atol=1e-10 * (
        1 + np.max(np.abs(v_p))))


def test_field_components_must_be_expressions():
    with pytest.raises(TypeError, match="component must be an expression"):
        VectorFieldSpec(dim=1, components=(lambda p: p[..., 0],))


def test_compatibility_check_names_a_non_finite_component():
    with pytest.raises(ValueError, match="component 2 is inf"):
        is_compatible_field(torus(1.0, 1.0),
                            VectorFieldSpec.from_strings(["1", "1e999"]))
    with pytest.raises(ValueError, match="value is inf"):
        is_compatible_field(T1, expr.parse("1e999"))


def test_invariant_function_check():
    assert is_invariant_function(T1, expr.parse("cos(2*pi*x1)"))
    assert not is_invariant_function(T1, expr.parse("x1"))


def test_invariant_function_check_is_batched_and_rejects_non_finite(monkeypatch):
    calls = []
    walk = oracles.walk

    def counted(node, pts):
        calls.append(np.shape(pts))
        return walk(node, pts)

    monkeypatch.setattr(oracles, "walk", counted)
    assert is_invariant_function(torus(1.0, 2.0), expr.parse("cos(2*pi*x1)"), samples=16)
    # once on all sample points, once on all their images
    assert calls == [(16, 2), (16, 2)]
    nan = expr.parse("0*1e999")
    assert isinstance(nan, expr.BinOp)
    assert not is_invariant_function(T1, nan)


# ---------------------------------------------------------------------------
# divergence

def divergence(m, X, pts):
    """div X at pts with respect to the volume form."""
    return expr.evaluate(product_divergence_expr(m, X), pts)


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


def test_divergence_leibniz_relation():
    # div_mu(f X) = f div_mu(X) + Xf
    f = expr.parse("1 + 0.5*sin(2*pi*x1)")
    X = VectorFieldSpec.from_strings(["cos(2*pi*x1)"])
    pts = np.random.default_rng(4).random((30, 1))
    left = expr.evaluate(product_divergence_expr(T1, X, f), pts)
    divx = divergence(T1, X, pts)
    fx = expr.evaluate(f, pts)
    df = expr.evaluate(expr.diff(f, 0), pts)
    xf = df * expr.evaluate(X.components[0], pts)
    np.testing.assert_allclose(left, fx * divx + xf, atol=1e-9)


# ---------------------------------------------------------------------------
# lie bracket

def test_bracket_of_field_with_itself_vanishes():
    X = VectorFieldSpec.from_strings(["sin(2*pi*x1)", "cos(2*pi*x2)"])
    pts = np.random.default_rng(5).random((10, 2))
    np.testing.assert_allclose(lie_bracket(T2, X, X)(pts), 0.0, atol=1e-12)


def test_bracket_heisenberg_frame():
    X, Y, Z = heisenberg_frame()
    pts = np.random.default_rng(6).random((10, 3))
    np.testing.assert_allclose(lie_bracket(HEIS, X, Y)(pts), Z(pts), atol=1e-12)
    np.testing.assert_allclose(lie_bracket(HEIS, X, Z)(pts), 0.0, atol=1e-12)
    np.testing.assert_allclose(lie_bracket(HEIS, Y, Z)(pts), 0.0, atol=1e-12)


def test_bracket_constant_fields_commute():
    X = VectorFieldSpec.from_strings(["1", "0"])
    Y = VectorFieldSpec.from_strings(["0", "1"])
    pts = np.random.default_rng(7).random((5, 2))
    np.testing.assert_allclose(lie_bracket(T2, X, Y)(pts), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# quadrature

def quadrature(m, f, n):
    """The midpoint rule on the uniform n^dim grid: T(f) for the volume
    current."""
    return float(evaluate_many(volume_current(m, n), [f])[0])


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


def test_cached_grid_points_are_read_only():
    m = torus(1.0, 2.0)
    pts, weights = grid_points(m, 8)
    want = pts.copy()
    with pytest.raises(ValueError):
        pts[0] = 99.0
    with pytest.raises(ValueError):
        grid_points(m, 8)[0][0] = 99.0
    np.testing.assert_array_equal(grid_points(m, 8)[0], want)
    weights[0] = 99.0  # the weights are the caller's own
    assert grid_points(m, 8)[1][0] == 2.0 / 64


# ---------------------------------------------------------------------------
# test basis

def test_basis_counts_and_constant_first():
    b1 = make_test_basis(T1, 1)
    assert len(b1) == 3
    assert expr.is_constant(b1.functions[0])
    assert float(expr.evaluate(b1.functions[0], np.array([0.42]))) == 1.0
    assert len(make_test_basis(T2, 1)) == 9
    assert len(make_test_basis(T2, 3)) == 49


def test_basis_is_built_once_per_manifold_and_cutoff():
    assert make_test_basis(T2, 3) is make_test_basis(T2, 3)
    assert make_test_basis(torus(1.0, 1.0), 3) is make_test_basis(T2, 3)
    assert make_test_basis(T2, 2) is not make_test_basis(T2, 3)
    with pytest.raises(ValueError):
        make_test_basis(T2, 0)


def test_heisenberg_basis_constant_in_fiber():
    basis = make_test_basis(HEIS, 1)
    assert len(basis) == 9
    rng = np.random.default_rng(9)
    pts = rng.random((10, 3))
    shifted = pts.copy()
    shifted[:, 2] = rng.random(10)
    for k in range(len(basis)):
        f = basis.functions[k]
        np.testing.assert_allclose(expr.evaluate(f, pts),
                                   expr.evaluate(f, shifted), atol=0)


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
        f = basis.functions[k]
        for axis in (0, 1):
            e = np.zeros(2)
            e[axis] = h
            fd = (expr.evaluate(f, pt + e) - expr.evaluate(f, pt - e)) / (2 * h)
            grad = expr.evaluate(expr.diff(f, axis), pt)
            assert float(grad) == pytest.approx(float(fd), abs=1e-5)


def test_identified_pairs_relate_points():
    for p, q, dg in zip(*identified_pairs(HEIS)):
        assert not np.allclose(p, q)
        np.testing.assert_allclose(HEIS.wrap(p), HEIS.wrap(q), atol=1e-10)


QUOTIENT_CASES = {"circle": T1, "torus2": torus(1.0, 2.0), "heisenberg": HEIS,
                  "torus4": torus(0.5, 1.0, 3.0, 2.0),
                  "heisenberg_box": ChartedManifold(3, (2.0, 0.5, 1.0), "heisenberg")}


@pytest.mark.parametrize("m", QUOTIENT_CASES.values(), ids=list(QUOTIENT_CASES))
def test_identified_pairs_and_the_basis_equal_the_named_ones(m):
    for got, want in zip(identified_pairs(m), oracles.named_pairs(m)):
        assert np.array_equal(got, want)
    for cutoff in (1, 2):
        got = make_test_basis(m, cutoff).functions
        assert len(got) == len(oracles.named_basis(m, cutoff))
        assert all(f is g for f, g in zip(got, oracles.named_basis(m, cutoff)))


@pytest.mark.parametrize("m", [T1, torus(1.0, 2.0), HEIS, torus(0.5, 1.0, 3.0, 2.0)],
                         ids=["circle", "torus2", "heisenberg", "torus4"])
def test_identified_pairs_are_a_fixed_spread_sample(m):
    p, q, dgamma = identified_pairs(m)
    assert p.shape == q.shape == (32, m.dim) and dgamma.shape == (32, m.dim, m.dim)
    assert len(np.unique(p, axis=0)) == 32
    assert np.all((p >= 0) & (p < m.lengths))
    # the lattice shift is a non-zero integer number of box lengths per
    # axis, at most 2 (x_k also moves by the shift of x_i times x_j for
    # each shear (i, j, k) of the quotient)
    shifts = q - p
    for i, j, k in m.shears:
        shifts[:, k] -= shifts[:, i] * p[:, j]
    steps = shifts / m.lengths
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-12)
    assert np.all(np.abs(np.round(steps)) <= 2)
    assert not np.any(np.all(np.round(steps) == 0, axis=1))
    # cached: the same read-only arrays on every call
    again = identified_pairs(m)
    assert all(a is b for a, b in zip((p, q, dgamma), again))
    for a in again:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
