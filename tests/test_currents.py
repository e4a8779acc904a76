import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from example_systems import (
    builtin_systems,
    hamiltonian_torus_system,
    heisenberg_foliated_system,
)
from oracles import current_eval, derivative_current_eval, pullback_eval
from stochflow import currents, expr, sde
from stochflow.currents import (
    DensityCurrent,
    EmpiricalCurrent,
    derivative_currents,
    evaluate_many,
    generator_residuals,
    grid_points,
    make_test_basis,
    pullback_values,
    strict_residuals,
    volume_current,
)
from stochflow.manifold import (
    StratonovichSystem,
    VectorFieldSpec,
    apply_field,
    heisenberg_manifold,
    torus,
)
from stochflow.invariance import EmpiricalRun, calibrate_bias_constant, empirical_check
from stochflow.liealg import heisenberg_realization, torus_translation_realization
from stochflow.sde import (
    flow_endpoints,
    flow_with_jacobian,
    generate_noise,
)

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
    T = volume_current(T2, 16)
    assert evaluate_many(T, [expr.parse("1")])[0] == pytest.approx(1.0, abs=1e-12)


def test_volume_weights_are_the_grid_weights_bit_for_bit():
    for m, n in ((T1, 16), (T2, 8), (heisenberg_manifold(), 4)):
        T = volume_current(m, n)
        pts, weights = grid_points(m, n)
        assert T.points is pts
        assert T.weights.tobytes() == weights.tobytes()


def test_eval_single_atom():
    T = EmpiricalCurrent(manifold=T1, atoms=[[0.25]], atom_weights=[2.0])
    assert evaluate_many(T, [SIN])[0] == pytest.approx(2.0, abs=1e-14)


def test_eval_tilted_density_closed_form():
    # integral of (1 + sin/2) sin = 1/4
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=32)
    assert evaluate_many(T, [SIN])[0] == pytest.approx(0.25, abs=1e-12)


def test_eval_linearity_in_f_and_weights():
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=16)
    a, b = 1.7, -2.3
    combo = expr.add(expr.mul(expr.constant(a), SIN), expr.mul(expr.constant(b), COS))
    f_vals = evaluate_many(T, [SIN, COS])
    assert evaluate_many(T, [combo])[0] == pytest.approx(
        a * f_vals[0] + b * f_vals[1], abs=1e-14)
    T2x = EmpiricalCurrent(manifold=T1, atoms=[[0.1], [0.4]], atom_weights=[2.0, -1.0])
    Ta = EmpiricalCurrent(manifold=T1, atoms=[[0.1]], atom_weights=[2.0])
    Tb = EmpiricalCurrent(manifold=T1, atoms=[[0.4]], atom_weights=[-1.0])
    assert evaluate_many(T2x, [SIN])[0] == pytest.approx(
        evaluate_many(Ta, [SIN])[0] + evaluate_many(Tb, [SIN])[0], abs=1e-14)


def test_probability_flag_validated():
    heavy = expr.parse("2 + sin(2*pi*x1)")
    ok = DensityCurrent(manifold=T1, density=heavy, grid_n=16, normalize=True)
    assert evaluate_many(ok, [expr.parse("1")])[0] == pytest.approx(1.0, abs=1e-12)


def test_density_must_be_positive():
    from stochflow.manifold import DegenerateDensityError
    with pytest.raises(DegenerateDensityError):
        DensityCurrent(manifold=T1, density=expr.parse("sin(2*pi*x1)"), grid_n=16)


def test_density_must_descend_to_the_quotient():
    from stochflow.manifold import DegenerateDensityError
    with pytest.raises(DegenerateDensityError, match="does not descend"):
        DensityCurrent(manifold=T1, density=expr.parse("1 + x1"), grid_n=64)


def test_density_must_be_an_expression():
    with pytest.raises(TypeError, match="current density must be an expression"):
        DensityCurrent(manifold=T1, density=lambda p: 1.0 + 0.0 * p[..., 0], grid_n=16)


def test_empirical_atoms_are_canonicalized():
    T = EmpiricalCurrent(manifold=T1, atoms=[[1.25]], atom_weights=[1.0])
    assert T.points[0, 0] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# pullback

def test_pullback_zero_system_is_eval():
    sys = zero_system(1)
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=16)
    noise = generate_noise(0, 0, 0, 0.1, 10)
    assert pullback_eval(T, SIN, sys, 0.1, noise) == pytest.approx(
        evaluate_many(T, [SIN])[0], abs=1e-14)


def test_pullback_translation_invariance_of_lebesgue():
    sys = translation_system(1)
    T = volume_current(T1, 16)
    for p in range(4):
        noise = generate_noise(5, p, 1, 1e-2, 100)
        assert abs(pullback_eval(T, SIN, sys, 1e-2, noise)) < 1e-12


def test_pullback_deterministic_rotation():
    alpha = 1 / math.sqrt(3)
    sys = StratonovichSystem(
        manifold=T2, drift=VectorFieldSpec.from_strings(["1", repr(alpha)]),
        diffusions=())
    T = volume_current(T2, 16)
    f = expr.parse("sin(2*pi*x1)*cos(2*pi*x2)")
    noise = generate_noise(0, 0, 0, 1e-2, 100)
    assert pullback_eval(T, f, sys, 1e-2, noise) == pytest.approx(
        evaluate_many(T, [f])[0], abs=1e-8)


def test_pullback_empirical_flows_atoms():
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.from_strings(["1"]),
                             diffusions=())
    T = EmpiricalCurrent(manifold=T1, atoms=[[0.0]], atom_weights=[1.0])
    noise = generate_noise(0, 0, 0, 1e-3, 250)
    got = pullback_eval(T, SIN, sys, 1e-3, noise)
    assert got == pytest.approx(math.sin(2 * math.pi * 0.25), abs=1e-9)


# ---------------------------------------------------------------------------
# mean action

def mean_action(T, f, sys, t, dt, seed, n_paths):
    """Monte Carlo mean of T(f o phi_t) over n_paths, and its std error."""
    vals = pullback_values(T, [f], sys, t, dt, seed, range(n_paths))[0]
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_paths))


def test_mean_action_zero_system():
    sys = zero_system(1)
    T = DensityCurrent(manifold=T1, density=TILTED, grid_n=16)
    value, std_error = mean_action(T, SIN, sys, 1.0, 0.1, seed=3, n_paths=4)
    assert value == pytest.approx(evaluate_many(T, [SIN])[0], abs=1e-14)
    assert std_error == pytest.approx(0.0, abs=1e-15)
    assert pullback_values(T, [SIN], sys, 1.0, 0.1, seed=3, paths=range(4)).shape == (1, 4)


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
    run = EmpiricalRun(T, sys, basis, 1.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        empirical_check(run, "mean", 1)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        empirical_check(run, "mean")


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
    res = flow_with_jacobian(sys, T.points, 0.05, noise)  # (steps+1, P, 1)
    g = expr.parse("cos(2*pi*x1)")
    gvals = np.stack([expr.evaluate(g, res.trajectory[k]) for k in range(steps)])
    db = noise[:, 0]
    # T applied to x -> sum_k g(phi_k(x)) dB_k, versus the summed evaluations
    lhs = float(np.dot(T.weights, (gvals * db[:, None]).sum(axis=0)))
    rhs = float(sum(np.dot(T.weights, gvals[k]) * db[k] for k in range(steps)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_pullback_values_matches_pullback_eval():
    sys = translation_system(1)
    T = volume_current(T1, 8)
    basis = make_test_basis(T1, 1)
    vals = pullback_values(T, basis.functions, sys, 0.5, 1e-2, seed=7, paths=range(3))
    for p in range(3):
        noise = generate_noise(7, p, 1, 1e-2, 50)
        for k, f in enumerate(basis.functions):
            assert vals[k, p] == pytest.approx(
                pullback_eval(T, f, sys, 1e-2, noise), abs=1e-14)


# constant fields take the summed-increment path, trig fields the stepped
# one; the Heisenberg frame is constant on a 3-D support
CHUNKED_SYSTEMS = {"constant": translation_system(2),
                   "trig": hamiltonian_torus_system(),
                   "heisenberg": heisenberg_foliated_system()}
CHUNKED_BASIS = make_test_basis(T2, 1)


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(sorted(CHUNKED_SYSTEMS)),
       chunk_elems=st.integers(1, 700), n_paths=st.integers(1, 9))
def test_pullback_values_do_not_depend_on_chunking(label, chunk_elems, n_paths):
    # 16 support points in 2-D (64 in 3-D) and 10 steps of 2-D noise:
    # chunks of 1 path up to every path; a path's bits depend neither on
    # its chunk nor on how many paths run
    sys = CHUNKED_SYSTEMS[label]
    T = volume_current(sys.manifold, 4)
    args = (T, make_test_basis(sys.manifold, 1).functions, sys, 0.1, 0.01, 4)
    want = pullback_values(*args, paths=range(9))
    with mock.patch.object(currents, "_CHUNK_ELEMS", chunk_elems):
        got = pullback_values(*args, paths=range(n_paths))
    np.testing.assert_array_equal(got, want[:, :n_paths])


def test_pullback_chunks_count_the_noise():
    # one atom, 500 paths of 100 steps of 2-D noise, in chunks of 22
    # paths: a chunk sized on the support alone would hold 250 paths, and
    # the noise stream would draw 65 of their 100 steps in one block of
    # 0.26 MB (peak 1.4 MB, against 0.23 MB)
    sys = hamiltonian_torus_system()
    T = EmpiricalCurrent(manifold=T2, atoms=[[0.3, 0.7]], atom_weights=[1.0])
    args = (T, CHUNKED_BASIS.functions, sys, 0.1, 1e-3, 5, range(500))
    want = pullback_values(*args)
    with mock.patch.object(currents, "_CHUNK_ELEMS", 5_000):
        tracemalloc.start()
        try:
            got = pullback_values(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert peak < 400_000


def pullback_peak(steps):
    sys = StratonovichSystem(
        manifold=T1, drift=VectorFieldSpec.from_strings(["0.1"]),
        diffusions=(VectorFieldSpec.from_strings(["0.2*sin(2*pi*x1)"]),))
    T = EmpiricalCurrent(manifold=T1, atoms=[[0.3]], atom_weights=[1.0])
    functions = make_test_basis(T1, 1).functions
    pullback_values(T, functions, sys, 10 * 1e-3, 1e-3, 2, range(100))  # compile
    tracemalloc.start()
    try:
        pullback_values(T, functions, sys, steps * 1e-3, 1e-3, 2, range(100))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pullback_memory_does_not_grow_with_steps():
    # the whole noise of the longer run is 6.4 MB; one block is 256 KiB
    grown = pullback_peak(8000) - pullback_peak(1000)
    assert grown <= sde._BLOCK_BYTES


PATHS_BUDGET = 200_000  # _CHUNK_ELEMS of the tests below: 1.6 MB of floats


def pullback_pass(T, sys, basis, t, n_paths):
    return pullback_values(T, basis.functions, sys, t, 0.01, 1, range(n_paths))


def calibration_pass(T, sys, basis, t, n_paths):
    return calibrate_bias_constant(T, sys, basis, t, 0.01, 1, n_paths)


def paths_peak(run, n_paths):
    """The tracemalloc peak of run(T, sys, basis, t, n_paths) over n_paths
    paths of the Hamiltonian torus at _CHUNK_ELEMS = PATHS_BUDGET."""
    sys = hamiltonian_torus_system()
    T = volume_current(sys.manifold, 32)
    basis = make_test_basis(sys.manifold, 3)
    run(T, sys, basis, 0.02, 2)  # compile
    with mock.patch.object(currents, "_CHUNK_ELEMS", PATHS_BUDGET):
        tracemalloc.start()
        try:
            run(T, sys, basis, 0.05, n_paths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_pullback_memory_does_not_grow_with_paths():
    # per path, the Heun loop holds 20 arrays of the 1024 grid points and
    # the basis evaluation 9 besides the endpoints, so a chunk is 9 paths
    # (a chunk counting the states and noise alone held all 72: 12 MB)
    small, large = paths_peak(pullback_pass, 18), paths_peak(pullback_pass, 72)
    assert large <= 1.1 * small
    assert large < 1.25 * 8 * PATHS_BUDGET


def test_calibration_memory_does_not_grow_with_paths():
    # both passes are pullback_values chunks, the coarse one counting the
    # noise it draws at dt / 2 (flowing every path at once, the passes
    # peaked at 3.1 MB for 18 paths and 12.0 MB for 72)
    small = paths_peak(calibration_pass, 18)
    large = paths_peak(calibration_pass, 72)
    assert large <= 1.1 * small
    assert large < 1.25 * 8 * PATHS_BUDGET


def test_a_foliation_preset_pullback_is_one_chunk():
    # the heisenberg_foliation preset at 30 paths: 512 grid points, 1000 steps
    sys = heisenberg_foliated_system()
    T = volume_current(sys.manifold, 8)
    functions = make_test_basis(sys.manifold, 3).functions
    with mock.patch.object(currents, "flow_paths", wraps=sde.flow_paths) as flow:
        pullback_values(T, functions, sys, 1.0, 1e-3, 11, range(30))
    assert flow.call_count == 1


# ---------------------------------------------------------------------------
# one-shot passes: evaluate_many gives the values of one evaluate call
# per expression, bit for bit; the residual passes, which contract the
# fields' coefficients against the partials of the basis, agree with one
# evaluate call per apply_field tree up to rounding

ONE_SHOT_SYSTEMS = builtin_systems()
RESIDUAL_SYSTEMS = {**ONE_SHOT_SYSTEMS, "zero_circle": zero_system(1),
                    "zero_torus2": zero_system(2)}


def one_shot_currents(m):
    """The volume current, a non-unit density current and weighted atoms."""
    rng = np.random.default_rng(3)
    return [volume_current(m, 8),
            DensityCurrent(manifold=m, density=expr.parse("1.5 + 0.5*cos(2*pi*x1)"),
                           grid_n=6),
            EmpiricalCurrent(manifold=m, atoms=rng.uniform(0.0, 1.0, (5, m.dim)) * m.lengths,
                             atom_weights=rng.uniform(0.5, 1.5, 5))]


def residual_currents(m):
    """one_shot_currents plus the tilted density, which no built-in system
    that moves x1 leaves invariant: its residuals reach 0.15 to 5 there, so
    a comparison on it tests more than rounding noise."""
    return one_shot_currents(m) + [DensityCurrent(manifold=m, density=TILTED,
                                                  grid_n=16)]


def per_tree_generator_residuals(T, sys, basis):
    m = sys.manifold
    out = np.empty(len(basis))
    for k, f in enumerate(basis.functions):
        acc = 0.0
        if not sys.drift.is_zero:
            acc += current_eval(T, apply_field(m, sys.drift, f))
        for X in sys.diffusions:
            acc += 0.5 * current_eval(T, apply_field(m, X, apply_field(m, X, f)))
        out[k] = acc
    return out


def per_tree_derivative_currents(T, fields, functions):
    return [[derivative_current_eval(X, T, f) for f in functions] for X in fields]


def assert_matches_per_tree(got, want):
    """got equals the per-tree values want to 1e-12 of their largest
    magnitude (or absolutely, below 1)."""
    want = np.asarray(want, dtype=float)
    atol = 1e-12 * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.shape(got) == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("label", sorted(RESIDUAL_SYSTEMS))
def test_one_shot_residuals_equal_per_tree_route(label):
    sys = RESIDUAL_SYSTEMS[label]
    basis = make_test_basis(sys.manifold, 2)
    functions = basis.functions + (expr.parse("cos(2*pi*x1)*cos(2*pi*x1)"),)
    for T in residual_currents(sys.manifold):
        assert_matches_per_tree(generator_residuals(T, sys, basis),
                                per_tree_generator_residuals(T, sys, basis))
        assert_matches_per_tree(
            strict_residuals(T, sys, basis),
            per_tree_derivative_currents(T, sys.fields(), basis.functions))
        np.testing.assert_array_equal(evaluate_many(T, functions),
                                      [current_eval(T, f) for f in functions])
        # an iterator is consumed once, in order
        np.testing.assert_array_equal(evaluate_many(T, iter(functions)),
                                      evaluate_many(T, functions))


@pytest.mark.parametrize("real", [heisenberg_realization(),
                                  torus_translation_realization(2)],
                         ids=["heisenberg", "torus2"])
def test_frame_derivative_currents_equal_per_tree_route(real):
    basis = make_test_basis(real.manifold, 3)
    for T in residual_currents(real.manifold):
        assert_matches_per_tree(
            derivative_currents(T, real.frame, basis.functions),
            per_tree_derivative_currents(T, real.frame, basis.functions))


def lowered_counts(run):
    """run(), and the number of expressions each Functions batch lowered."""
    counts = []

    class Counting(expr.Functions):
        def __init__(self, functions, dim):
            super().__init__(functions, dim)
            counts.append(len(self))

    with mock.patch.object(expr, "Functions", Counting):
        run()
    return counts


def test_zero_coefficients_and_partials_are_skipped():
    # the Heisenberg foliated system has constant fields X = d/dx and
    # Z = d/dz and a zero drift; its basis is constant along z
    sys = builtin_systems()["heisenberg_foliation"]
    T = volume_current(sys.manifold, 4)
    basis = make_test_basis(sys.manifold, 1)
    # strict: rows X^1 and Z^3; d_3 f is zero, so only d_1 f is lowered,
    # for the 6 of 9 functions that depend on x
    assert lowered_counts(lambda: strict_residuals(T, sys, basis)) == [2, 6]
    # generator: b = 0 and A^{13} = 0; rows A^{11} and A^{33}
    assert lowered_counts(lambda: generator_residuals(T, sys, basis)) == [2, 6]
    # no fields, no rows and nothing lowered; exact zeros
    zero = zero_system(2)
    T = volume_current(zero.manifold, 4)
    basis = make_test_basis(zero.manifold, 1)
    assert lowered_counts(lambda: generator_residuals(T, zero, basis)) == []


def trig_component():
    """sum of up to three terms c * (1|cos|sin)(2 pi k x1) * (1|cos|sin)(2 pi k x2)."""
    factor = st.sampled_from(["1", "cos", "sin"])
    term = st.tuples(st.floats(-2.0, 2.0, allow_nan=False), factor,
                     st.integers(1, 2), factor, st.integers(1, 2))

    def render(terms):
        parts = []
        for c, f1, k1, f2, k2 in terms:
            text = repr(c)
            for f, k, axis in ((f1, k1, 1), (f2, k2, 2)):
                if f != "1":
                    text += f"*{f}(2*pi*{k}*x{axis})"
            parts.append(f"({text})")
        return " + ".join(parts) or "0"

    return st.lists(term, max_size=3).map(render)


trig_field = st.tuples(trig_component(), trig_component()).map(
    VectorFieldSpec.from_strings)


@settings(max_examples=25, deadline=None)
@given(drift=trig_field, diffusions=st.lists(trig_field, max_size=2))
def test_residuals_of_random_trig_fields_equal_per_tree_route(drift, diffusions):
    sys = StratonovichSystem(manifold=T2, drift=drift, diffusions=tuple(diffusions))
    basis = make_test_basis(T2, 2)
    for T in (volume_current(T2, 8), DensityCurrent(manifold=T2, density=TILTED,
                                                    grid_n=8)):
        assert_matches_per_tree(generator_residuals(T, sys, basis),
                                per_tree_generator_residuals(T, sys, basis))
        assert_matches_per_tree(
            strict_residuals(T, sys, basis),
            per_tree_derivative_currents(T, sys.fields(), basis.functions))


def weigh(values, T):
    """T(f) per path from f's values (paths, support), each row summed
    in one order whatever the number of rows, as pullback_values does
    (a matrix-vector product's order depends on the row count)."""
    return np.einsum("...i,i->...", values, T.weights)


def stacked_noise(seed, n_paths, m, dt, steps):
    """The per-path streams of generate_noise, (n_paths, steps, m)."""
    return np.array([generate_noise(seed, p, m, dt, steps)
                     for p in range(n_paths)])


@pytest.mark.parametrize("label", sorted(ONE_SHOT_SYSTEMS))
def test_pullback_values_equal_per_tree_route(label):
    sys = ONE_SHOT_SYSTEMS[label]
    t, dt, seed, n_paths = 0.05, 0.01, 6, 3
    functions = make_test_basis(sys.manifold, 1).functions + (
        expr.parse(f"sin(2*pi*x{sys.manifold.dim})"),)
    inc = stacked_noise(seed, n_paths, sys.m, dt, 5)
    for T in one_shot_currents(sys.manifold):
        ends = flow_endpoints(sys, T.points, dt, inc[:, None])
        want = [weigh(expr.evaluate(f, ends), T) for f in functions]
        np.testing.assert_array_equal(
            pullback_values(T, functions, sys, t, dt, seed, range(n_paths)), want)


def test_calibrate_bias_constant_equals_per_tree_route():
    sys = hamiltonian_torus_system()
    T = volume_current(sys.manifold, 4)
    basis = make_test_basis(sys.manifold, 1)
    t, dt, seed, n_paths = 0.1, 0.02, 1, 4
    fine = stacked_noise(seed, n_paths, sys.m, dt / 2, 10)
    coarse = fine.reshape(n_paths, 5, 2, sys.m).sum(axis=2)
    ends_fine = flow_endpoints(sys, T.points, dt / 2, fine[:, None])
    ends_coarse = flow_endpoints(sys, T.points, dt, coarse[:, None])
    diffs = [abs(float(np.mean(weigh(expr.evaluate(f, ends_coarse), T))
                       - np.mean(weigh(expr.evaluate(f, ends_fine), T))))
             for f in basis.functions]
    assert calibrate_bias_constant(T, sys, basis, t, dt, seed, n_paths) == \
        2.0 * max(diffs) / dt


def test_generator_residual_pass_memory_stays_bounded():
    # temporaries are dropped after their last use; what stays live is
    # the (rows, support) coefficient matrix, the cos/sin tables and the
    # partials of one function, plus the code: 1.16 MB on a first call
    sys = hamiltonian_torus_system()
    T = volume_current(sys.manifold, 64)
    basis = make_test_basis(sys.manifold, 3)
    tracemalloc.start()
    try:
        generator_residuals(T, sys, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# tracemalloc peak of the second generator_residuals call below on the
# per-tree route that the contraction replaced (one apply_field tree per
# term, 98 trees): 1,742,363 bytes (1,909,637 on a first call, which
# also builds the derivative memos); Python 3.11, numpy 2.4
PER_TREE_GENERATOR_PEAK = 1_742_363


def test_generator_contraction_memory_stays_under_the_per_tree_route():
    # stacking every partial of the basis before contracting would hold
    # 49 functions x 5 partials x 4096 points, 8 MB
    sys = hamiltonian_torus_system()
    T = volume_current(T2, 64)
    basis = make_test_basis(T2, 3)
    generator_residuals(T, sys, basis)  # the derivative memos, as measured
    tracemalloc.start()
    try:
        generator_residuals(T, sys, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PER_TREE_GENERATOR_PEAK
