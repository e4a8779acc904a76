import csv
import functools
import io
import math
import tracemalloc

import numpy as np
import pytest

from example_systems import (
    builtin_systems,
    multiplicative_circle_system,
    translation_bm_system,
)
from example_systems import hamiltonian_torus_system as hamiltonian_system
from oracles import fd_jacobian, quotient_gap
from stochflow import expr, sde
from stochflow.invariance import jacobian_check
from stochflow.manifold import (
    ChartedManifold,
    ConfigurationError,
    InvalidPointError,
    StratonovichSystem,
    VectorFieldSpec,
    heisenberg_frame,
    heisenberg_manifold,
    product_divergence_expr,
    torus,
)
from stochflow.sde import (
    flow_endpoints,
    flow_paths,
    flow_with_jacobian,
    generate_noise,
    noise_blocks,
    write_trajectory_csv,
)

T1 = torus(1.0)
T2 = torus(1.0, 1.0)


def translation_system(dim=1):
    m = torus(*([1.0] * dim))
    fields = []
    for i in range(dim):
        comps = ["0"] * dim
        comps[i] = "1"
        fields.append(VectorFieldSpec.from_strings(comps))
    return StratonovichSystem(manifold=m, drift=VectorFieldSpec.zero(dim),
                              diffusions=tuple(fields))


def sin_drift_system():
    return StratonovichSystem(manifold=T1,
                              drift=VectorFieldSpec.from_strings(["sin(2*pi*x1)"]),
                              diffusions=())


def circle_distance(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# noise

def test_noise_is_deterministic_and_reproducible():
    a = generate_noise(123, 5, 2, 0.01, 50)
    assert a.shape == (50, 2) and not a.flags.writeable
    b = generate_noise(123, 5, 2, 0.01, 50)
    assert np.array_equal(a, b)
    c = generate_noise(123, 6, 2, 0.01, 50)
    assert not np.array_equal(a, c)
    d = generate_noise(124, 5, 2, 0.01, 50)
    assert not np.array_equal(a, d)


def noise_matrix(seed, paths, m, dt, steps):
    """The reference layout of many paths' noise: the per-path streams
    of generate_noise stacked, shape (len(paths), steps, m)."""
    return np.array([generate_noise(seed, p, m, dt, steps) for p in paths])


@pytest.mark.parametrize("rows", [1, 97, 250, 1000])
def test_noise_blocks_equal_noise_matrix(rows, monkeypatch):
    # 250 steps: blocks of one step, uneven blocks, one block, and a block
    # budget larger than the whole run; paths 3..7 draw the streams of
    # their own indices
    paths, m, steps = range(3, 8), 2, 250
    monkeypatch.setattr(sde, "_BLOCK_BYTES", rows * 8 * m * len(paths))
    blocks = list(noise_blocks(4, paths, m, 0.01, steps))
    assert [b.shape[0] for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert all(b.shape[1:] == (m, len(paths)) for b in blocks)
    whole = np.moveaxis(noise_matrix(4, paths, m, 0.01, steps), 0, -1)
    assert np.array_equal(np.concatenate(blocks), whole)


def test_noise_blocks_validate_when_called():
    with pytest.raises(ValueError):
        noise_blocks(0, range(2), 1, 0.1, 0)
    with pytest.raises(ValueError):
        noise_blocks(0, range(2), 1, -0.1, 10)


def test_flow_paths_validates_like_generate_noise():
    # every flow streams noise_blocks, constant fields too; a
    # divergence-free volume run draws nothing and validates the same
    for sys, consumer in ((translation_bm_system(1), "endpoints"),
                          (sin_drift_system(), "endpoints"),
                          (sin_drift_system(), "trajectory"),
                          (translation_bm_system(1), "volume")):
        for dt, steps in ((0.1, 0), (-0.1, 10)):
            with pytest.raises(ValueError):
                flow_paths(sys, consumer, [0.3], dt, steps, 0, range(2))


def test_noise_moments():
    dt = 0.01
    draws = noise_matrix(3, range(100), 1, dt, 1000).ravel()  # 1e5 draws
    assert draws.size == 100000
    assert abs(draws.mean()) < 4 * math.sqrt(dt) / math.sqrt(draws.size)
    assert abs(draws.var() - dt) < 0.05 * dt


def test_noise_validation():
    with pytest.raises(ValueError):
        generate_noise(0, 0, 1, -0.1, 10)
    with pytest.raises(ValueError):
        generate_noise(0, 0, 1, 0.1, 0)


@pytest.mark.parametrize("seed,path_index", [(-1, 0), (2 ** 64, 0), (0, -1),
                                             (0, 2 ** 64)])
def test_noise_keys_outside_64_bits_are_rejected(seed, path_index):
    # the seed is the 64-bit Philox key and the path index the upper 64
    # bits of its counter: -1 would draw the stream of 2**64 - 1, and
    # 2**64 that of 0
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        generate_noise(seed, path_index, 1, 0.1, 3)
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        list(noise_blocks(seed, range(path_index, path_index + 1), 1, 0.1, 3))
    if path_index == 0:  # a bad seed raises for no paths too, on every route
        with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
            noise_blocks(seed, range(0), 1, 0.1, 3)
        for sys in (translation_bm_system(), hamiltonian_system()):
            for consumer in ("endpoints", "trajectory", "volume"):
                with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
                    flow_paths(sys, consumer, [0.3, 0.7], 0.1, 3, seed, range(0))
    top = 2 ** 64 - 1
    assert generate_noise(top, top, 1, 0.1, 3).shape == (3, 1)


def test_coarsen_noise_sums_increments(monkeypatch):
    # a factor of 5: each block of rows coarse steps draws 5 * rows fine
    # ones and sums them in fives
    paths, m = range(2), 2
    fine = noise_matrix(7, paths, m, 0.01, 50)
    coarse = fine.reshape(2, 10, 5, m).sum(axis=2)
    np.testing.assert_allclose(coarse[0, 0], fine[0, :5].sum(axis=0))
    for rows in (1, 3, 1000):
        monkeypatch.setattr(sde, "_BLOCK_BYTES", rows * 8 * m * 5 * len(paths))
        blocks = list(noise_blocks(7, paths, m, 0.05, 10, factor=5))
        assert [b.shape for b in blocks[:-1]] == [(rows, m, 2)] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), np.moveaxis(coarse, 0, -1))


# ---------------------------------------------------------------------------
# single steps

def one_step(sys, x, db, dt):
    """One Heun step through flow_endpoints; db holds the m noise increments."""
    return flow_endpoints(sys, x, dt, np.asarray(db, dtype=float).reshape(1, -1))


def test_heun_step_zero_fields():
    sys = StratonovichSystem(manifold=T2, drift=VectorFieldSpec.zero(2),
                             diffusions=(VectorFieldSpec.zero(2),))
    x = np.array([0.4, 0.6])
    np.testing.assert_array_equal(one_step(sys, x, [0.3], 0.1), x)


def test_heun_step_constant_drift_exact():
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.from_strings(["1"]),
                             diffusions=())
    out = one_step(sys, np.array([0.25]), [], 0.1)
    assert float(out[0]) == pytest.approx(0.35, abs=1e-15)


def test_heun_step_additive_noise_exact():
    sys = translation_system(1)
    w = 0.3173
    out = one_step(sys, np.array([0.9]), [w], 0.01)
    assert float(out[0]) == pytest.approx((0.9 + w) % 1.0, abs=1e-15)


def test_heun_step_shape_mismatch():
    sys = translation_system(1)
    with pytest.raises(ConfigurationError):  # too many noise components
        flow_endpoints(sys, np.array([0.0]), 0.1, np.full((10, 3), 0.03))
    with pytest.raises(ConfigurationError):  # too few
        flow_endpoints(sys, np.array([0.0]), 0.1, np.zeros((10, 0)))


# ---------------------------------------------------------------------------
# flows

def test_flow_zero_system_constant_trajectory():
    sys = StratonovichSystem(manifold=T2, drift=VectorFieldSpec.zero(2),
                             diffusions=())
    noise = generate_noise(0, 0, 0, 0.1, 10)
    res = flow_with_jacobian(sys, [0.2, 0.7], 0.1, noise)
    np.testing.assert_array_equal(res.trajectory,
                                  np.tile([0.2, 0.7], (11, 1)))


def test_flow_additive_noise_closed_form():
    sys = translation_system(1)
    noise = generate_noise(11, 3, 1, 0.001, 1000)
    res = flow_with_jacobian(sys, [0.3], 0.001, noise)
    want = (0.3 + noise.sum()) % 1.0
    assert circle_distance(float(res.trajectory[-1, 0]), want) < 1e-12


def test_flow_deterministic_rotation_exact():
    alpha = math.sqrt(2)
    sys = StratonovichSystem(
        manifold=T2, drift=VectorFieldSpec.from_strings(["1", f"{alpha!r}"]),
        diffusions=())
    noise = generate_noise(0, 0, 0, 1e-3, 1000)
    res = flow_with_jacobian(sys, [0.1, 0.2], 1e-3, noise)
    want = np.array([(0.1 + 1.0) % 1.0, (0.2 + alpha) % 1.0])
    assert np.max(np.abs(res.trajectory[-1] - want)) < 1e-12


def test_flow_noise_shape_mismatch():
    sys = translation_system(2)
    noise = generate_noise(0, 0, 1, 0.1, 10)  # one component, system has two
    with pytest.raises(ConfigurationError,
                       match="noise has 1 components, system has 2"):
        flow_with_jacobian(sys, [0.0, 0.0], 0.1, noise)


def test_flow_results_bitwise_deterministic():
    sys = hamiltonian_system()
    noise = generate_noise(21, 2, 2, 0.01, 100)
    r1 = flow_with_jacobian(sys, [0.3, 0.4], 0.01, noise)
    r2 = flow_with_jacobian(sys, [0.3, 0.4], 0.01,
                            generate_noise(21, 2, 2, 0.01, 100))
    assert np.array_equal(r1.trajectory, r2.trajectory)
    assert np.array_equal(r1.log_jacobian, r2.log_jacobian)


def test_flow_trajectory_is_canonical_and_starts_at_x0():
    sys = translation_system(1)
    noise = generate_noise(5, 0, 1, 0.05, 200)
    res = flow_with_jacobian(sys, [0.99], 0.05, noise)
    assert res.trajectory[0][0] == pytest.approx(0.99)
    assert np.all(res.trajectory >= 0) and np.all(res.trajectory < 1)


# ---------------------------------------------------------------------------
# jacobian co-evolution

def test_jacobian_zero_system_is_one():
    sys = StratonovichSystem(manifold=T1, drift=VectorFieldSpec.zero(1),
                             diffusions=())
    noise = generate_noise(0, 0, 0, 0.1, 10)
    res = flow_with_jacobian(sys, [0.5], 0.1, noise)
    np.testing.assert_array_equal(res.log_jacobian, np.zeros(11))
    assert fd_jacobian(sys, [0.5], 0.1, noise) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_divergence_free_pathwise():
    sys = hamiltonian_system()
    for p in range(3):
        noise = generate_noise(17, p, 2, 1e-3, 1000)
        res = flow_with_jacobian(sys, [0.25, 0.6], 1e-3, noise)
        assert np.max(np.abs(res.log_jacobian)) < 1e-2
        fd = fd_jacobian(sys, [0.25, 0.6], 1e-3, noise)
        assert fd == pytest.approx(1.0, abs=1e-2)


def test_zero_divergences_leave_log_j_exactly_zero():
    # the Hamiltonian divergences are zero as functions but round to
    # about 1e-16 when evaluated; the compiled step leaves them out
    sys = hamiltonian_system()
    assert all(expr.is_identically_zero(product_divergence_expr(sys.manifold, f))
               for f in sys.fields())
    noise = generate_noise(17, 0, 2, 1e-2, 50)
    pts = [[0.25, 0.6], [0.9, 0.05]]
    res = flow_with_jacobian(sys, pts, 1e-2, noise)
    np.testing.assert_array_equal(res.log_jacobian, np.zeros((51, 2)))
    # the states are those of the step without log J
    ends = flow_endpoints(sys, pts, 1e-2, noise)
    np.testing.assert_array_equal(res.trajectory[-1], ends)
    rep = jacobian_check(sys, pts[0], 0.5, 1e-2, seed=3, n_paths=4)
    assert rep.residual == 0.0
    assert all(row["value"] == 0.0 for row in rep.per_basis)


def test_sin_drift_divergence_is_not_zero():
    sys = sin_drift_system()
    assert not expr.is_identically_zero(product_divergence_expr(T1, sys.drift))
    noise = generate_noise(0, 0, 0, 1e-2, 10)
    assert flow_with_jacobian(sys, [0.1], 1e-2, noise).log_jacobian[-1] > 0.1


@pytest.mark.parametrize("field, message", [
    (VectorFieldSpec.from_strings(["1e999"]), "diffusion 1 component 1 is inf"),
    (VectorFieldSpec(dim=1, components=(expr.parse("0*1e999"),)),
     "diffusion 1 component 1 is nan"),
])
def test_non_finite_field_is_rejected_at_construction(field, message):
    with pytest.raises(ConfigurationError, match=message):
        StratonovichSystem(manifold=T1, drift=VectorFieldSpec.zero(1),
                           diffusions=(field,))
    with pytest.raises(ConfigurationError, match="drift component 2 is inf"):
        StratonovichSystem(manifold=T2, drift=VectorFieldSpec.from_strings(["0", "1e999"]),
                           diffusions=())


def test_jacobian_sin_field_reference_and_fd():
    sys = sin_drift_system()
    dt = 1e-3
    noise = generate_noise(0, 0, 0, dt, 1000)
    res = flow_with_jacobian(sys, [0.25], dt, noise)
    j_coarse = np.exp(res.log_jacobian[-1])
    fine = generate_noise(0, 0, 0, dt / 100, 100000)
    j_ref = np.exp(flow_with_jacobian(sys, [0.25], dt / 100, fine).log_jacobian[-1])
    assert abs(j_coarse - j_ref) / j_ref < 1e-3
    fd = fd_jacobian(sys, [0.25], dt, noise)
    assert abs(fd - j_coarse) / j_coarse < 1e-2


def test_fd_jacobian_uses_minimal_image_across_seam():
    sys = translation_system(1)
    noise = generate_noise(31, 0, 1, 0.01, 100)
    # start next to the seam; translation flow has jacobian exactly 1
    assert fd_jacobian(sys, [0.999], 0.01, noise) == pytest.approx(1.0, abs=1e-10)


def test_flow_endpoints_batches_match_single_runs():
    sys = hamiltonian_system()
    noise = generate_noise(3, 0, 2, 0.01, 50)
    pts = np.array([[0.1, 0.2], [0.5, 0.6], [0.9, 0.1]])
    batch = flow_endpoints(sys, pts, 0.01, noise)
    for i, p in enumerate(pts):
        single = flow_with_jacobian(sys, p, 0.01, noise).trajectory[-1]
        np.testing.assert_array_equal(batch[i], single)


def test_heisenberg_flow_stays_canonical():
    m = heisenberg_manifold()
    X, Y, Z = heisenberg_frame()
    sys = StratonovichSystem(manifold=m, drift=VectorFieldSpec.zero(3),
                             diffusions=(X, Y, Z))
    noise = generate_noise(8, 0, 3, 0.01, 500)
    res = flow_with_jacobian(sys, [0.5, 0.5, 0.5], 0.01, noise)
    assert np.all(res.trajectory >= 0) and np.all(res.trajectory < 1)


# ---------------------------------------------------------------------------
# csv export

def test_trajectory_csv_columns():
    sys = translation_system(2)
    noise = generate_noise(1, 0, 2, 0.5, 2)
    res = flow_with_jacobian(sys, [0.1, 0.2], 0.5, noise)
    buf = io.StringIO()
    write_trajectory_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2,logJ"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.1)
    assert float(first[3]) == 0.0


def test_trajectory_csv_formats_like_numpy_scalars():
    third = np.nextafter(1 / 3, 1.0)  # 1 ulp above the double nearest 1/3
    traj = np.array([[0.1, -0.25], [5e-324, -1e-300], [third, -third],
                     [np.nextafter(1.0, 0.0), -0.0]])
    res = sde.FlowResult(dt=1e-4, trajectory=traj,
                         log_jacobian=np.array([0.0, -1e-17, third, -7.5]))
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["t", "x1", "x2", "logJ"])
    for k, t in enumerate(res.times):  # numpy scalars, formatted one by one
        writer.writerow([f"{t:.12g}"] + [f"{v:.17g}" for v in res.trajectory[k]]
                        + [f"{res.log_jacobian[k]:.17g}"])
    got = io.StringIO()
    write_trajectory_csv(res, got)
    assert got.getvalue() == want.getvalue()
    assert "4.9406564584124654e-324" in got.getvalue()


def csv_writer_trajectory(result, fileobj):
    """The csv.writer trajectory export that write_trajectory_csv replaced,
    kept as its byte oracle."""
    dim = result.trajectory.shape[-1]
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(dim)] + ["logJ"])
    times = result.times
    for s in range(0, len(times), 256):
        rows = slice(s, s + 256)
        writer.writerows(
            [f"{t:.12g}", *(f"{v:.17g}" for v in x), f"{logj:.17g}"]
            for t, x, logj in zip(times[rows].tolist(),
                                  result.trajectory[rows].tolist(),
                                  result.log_jacobian[rows].tolist()))


@pytest.mark.parametrize("rows", [255, 256, 257])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_trajectory_csv_bytes_match_the_csv_writer_export(dim, rows):
    assert sde._FLOAT_ROWS == 256  # the row counts straddle one chunk
    rng = np.random.default_rng(dim * 1000 + rows)
    traj = rng.uniform(0.0, 1.0, size=(rows, dim))
    logj = rng.standard_normal(rows) * 1e-3
    # edge values on both sides of the chunk boundary and at the ends
    for k in {0, rows - 1, 254, 255, 256} & set(range(rows)):
        traj[k] = [-0.0, 5e-324, 1e300][:dim]
        logj[k] = -1e300 if k % 2 else 5e-324
    logj[rows // 2] = -2.5
    logj[rows // 3] = 1e-300
    res = sde.FlowResult(dt=1e-4, trajectory=traj, log_jacobian=logj)
    want, got = io.StringIO(newline=""), io.StringIO(newline="")
    csv_writer_trajectory(res, want)
    write_trajectory_csv(res, got)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().count("\r\n") == rows + 1
    assert "-0," in got.getvalue() and "4.9406564584124654e-324" in got.getvalue()


# ---------------------------------------------------------------------------
# reference-loop oracle: every integrator must reproduce a plain Heun loop
# that wraps after every step. The integrators step unwrapped coordinates
# and add constant fields up in one sum, so they agree to rounding, not
# bit for bit.

def reference_heun(sys, x0, dt, increments):
    """Per-step Heun loop with log J; returns (trajectory, log J) over t_k.

    Written out independently of stochflow.sde: increments (..., steps, m)
    broadcast against x0 (..., dim), dB^0 = dt.
    """
    def step_increment(x, db):
        out = None
        if not sys.drift.is_zero:
            out = sys.drift(x) * dt
        for i, f in enumerate(sys.diffusions):
            term = f(x) * db[..., i][..., None]
            out = term if out is None else out + term
        return np.zeros(np.shape(x)) if out is None else out

    def div_increment(x, db):
        out = None
        for i, fn in enumerate(div_fns):
            if fn is None:
                continue
            vals = fn(x)
            term = vals * dt if i == 0 else vals * db[..., i - 1]
            out = term if out is None else out + term
        return np.zeros(np.shape(x)[:-1]) if out is None else out

    div_fns = [None if f.is_zero else functools.partial(
                   expr.evaluate, product_divergence_expr(sys.manifold, f))
               for f in sys.fields()]
    x0 = np.asarray(x0, dtype=float)
    lead = np.broadcast_shapes(x0.shape[:-1], increments.shape[:-2])
    x = np.broadcast_to(sys.manifold.wrap(x0), lead + x0.shape[-1:]).copy()
    logj = np.zeros(lead)
    traj, logjs = [x], [logj]
    for k in range(increments.shape[-2]):
        db = increments[..., k, :]
        pred = step_increment(x, db)
        pred_l = div_increment(x, db)
        xbar = x + pred
        corr = step_increment(xbar, db)
        corr_l = div_increment(xbar, db)
        x = sys.manifold.wrap(x + 0.5 * (pred + corr))
        logj = logj + 0.5 * (pred_l + corr_l)
        traj.append(x)
        logjs.append(logj)
    return np.array(traj), np.array(logjs)


def heisenberg_frame_system():
    X, Y, Z = heisenberg_frame()
    return StratonovichSystem(manifold=heisenberg_manifold(),
                              drift=VectorFieldSpec.zero(3), diffusions=(X, Y, Z))


# label -> (system, dt, steps, whether flow_with_jacobian wraps on the way)
ORACLE_CASES = {
    **{label: (sys, 0.01, 25, False) for label, sys in builtin_systems().items()},
    # long enough for the states to cross the seam and pass the re-wrap bound
    "heisenberg_frame": (heisenberg_frame_system(), 0.05, 400, True),
}


@pytest.mark.parametrize("label", sorted(ORACLE_CASES))
def test_integrators_match_reference_loop(label, monkeypatch):
    sys, dt, steps, wraps_midway = ORACLE_CASES[label]
    dim, n_paths = sys.manifold.dim, 3
    close = dict(rtol=0, atol=1e-12)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(4, dim)) * sys.manifold.lengths
    noise = generate_noise(2, 0, sys.m, dt, steps)

    wraps = []
    wrap = ChartedManifold.wrap
    monkeypatch.setattr(ChartedManifold, "wrap",
                        lambda self, p: wraps.append(1) or wrap(self, p))
    res = flow_with_jacobian(sys, pts, dt, noise)
    # one wrap of x0, one of the recorded trajectory, and the re-wraps
    assert (len(wraps) > 2) == wraps_midway
    monkeypatch.undo()
    want_traj, want_logj = reference_heun(sys, pts, dt, noise)
    np.testing.assert_allclose(res.trajectory, want_traj, **close)
    np.testing.assert_allclose(res.log_jacobian, want_logj, **close)

    inc = noise_matrix(2, range(n_paths), sys.m, dt, steps)[:, None]
    ends = flow_endpoints(sys, pts, dt, inc)
    np.testing.assert_allclose(ends, reference_heun(sys, pts, dt, inc)[0][-1], **close)

    rep = jacobian_check(sys, pts[0], steps * dt, dt, seed=2, n_paths=n_paths)
    _, logj = reference_heun(sys, pts[0], dt, inc[:, 0])
    worst = np.max(np.abs(np.exp(logj) - 1.0), axis=0)
    np.testing.assert_allclose([r["value"] for r in rep.per_basis], worst, **close)
    np.testing.assert_allclose(rep.residual, np.max(worst), **close)


def test_non_finite_state_names_its_step():
    sys = StratonovichSystem(manifold=T1,
                             drift=VectorFieldSpec.from_strings(["1/sin(2*pi*x1)"]),
                             diffusions=())
    noise = generate_noise(0, 0, 0, 0.01, 10)
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidPointError, match=r"step 1, point \(\)"):
            flow_endpoints(sys, [0.0], 0.01, noise)
        with pytest.raises(InvalidPointError, match=r"step 1, point \(1,\)"):
            flow_with_jacobian(sys, [[0.25], [0.0]], 0.01, noise)


# ---------------------------------------------------------------------------
# one point: the float loop gives the bits of the array loop

def exp_divergence_system():
    return StratonovichSystem(
        manifold=T1, drift=VectorFieldSpec.from_strings(["0.3*exp(sin(2*pi*x1))"]),
        diffusions=(VectorFieldSpec.from_strings(["0.2*cos(2*pi*x1)"]),))


POINT_CASES = {
    **{label: (sys, dt, max(steps, 300)) for label, (sys, dt, steps, _)
       in ORACLE_CASES.items()},
    "exp_divergence": (exp_divergence_system(), 0.01, 300),
}


@pytest.mark.parametrize("label", sorted(POINT_CASES))
def test_one_point_runs_equal_rows_of_the_batch(label):
    sys, dt, steps = POINT_CASES[label]
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(3, sys.manifold.dim)) * sys.manifold.lengths
    noise = generate_noise(4, 0, sys.m, dt, steps)
    batch = flow_with_jacobian(sys, pts, dt, noise)
    inc = noise_matrix(4, range(3), sys.m, dt, steps)
    ends = flow_endpoints(sys, pts, dt, inc)
    for i, p in enumerate(pts):
        one = flow_with_jacobian(sys, p, dt, noise)
        np.testing.assert_array_equal(one.trajectory, batch.trajectory[:, i])
        np.testing.assert_array_equal(one.log_jacobian, batch.log_jacobian[:, i])
        np.testing.assert_array_equal(flow_endpoints(sys, p, dt, inc[i]), ends[i])
    one = jacobian_check(sys, pts[0], steps * dt, dt, seed=4, n_paths=1)
    rows = jacobian_check(sys, pts[0], steps * dt, dt, seed=4, n_paths=3)
    assert one.per_basis[0]["value"] == rows.per_basis[0]["value"]
    if label == "exp_divergence":
        assert np.all(batch.log_jacobian[1:] != 0.0)  # log J was carried


def exp_bump_system():
    # at x1 = 0 the drift divides 1 by 0.0: Python raises, numpy gives
    # exp(-inf) = 0 and steps on, and the divergence is 0 * inf = nan
    return StratonovichSystem(
        manifold=T1,
        drift=VectorFieldSpec.from_strings(["exp(-1/(sin(2*pi*x1)*sin(2*pi*x1)))"]),
        diffusions=(VectorFieldSpec.from_strings(["1"]),))


def test_one_point_block_redone_on_arrays_where_python_raises(monkeypatch):
    sys = exp_bump_system()
    monkeypatch.setattr(sde, "_BLOCK_BYTES", 8 * 50)  # 50 steps per block
    pts = np.array([[0.0], [0.3], [0.7]])
    noise = generate_noise(9, 0, 1, 0.01, 200)
    with np.errstate(all="ignore"):
        one = flow_endpoints(sys, pts[0], 0.01, noise)
        # the first block ran on arrays, the later ones on floats again
        assert {("loop", "endpoints", "point"),
                ("loop", "endpoints", "array")} <= set(sys._compiled)
        batch = flow_endpoints(sys, pts, 0.01, noise)
        inc = noise_matrix(9, range(3), 1, 0.01, 200)
        ends = flow_endpoints(sys, pts, 0.01, inc)
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(flow_endpoints(sys, p, 0.01, inc[i]),
                                          ends[i])
        # the log J these runs leave out is nan from the first step
        with pytest.raises(InvalidPointError,
                           match=r"non-finite log J at step 1, point \(\)"):
            flow_with_jacobian(sys, pts[0], 0.01, noise)
    assert np.all(np.isfinite(one))
    np.testing.assert_array_equal(one, batch[0])


def test_non_finite_log_j_names_its_step():
    with np.errstate(all="ignore"):
        sys = exp_bump_system()
        with pytest.raises(InvalidPointError, match=r"log J at step 1, point \(0,\)"):
            jacobian_check(sys, [0.0], 0.03, 0.01, seed=0, n_paths=3)
        noise = generate_noise(0, 0, 1, 0.01, 3)
        for x0, where in (([[0.0], [0.3]], r"\(0,\)"), ([[0.3], [0.0]], r"\(1,\)")):
            with pytest.raises(InvalidPointError,
                               match=rf"log J at step 1, point {where}"):
                flow_with_jacobian(sys, x0, 0.01, noise)
        # log J overflows at step 3 while the state stays at 0, where
        # Python floats raise nothing: the one-point loop tests log J itself
        sys = StratonovichSystem(manifold=T1,
                                 drift=VectorFieldSpec.from_strings(["sin(2*pi*x1)"]))
        noise = generate_noise(0, 0, 0, 1e307, 5)
        for x0, where in (([0.0], r"\(\)"), ([[0.0], [0.0]], r"\(0,\)")):
            with pytest.raises(InvalidPointError,
                               match=rf"log J at step 3, point {where}"):
                flow_with_jacobian(sys, x0, 1e307, noise)
        with pytest.raises(InvalidPointError, match=r"log J at step 3, point \(0,\)"):
            jacobian_check(sys, [0.0], 5e307, 1e307, seed=0, n_paths=1)


def test_one_point_runs_take_the_float_loop():
    sys = hamiltonian_system()
    loops = sys._compiled  # the loop cache, keyed (loop, consumer, back end)
    noise = generate_noise(0, 0, 2, 0.01, 300)
    flow_with_jacobian(sys, [0.1, 0.2], 0.01, noise)
    assert [key for key in loops if key[0] == "loop"] == [
        ("loop", "trajectory", "point")]
    point = loops["loop", "trajectory", "point"]
    calls = []
    loops["loop", "trajectory", "point"] = (
        lambda *args: calls.append(1) or point(*args))
    flow_with_jacobian(sys, [[0.3, 0.4]], 0.01, noise)  # lead (1,)
    assert calls == [1]
    assert ("loop", "trajectory", "array") not in loops  # no fallback
    flow_with_jacobian(sys, [[0.1, 0.2], [0.3, 0.4]], 0.01, noise)
    assert calls == [1]
    assert ("loop", "trajectory", "array") in loops
    batched = hamiltonian_system()
    flow_endpoints(batched, [[0.1, 0.2], [0.3, 0.4]], 0.01, noise)
    jacobian_check(batched, [0.1, 0.2], 1.0, 0.01, seed=0, n_paths=2)
    # the Hamiltonian fields carry no log J: the check compiles no loop
    assert [key for key in batched._compiled if key[0] == "loop"] == [
        ("loop", "endpoints", "array")]
    carried = exp_divergence_system()
    jacobian_check(carried, [0.1], 1.0, 0.01, seed=0, n_paths=2)
    assert [key for key in carried._compiled if key[0] == "loop"] == [
        ("loop", "volume", "array")]


# ---------------------------------------------------------------------------
# noise blocks: results do not depend on where the step loop's blocks end

def drifting_circle_system():
    # moves about one box length per unit time and carries log J
    return StratonovichSystem(
        manifold=T1, drift=VectorFieldSpec.from_strings(["1 + 0.2*sin(2*pi*x1)"]),
        diffusions=(VectorFieldSpec.from_strings(["0.3*cos(2*pi*x1)"]),))


BLOCK_CASES = {
    "hamiltonian": (hamiltonian_system(), 0.01, 60),
    # these two cross the seam and pass the re-wrap bound; the Heisenberg
    # frame is divergence-free, the drifting circle carries log J
    "heisenberg_frame": (heisenberg_frame_system(), 0.05, 400),
    "drifting_circle": (drifting_circle_system(), 0.05, 400),
}


def integrate_all(sys, dt, steps):
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 1.0, size=(3, sys.manifold.dim)) * sys.manifold.lengths
    noise = generate_noise(6, 1, sys.m, dt, steps)
    res = flow_with_jacobian(sys, pts, dt, noise)
    inc = noise_matrix(6, range(4), sys.m, dt, steps)[:, None]
    ends = flow_endpoints(sys, pts, dt, inc)
    rep = jacobian_check(sys, pts[0], steps * dt, dt, seed=6, n_paths=4)
    return [res.trajectory, res.log_jacobian, ends,
            np.array([r["value"] for r in rep.per_basis])]


@pytest.mark.parametrize("label", sorted(BLOCK_CASES))
def test_results_do_not_depend_on_the_noise_block_size(label, monkeypatch):
    sys, dt, steps = BLOCK_CASES[label]
    want = integrate_all(sys, dt, steps)
    # one step per block; 97 steps per block of the jacobian check's 4
    # paths (and 388 per block of one path)
    for budget in (1, 97 * 8 * sys.m * 4):
        monkeypatch.setattr(sde, "_BLOCK_BYTES", budget)
        got = integrate_all(sys, dt, steps)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    if label == "hamiltonian":
        return
    wraps = []
    wrap = ChartedManifold.wrap
    monkeypatch.setattr(ChartedManifold, "wrap",
                        lambda self, p: wraps.append(1) or wrap(self, p))
    x0 = [0.1, 0.2, 0.3][:sys.manifold.dim]
    if label == "heisenberg_frame":
        # the jacobian check does not flow a divergence-free system, so
        # the re-wrap is seen on the endpoints
        flow_paths(sys, "endpoints", x0, dt, steps, 6, range(4))
        assert len(wraps) > 2  # x0, at least one re-wrap, the endpoints
    else:
        assert ("loop", "volume", "array") in sys._compiled
        jacobian_check(sys, x0, steps * dt, dt, seed=6, n_paths=4)
        assert len(wraps) > 1  # the x0 wrap and at least one re-wrap


# ---------------------------------------------------------------------------
# the jacobian check of a divergence-free system: J = 1 without a flow

DIVERGENCE_FREE = {"hamiltonian_torus": hamiltonian_system,
                   "translation_bm_torus": translation_bm_system,
                   "heisenberg_frame": heisenberg_frame_system}


def no_noise(*args, **kwargs):
    raise AssertionError("noise drawn")


@pytest.mark.parametrize("label", sorted(DIVERGENCE_FREE))
def test_divergence_free_jacobian_check_does_not_flow(label, monkeypatch):
    sys = DIVERGENCE_FREE[label]()
    dt, steps, seed, n_paths = 0.01, 50, 5, 4
    x0 = np.full(sys.manifold.dim, 0.3)
    inc = noise_matrix(seed, range(n_paths), sys.m, dt, steps)
    _, logj = reference_heun(sys, x0, dt, inc)
    worst = np.max(np.abs(np.exp(logj) - 1.0), axis=0)
    monkeypatch.setattr(sde, "noise_blocks", no_noise)
    monkeypatch.setattr(sde, "generate_noise", no_noise)
    rep = jacobian_check(sys, x0, steps * dt, dt, seed=seed, n_paths=n_paths)
    values = [r["value"] for r in rep.per_basis]
    assert values == [0.0] * n_paths and rep.residual == 0.0
    assert not [key for key in sys._compiled if key[:2] == ("loop", "volume")]
    np.testing.assert_allclose(values, worst, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [-5, 2 ** 64])
def test_divergence_free_jacobian_check_rejects_a_seed_outside_64_bits(seed):
    # no noise is drawn, yet the seed is rejected as the generator does
    from stochflow import noise

    with pytest.raises(ValueError) as drawn:
        noise.normals(seed, range(3), 0, 1)
    with pytest.raises(ValueError) as checked:
        jacobian_check(hamiltonian_system(), [0.3, 0.7], 0.1, 0.01, seed=seed,
                       n_paths=3)
    assert str(checked.value) == str(drawn.value)


@pytest.mark.parametrize("make", [sin_drift_system, exp_divergence_system],
                         ids=["sin_drift_circle", "exp_divergence"])
def test_carried_divergence_jacobian_check_still_flows(make, monkeypatch):
    sys, drawn = make(), []
    blocks = sde.noise_blocks
    monkeypatch.setattr(sde, "noise_blocks",
                        lambda *args: drawn.append(args) or blocks(*args))
    rep = jacobian_check(sys, [0.3], 0.5, 0.01, seed=5, n_paths=4)
    assert len(drawn) == 1
    assert all(r["value"] > 0.0 for r in rep.per_basis)
    assert ("loop", "volume", "array") in sys._compiled


# ---------------------------------------------------------------------------
# flow_paths: many paths' noise laid out against the points

FLOW_PATHS_SYSTEMS = {**builtin_systems(),
                      "translation_bm_circle": translation_bm_system(1),
                      "heisenberg_frame": heisenberg_frame_system()}


@pytest.mark.parametrize("label", sorted(FLOW_PATHS_SYSTEMS))
def test_flow_paths_equal_flow_endpoints_on_stacked_noise(label, monkeypatch):
    # the small block budget streams every system in blocks of 7 steps of
    # 3 paths, translation_bm_circle's constant fields with m = 1 too
    sys = FLOW_PATHS_SYSTEMS[label]
    monkeypatch.setattr(sde, "_BLOCK_BYTES", 7 * 8 * max(sys.m, 1) * 3)
    dt, steps, seed, paths = 0.01, 40, 3, range(2, 5)
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 1.0, size=(4, sys.manifold.dim)) * sys.manifold.lengths
    inc = noise_matrix(seed, paths, sys.m, dt, steps)
    got = flow_paths(sys, "endpoints", pts, dt, steps, seed, paths)
    assert np.array_equal(got, flow_endpoints(sys, pts, dt, inc[:, None]))
    # the loop steps lead (paths, points) against noise lead (paths, 1);
    # each endpoint is its point's one-point run on its path's noise
    for i, j in np.ndindex(got.shape[:2]):
        assert np.array_equal(got[i, j], flow_endpoints(sys, pts[j], dt, inc[i]))
    got = flow_paths(sys, "endpoints", pts[0], dt, steps, seed, paths)
    assert np.array_equal(got, flow_endpoints(sys, pts[0], dt, inc))
    states, log_j = flow_paths(sys, "trajectory", pts, dt, steps, seed, paths)
    want = flow_with_jacobian(sys, pts, dt, inc[:, None])
    assert np.array_equal(states, want.trajectory)
    assert np.array_equal(log_j, want.log_jacobian)
    # factor 2: the paths drawn at dt / 2, summed in pairs onto the grid of dt
    fine = noise_matrix(seed, paths, sys.m, dt / 2, 2 * steps)
    coarse = fine.reshape(len(paths), steps, 2, sys.m).sum(axis=2)
    got = flow_paths(sys, "endpoints", pts, dt, steps, seed, paths, factor=2)
    assert np.array_equal(got, flow_endpoints(sys, pts, dt, coarse[:, None]))
    rep = jacobian_check(sys, pts[0], steps * dt, dt, seed=seed, n_paths=5)
    got = flow_paths(sys, "volume", pts[0], dt, steps, seed, range(5))
    assert np.array_equal(got, [r["value"] for r in rep.per_basis])


# label -> (system, dt, steps); the long run takes two blocks of noise of
# its one path (sde._BLOCK_BYTES holds 32768 steps of one component)
TRAJECTORY_CASES = {
    **{label: (sys, 0.01, 300) for label, sys in builtin_systems().items()},
    "translation_bm_circle": (translation_bm_system(1), 0.01, 300),
    "multiplicative_circle_40k": (multiplicative_circle_system(), 1e-4, 40000),
}


@pytest.mark.parametrize("label", sorted(TRAJECTORY_CASES))
def test_flow_paths_trajectory_equals_flow_with_jacobian(label):
    # simulate's flow: one path through the "trajectory" consumer gives
    # the bits of flow_with_jacobian on that path's increments
    sys, dt, steps = TRAJECTORY_CASES[label]
    seed, p = 5, 3
    x0 = 0.3 * sys.manifold.lengths
    states, log_j = flow_paths(sys, "trajectory", x0, dt, steps, seed,
                               range(p, p + 1))
    assert states.shape == (steps + 1, 1, sys.manifold.dim)
    assert log_j.shape == (steps + 1, 1)
    want = flow_with_jacobian(sys, x0, dt, generate_noise(seed, p, sys.m, dt, steps))
    assert np.array_equal(states[:, 0], want.trajectory)
    assert np.array_equal(log_j[:, 0], want.log_jacobian)


def heisenberg_xz_system():
    # constant fields on the twisted wrap: a drift and the frame's X and Z
    X, _, Z = heisenberg_frame()
    return StratonovichSystem(manifold=heisenberg_manifold(),
                              drift=VectorFieldSpec.from_strings(["0.3", "0", "0.1"]),
                              diffusions=(X, Z))


# label -> (system, dt, steps); the runs cross the seams
SHORTCUT_CASES = {
    "translation_bm_circle": (translation_bm_system(1), 0.01, 300),
    "translation_bm_torus": (translation_bm_system(2), 0.01, 300),
    "heisenberg_xz": (heisenberg_xz_system(), 0.05, 400),
    "heisenberg_frame": (heisenberg_frame_system(), 0.05, 400),
}


@pytest.mark.parametrize("label", sorted(SHORTCUT_CASES))
def test_flow_paths_endpoints_equal_the_last_heun_state(label):
    # the endpoints of constant fields skip the loop; the "trajectory"
    # consumer steps the same noise through the Heun loop (the frame's Y
    # is not constant, so there both consumers run the loop)
    sys, dt, steps = SHORTCUT_CASES[label]
    constant = sys._cached("velocities", sde._constant_velocities) is not None
    assert constant == (label != "heisenberg_frame")
    pts = (np.random.default_rng(13).uniform(0.0, 1.0, size=(4, sys.manifold.dim))
           * sys.manifold.lengths)
    ends = flow_paths(sys, "endpoints", pts, dt, steps, 7, range(3))
    states, _ = flow_paths(sys, "trajectory", pts, dt, steps, 7, range(3))
    assert ends.shape == states[-1].shape == (3, 4, sys.manifold.dim)
    assert quotient_gap(sys.manifold, states[-1], ends).max() <= 1e-12


def test_flow_paths_wraps_x0_once_on_constant_fields(monkeypatch):
    sys = translation_bm_system()
    pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(4, 2))
    wrapped = []
    wrap = ChartedManifold.wrap
    monkeypatch.setattr(ChartedManifold, "wrap",
                        lambda self, p: wrapped.append(np.shape(p)) or wrap(self, p))
    flow_paths(sys, "endpoints", pts, 0.01, 10, 0, range(5))
    # x0 once, then every path's endpoints in one call
    assert wrapped == [(4, 2), (5, 4, 2)]
    wrapped.clear()
    flow_paths(sys, "endpoints", pts[0], 0.01, 10, 0, range(5))
    assert wrapped == [(2,), (5, 2)]


@pytest.mark.parametrize("sys", [hamiltonian_system(), translation_bm_system(),
                                 sin_drift_system()],
                         ids=["hamiltonian_torus", "translation_bm_torus",
                              "sin_drift_circle"])
def test_empty_batches_give_empty_results(sys):
    # the loop's bound tests reduce over no points; constant fields sum
    dim, dt, steps = sys.manifold.dim, 0.01, 5
    x0, none = np.full(dim, 0.3), np.empty((0, dim))
    noise = generate_noise(0, 0, sys.m, dt, steps)
    assert flow_endpoints(sys, none, dt, noise).shape == (0, dim)
    res = flow_with_jacobian(sys, none, dt, noise)
    assert res.trajectory.shape == (steps + 1, 0, dim)
    assert res.log_jacobian.shape == (steps + 1, 0)
    for x, paths, shape in ((x0, range(0), (0, dim)), (none, range(3), (3, 0, dim))):
        assert flow_paths(sys, "endpoints", x, dt, steps, 0, paths).shape == shape
        assert flow_paths(sys, "volume", x, dt, steps, 0, paths).shape == shape[:-1]
        states, log_j = flow_paths(sys, "trajectory", x, dt, steps, 0, paths)
        assert states.shape == (steps + 1,) + shape
        assert log_j.shape == (steps + 1,) + shape[:-1]


def test_constant_field_endpoints_add_the_increments_in_step_order(monkeypatch):
    # translation_bm_circle (m = 1) and translation_bm_torus (m = 2): each
    # path's increments are added in step order, running across the
    # blocks, so one step per block and all 40 in one block give the bits
    # of a Python loop over the steps
    dt, steps, seed, paths = 0.01, 40, 3, range(2, 7)
    for m in (1, 2):
        sys = translation_bm_system(m)
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, m))
        inc = noise_matrix(seed, paths, m, dt, steps)
        total = np.zeros((len(paths), m))
        for k in range(steps):
            total += inc[:, k]
        want = sys.manifold.wrap(sys.manifold.wrap(pts) + total[:, None])
        for budget in (1, 8 * m * len(paths) * steps):
            monkeypatch.setattr(sde, "_BLOCK_BYTES", budget)
            got = flow_paths(sys, "endpoints", pts, dt, steps, seed, paths)
            assert np.array_equal(got, want)
            assert np.array_equal(flow_endpoints(sys, pts, dt, inc[:, None]), want)


def translation_endpoints_peak(steps):
    sys = translation_bm_system()
    pts = np.full((4, 2), 0.3)
    flow_paths(sys, "endpoints", pts, 1e-3, 10, 1, range(2))
    tracemalloc.start()
    try:
        flow_paths(sys, "endpoints", pts, 1e-3, steps, 1, range(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_constant_field_memory_does_not_grow_with_steps():
    # the whole noise of the longer run is 25.6 MB; it streams in blocks
    # of about 256 KiB
    grown = translation_endpoints_peak(8000) - translation_endpoints_peak(1000)
    assert grown <= sde._BLOCK_BYTES


def volume_check_peak(steps):
    sys = StratonovichSystem(
        manifold=T1, drift=VectorFieldSpec.from_strings(["0.1"]),
        diffusions=(VectorFieldSpec.from_strings(["0.2*sin(2*pi*x1)"]),))
    jacobian_check(sys, [0.3], 10 * 1e-3, 1e-3, seed=1, n_paths=100)  # compile
    tracemalloc.start()
    try:
        rep = jacobian_check(sys, [0.3], steps * 1e-3, 1e-3, seed=1, n_paths=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.residual > 0.0  # log J was carried
    return peak


def test_jacobian_check_memory_does_not_grow_with_steps():
    # the whole noise of the longer run is 6.4 MB; one block is 256 KiB
    grown = volume_check_peak(8000) - volume_check_peak(1000)
    assert grown <= sde._BLOCK_BYTES
