"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a `ACCEPTANCE <n> ... PASS` line (visible with
pytest -s or in the captured output); the assertions pin the documented
tolerances and runtime budgets.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from example_systems import (
    hamiltonian_torus_system,
    multiplicative_circle_system,
    sin_drift_system,
    translation_bm_system,
)
from oracles import fd_jacobian
from stochflow import liealg
from stochflow.cli import run
from stochflow.config import parse_config
from stochflow.currents import (
    evaluate_many,
    generator_residuals,
    pullback_values,
    strict_residuals,
    volume_current,
)
from stochflow.invariance import (
    EXACT_BIAS_C,
    EmpiricalRun,
    empirical_check,
    foliation_pipeline,
    heisenberg_realization,
    jacobian_check,
)
from stochflow.liealg import (
    Subalgebra,
    foliated_drift,
    invariance_verdict,
    is_closed,
    is_nilpotent,
    tr_ad_restricted,
)
from stochflow.manifold import make_test_basis
from stochflow.presets import preset_text
from stochflow.sde import flow_endpoints, flow_with_jacobian, generate_noise


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}")


def best_time(fn, repeats=5):
    fn()  # warm caches and numpy dispatch before timing
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_sl2_traces_and_verdict():
    g = liealg.sl2()
    h = Subalgebra(g, (0, 1))
    assert tr_ad_restricted(h, 0) == 2.0
    assert tr_ad_restricted(h, 1) == 0.0
    ok, offending = invariance_verdict(h)
    assert ok is False
    assert offending == [(0, 2.0)]

    def work():
        tr_ad_restricted(h, 0)
        tr_ad_restricted(h, 1)
        invariance_verdict(h)

    elapsed = best_time(work)
    assert elapsed < 1e-3, f"runtime {elapsed * 1e3:.3f} ms"
    report(1, "sl(2,R) traces and verdict", f"({elapsed * 1e6:.0f} us)")


def test_criterion_2_nilpotent_total_invariance():
    g = liealg.heisenberg3()
    assert is_nilpotent(g)
    closed = [Subalgebra(g, idx)
              for r in range(1, 4)
              for idx in itertools.combinations(range(3), r)
              if is_closed(g, idx)]
    assert len(closed) == 6  # {X},{Y},{Z},{X,Z},{Y,Z},{X,Y,Z}
    for h in closed:
        ok, offending = invariance_verdict(h)
        assert ok and not offending
        assert np.all(foliated_drift(h) == 0.0)

    def work():
        is_nilpotent(g)
        for h in closed:
            invariance_verdict(h)
            foliated_drift(h)

    elapsed = best_time(work)
    assert elapsed < 1e-3, f"runtime {elapsed * 1e3:.3f} ms"
    report(2, "Heisenberg nilpotent total invariance", f"({elapsed * 1e6:.0f} us)")


def test_criterion_3_hamiltonian_volume_preservation():
    t0 = time.perf_counter()
    sys = hamiltonian_torus_system()
    x0 = [0.3, 0.7]
    rep = jacobian_check(sys, x0, 1.0, 1e-3, seed=7, n_paths=100, tolerance=1e-2)
    assert rep.verdict, f"max |J-1| = {rep.residual}"
    assert rep.residual < 1e-2
    for p in range(5):
        noise = generate_noise(7, p, sys.m, 1e-3, 1000)
        j = flow_with_jacobian(sys, x0, noise).jacobian[-1]
        fd = fd_jacobian(sys, x0, noise)
        assert abs(fd - j) / abs(j) < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f} s"
    report(3, "Hamiltonian volume preservation",
           f"(max|J-1|={rep.residual:.2e}, {elapsed:.1f} s)")


def test_criterion_4_jacobian_oracle_equivalence():
    t0 = time.perf_counter()
    sys = sin_drift_system()
    dt = 1e-3
    noise = generate_noise(0, 0, 0, dt, 1000)
    j = flow_with_jacobian(sys, [0.25], noise).jacobian[-1]
    fine = generate_noise(0, 0, 0, dt / 100, 100000)
    j_ref = flow_with_jacobian(sys, [0.25], fine).jacobian[-1]
    rel_ref = abs(j - j_ref) / abs(j_ref)
    assert rel_ref < 1e-3
    fd = fd_jacobian(sys, [0.25], noise)
    rel_fd = abs(fd - j) / abs(j)
    assert rel_fd < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"runtime {elapsed:.1f} s"
    report(4, "Jacobian oracle equivalence",
           f"(vs reference {rel_ref:.2e}, vs fd {rel_fd:.2e}, {elapsed:.1f} s)")


def test_criterion_5_residual_consistency():
    t0 = time.perf_counter()
    sys = translation_bm_system(2)
    T = volume_current(sys.manifold, 32)
    basis = make_test_basis(sys.manifold, 3)
    strict = np.max(np.abs(strict_residuals(T, sys, basis)))
    gen = np.max(np.abs(generator_residuals(T, sys, basis)))
    assert strict < 1e-8
    assert gen < 1e-8
    # designed negative: sin(2 pi x) d/dx against Lebesgue, f = cos(2 pi x)
    neg = multiplicative_circle_system()
    t_neg = volume_current(neg.manifold, 32)
    b_neg = make_test_basis(neg.manifold, 3)
    s = strict_residuals(t_neg, neg, b_neg)
    value = s[1, 1]  # diffusion field row, cos(2 pi x) column
    assert value == pytest.approx(math.pi, rel=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"runtime {elapsed:.1f} s"
    report(5, "derivative-current residual consistency",
           f"(strict={strict:.1e}, gen={gen:.1e}, "
           f"negative={value:.6f} vs pi, {elapsed:.1f} s)")


def test_criterion_6_mean_invariance_by_simulation():
    t0 = time.perf_counter()
    sys = translation_bm_system(2)
    T = volume_current(sys.manifold, 16)
    basis = make_test_basis(sys.manifold, 3)
    n_paths, dt, t = 1000, 1e-3, 1.0
    c = EXACT_BIAS_C
    vals = pullback_values(T, basis.functions, sys, t, dt, seed=3, n_paths=n_paths)
    targets = evaluate_many(T, basis.functions)
    means = vals.mean(axis=1)
    stderrs = vals.std(axis=1, ddof=1) / math.sqrt(n_paths)
    for k in range(len(basis)):
        assert abs(means[k] - targets[k]) <= 3 * stderrs[k] + c * dt, k
    rep = empirical_check(EmpiricalRun(T, sys, basis, t, dt, 3, n_paths), "mean",
                          n_paths)
    assert rep.verdict
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"runtime {elapsed:.1f} s"
    report(6, "mean invariance by simulation",
           f"(worst diff {np.max(np.abs(means - targets)):.2e}, {elapsed:.1f} s)")


def test_criterion_7_heisenberg_harmonic_measure():
    t0 = time.perf_counter()
    g = liealg.heisenberg3()
    h = Subalgebra(g, (0, 2))
    real = heisenberg_realization()
    rep = foliation_pipeline(h, real, t=1.0, dt=1e-3, seed=11,
                             n_paths=1000, grid_n=8, basis_k=3)
    assert rep.verdict  # algebraic trace criterion
    by_kind = {s.kind: s for s in rep.subchecks}
    gen = by_kind["mean_residual"]
    assert gen.residual < 1e-6, f"generator residual {gen.residual}"
    frame = by_kind["strict_residual"]
    assert frame.residual < 1e-8, f"frame derivative residual {frame.residual}"
    mean = by_kind["empirical_mean"]
    assert mean.verdict
    assert all(row["value"] <= row["tolerance"] for row in mean.per_basis)
    assert by_kind["empirical_pathwise"].verdict
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"runtime {elapsed:.1f} s"
    report(7, "Heisenberg harmonic measure",
           f"(gen={gen.residual:.1e}, frame={frame.residual:.1e}, {elapsed:.1f} s)")


def test_criterion_8_convergence_order():
    t0 = time.perf_counter()
    sys = multiplicative_circle_system()
    n_paths, dt_min, seed = 256, 5e-4, 123
    steps_min = 512  # divisible by every coarsening level; t_final = 0.256
    fine = np.empty((n_paths, steps_min, 1))
    for p in range(n_paths):
        fine[p] = generate_noise(seed, p, 1, dt_min, steps_min).increments
    x0 = np.array([0.25])
    ends = {}
    for k in (8, 4, 2, 1):
        inc = fine.reshape(n_paths, steps_min // k, k, 1).sum(axis=2)
        ends[k] = flow_endpoints(sys, x0, dt_min * k, inc)[:, 0]

    def circle_rms(a, b):
        d = np.abs(a - b) % 1.0
        return float(np.sqrt(np.mean(np.minimum(d, 1.0 - d) ** 2)))

    gaps = [circle_rms(ends[k], ends[k // 2]) for k in (8, 4, 2)]
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    for r in ratios:
        assert r >= 1.7, f"ratios {ratios}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f} s"
    report(8, "strong convergence order",
           "(ratios " + ", ".join(f"{r:.2f}" for r in ratios) + f", {elapsed:.1f} s)")


def test_criterion_9_preset_determinism(tmp_path):
    cases = [
        ("sl2_foliation", {}),
        ("hamiltonian_torus", {}),
        ("translation_bm_torus", {"paths": 25, "dt": 0.01}),
        ("heisenberg_foliation", {"paths": 10, "dt": 0.01}),
        ("frame_divergence_torus", {"paths": 10, "dt": 0.01}),
    ]
    for name, overrides in cases:
        cfg = parse_config(preset_text(name), overrides)
        hashes = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            code = run(cfg, out)
            assert code in (0, 2)
            doc = json.loads((out / "report.json").read_text())
            hashes.append(doc["payload_sha256"])
        assert hashes[0] == hashes[1], name
    report(9, "preset determinism", f"({len(cases)} presets)")
