import itertools
import json

import numpy as np
import pytest

from oracles import ad_matrix, leaf_connection
from stochflow import liealg
from stochflow.invariance import foliation_pipeline
from stochflow.liealg import (
    LieAlgebraData,
    NotASubalgebraError,
    Subalgebra,
    abelian,
    algebra_zoo,
    foliated_drift,
    heisenberg3,
    heisenberg_realization,
    invariance_verdict,
    is_closed,
    is_nilpotent,
    is_semisimple,
    killing_form,
    load_structure_constants,
    sl2,
    so3,
    tr_ad_restricted,
)

SL2 = sl2()
HEIS = heisenberg3()
H_XY = Subalgebra(SL2, (0, 1))


# ---------------------------------------------------------------------------
# construction invariants

def test_construction_rejects_non_antisymmetric():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebraData(n=2, c=c)


def test_construction_rejects_jacobi_violation():
    c = np.zeros((3, 3, 3))
    # [e1,e2]=e3, [e1,e3]=e1: fails Jacobi
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 0], c[2, 0, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebraData(n=3, c=c)


def test_zoo_members_are_valid():
    for name, g in algebra_zoo().items():
        assert g.c.shape == (g.n, g.n, g.n), name


# ---------------------------------------------------------------------------
# adjoint matrices and restricted traces

def test_ad_matrix_sl2_restricted_matches_printed_example():
    np.testing.assert_array_equal(ad_matrix(SL2, 0, H_XY), np.diag([0.0, 2.0]))


def test_ad_matrix_abelian_is_zero():
    g = abelian(3)
    for i in range(3):
        np.testing.assert_array_equal(ad_matrix(g, i), np.zeros((3, 3)))


def test_ad_matrix_heisenberg_sends_y_to_z():
    a = ad_matrix(HEIS, 0)
    want = np.zeros((3, 3))
    want[2, 1] = 1.0  # column Y maps to Z
    np.testing.assert_array_equal(a, want)


def test_ad_matrix_restriction_requires_subalgebra():
    with pytest.raises(NotASubalgebraError):
        ad_matrix(HEIS, 0, Subalgebra(HEIS, (0, 1)))  # [X,Y]=Z escapes span{X,Y}


def test_tr_ad_restricted_sl2_values():
    assert tr_ad_restricted(H_XY, 0) == 2.0
    assert tr_ad_restricted(H_XY, 1) == 0.0


def test_tr_ad_restricted_abelian_zero():
    g = abelian(4)
    h = Subalgebra(g, (0, 2, 3))
    for i in h.indices:
        assert tr_ad_restricted(h, i) == 0.0


def test_tr_ad_restricted_rejects_outside_index():
    with pytest.raises(IndexError):
        tr_ad_restricted(H_XY, 2)


def test_trace_equals_ad_matrix_trace():
    for g in (SL2, HEIS, so3()):
        for h in _closed_subalgebras(g):
            for i in h.indices:
                assert tr_ad_restricted(h, i) == pytest.approx(
                    np.trace(ad_matrix(g, i, h)), abs=0)


# ---------------------------------------------------------------------------
# killing form, semisimplicity, nilpotency

def _killing_by_summation(g):
    # independent oracle: direct sums over structure constants
    K = np.zeros((g.n, g.n))
    for i, j in itertools.product(range(g.n), repeat=2):
        for k, l in itertools.product(range(g.n), repeat=2):
            K[i, j] += g.c[i, l, k] * g.c[j, k, l]
    return K


def test_killing_form_against_summation_oracle():
    for g in (SL2, HEIS, so3(), abelian(3)):
        np.testing.assert_allclose(killing_form(g), _killing_by_summation(g), atol=1e-12)


def test_killing_form_sl2_frozen_values():
    K = killing_form(SL2)
    np.testing.assert_array_equal(K, [[8.0, 0, 0], [0, 0, 4.0], [0, 4.0, 0]])
    assert np.linalg.det(K) == pytest.approx(-128.0)


def test_semisimplicity():
    assert not is_semisimple(abelian(2))
    assert not is_semisimple(HEIS)
    assert is_semisimple(SL2)
    assert is_semisimple(so3())


@pytest.mark.parametrize("scale", [1e-2, 1e-1, 1.0, 1e3])
def test_semisimplicity_does_not_depend_on_the_scale_of_the_constants(scale):
    # det K scales as scale^(2n): -8e-12 for so(3) at scale 1e-2
    for g, semisimple in ((so3(), True), (SL2, True), (HEIS, False), (abelian(3), False)):
        assert is_semisimple(LieAlgebraData(g.n, scale * g.c)) == semisimple


def _lower_central_series_oracle(g):
    # explicit span computation with exact small-integer arithmetic
    basis = [np.eye(g.n)[i] for i in range(g.n)]
    current = basis
    for _ in range(g.n + 2):
        brackets = []
        for u in basis:
            for v in current:
                w = np.einsum("ijk,i,j->k", g.c, u, v)
                brackets.append(w)
        mat = np.array(brackets)
        rank = np.linalg.matrix_rank(mat, tol=1e-10) if mat.size else 0
        if rank == 0:
            return True
        if rank == len(current):
            return False
        u_, s, vt = np.linalg.svd(mat)
        current = list(vt[:rank])
    return False


def test_nilpotency():
    assert is_nilpotent(abelian(5))
    assert is_nilpotent(HEIS)
    assert not is_nilpotent(SL2)
    assert not is_nilpotent(so3())
    for g in (SL2, HEIS, so3(), abelian(2)):
        assert is_nilpotent(g) == _lower_central_series_oracle(g)


# ---------------------------------------------------------------------------
# leaf connection and foliated drift

def test_leaf_connection_abelian_vanishes():
    g = abelian(3)
    h = Subalgebra(g, (0, 1, 2))
    for i, j in itertools.product(range(3), repeat=2):
        np.testing.assert_array_equal(leaf_connection(h, i, j), np.zeros(3))


def test_leaf_connection_sl2_diagonal_values():
    # nabla_Y Y = 2X, nabla_X X = 0
    np.testing.assert_allclose(leaf_connection(H_XY, 1, 1), [2.0, 0.0])
    np.testing.assert_allclose(leaf_connection(H_XY, 0, 0), [0.0, 0.0])


def _random_orthogonal_conjugate(g, seed):
    # change of orthonormal basis preserves Jacobi and orthonormality
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(g.n, g.n)))
    c = np.einsum("ia,jb,abc,kc->ijk", q, q, g.c, q)
    return LieAlgebraData(n=g.n, c=c)


def test_foliated_drift_is_minus_half_the_leaf_connection_trace():
    # d = -1/2 sum_{i in h} nabla_{V_i} V_i, with the leaf connection of
    # the Koszul formula on the orthonormal frame of h, over every closed
    # subalgebra of the zoo and of random orthonormal conjugates (whose
    # closed coordinate subalgebras include the whole algebra)
    zoo = list(algebra_zoo().values())
    conjugates = [_random_orthogonal_conjugate(g, seed) for seed, g in enumerate(zoo)]
    for g in zoo + conjugates:
        for h in _closed_subalgebras(g):
            want = -0.5 * sum(leaf_connection(h, i, i) for i in h.indices)
            np.testing.assert_allclose(foliated_drift(h), want, atol=1e-12)


def test_foliated_drift_values():
    heis_h = Subalgebra(HEIS, (0, 2))
    np.testing.assert_array_equal(foliated_drift(heis_h), [0.0, 0.0])
    np.testing.assert_allclose(foliated_drift(H_XY), [-1.0, 0.0])
    np.testing.assert_array_equal(foliated_drift(Subalgebra(abelian(3), (0, 1))),
                                  [0.0, 0.0])


def test_drift_is_minus_half_trace():
    for g in (SL2, HEIS, so3(), abelian(3)):
        for h in _closed_subalgebras(g):
            d = foliated_drift(h)
            traces = np.array([tr_ad_restricted(h, i) for i in h.indices])
            np.testing.assert_allclose(d, -0.5 * traces, atol=1e-12)


# ---------------------------------------------------------------------------
# verdicts

def _closed_subalgebras(g):
    out = []
    for r in range(1, g.n + 1):
        for idx in itertools.combinations(range(g.n), r):
            if is_closed(g, idx):
                out.append(Subalgebra(g, idx))
    return out


def test_verdict_sl2_offending_trace():
    ok, offending = invariance_verdict(H_XY)
    assert not ok
    assert offending == [(0, 2.0)]


def test_verdict_heisenberg_all_closed_subalgebras():
    for h in _closed_subalgebras(HEIS):
        ok, offending = invariance_verdict(h)
        assert ok and offending == []


def test_nilpotent_implies_totally_invariant_over_zoo():
    for name, g in algebra_zoo().items():
        if not is_nilpotent(g):
            continue
        for h in _closed_subalgebras(g):
            ok, _ = invariance_verdict(h)
            assert ok, (name, h)


@pytest.mark.parametrize("indices,error,message", [
    # the indices are 0-based; the messages name them 1-based, as written
    ((), ValueError, "subalgebra indices must be a nonempty set"),
    ((1, 1), ValueError, "subalgebra indices repeat index 2"),
    ((-1, 0), ValueError, "subalgebra indices must be positive"),
    ((0, 3), ValueError, "subalgebra index 4 beyond algebra dimension 3"),
    ((1, 0), NotASubalgebraError, r"indices \(1, 2\) do not span a subalgebra"),
])
def test_subalgebra_checks_its_indices_when_built(indices, error, message):
    with pytest.raises(error, match=message):
        Subalgebra(HEIS, indices)


def test_closure_is_checked_once_per_subalgebra(monkeypatch):
    calls = []

    def counted(g, indices):
        calls.append(tuple(indices))
        return is_closed(g, indices)

    monkeypatch.setattr(liealg, "is_closed", counted)
    h = Subalgebra(HEIS, (2, 0))
    assert h.indices == (0, 2) and calls == [(0, 2)]
    tr_ad_restricted(h, 0)
    foliated_drift(h)
    invariance_verdict(h)
    foliation_pipeline(h, heisenberg_realization(), t=0.02, dt=1e-2,
                       n_paths=4, grid_n=4, basis_k=1)
    assert calls == [(0, 2)]
    assert not h.constants.flags.writeable
    with pytest.raises(ValueError):
        h.constants[0, 0, 0] = 1.0


def test_xy_not_closed_in_heisenberg():
    assert not is_closed(HEIS, (0, 1))
    assert is_closed(HEIS, (0, 2))


# ---------------------------------------------------------------------------
# structure-constant files

def test_load_structure_constants_roundtrip():
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": [0, 2, 0]},
            {"i": 1, "j": 3, "coeffs": [0, 0, -2]},
            {"i": 2, "j": 3, "coeffs": [1, 0, 0]},
        ],
        "labels": ["X", "Y", "Z"],
    }
    g = load_structure_constants(json.dumps(doc))
    np.testing.assert_array_equal(g.c, SL2.c)
    assert g.basis_labels == ("X", "Y", "Z")


def test_load_structure_constants_defaults_and_completion():
    g = load_structure_constants({"dim": 2, "brackets": []})
    np.testing.assert_array_equal(g.c, np.zeros((2, 2, 2)))
    g2 = load_structure_constants(
        {"dim": 2, "brackets": [{"i": 2, "j": 1, "coeffs": [0.5, 0]}]})
    assert g2.c[1, 0, 0] == 0.5
    assert g2.c[0, 1, 0] == -0.5


def test_load_structure_constants_rejects_bad_input():
    with pytest.raises(ValueError):
        load_structure_constants({"brackets": []})
    with pytest.raises(ValueError):
        load_structure_constants({"dim": 2, "brackets": [{"i": 1, "j": 3, "coeffs": [0, 0]}]})
    with pytest.raises(ValueError):
        load_structure_constants({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": [0]}]})
    with pytest.raises(ValueError):
        load_structure_constants(
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1]},
                                    {"i": 2, "j": 1, "coeffs": [0, 0, 1]}]})

