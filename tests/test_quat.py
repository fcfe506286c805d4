import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab.quat import (
    ONE,
    QI,
    QJ,
    QK,
    SphereStructure,
    StructureTriple,
    kaehler_form,
    left_mult_matrix,
    quat_mul_array,
)

quaternions = st.lists(st.floats(-10, 10), min_size=4, max_size=4).map(np.array)


def close(p, q, tol=1e-12):
    return np.linalg.norm(p - q) <= tol


def test_unit_table():
    assert close(quat_mul_array(QI, QJ), QK)
    assert close(quat_mul_array(QJ, QK), QI)
    assert close(quat_mul_array(QK, QI), QJ)
    assert close(quat_mul_array(QI, QI), -ONE)
    assert close(quat_mul_array(QJ, QJ), -ONE)
    assert close(quat_mul_array(QK, QK), -ONE)
    ijk = quat_mul_array(quat_mul_array(QI, QJ), QK)
    assert close(ijk, -ONE)


def test_units_are_read_only():
    with pytest.raises(ValueError):
        QI[0] = 1.0


def test_identity_and_associativity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q, r = rng.normal(size=(3, 4))
        assert close(quat_mul_array(ONE, q), q)
        lhs = quat_mul_array(quat_mul_array(p, q), r)
        rhs = quat_mul_array(p, quat_mul_array(q, r))
        assert close(lhs, rhs, tol=1e-10)
        # distributivity
        s = quat_mul_array(p, q + r)
        t = quat_mul_array(p, q) + quat_mul_array(p, r)
        assert close(s, t, tol=1e-10)


# the same laws on hypothesis-drawn quaternions with entries in [-10, 10], to
# the same absolute tolerance: the products stay below 8e3, where an ulp is 1e-12


@settings(max_examples=200, deadline=None)
@given(quaternions, quaternions, quaternions)
def test_associativity_and_distributivity_properties(p, q, r):
    lhs = quat_mul_array(quat_mul_array(p, q), r)
    assert close(lhs, quat_mul_array(p, quat_mul_array(q, r)), tol=1e-10)
    s = quat_mul_array(p, q + r)
    assert close(s, quat_mul_array(p, q) + quat_mul_array(p, r), tol=1e-10)


@settings(max_examples=200, deadline=None)
@given(quaternions, quaternions)
def test_norm_and_left_matrix_properties(p, q):
    pq = quat_mul_array(p, q)
    assert abs(np.linalg.norm(pq) - np.linalg.norm(p) * np.linalg.norm(q)) < 1e-10
    assert close(left_mult_matrix(p) @ q, pq, tol=1e-10)
    assert close(quat_mul_array(ONE, q), q) and close(quat_mul_array(q, ONE), q)


def test_norm_multiplicativity():
    rng = np.random.default_rng(11)
    p = rng.normal(size=(10_000, 4))
    q = rng.normal(size=(10_000, 4))
    pq = quat_mul_array(p, q)
    err = np.abs(
        np.linalg.norm(pq, axis=-1) - np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
    )
    assert err.max() < 1e-10


@pytest.mark.parametrize("d", [1, 2])
def test_structure_triple_invariants(d):
    S = StructureTriple.standard(d)
    eye = np.eye(4 * d)
    for M in S.mats():
        assert np.allclose(M @ M, -eye, atol=1e-14)
        assert np.allclose(M.T @ M, eye, atol=1e-14)  # isometry
    assert np.allclose(S.i_mat @ S.j_mat @ S.k_mat, -eye, atol=1e-14)


def test_sphere_structure_squares_to_minus_id():
    rng = np.random.default_rng(3)
    S = StructureTriple.standard(1)
    for _ in range(100):
        abc = rng.normal(size=3)
        abc /= np.linalg.norm(abc)
        J = SphereStructure(*abc).matrix(S)
        assert np.allclose(J @ J, -np.eye(4), atol=1e-12)


def test_sphere_structure_rejects_non_unit():
    with pytest.raises(ValueError):
        SphereStructure(1.0, 1.0, 0.0)


def test_apply_structure_basis_and_involution():
    S = StructureTriple.standard(1)
    rng = np.random.default_rng(5)
    v = rng.normal(size=4)
    got = v @ SphereStructure(1, 0, 0).matrix(S).T
    assert np.allclose(got, S.i_mat @ v)
    # J^2 = -Id and isometry on a batch of 1000 random vectors
    abc = rng.normal(size=3)
    abc /= np.linalg.norm(abc)
    coeffs = SphereStructure(*abc)
    vs = rng.normal(size=(1000, 4))
    once = vs @ coeffs.matrix(S).T
    twice = once @ coeffs.matrix(S).T
    assert np.max(np.abs(twice + vs)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(once, axis=-1) - np.linalg.norm(vs, axis=-1))) < 1e-12


def test_kaehler_form_skew_and_normalization():
    S = StructureTriple.standard(1)
    w = kaehler_form(S, "i")
    rng = np.random.default_rng(9)
    e = rng.normal(size=4)
    assert abs(w.evaluate([e, e])) < 1e-14
    e /= np.linalg.norm(e)
    # the pair (e, i e) is a unit holomorphic pair: w_i(e, i e) = |e|^2 = 1
    assert abs(w.evaluate([e, S.i_mat @ e]) - 1.0) < 1e-12
    # coefficient expansion on H: w_i = dx^01 + dx^23
    M = w.as_matrix()
    assert abs(M[0, 1] - 1.0) < 1e-15 and abs(M[2, 3] - 1.0) < 1e-15
    assert abs(M[0, 2]) + abs(M[1, 3]) < 1e-15
    for X, Y in [(rng.normal(size=4), rng.normal(size=4)) for _ in range(20)]:
        assert abs(w.evaluate([X, Y]) + w.evaluate([Y, X])) < 1e-12


def test_kaehler_top_power_frame_independent():
    # m=1: w_i ^ w_i on an oriented orthonormal frame is constant (= 2)
    from fueterlab.exterior import wedge

    S = StructureTriple.standard(1)
    w = kaehler_form(S, "i")
    ww = wedge(w, w)
    rng = np.random.default_rng(13)
    vals = []
    for _ in range(25):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        vals.append(ww.evaluate(list(Q.T)))
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) < 1e-10
    assert abs(abs(vals[0]) - 2.0) < 1e-12
