import itertools

import numpy as np
import pytest

from fueterlab.exterior import (
    KForm,
    basis_form,
    contract,
    dr_form,
    pullback,
    radial_scaling_defect,
    tangential_part,
    wedge,
    wedge_power,
)
from fueterlab.quat import StructureTriple, kaehler_form


def random_form(rng, n, k, density=1.0):
    f = KForm(n, k)
    f.coeffs = rng.normal(size=f.coeffs.shape)
    return f


def eval_oracle_wedge(a, b, vectors):
    """Independent wedge oracle: alternating shuffle sum evaluated on vectors."""
    ka, kb = a.k, b.k
    idx = range(ka + kb)
    tot = 0.0
    for comb in itertools.combinations(idx, ka):
        rest = tuple(i for i in idx if i not in comb)
        perm = comb + rest
        sign = 1
        for s in range(len(perm)):
            for t in range(s + 1, len(perm)):
                if perm[s] > perm[t]:
                    sign = -sign
        tot += sign * a.evaluate([vectors[i] for i in comb]) * b.evaluate(
            [vectors[i] for i in rest]
        )
    return tot


def test_wedge_basics():
    assert basis_form(4, (0, 1)).evaluate([np.eye(4)[0], np.eye(4)[1]]) == 1.0
    dx01 = basis_form(4, (0, 1))
    assert wedge(dx01, dx01).norm() == 0.0


def test_wedge_against_evaluation_oracle():
    rng = np.random.default_rng(2)
    for n, ka, kb in [(4, 1, 1), (4, 2, 1), (4, 2, 2), (8, 2, 2), (8, 1, 3)]:
        a = random_form(rng, n, ka)
        b = random_form(rng, n, kb)
        w = wedge(a, b)
        for _ in range(5):
            vecs = [rng.normal(size=n) for _ in range(ka + kb)]
            assert abs(w.evaluate(vecs) - eval_oracle_wedge(a, b, vecs)) < 1e-9


def test_wedge_graded_commutative_and_associative():
    rng = np.random.default_rng(4)
    for n in (4, 8):
        for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            if ka + kb > n:
                continue
            a, b = random_form(rng, n, ka), random_form(rng, n, kb)
            lhs = wedge(a, b)
            rhs = wedge(b, a) * ((-1.0) ** (ka * kb))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
        ks = (1, 1, 2)
        a, b, c = (random_form(rng, n, k) for k in ks)
        assert np.max(
            np.abs(wedge(wedge(a, b), c).coeffs - wedge(a, wedge(b, c)).coeffs)
        ) < 1e-10


def test_wedge_power_basics_and_alpha_squared():
    S = StructureTriple.standard(1)
    a1 = kaehler_form(S, "i")
    assert np.allclose(wedge_power(a1, 1).coeffs, a1.coeffs)
    p0 = wedge_power(a1, 0)
    assert p0.k == 0 and p0.coeffs[0] == 1.0
    # alpha_1 ^ alpha_1 = 2 dvol on H
    sq = wedge(a1, a1)
    assert abs(sq.evaluate(list(np.eye(4))) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        wedge_power(a1, 3)


def test_wedge_power_m2_adapted_frame():
    # m=2: alpha_1^3 on an oriented alpha_1-adapted 6-frame has magnitude 3!
    S = StructureTriple.standard(2)
    a1 = kaehler_form(S, "i")
    p3 = wedge_power(a1, 3)
    e = np.eye(8)
    # pairs (0,1),(2,3),(4,5) are three of the four alpha_1-pairs
    frame = [e[0], e[1], e[2], e[3], e[4], e[5]]
    assert abs(abs(p3.evaluate(frame)) - 6.0) < 1e-12


def test_contract():
    e = np.eye(4)
    a = basis_form(4, (0, 1))
    c = contract(e[0], a)
    assert c.k == 1 and abs(c.coefficient((1,)) - 1.0) < 1e-15
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = rng.normal(size=4)
        f = random_form(rng, 4, 3)
        twice = contract(X, contract(X, f))
        assert twice.norm() < 1e-12
    with pytest.raises(ValueError):
        contract(e[0], KForm(4, 0, [1.0]))


def test_pullback_functorial_and_inner_product_form():
    rng = np.random.default_rng(8)
    S = StructureTriple.standard(1)
    OI = kaehler_form(S, "i")
    assert pullback(np.zeros((4, 4)), OI).norm() == 0.0
    assert np.allclose(pullback(np.eye(4), OI).coeffs, OI.coeffs)
    # (A* O_I)(e1, e2) = <I A e1, A e2>
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        got = pullback(A, OI).evaluate([np.eye(4)[0], np.eye(4)[1]])
        want = float((S.i_mat @ A[:, 0]) @ A[:, 1])
        assert abs(got - want) < 1e-12
    # functoriality (A B)* = B* A* on a 2-form, rectangular case
    A = rng.normal(size=(8, 4))
    B = rng.normal(size=(4, 4))
    O2 = random_form(rng, 8, 2)
    lhs = pullback(A @ B, O2)
    rhs = pullback(B, pullback(A, O2))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10
    # only 2-forms pull back
    for k in (0, 1, 3, 4):
        with pytest.raises(ValueError, match="2-forms only"):
            pullback(np.eye(4), random_form(rng, 4, k))


def test_tangential_part():
    rng = np.random.default_rng(10)
    x = rng.normal(size=4)
    er = x / np.linalg.norm(x)
    for k in (1, 2, 3):
        a = random_form(rng, 4, k)
        at = tangential_part(a, x)
        assert contract(er, at).norm() < 1e-12
        # forms with no radial component are fixed
        a_norad = a - wedge(dr_form(x), contract(er, a))
        again = tangential_part(a_norad, x)
        assert np.max(np.abs(again.coeffs - a_norad.coeffs)) < 1e-12
    # dr ^ beta has zero tangential part
    beta = random_form(rng, 4, 1)
    pure = wedge(dr_form(x), beta)
    assert contract(er, tangential_part(pure, x)).norm() < 1e-12


def test_tangential_part_matches_hodge_of_radial_plane():
    # m=1, x=e1: (alpha_1)_tan = *(dr ^ j1 dr) as a 2-form, checked by evaluation
    S = StructureTriple.standard(1)
    a1 = kaehler_form(S, "i")
    x = np.eye(4)[0]
    at = tangential_part(a1, x)
    er = x
    jer = S.i_mat @ er
    # the tangential part should evaluate like the area form of the plane
    # orthogonal to span(er, j1 er), i.e. vanish on that span and pair the rest
    assert abs(at.evaluate([er, jer])) < 1e-12
    # complete (er, jer) to an oriented orthonormal frame
    Q = np.linalg.qr(np.column_stack([er, jer, np.eye(4)[2], np.eye(4)[3]]))[0]
    v3, v4 = Q[:, 2], Q[:, 3]
    vol = basis_form(4, (0, 1, 2, 3))
    want = vol.evaluate([er, jer, v3, v4])
    assert abs(at.evaluate([v3, v4]) - want) < 1e-12


@pytest.mark.parametrize("weighted", [False, True])
def test_radial_scaling_defect_converges_quadratically(weighted):
    S = StructureTriple.standard(1)
    a1 = kaehler_form(S, "i")
    x = np.array([1.0, 0.3, -0.2, 0.5])
    rng = np.random.default_rng(12)
    probe = [rng.normal(size=4) for _ in range(3)]
    hs = np.array([0.04, 0.02, 0.01, 0.005])
    defects = np.array([radial_scaling_defect(a1, x, probe, h, weighted=weighted) for h in hs])
    assert defects[-1] < defects[0]
    slope = np.polyfit(np.log(hs), np.log(defects), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_radial_scaling_defect_degenerate_probe():
    S = StructureTriple.standard(1)
    a1 = kaehler_form(S, "i")
    x = np.eye(4)[0]
    er = x.copy()
    # a probe containing the radial direction twice gives 0 = 0
    d = radial_scaling_defect(a1, x, [er, er], 0.01)
    assert d < 1e-12
