import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab import fields, stencil
from fueterlab.exterior import index_tuples
from fueterlab.fields import (
    FueterPolynomialMap,
    GridField,
    _flat_windows,
    _identity_tables,
    differential,
    dirichlet_energy,
    domain_variation_derivative,
    energy_identity_defects,
    heat_flow_step,
    laplacian_direct,
    load_fld1,
    pullback_closedness_defect,
    residual_operator_matrix,
    save_fld1,
    standard_triholomorphic_field,
    triholo_residual,
    triholomorphic_kernel,
    triholomorphic_suite,
)
from fueterlab.monotone import energy_ratio, eps_regularity_scan
from fueterlab.poisson import w21_norm
from fueterlab.quat import ONE, QI, QJ, QK, StructureTriple, kaehler_form, quat_mul_array

S1 = StructureTriple.standard(1)
S2 = StructureTriple.standard(2)


def grid_from_poly(poly, nodes=17, L=0.5):
    return GridField.from_function(poly, 1, 1, nodes, domain="box", L=L, materialize=True)


# ---------------------------------------------------------------------------
# grids, differentials, files


def test_differential_exact_on_affine():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    u = GridField.from_function(lambda p: p @ A.T + b, 1, 1, 9, L=0.5, materialize=True)
    du = differential(u, (4, 4, 4, 4))
    assert du.shape == (4, 4)
    assert np.max(np.abs(du - A)) < 1e-12
    const = GridField.from_function(lambda p: np.broadcast_to(b, p.shape), 1, 1, 9, L=0.5,
                                    materialize=True)
    assert np.max(np.abs(differential(const, (4, 4, 4, 4)))) == 0.0


def test_differential_quartic_error_order():
    poly = standard_triholomorphic_field(seed=3, degree=4)
    errs = []
    for nodes in (9, 17, 33):
        u = grid_from_poly(poly, nodes)
        mid = tuple(s // 2 for s in u.shape)
        x = u.axis_coords()[list(mid)]
        got = differential(u, mid)
        want = poly.jacobian(x[None])[0]
        errs.append(np.max(np.abs(got - want)))
    slope = np.polyfit(np.log([0.125, 0.0625, 0.03125]), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.25


def test_differential_rejects_an_overflowing_jet():
    # finite values whose central difference overflows to inf
    values = np.zeros((9,) * 4 + (4,))
    values[5, 4, 4, 4, 0] = 1e308
    values[3, 4, 4, 4, 0] = -1e308
    u = GridField.from_array(values, 1, 1)
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        differential(u, (4, 4, 4, 4))


def test_differential_boundary_error():
    u = GridField.from_function(lambda p: p, 1, 1, 9, L=0.5, materialize=True)
    with pytest.raises(ValueError):
        differential(u, (0, 4, 4, 4))


def test_fld1_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for domain, n in (("box", 1), ("torus", 1), ("box", 2)):
        vals = rng.normal(size=(5, 5, 5, 5, 4 * n))
        u = GridField.from_array(vals, 1, n, domain=domain, L=0.5)
        path = tmp_path / "field.fld1"
        save_fld1(u, path)
        v = load_fld1(path)
        assert v.m == u.m and v.n == u.n and v.domain == u.domain and v.L == u.L
        assert v.values.tobytes() == u.values.tobytes()  # bit-exact


@pytest.mark.parametrize("cut", ["short", "long", "header"])
def test_fld1_rejects_a_payload_of_the_wrong_length(tmp_path, cut):
    u = GridField.from_array(np.ones((5, 5, 5, 5, 4)), 1, 1, domain="box", L=0.5)
    path = tmp_path / "field.fld1"
    save_fld1(u, path)
    raw = path.read_bytes()
    header = raw[: raw.index(b"\n") + 1]
    path.write_bytes({"short": raw[:-1], "long": raw + b"\x00", "header": header}[cut])
    got = {"short": 8 * 2500 - 1, "long": 8 * 2500 + 1, "header": 0}[cut]
    with pytest.raises(ValueError, match=f"payload has {got} bytes, header dims need 20000"):
        load_fld1(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_field_rejects_non_finite_values(bad):
    vals = np.zeros((5, 5, 5, 5, 4))
    vals[4, 0, 2, 1, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        GridField.from_array(vals, 1, 1)


@pytest.mark.filterwarnings("ignore:invalid value encountered in log:RuntimeWarning")
def test_function_backed_grid_rejects_non_finite_values():
    # log(x + 0.3) is NaN wherever a coordinate is below -0.3, on every slab
    u = GridField.from_function(lambda p: np.log(p + 0.3), 1, 1, 7)
    with pytest.raises(ValueError, match="finite"):
        u.slab(6)
    with pytest.raises(ValueError, match="finite"):
        u.values  # noqa: B018
    assert not u.is_dense()
    with pytest.raises(ValueError, match="finite"):
        dirichlet_energy(u)
    with pytest.raises(ValueError, match="finite"):
        GridField.from_function(lambda p: np.log(p + 0.3), 1, 1, 7, materialize=True)
    # ball passes and node stencils read nodes the same way: on 17 nodes every
    # ball and stencil below reaches a coordinate below -0.3
    u = GridField.from_function(lambda p: np.log(p + 0.3), 1, 1, 17)
    with pytest.raises(ValueError, match="finite"):
        energy_ratio(u, np.zeros(4), 0.25)
    with pytest.raises(ValueError, match="finite"):
        eps_regularity_scan(u, 0.1, 0.2)
    with pytest.raises(ValueError, match="finite"):
        differential(u, (4, 8, 8, 8))
    with pytest.raises(ValueError, match="finite"):
        laplacian_direct(u, (4, 8, 8, 8))
    assert not u.is_dense()


def _sine_grid(N, materialize):
    # a pointwise callable: the rounding of a matrix product such as p @ A.T
    # can depend on the shape of the block it is evaluated on
    a, b = np.random.default_rng(6).normal(size=(2, 4))
    return GridField.from_function(lambda p: np.sin(a * p + b * p[..., ::-1]), 1, 1, N,
                                   materialize=materialize)


@st.composite
def node_index(draw, N=5, d=4):
    """An int or a non-empty slice for each of the first k grid axes."""
    out = []
    for _ in range(draw(st.integers(0, d))):
        if draw(st.booleans()):
            out.append(draw(st.integers(-N, N - 1)))
        else:
            out.append(draw(st.slices(N).filter(lambda sl: len(range(N)[sl]) > 0)))
    return tuple(out)


FN_GRID, DENSE_GRID = _sine_grid(5, False), _sine_grid(5, True)


@settings(max_examples=200, deadline=None)
@given(node_index())
def test_block_of_a_function_backed_grid_matches_the_dense_values(ix):
    got = FN_GRID.block(ix)
    want = DENSE_GRID.values[ix]
    assert got.shape == want.shape and np.array_equal(got, want)
    assert not FN_GRID.is_dense()


def test_block_reads_single_nodes_and_whole_slabs():
    for ix in [(), (1, 2, 3, 4), (0, -1, 2, -2), 3]:
        assert np.array_equal(FN_GRID.block(ix), DENSE_GRID.values[ix])
    assert FN_GRID.block(()).shape == (5, 5, 5, 5, 4)
    assert FN_GRID.block((1, 2, 3, 4)).shape == (4,)


def test_save_fld1_streams_a_function_backed_grid(tmp_path):
    streamed = _sine_grid(7, False)
    save_fld1(streamed, tmp_path / "streamed.fld1")
    assert not streamed.is_dense()
    save_fld1(_sine_grid(7, True), tmp_path / "dense.fld1")
    assert (tmp_path / "streamed.fld1").read_bytes() == (tmp_path / "dense.fld1").read_bytes()


def test_only_fields_reads_the_grid_callable():
    # every node read goes through GridField.block, so no other module
    # evaluates a grid's callable by itself
    src = Path(__file__).resolve().parent.parent / "src" / "fueterlab"
    offenders = [
        f"{path.name}:{k}"
        for path in sorted(src.glob("*.py"))
        if path.name != "fields.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\._fn\b", line)
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# residual and the linear kernel oracle


def test_triholo_residual_zero_jet_and_identity_jet():
    assert np.max(np.abs(triholo_residual(np.zeros((4, 4)), S1, S1))) == 0.0
    R = triholo_residual(np.eye(4), S1, S1)
    assert np.allclose(R, 4.0 * np.eye(4), atol=1e-14)
    assert abs(np.linalg.norm(R) - 8.0) < 1e-12


def test_triholo_residual_connection_term():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4))
    C = triholo_residual(A, S1, S1)
    assert np.max(np.abs(triholo_residual(A, S1, S1, connection=C))) < 1e-14


def test_triholo_residual_of_a_batch_is_the_residual_of_each_jet():
    rng = np.random.default_rng(4)
    for S_dom, S_tar in ((S1, S1), (S2, S1), (S1, S2)):
        As = rng.normal(size=(3, 5, S_tar.dim, S_dom.dim))
        R = triholo_residual(As, S_dom, S_tar)
        for idx in np.ndindex(3, 5):
            A = want = As[idx]
            for St, Sd in zip(S_tar.mats(), S_dom.mats()):
                want = want - St @ A @ Sd
            assert np.array_equal(R[idx], want)
    with pytest.raises(ValueError, match="does not match"):
        triholo_residual(np.zeros((2, 4, 8)), S1, S1)


def test_kernel_oracle_dimension_and_basis():
    dim, basis = triholomorphic_kernel(S1, S1)
    # computed once by the 16x16 linear solve, then frozen as a regression value
    assert dim == 12
    assert [len(M2_KERNELS[n]) for n in (1, 2)] == [24, 48]
    for B in basis:
        assert np.linalg.norm(triholo_residual(B, S1, S1)) < 1e-12
    # left multiplications by imaginary units are in the kernel
    for M in S1.mats():
        assert np.linalg.norm(triholo_residual(M, S1, S1)) < 1e-13


def _parent_residual_operator_matrix(S_dom, S_tar):
    # verbatim copy from before the unit jets went through the residual as one batch
    dm, dn = S_dom.dim, S_tar.dim
    M = np.zeros((dn * dm, dn * dm))
    for p in range(dn * dm):
        E = np.zeros((dn, dm))
        E[p // dm, p % dm] = 1.0
        M[:, p] = triholo_residual(E, S_dom, S_tar).reshape(-1)
    return M


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_residual_operator_matrix_matches_the_parent_loop_bitwise(m, n):
    S_dom, S_tar = StructureTriple.standard(m), StructureTriple.standard(n)
    got = residual_operator_matrix(S_dom, S_tar)
    want = _parent_residual_operator_matrix(S_dom, S_tar)
    assert got.shape == want.shape == (16 * m * n, 16 * m * n)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# energy identity


def test_energy_identity_random_jets_m1_m2():
    rng = np.random.default_rng(4)
    A1 = rng.normal(size=(2000, 4, 4)) * 3.0
    assert np.max(np.abs(energy_identity_defects(A1, S1, S1))) < 1e-10
    A2 = rng.normal(size=(300, 4, 8))
    assert np.max(np.abs(energy_identity_defects(A2, S2, S1))) < 1e-10
    A22 = rng.normal(size=(100, 8, 8))
    assert np.max(np.abs(energy_identity_defects(A22, S2, S2))) < 1e-10


def _parent_energy_identity_defects(As, S_dom, S_tar):
    # verbatim copy from before the wedge pairing moved into a shared helper
    As = np.asarray(As, dtype=float)
    tables, W = _identity_tables(S_dom, S_tar)
    m = S_dom.d
    fact = math.factorial(2 * m - 1)
    lhs = np.zeros(As.shape[0])
    for K, Wl in zip(tables, W):
        G = np.einsum("nia,ij,njb->nab", As, Wl, As)
        lhs += 0.5 * np.einsum("ab,nab->n", K, G)
    lhs = -lhs / fact
    R = As.copy()
    for St, Sd in zip(S_tar.mats(), S_dom.mats()):
        R -= np.einsum("ij,njk,kl->nil", St, As, Sd)
    rhs = 0.5 * np.einsum("nab,nab->n", As, As) - 0.125 * np.einsum("nab,nab->n", R, R)
    return lhs - rhs


def test_energy_identity_defects_match_the_parent_pairing_bitwise():
    rng = np.random.default_rng(12)
    for S_dom, S_tar in ((S1, S1), (S2, S1), (S1, S2)):
        As = rng.normal(size=(500, S_tar.dim, S_dom.dim))
        got = energy_identity_defects(As, S_dom, S_tar)
        assert np.array_equal(got, _parent_energy_identity_defects(As, S_dom, S_tar))


@pytest.mark.parametrize("first", ["standard", "cyclic"])
def test_identity_tables_belong_to_their_own_triple(monkeypatch, first):
    # J K I = -Id, so the cyclic permutation P of the standard triple is a
    # triple of its own, with other Kaehler forms; the tables one of them
    # caches must not serve the other, whichever comes first
    monkeypatch.setattr(fields, "_identity_table_cache", {})
    P = StructureTriple(1, S1.j_mat, S1.k_mat, S1.i_mat)
    As = np.random.default_rng(14).normal(size=(50, 4, 4))
    for S_tar in ([S1, P] if first == "standard" else [P, S1]):
        assert np.max(np.abs(energy_identity_defects(As, S1, S_tar))) < 1e-12


def test_energy_identity_triholomorphic_jet_gives_half_energy():
    import math

    from fueterlab.exterior import pullback, wedge, wedge_power

    _, basis = triholomorphic_kernel(S1, S1)
    rng = np.random.default_rng(5)
    A = sum(rng.normal() * B for B in basis)
    # LHS computed with full exterior algebra objects (independent route)
    lhs = 0.0
    for w in ("i", "j", "k"):
        a = kaehler_form(S1, w)
        Om = kaehler_form(S1, w)
        lhs += wedge(wedge_power(a, 1), pullback(A, Om)).coeffs[0]
    lhs = -lhs / math.factorial(1)
    assert abs(lhs - 0.5 * np.sum(A * A)) < 1e-10
    assert abs(energy_identity_defects(A[None], S1, S1)[0]) < 1e-12


# the m = 2 kernels of the linear residual: dimension 24 at n = 1, 48 at n = 2
M2_KERNELS = {n: np.array(triholomorphic_kernel(S2, StructureTriple.standard(n))[1])
              for n in (1, 2)}


@st.composite
def structured_m2_jets(draw):
    """(n, A): an m = 2 jet that is a kernel combination, rank one, or has
    entries scaled across 1e-6..1e6, then scaled by one more such power."""
    n = draw(st.sampled_from([1, 2]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    kind = draw(st.sampled_from(["kernel", "rank-one", "scaled"]))
    if kind == "kernel":
        basis = M2_KERNELS[n]
        A = np.tensordot(draw(st.lists(unit, min_size=len(basis), max_size=len(basis))),
                         basis, axes=1)
    elif kind == "rank-one":
        x, y = (np.array(draw(st.lists(unit, min_size=k, max_size=k))) for k in (4 * n, 8))
        A = np.outer(x, y)
    else:
        size = 4 * n * 8
        mant = np.array(draw(st.lists(unit, min_size=size, max_size=size)))
        exps = np.array(draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size)))
        A = (mant * 10.0**exps).reshape(4 * n, 8)
    return n, A * 10.0 ** draw(st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(structured_m2_jets())
def test_energy_identity_holds_on_structured_m2_jets(jet):
    n, A = jet
    defect = energy_identity_defects(A[None], S2, StructureTriple.standard(n))[0]
    assert abs(defect) <= 1e-12 * np.sum(A * A)


def test_energy_identity_zero_jet():
    assert energy_identity_defects(np.zeros((1, 4, 4)), S1, S1)[0] == 0.0


# ---------------------------------------------------------------------------
# Fueter polynomial fields


def test_fueter_fields_are_triholomorphic_pointwise():
    rng = np.random.default_rng(6)
    for seed, degree in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        poly = standard_triholomorphic_field(seed=seed, degree=degree)
        pts = rng.normal(size=(50, 4))
        J = poly.jacobian(pts)
        for k in range(50):
            R = triholo_residual(J[k], S1, S1)
            assert np.max(np.abs(R)) < 1e-11
        # componentwise harmonic (flat target): check the Laplacian analytically
        # via second differences of the exact values at tiny h
        h = 1e-3
        x = pts[:5]
        lap = np.zeros((5, 4))
        for a in range(4):
            e = np.zeros(4)
            e[a] = h
            lap += (poly.value(x + e) - 2 * poly.value(x) + poly.value(x - e)) / h**2
        assert np.max(np.abs(lap)) < 1e-4 * max(1.0, np.max(np.abs(poly.value(x))))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_expanded_value_matches_product_form(degree):
    rng = np.random.default_rng(10 + degree)
    poly = standard_triholomorphic_field(seed=degree, degree=degree)
    pts = rng.uniform(-1.0, 1.0, size=(6, 40, 4))
    want = poly.value_direct(pts)
    got = poly.value(pts)
    assert got.shape == want.shape == (6, 40, 4)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_jacobian_matches_finite_differences():
    poly = standard_triholomorphic_field(seed=7, degree=4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 4)) * 0.4
    J = poly.jacobian(x)
    h = 1e-6
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        fd = (poly.value(x + e) - poly.value(x - e)) / (2 * h)
        assert np.max(np.abs(J[..., a] - fd)) < 1e-7


def _parent_expand(poly):
    # verbatim copy of FueterPolynomialMap._expand from before it compiled a
    # jacobian table beside the value table
    _UNITS = [ONE, QI, QJ, QK]

    def _arrangements(idx):
        import itertools as it

        return sorted(set(it.permutations(idx)))

    def z_poly(ell):
        # z_l = -(x_l + e_l x0) as {exponent tuple: quaternion coeff}
        e0 = [0, 0, 0, 0]
        e0[ell] = 1
        el = (1, 0, 0, 0)
        return {tuple(e0): -_UNITS[0].copy(), el: -_UNITS[ell].copy()}

    def poly_mul(p, q):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = quat_mul_array(ca, cb)
                out[e] = out.get(e, 0.0) + c
        return out

    total = {}
    for idx, c in poly.terms:
        if len(idx) == 0:
            term = {(0, 0, 0, 0): _UNITS[0].copy()}
        else:
            arr = _arrangements(idx)
            term = {}
            for order in arr:
                prod = z_poly(order[0])
                for ell in order[1:]:
                    prod = poly_mul(prod, z_poly(ell))
                for e, cc in prod.items():
                    term[e] = term.get(e, 0.0) + cc / len(arr)
        for e, cc in term.items():
            total[e] = total.get(e, 0.0) + quat_mul_array(cc, c)

    exps = np.array(sorted(total.keys()), dtype=int).reshape(-1, 4)
    coefs = np.stack([total[tuple(e)] for e in exps])
    return exps, coefs


def _parent_monomials_t(flat, exps, out=None):
    # verbatim copy of FueterPolynomialMap._monomials_t
    P = flat.shape[0]
    maxe = int(exps.max()) if len(exps) else 0
    pows = []
    for a in range(4):
        col = np.ascontiguousarray(flat[:, a])
        pa = [None, col]
        for _ in range(maxe - 1):
            pa.append(pa[-1] * col)
        pows.append(pa)
    M = np.empty((len(exps), P)) if out is None else out
    for t, e in enumerate(exps):
        row = M[t]
        row[:] = 1.0
        for a in range(4):
            if e[a]:
                row *= pows[a][e[a]]
    return M


def _parent_value(poly, pts):
    # verbatim copy of FueterPolynomialMap.value from before it shared one
    # chunked evaluator with jacobian
    pts = np.asarray(pts, dtype=float)
    exps, coefs = _parent_expand(poly)
    flat = pts.reshape(-1, 4)
    out = np.empty((flat.shape[0], 4))
    chunk = 1 << 19
    buf = None
    for k in range(0, flat.shape[0], chunk):
        part = flat[k : k + chunk]
        if buf is None or buf.shape[1] != part.shape[0]:
            buf = np.empty((len(exps), part.shape[0]))
        M = _parent_monomials_t(part, exps, out=buf)
        out[k : k + chunk] = M.T @ coefs
    return out.reshape(pts.shape[:-1] + (4,))


def _parent_jacobian(poly, pts):
    # verbatim copy of FueterPolynomialMap.jacobian from before it shared one
    # chunked evaluator with value: one monomial matrix per column
    pts = np.asarray(pts, dtype=float)
    exps, coefs = _parent_expand(poly)
    flat = pts.reshape(-1, 4)
    cols = []
    for a in range(4):
        keep = exps[:, a] > 0
        if not keep.any():
            cols.append(np.zeros((flat.shape[0], 4)))
            continue
        de = exps[keep].copy()
        dc = coefs[keep] * de[:, a : a + 1]
        de[:, a] -= 1
        M = _parent_monomials_t(flat, de)
        cols.append(M.T @ dc)
    return np.stack(cols, axis=-1).reshape(pts.shape[:-1] + (4, 4))


@pytest.mark.parametrize("batch", [(), (1,), (7,), (33, 33, 33)])
def test_value_and_jacobian_match_the_parent_evaluator(batch):
    rng = np.random.default_rng(13)
    for poly in triholomorphic_suite():
        pts = rng.uniform(-1.0, 1.0, size=batch + (4,))
        got = poly.value(pts)
        assert got.shape == batch + (4,)
        assert got.tobytes() == _parent_value(poly, pts).tobytes()
        # the jacobian's matrix products now run over the union of the
        # columns' monomials, so BLAS may add in another order
        J, want = poly.jacobian(pts), _parent_jacobian(poly, pts)
        assert J.shape == batch + (4, 4)
        assert np.max(np.abs(J - want)) <= 1e-15 * np.max(np.abs(want))


def test_value_matches_the_parent_evaluator_past_one_chunk():
    pts = np.random.default_rng(14).uniform(-1.0, 1.0, size=((1 << 19) + 7, 4))
    poly = triholomorphic_suite()[4]
    assert poly.value(pts).tobytes() == _parent_value(poly, pts).tobytes()


# ---------------------------------------------------------------------------
# energies, Laplacians, closedness


def test_dirichlet_energy_affine():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(4, 4))
    u = GridField.from_function(lambda p: p @ A.T, 1, 1, 17, L=0.5, materialize=True)
    # interior volume is (2L - 4h)^4 after dropping the 2h statistics layer
    h = u.h
    side = 2 * u.L - 4 * h  # 13 cells per axis, nodes 2..14
    # node sum times h^4 corresponds to the open cell cover of the interior nodes
    vol = (13 * h) ** 4
    want = np.sum(A * A) * vol
    assert abs(dirichlet_energy(u) - want) < 1e-10 * max(1.0, abs(want))
    const = GridField.from_function(lambda p: np.ones(p.shape), 1, 1, 9, L=0.5,
                                    materialize=True)
    assert dirichlet_energy(const) == 0.0


def test_dirichlet_energy_function_backed_matches_materialized():
    poly = standard_triholomorphic_field(seed=2, degree=4)
    streamed = GridField.from_function(poly, 1, 1, 9, domain="box", L=0.5)
    dense = GridField.from_function(poly, 1, 1, 9, domain="box", L=0.5, materialize=True)
    assert np.array_equal(streamed.slab(4), dense.slab(4))
    want = dirichlet_energy(dense)
    assert want > 0.0
    assert dirichlet_energy(streamed) == want


def _parent_dirichlet_energy(u: GridField) -> float:
    """sum over interior nodes of |du|^2_F h^{4m}, without the 1/2 factor,
    one slab at a time over `GridField.windows`, so the full field is never
    materialized."""
    N = u.shape[0]
    margin = u.interior_margin()
    d = u.dim
    # the in-slab differences cover the 1-interior of a window's planes
    core = (slice(1, -1),) * (d - 1)
    inner = (slice(None) if u.domain == "torus" else slice(margin - 1, N - margin - 1),) * (d - 1)
    total = 0.0
    for _, win in u.windows():
        for k in range(1, win.shape[0] - 1):
            sm, s0, sp = win[k - 1], win[k], win[k + 1]
            acc = np.sum(stencil.first(sp[core], sm[core], u.h) ** 2, axis=-1)
            for a in range(d - 1):
                acc += np.sum(stencil.d1(s0, a, u.h, False, d - 1) ** 2, axis=-1)
            total += float(acc[inner].sum())
    return total * u.h**u.dim


@pytest.mark.parametrize("m, n, domain, nodes, dense", [
    (1, 1, "box", 11, True),
    (1, 2, "torus", 7, True),
    (1, 1, "box", 10, False),
    (1, 1, "torus", 9, False),
    (2, 1, "box", 6, True),
])
def test_dirichlet_energy_matches_the_parent_implementation_bitwise(m, n, domain, nodes, dense,
                                                                   workers):
    A = np.random.default_rng(nodes).normal(size=(4 * n, 4 * m))
    u = GridField.from_function(lambda p: np.sin(p @ A.T), m, n, nodes, domain=domain,
                                materialize=dense)
    assert u.is_dense() == dense
    want = _parent_dirichlet_energy(u)
    for cpus in (1, 4):
        workers(cpus)
        got = dirichlet_energy(u)
        assert got > 0.0
        assert got == want
    assert (u._values is not None) == dense


# ---------------------------------------------------------------------------
# the grid norms fanned out over worker threads


def _plane_counting_grid(domain, nan_plane=None):
    """A function-backed sine field on 13 nodes that records the shape of
    every call; plane `nan_plane` of axis 0 evaluates to NaN."""
    A = np.random.default_rng(5).normal(size=(4, 4))
    calls = []

    def fn(p):
        calls.append(p.shape[:-1])
        out = np.sin(p @ A.T)
        if nan_plane is not None and np.all(p[..., 0] == u.axis_coords()[nan_plane]):
            out[...] = np.nan
        return out

    u = GridField.from_function(fn, 1, 1, 13, domain=domain)
    return u, calls


@pytest.mark.parametrize("domain", ["box", "torus"])
def test_fanned_out_norms_evaluate_each_plane_once(domain, workers):
    # more workers than cores and a short switch interval, so that a window
    # or a plane taken twice or lost would show in the counts or the bits
    u, calls = _plane_counting_grid(domain)
    planes = 13 if domain == "torus" else 11  # a box reads planes 1 .. N - 2
    norms = (dirichlet_energy, w21_norm)
    want = [norm(u) for norm in norms]
    before = threading.active_count()
    workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for norm, value in zip(norms, want):
            calls.clear()
            assert norm(u) == value
            assert sorted(calls) == [(13, 13, 13)] * planes
            assert sum(math.prod(c) for c in calls) == planes * 13**3
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("nan_plane", [1, 6, 11])
def test_a_nan_on_any_plane_raises_from_both_fanned_out_norms(nan_plane, workers):
    u, _ = _plane_counting_grid("box", nan_plane)
    before = threading.active_count()
    workers(4)
    for norm in (dirichlet_energy, w21_norm):
        with pytest.raises(ValueError, match="^field values must be finite$"):
            norm(u)
        assert threading.active_count() == before


def test_an_error_in_a_worker_thread_reaches_the_caller(workers):
    u = _sine_grid(9, True)  # three windows
    raised = threading.Event()

    def kernel(i0, block, comps, bufs):
        if threading.current_thread() is threading.main_thread():
            raised.wait(5.0)  # leaves the other windows to the worker threads
            return None
        raised.set()
        raise RuntimeError(f"window {i0}")

    before = threading.active_count()
    workers(4)
    with pytest.raises(RuntimeError, match="^window "):
        _flat_windows(u, 1, kernel)
    assert threading.active_count() == before


def test_worker_count_comes_only_from_the_affinity_mask():
    # no environment variable sets it and no executor runs it (concurrent.futures
    # would also add its import to every CLI process)
    src = Path(__file__).resolve().parent.parent / "src" / "fueterlab"
    offenders = [
        f"{path.name}:{k}"
        for path in sorted(src.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\benviron\b|\bgetenv\b|concurrent\.futures|from concurrent\b", line)
    ]
    assert offenders == []
    probe = "import sys, fueterlab.cli; print('concurrent.futures' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src.parent)), check=True)
    assert run.stdout.strip() == "False"


def test_dirichlet_energy_bubble_scale_invariance():
    # a 2-D profile in the X2-plane: energy independent of scale delta (2-D
    # conformal invariance), up to O(h/delta)
    def profile(p, delta):
        y = p[..., 2:] / delta
        r2 = np.sum(y * y, axis=-1)
        den = 1.0 + r2
        out = np.zeros(p.shape[:-1] + (4,))
        out[..., 0] = 2 * y[..., 0] / den
        out[..., 1] = 2 * y[..., 1] / den
        out[..., 2] = (r2 - 1.0) / den
        return out

    energies = []
    for delta in (0.35, 0.25):
        u = GridField.from_function(lambda p: profile(p, delta), 1, 1, 49, L=0.75,
                                    materialize=True)
        energies.append(dirichlet_energy(u))
    assert abs(energies[0] - energies[1]) < 0.12 * energies[0]


def test_laplacian_direct_basics():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4))
    u = GridField.from_function(lambda p: p @ A.T, 1, 1, 9, L=0.5, materialize=True)
    assert np.max(np.abs(laplacian_direct(u, (4, 4, 4, 4)))) < 1e-10

    def quad(p):
        r2 = np.sum(p * p, axis=-1)
        return np.stack([r2, r2, r2, r2], axis=-1)

    v = GridField.from_function(quad, 1, 1, 9, L=0.5, materialize=True)
    lap = laplacian_direct(v, (4, 4, 4, 4))
    assert np.max(np.abs(lap - 2.0 * 4)) < 1e-9


def test_pullback_closedness_defect():
    Om = kaehler_form(S1, "i")
    const = GridField.from_function(lambda p: np.ones(p.shape), 1, 1, 9, L=0.5,
                                    materialize=True)
    assert pullback_closedness_defect(const, Om) == 0.0
    rng = np.random.default_rng(10)
    A = rng.normal(size=(4, 4))
    aff = GridField.from_function(lambda p: p @ A.T, 1, 1, 9, L=0.5, materialize=True)
    assert pullback_closedness_defect(aff, Om) < 1e-12
    poly = standard_triholomorphic_field(seed=4, degree=4)
    defects = []
    for nodes in (9, 17, 33):
        u = grid_from_poly(poly, nodes)
        defects.append(pullback_closedness_defect(u, Om))
    assert defects[2] < defects[1] < defects[0]
    # pairwise slopes climb toward 2 (1.29, 1.69, 1.83 at 9/17/33/49 nodes);
    # assert the finest measured pair
    last_slope = (np.log(defects[2]) - np.log(defects[1])) / np.log(0.5)
    assert last_slope > 1.5


def _parent_pullback_closedness_defect(u: GridField, Omega) -> float:
    # verbatim copy from before each face term became one flux(a, b, c)
    if Omega.k != 2 or Omega.n != u.target_dim:
        raise ValueError("Omega must be a 2-form on the target")
    W = Omega.as_matrix()
    vals = u.values
    d = u.dim
    h = u.h
    if u.domain == "torus":
        # wrap-pad two layers so the box slicing below covers every cell
        vals = np.pad(vals, [(2, 2)] * d + [(0, 0)], mode="wrap")

    # du at every 1-interior node, then the pullback 2-form G_{ab} = (du^T W du)_{ab}
    du = np.stack([stencil.d1(vals, a, h, False, d) for a in range(d)], axis=-1)
    G = np.einsum("...ia,ij,...jb->...ab", du, W, du)

    M = G.shape[0]
    if M < 3:
        raise ValueError("grid too small for interior 3-cells")

    def corner_avg(comp, base_sl, ax_pair, shift_ax=None):
        # average of G[..., ax_pair] over the 4 corners of a face
        a, b = ax_pair
        tot = 0.0
        for da in (0, 1):
            for db in (0, 1):
                sl = list(base_sl)
                sl[a] = slice(sl[a].start + da, sl[a].stop + da)
                sl[b] = slice(sl[b].start + db, sl[b].stop + db)
                if shift_ax is not None:
                    ax, st = shift_ax
                    sl[ax] = slice(sl[ax].start + st, sl[ax].stop + st)
                tot = tot + comp[tuple(sl)]
        return tot / 4.0

    worst = 0.0
    base = [slice(0, M - 1)] * d
    for (a, b, c) in index_tuples(d, 3):
        Gbc, Gac, Gab = G[..., b, c], G[..., a, c], G[..., a, b]
        s = corner_avg(Gbc, base, (b, c), (a, 1)) - corner_avg(Gbc, base, (b, c), (a, 0))
        s -= corner_avg(Gac, base, (a, c), (b, 1)) - corner_avg(Gac, base, (a, c), (b, 0))
        s += corner_avg(Gab, base, (a, b), (c, 1)) - corner_avg(Gab, base, (a, b), (c, 0))
        worst = max(worst, float(np.max(np.abs(s))) / h)
    return worst


@pytest.mark.parametrize("grid", ["poly9", "poly17", "torus8", "box7"])
def test_pullback_closedness_defect_matches_the_parent_corner_sums_bitwise(grid):
    rng = np.random.default_rng(16)
    poly = standard_triholomorphic_field(seed=4, degree=4)
    u = {
        "poly9": lambda: grid_from_poly(poly, 9),
        "poly17": lambda: grid_from_poly(poly, 17),
        "torus8": lambda: GridField.from_array(rng.normal(size=(8,) * 4 + (4,)), 1, 1,
                                               domain="torus", L=1.0),
        "box7": lambda: GridField.from_array(rng.normal(size=(7,) * 4 + (4,)), 1, 1),
    }[grid]()
    for which in ("i", "j", "k"):
        Om = kaehler_form(S1, which)
        got = pullback_closedness_defect(u, Om)
        assert got > 0.0
        assert got == _parent_pullback_closedness_defect(u, Om)


def test_domain_variation_derivative():
    def bump_field(p):
        r2 = np.sum(p * p, axis=-1) / 0.09
        w = np.exp(-np.clip(r2, 0, 50.0)) * (r2 < 1.0)
        return w[..., None] * np.ones(4)

    u_tri = grid_from_poly(standard_triholomorphic_field(seed=5, degree=2), nodes=17)
    zero = domain_variation_derivative(u_tri, lambda p: np.zeros(p.shape))
    assert zero == 0.0
    val = domain_variation_derivative(u_tri, bump_field)
    # flat structures + triholomorphic field: stationary up to discretization
    # (|val| / E measured 1.6e-5)
    assert abs(val) <= 5e-3 * dirichlet_energy(u_tri)

    # generic field: symmetric difference consistency in t.  The offset b
    # breaks the oddness of tanh(p @ A.T) against the even bump, which made
    # E(t) = E(-t) and both sides zero (measured v1 = 0.1248, v2 = 0.1254)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    gen = GridField.from_function(lambda p: np.tanh(p @ A.T + b), 1, 1, 17, L=0.5,
                                  materialize=True)
    v1 = domain_variation_derivative(gen, bump_field, t=gen.h / 4)
    v2 = domain_variation_derivative(gen, bump_field, t=gen.h / 8)
    assert abs(v2) > 0.1
    assert abs(v1 - v2) < 0.05 * abs(v2)
    # the same field stored on the grid is resampled by multilinear
    # interpolation (measured 0.1209 and 0.1233)
    stored = GridField.from_array(gen.values, 1, 1, L=0.5)
    for t, v in ((gen.h / 4, v1), (gen.h / 8, v2)):
        assert abs(domain_variation_derivative(stored, bump_field, t=t) - v) < 0.05 * abs(v)


def test_domain_variation_rejects_boundary_support():
    u = grid_from_poly(standard_triholomorphic_field(seed=5, degree=1), nodes=17)
    with pytest.raises(ValueError):
        domain_variation_derivative(u, lambda p: np.ones(p.shape))


def test_heat_flow_dissipates():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(9, 9, 9, 9, 4))
    u = GridField.from_array(vals, 1, 1, domain="torus", L=1.0)
    dt_max = u.h**2 / 8.0
    const = GridField.from_array(np.ones((9, 9, 9, 9, 4)), 1, 1, domain="torus", L=1.0)
    assert np.max(np.abs(heat_flow_step(const, dt_max).values - const.values)) == 0.0
    # at the stability bound the energy is still (weakly) non-increasing,
    # though the Nyquist mode only alternates; run a few boundary steps
    e = dirichlet_energy(u)
    for _ in range(20):
        u = heat_flow_step(u, dt_max)
        e2 = dirichlet_energy(u)
        assert e2 <= e * (1 + 1e-12)
        e = e2
    # strictly inside the bound every mode damps: fluctuation decays
    # monotonically after a transient over a long run
    dt = u.h**2 / 16.0
    sups = []
    for _ in range(1000):
        u = heat_flow_step(u, dt)
        e2 = dirichlet_energy(u)
        assert e2 <= e * (1 + 1e-12)
        e = e2
        sups.append(np.max(np.abs(u.values - u.values.mean(axis=(0, 1, 2, 3)))))
    tail = sups[50:]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))
    with pytest.raises(ValueError):
        heat_flow_step(u, 10 * dt)


def test_w21_suite_members_have_bounded_energy():
    for poly in triholomorphic_suite():
        u = grid_from_poly(poly, nodes=13)
        assert np.isfinite(dirichlet_energy(u))
