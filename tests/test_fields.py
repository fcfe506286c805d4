import math
import operator
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

from fueterlab import stencil
from fueterlab.fields import (
    FueterPolynomialMap,
    GridField,
    _WINDOW_PLANES,
    _flat_windows,
    _identity_tables,
    differential,
    dirichlet_energy,
    domain_variation_derivative,
    energy_identity_defects,
    load_fld1,
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


def _window(node):
    """The 3^{4m} nodes around node, as an index for GridField.block."""
    return tuple(slice(i - 1, i + 2) for i in node)


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
    for n in (1, 2):
        vals = rng.normal(size=(5, 5, 5, 5, 4 * n))
        u = GridField.from_array(vals, 1, n, L=0.5)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_values_of_the_callable(bad):
    u = GridField.from_function(lambda p: np.where(p[..., :1] > 0.1, bad, p), 1, 1, 7)
    assert np.array_equal(u.evaluate([[0.0, 0.2, 0.0, 0.0]]), [[0.0, 0.2, 0.0, 0.0]])
    for pts in ([[0.2, 0.0, 0.0, 0.0]], [[0.0] * 4, [0.3, 0.1, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="^field values must be finite$"):
            u.evaluate(pts)


def test_evaluate_on_no_points_returns_no_values():
    u = GridField.from_function(lambda p: 2.0 * p, 1, 1, 7)
    assert u.evaluate(np.empty((0, 4))).shape == (0, 4)


def test_evaluate_on_a_dense_grid_raises():
    # a dense grid has values at its nodes only; its materialized
    # function-backed source still evaluates anywhere
    src = GridField.from_function(lambda p: 2.0 * p, 1, 1, 7, materialize=True)
    assert np.array_equal(src.evaluate([[0.1, 0.0, 0.0, 0.0]]), [[0.2, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="values at its nodes only"):
        GridField.from_array(src.values, 1, 1).evaluate(np.zeros((1, 4)))


@pytest.mark.parametrize("domain", ["torus", "sphere", ""])
def test_a_grid_field_is_a_box(domain, tmp_path):
    # the box [-L, L]^4 is the one domain: any other raises naming domain,
    # in the constructor and in an FLD1 header
    with pytest.raises(ValueError, match=f"^domain must be 'box', got '{domain}'$"):
        GridField(1, 1, domain, 0.5, (5,) * 4, values=np.zeros((5,) * 4 + (4,)))
    path = tmp_path / "field.fld1"
    save_fld1(GridField.from_array(np.zeros((5,) * 4 + (4,)), 1, 1), path)
    raw = path.read_bytes()
    assert b" domain=box " in raw[: raw.index(b"\n")]
    path.write_bytes(raw.replace(b" domain=box ", f" domain={domain} ".encode(), 1))
    with pytest.raises(ValueError, match=f"^domain must be 'box', got '{domain}'$"):
        load_fld1(path)


@pytest.mark.filterwarnings("ignore:invalid value encountered in log:RuntimeWarning")
def test_function_backed_grid_rejects_non_finite_values():
    # log(x + 0.3) is NaN wherever a coordinate is below -0.3, on every slab
    u = GridField.from_function(lambda p: np.log(p + 0.3), 1, 1, 7)
    with pytest.raises(ValueError, match="finite"):
        u.block(6)
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
        stencil.laplacian(u.block(_window((4, 8, 8, 8))), u.h, u.dim)
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


# a callable of the wrong shape on n = 1, 9 nodes, L = 0.5: the windows read
# components 0..3 of whatever last axis it returned, so 8 components gave
# p -> p's dirichlet_energy and w21_norm (0.6103515625, 0.3577345139513746),
# and no component axis read the last grid axis (0.6103515625, 0.3509521484375)
BAD_CALLABLES = {
    "eight_components": lambda p: np.concatenate([p, p], axis=-1),
    "no_component_axis": lambda p: p.sum(axis=-1),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLABLES))
def test_a_callable_of_the_wrong_shape_is_refused(name):
    u = GridField.from_function(BAD_CALLABLES[name], 1, 1, 9, L=0.5)
    reads = [dirichlet_energy, w21_norm, lambda u: u.values, lambda u: u.block((2, 3)),
             lambda u: u.evaluate(np.zeros((3, 4))), lambda u: u.evaluate(np.zeros(4))]
    for read in reads:
        with pytest.raises(ValueError, match=r"nodes \+ \(4n,\) = \(.*4,?\), got \("):
            read(u)
    ok = GridField.from_function(lambda p: p, 1, 1, 9, L=0.5)
    assert (dirichlet_energy(ok), w21_norm(ok)) == (0.6103515625, 0.3577345139513746)


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
def test_identity_tables_belong_to_their_own_triple(first):
    # J K I = -Id, so the cyclic permutation P of the standard triple is a
    # triple of its own, with other Kaehler forms; the tables built for one of
    # them must not serve the other, whichever comes first
    P = StructureTriple(1, S1.j_mat, S1.k_mat, S1.i_mat)
    As = np.random.default_rng(14).normal(size=(50, 4, 4))
    for S_tar in ([S1, P] if first == "standard" else [P, S1]):
        assert np.max(np.abs(energy_identity_defects(As, S1, S_tar))) < 1e-12


def test_energy_identity_triholomorphic_jet_gives_half_energy():
    import math

    from fueterlab.exterior import form_from_matrix, wedge, wedge_power

    _, basis = triholomorphic_kernel(S1, S1)
    rng = np.random.default_rng(5)
    A = sum(rng.normal() * B for B in basis)
    # LHS computed with full exterior algebra objects (independent route)
    lhs = 0.0
    for w in ("i", "j", "k"):
        a = kaehler_form(S1, w)
        Om = kaehler_form(S1, w)
        lhs += wedge(wedge_power(a, 1), form_from_matrix(A.T @ Om.as_matrix() @ A)).coeffs[0]
    lhs = -lhs / math.factorial(1)
    assert abs(lhs - 0.5 * np.sum(A * A)) < 1e-10
    assert abs(energy_identity_defects(A[None], S1, S1)[0]) < 1e-12


# the m = 2 kernels of the linear residual: dimension 24 at n = 1, 48 at n = 2
M2_KERNELS = {n: np.array(triholomorphic_kernel(S2, StructureTriple.standard(n))[1])
              for n in (1, 2)}


@st.composite
def structured_m2_jets(draw):
    """(n, A): an m = 2 jet that is a kernel combination, rank one, or has
    entries scaled across 1e-6..1e6, then scaled by one more such power.
    Each drawn unit is 0 or of magnitude 1e-6..1, so no square underflows."""
    n = draw(st.sampled_from([1, 2]))
    unit = st.one_of(st.just(0.0), st.builds(operator.mul, st.sampled_from([1.0, -1.0]),
                                             st.floats(1e-6, 1.0)))
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


def test_a_constant_term_is_its_own_value_with_a_zero_jacobian():
    c = np.array([0.5, -1.25, 2.0, 0.75])
    poly = FueterPolynomialMap([((), c)])
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 7, 4))
    for value in (poly.value, poly.value_direct):
        assert np.array_equal(value(pts), np.broadcast_to(c, (3, 7, 4)))
    assert np.array_equal(poly.jacobian(pts), np.zeros((3, 7, 4, 4)))


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


def _parent_evaluate(poly, pts, exps, coefs):
    # verbatim copy of FueterPolynomialMap._evaluate from before it formed
    # (coefs.T @ M).T: one M.T @ coefs over every column
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 4)
    out = np.empty((flat.shape[0], coefs.shape[1]))
    chunk = 1 << 19
    buf = None
    for k in range(0, flat.shape[0], chunk):
        part = flat[k : k + chunk]
        if buf is None or buf.shape[1] != part.shape[0]:
            buf = np.empty((len(exps), part.shape[0]))
        M = poly._monomials_t(part, exps, out=buf)
        out[k : k + chunk] = M.T @ coefs
    return out.reshape(pts.shape[:-1] + coefs.shape[1:])


@pytest.mark.parametrize("points", [1, 100, 35937, (1 << 19) + 5])
def test_evaluate_matches_the_parent_product_bitwise(points):
    # the value table (4 columns) and the jacobian table (16)
    pts = np.random.default_rng(points).uniform(-1.0, 1.0, size=(points, 4))
    for poly in (triholomorphic_suite()[1], triholomorphic_suite()[4]):
        for exps, coefs in poly._expand():
            got = poly._evaluate(pts, exps, coefs)
            assert got.tobytes() == _parent_evaluate(poly, pts, exps, coefs).tobytes()


def test_evaluate_matches_the_parent_product_on_one_blas_thread():
    # one OpenBLAS thread adds (coefs.T @ M).T over all 16 jacobian columns
    # in another order than M.T @ coefs at 35,937 points, and over 4 in the same
    here = Path(__file__).resolve()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_evaluate_matches_the_parent_product_bitwise"],
        capture_output=True, text=True, cwd=here.parent.parent,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert run.returncode == 0, run.stdout + run.stderr
    assert "4 passed" in run.stdout


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
    assert np.array_equal(streamed.block(4), dense.block(4))
    want = dirichlet_energy(dense)
    assert want > 0.0
    assert dirichlet_energy(streamed) == want


def _parent_windows(self):
    """Yield (i0, window) over the axis-0 planes i0 .. i0 + k - 1 of the
    interior, k <= _WINDOW_PLANES (the parent's box path).

    A window holds those planes and one halo plane on each side of them,
    so box differences over it cover exactly its k planes.  It holds the
    whole in-slab extent (a view when the grid is dense).  A
    function-backed grid is evaluated slab by slab, each plane once, and
    never materialized.
    """
    N = self.shape[0]
    margin = self.interior_margin()
    lo, hi = margin, N - margin
    planes = {}
    for i0 in range(lo, hi, _WINDOW_PLANES):
        idx = list(range(i0 - 1, min(i0 + _WINDOW_PLANES, hi) + 1))
        if self._values is not None:
            yield i0, self._values[idx[0] : idx[-1] + 1]
            continue
        # the two planes a window shares with the next are evaluated once
        planes = {i: planes[i] if i in planes else self.block(i) for i in idx}
        yield i0, np.stack([planes[i] for i in idx])


def _parent_dirichlet_energy(u: GridField) -> float:
    """sum over interior nodes of |du|^2_F h^{4m}, without the 1/2 factor,
    one slab at a time over the parent's `GridField.windows` (`_parent_windows`),
    so the full field is never materialized."""
    N = u.shape[0]
    margin = u.interior_margin()
    d = u.dim
    # the in-slab differences cover the 1-interior of a window's planes
    core = (slice(1, -1),) * (d - 1)
    inner = (slice(margin - 1, N - margin - 1),) * (d - 1)
    total = 0.0
    for _, win in _parent_windows(u):
        for k in range(1, win.shape[0] - 1):
            sm, s0, sp = win[k - 1], win[k], win[k + 1]
            acc = np.sum(stencil.first(sp[core], sm[core], u.h) ** 2, axis=-1)
            for a in range(d - 1):
                acc += np.sum(stencil.d1(s0, a, u.h, d - 1) ** 2, axis=-1)
            total += float(acc[inner].sum())
    return total * u.h**u.dim


@pytest.mark.parametrize("m, n, domain, nodes, dense", [
    (1, 1, "box", 11, True),
    (1, 2, "box", 7, True),
    (1, 1, "box", 10, False),
    (1, 1, "box", 9, False),
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


@pytest.mark.parametrize("domain", ["box"])
def test_fanned_out_norms_evaluate_each_plane_once(domain, workers):
    # more workers than cores and a short switch interval, so that a window
    # or a plane taken twice or lost would show in the counts or the bits
    u, calls = _plane_counting_grid(domain)
    # planes 1 .. N - 2 are read, each over its in-slab nodes 1 .. N - 2
    planes = ring = 11
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
            assert sorted(calls) == [(ring,) * 3] * planes
            assert sum(math.prod(c) for c in calls) == planes * ring**3
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
    # the Laplacian at a node is stencil.laplacian of the window around it
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4))
    u = GridField.from_function(lambda p: p @ A.T, 1, 1, 9, L=0.5, materialize=True)
    lap = stencil.laplacian(u.block(_window((4, 4, 4, 4))), u.h, u.dim)
    assert lap.shape == (1, 1, 1, 1, 4)
    assert np.max(np.abs(lap)) < 1e-10

    def quad(p):
        r2 = np.sum(p * p, axis=-1)
        return np.stack([r2, r2, r2, r2], axis=-1)

    v = GridField.from_function(quad, 1, 1, 9, L=0.5, materialize=True)
    lap = stencil.laplacian(v.block(_window((4, 4, 4, 4))), v.h, v.dim)
    assert np.max(np.abs(lap - 2.0 * 4)) < 1e-9


def _bump_field(p):
    r2 = np.sum(p * p, axis=-1) / 0.09
    w = np.exp(-np.clip(r2, 0, 50.0)) * (r2 < 1.0)
    return w[..., None] * np.ones(4)


def test_domain_variation_derivative():
    u_tri = grid_from_poly(standard_triholomorphic_field(seed=5, degree=2), nodes=17)
    zero = domain_variation_derivative(u_tri, lambda p: np.zeros(p.shape))
    assert zero == 0.0
    # flat structures + a quadratic triholomorphic field: the central
    # differences read it exactly, so the stress-energy pairing is 0 to
    # rounding (|val| / E measured 1.2e-17)
    val = domain_variation_derivative(u_tri, _bump_field)
    assert abs(val) <= 1e-12 * dirichlet_energy(u_tri)

    # generic field against the oracle, the symmetric difference in t of the
    # energy of u composed with Id + tX.  The offset b breaks the oddness of
    # tanh(p @ A.T) against the even bump, which made E(t) = E(-t) (measured
    # 0.126016 against 0.124802, 0.125386 and 0.125532 at t = h/4, h/8, h/16)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)

    def tanh_field(p):
        return np.tanh(p @ A.T + b)

    gen = GridField.from_function(tanh_field, 1, 1, 17, L=0.5)
    val = domain_variation_derivative(gen, _bump_field)
    assert not gen.is_dense()  # evaluated on its nodes, not materialized

    def energy_at(t):
        return dirichlet_energy(GridField.from_function(
            lambda p: tanh_field(p + t * _bump_field(p)), 1, 1, 17, L=0.5))

    t = gen.h / 8
    oracle = stencil.first(energy_at(t), energy_at(-t), t)
    assert abs(oracle) > 0.1
    assert abs(val - oracle) < 0.05 * abs(oracle)
    # the same field stored on the grid gives the same value
    stored = GridField.from_array(grid_from_poly(tanh_field, 17).values, 1, 1, L=0.5)
    assert domain_variation_derivative(stored, _bump_field) == val


def test_domain_variation_rejects_boundary_support():
    u = grid_from_poly(standard_triholomorphic_field(seed=5, degree=1), nodes=17)
    with pytest.raises(ValueError):
        domain_variation_derivative(u, lambda p: np.ones(p.shape))


def test_w21_suite_members_have_bounded_energy():
    for poly in triholomorphic_suite():
        u = grid_from_poly(poly, nodes=13)
        assert np.isfinite(dirichlet_energy(u))
