import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab import monotone, stencil
from fueterlab.bubbletree import synth_sequence
from fueterlab.fields import GridField, _identity_tables, standard_triholomorphic_field
from fueterlab.monotone import (
    almost_monotone_sweep,
    energy_ratio,
    _subcell_offsets,
    eps_regularity_scan,
    monotonicity_defect,
    ratio_profile,
)
from fueterlab.quat import StructureTriple


def poly_grid(seed=3, degree=4, nodes=29, L=0.55):
    poly = standard_triholomorphic_field(seed=seed, degree=degree)
    return GridField.from_function(poly, 1, 1, nodes, domain="box", L=L, materialize=True)


CONST = GridField.from_function(lambda p: np.ones(p.shape), 1, 1, 17, L=0.55,
                                materialize=True)
ORIGIN = np.zeros(4)


def test_energy_ratio_constant_field():
    assert energy_ratio(CONST, ORIGIN, 0.3) == 0.0


def test_energy_ratio_affine_matches_ball_volume():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    u = GridField.from_function(lambda p: p @ A.T, 1, 1, 41, L=0.55, materialize=True)
    for r in (0.25, 0.4):
        got = energy_ratio(u, ORIGIN, r)
        want = np.sum(A * A) * (np.pi**2 / 2.0) * r**2
        assert abs(got - want) < 0.01 * want


# u(x) = A x has exact central differences, so energy_ratio(u, x, r) r^2 / |A|_F^2
# is the weighted node volume sum_p w_p h^4 of B_r(x); L = 0.5 on 17 and 33 nodes
_LINEAR_A = np.random.default_rng(12).normal(size=(4, 4))
_LINEAR = {N: GridField.from_function(lambda p: p @ _LINEAR_A.T, 1, 1, N, L=0.5)
           for N in (17, 33)}
# |volume - pi^2 r^4 / 2| / (h r)^2 peaked at 1.17 on both grids over 1500
# draws of a centre in the origin's cell (every tenth at the node) and r in
# [0.08, 0.25]; halving h left 11% of those balls no closer to pi^2 r^4 / 2
_VOLUME_ERROR_C = 2.0


def _weighted_volume(u, x, r):
    return energy_ratio(u, x, r) * r**2 / np.sum(_LINEAR_A**2)


def _node_volume(u, x, r):
    """h^4 times the number of nodes within r of x."""
    c = u.axis_coords()
    sq = [(c - xa) ** 2 for xa in x]
    rho_sq = sq[0][:, None, None, None] + sq[1][None, :, None, None] + sq[2][None, None, :, None]
    return np.count_nonzero(rho_sq[..., None] + sq[3] <= r * r) * u.h**4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4),
       st.lists(st.floats(0.08, 0.25), min_size=2, max_size=4, unique=True))
def test_ball_weights_measure_the_ball(cell_point, radii):
    x = np.array(cell_point) * _LINEAR[17].h  # inside the cell at the origin node
    radii = sorted(radii)
    for u in _LINEAR.values():
        halfdiag = math.sqrt(u.dim) * u.h / 2
        vols = [_weighted_volume(u, x, r) for r in radii]
        for small, big in zip(vols, vols[1:]):
            assert big >= small * (1 - 1e-12)
        for r, vol in zip(radii, vols):
            # cells of nodes within r - halfdiag lie in the ball, those of
            # nodes beyond r + halfdiag outside it
            assert vol >= _node_volume(u, x, r - halfdiag) * (1 - 1e-12)
            assert vol <= _node_volume(u, x, r + halfdiag) * (1 + 1e-12)
            # second order in h: halving h quarters the bound on the distance
            assert abs(vol - np.pi**2 * r**4 / 2) <= _VOLUME_ERROR_C * (u.h * r) ** 2


def test_energy_ratio_scale_covariant():
    poly = standard_triholomorphic_field(seed=1, degree=2)
    lam = 2.0
    u = GridField.from_function(poly, 1, 1, 33, L=0.55, materialize=True)
    v = GridField.from_function(lambda p: poly(lam * p), 1, 1, 65, L=0.275,
                                materialize=True)
    # v = u(lam .): ratio_v(r) = ratio_u(lam r) (scale covariance of the ratio)
    r = 0.12
    got = energy_ratio(v, ORIGIN, r)
    want = energy_ratio(u, ORIGIN, lam * r)
    assert abs(got - want) < 0.02 * abs(want)


def test_ball_exits_domain():
    with pytest.raises(ValueError, match="exits the domain"):
        energy_ratio(CONST, ORIGIN, 0.6)


@pytest.mark.parametrize("ball", [ratio_profile, almost_monotone_sweep],
                         ids=["ratio_profile", "almost_monotone_sweep"])
def test_ball_input_checks(ball):
    with pytest.raises(ValueError, match="center must be a point"):
        ball(CONST, np.zeros(3), [0.1])
    with pytest.raises(ValueError, match="nothing to integrate"):
        ball(CONST, ORIGIN, [])


def test_radial_term_cases():
    const_fine = GridField.from_function(lambda p: np.ones(p.shape), 1, 1, 33, L=0.55,
                                         materialize=True)
    assert ratio_profile(const_fine, ORIGIN, [0.15, 0.4]).radial_terms[1] == 0.0
    # purely angular field: du(d/dr) = 0 up to discretization
    def angular(p):
        nrm = np.maximum(np.linalg.norm(p, axis=-1, keepdims=True), 1e-9)
        return p / nrm

    u = GridField.from_function(angular, 1, 1, 41, L=0.55, materialize=True)
    t = ratio_profile(u, ORIGIN, [0.15, 0.4]).radial_terms[1]
    assert t < 0.08 * energy_ratio(u, ORIGIN, 0.4)

    # purely radial field: the radial term carries the full annulus energy,
    # cross-check against a high-resolution 1-D quadrature oracle
    def radial(p):
        r2 = np.sum(p * p, axis=-1)
        out = np.zeros(p.shape[:-1] + (4,))
        out[..., 0] = r2
        return out

    v = GridField.from_function(radial, 1, 1, 49, L=0.55, materialize=True)
    s, R = 0.15, 0.4
    got = ratio_profile(v, ORIGIN, [s, R]).radial_terms[1]
    # |du(d/dr)|^2 = 4 rho^2; integrand 4 rho^2 * rho^-2 over the annulus
    rr = np.linspace(s, R, 20001)
    oracle = np.trapezoid(4 * rr**2 * rr**-2.0 * 2 * np.pi**2 * rr**3, rr)
    assert abs(got - oracle) < 0.02 * oracle
    # the defect, which reads this term, refuses an inner radius below 3h
    with pytest.raises(ValueError, match="need s >= 3h"):
        monotonicity_defect(v, ORIGIN, v.h, 0.4)


def test_monotonicity_defect_triholomorphic_refines():
    poly = standard_triholomorphic_field(seed=3, degree=4)
    defects = []
    hs = []
    for nodes in (35, 69):
        u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.55)
        defects.append(abs(monotonicity_defect(u, ORIGIN, 0.12, 0.4)))
        hs.append(u.h)
    assert defects[1] < defects[0]
    slope = (np.log(defects[1]) - np.log(defects[0])) / (np.log(hs[1]) - np.log(hs[0]))
    assert slope >= 1.0
    const_fine = GridField.from_function(lambda p: np.ones(p.shape), 1, 1, 33, L=0.55,
                                         materialize=True)
    assert monotonicity_defect(const_fine, ORIGIN, 0.15, 0.4) == 0.0


def test_ratio_monotone_up_to_quadrature():
    u = poly_grid(seed=4, nodes=33)
    prof = ratio_profile(u, ORIGIN, [0.15, 0.2, 0.3, 0.4])
    ratios = prof.ratios
    tol = 0.05 * max(ratios)
    assert all(b >= a - tol for a, b in zip(ratios, ratios[1:]))
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "r,ratio,radial_term,defect"
    assert len(csv.splitlines()) == 5


def test_almost_monotone_quantity_flat_cross_check():
    # flat forms: quantity/(1+2r) = -(2m-1)! * ratio/2 for triholomorphic fields
    u = poly_grid(seed=3, nodes=33)
    r = 0.3
    (q,), _ = almost_monotone_sweep(u, ORIGIN, [r])
    ratio = energy_ratio(u, ORIGIN, r)
    assert q < 0
    assert abs(q / (1 + 2 * r) + 0.5 * ratio) < 2e-2 * ratio
    assert almost_monotone_sweep(CONST, ORIGIN, [0.2]) == ([0.0], 0.0)


def test_almost_monotone_perturbation_needs_m1():
    # the perturbed bracket pairs 4x4 domain forms, so m = 2 is refused
    u = GridField.from_function(lambda p: p[..., :4], 2, 1, 5, L=0.5)
    with pytest.raises(ValueError, match="m=1 only"):
        almost_monotone_sweep(u, np.zeros(8), [0.1], perturbation=_tilted_forms)


def test_almost_monotone_perturbation_must_give_three_forms_per_node():
    # one form per node, (M, 4, 4), would pair as three tables: nodes 0, 1 and
    # 2's forms over the whole slab, silently where every slab holds 3 nodes
    # or more, as it does around a cell centre
    S = StructureTriple.standard(1)
    u = _parity_grids()["function"]
    with pytest.raises(ValueError, match=r"\(nodes, 3, 4, 4\), got \(\d+, 4, 4\)"):
        almost_monotone_sweep(u, np.full(4, u.h / 2), [3 * u.h, 6 * u.h],
                              perturbation=lambda p: np.broadcast_to(-S.i_mat, p.shape[:-1] + (4, 4)))


def test_almost_monotone_sweep_flat_and_perturbed():
    u = poly_grid(seed=3, nodes=33)
    radii = [0.4, 0.32, 0.25, 0.2, 0.15]
    S = StructureTriple.standard(1)

    vals_flat, viol_flat = almost_monotone_sweep(u, ORIGIN, radii)
    assert all(v < 0 for v in vals_flat)

    def perturbed(eps):
        def forms(pts):
            r = np.linalg.norm(pts, axis=-1)
            base = np.stack([-S.i_mat, -S.j_mat, -S.k_mat])  # flat form matrices
            out = np.broadcast_to(base, pts.shape[:-1] + base.shape).copy()
            # skew O(|x|) perturbation of magnitude eps|x|
            P = np.zeros((4, 4))
            P[0, 1], P[1, 0] = 1.0, -1.0
            out[..., 0, :, :] += (eps * r)[..., None, None] * P
            return out

        return forms

    vals_small, viol_small = almost_monotone_sweep(u, ORIGIN, radii,
                                                   perturbation=perturbed(0.05))
    vals_large, viol_large = almost_monotone_sweep(u, ORIGIN, radii,
                                                   perturbation=perturbed(0.2))
    ratio04 = energy_ratio(u, ORIGIN, 0.4)
    # the perturbation shifts the quantity by O(eps * r), linearly in eps
    d_small = max(abs(a - b) for a, b in zip(vals_small, vals_flat))
    d_large = max(abs(a - b) for a, b in zip(vals_large, vals_flat))
    assert d_small > 0
    assert abs(d_large / d_small - 4.0) < 0.4
    assert d_small <= 3.0 * 0.05 * 0.4 * ratio04
    # worst-case monotonicity violation stays within the C * eps * r envelope
    assert viol_small <= viol_flat + 3.0 * 0.05 * 0.4 * ratio04
    assert viol_large <= viol_flat + 3.0 * 0.2 * 0.4 * ratio04


def test_density_estimate_smooth_point():
    # smooth field: ratio = O(r^2), so the density, the r -> 0 limit of the
    # ratio, is 0.  An affine fit on 5h, 6.5h, 8h returns 0 within the
    # fit-error envelope (the quadratic leftover ~ ratio at the largest fitted
    # radius), which itself shrinks to 0 under refinement
    poly = standard_triholomorphic_field(seed=2, degree=2)
    thetas, scales = [], []
    for nodes in (33, 65, 129):
        u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.55)
        prof = ratio_profile(u, ORIGIN, [5 * u.h, 6.5 * u.h, 8 * u.h])
        ratios = prof.ratios
        # close to monotone in r: no dip beyond 5% of the largest ratio
        assert all(b >= a - 0.05 * max(ratios) for a, b in zip(ratios, ratios[1:]))
        thetas.append(abs(np.polyfit(prof.radii, ratios, 1)[1]))
        scales.append(ratios[2])
    for t, s in zip(thetas, scales):
        assert t <= s
    assert thetas[2] < thetas[0]


def test_density_estimate_refinement_stable():
    poly = standard_triholomorphic_field(seed=5, degree=2)
    thetas = []
    for nodes in (65, 129):
        u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.55)
        prof = ratio_profile(u, ORIGIN, [0.1, 0.13, 0.16])
        thetas.append(np.polyfit(prof.radii, prof.ratios, 1)[1])
    scale = abs(thetas[1]) + 1e-3
    assert abs(thetas[0] - thetas[1]) < 0.05 * scale


def test_eps_regularity_scan_constant_field():
    rep = eps_regularity_scan(CONST, 0.1, 0.2, stride=4)
    assert len(rep.unflagged) == 0
    assert all(s == 0.0 for _, _, s in rep.flagged)
    assert rep.violations == 0


def test_eps_regularity_scan_gradient_bound(monkeypatch):
    # ratios here run from 1.41 up, so eps0 = 2 flags 46 of the 81 centres
    u = poly_grid(seed=3, nodes=29, L=0.55)
    rep = eps_regularity_scan(u, eps0=2.0, r=0.15, stride=6)
    assert rep.flagged and rep.unflagged
    assert rep.violations == 0  # frozen constant honored on the suite
    # a bound no nonzero gradient meets: every flagged ball violates it
    monkeypatch.setattr(monotone, "EPS_REG_GRADIENT_C", 1e-9)
    rep = eps_regularity_scan(u, eps0=2.0, r=0.15, stride=6)
    assert rep.violations == len(rep.flagged) > 0
    assert all(s > rep.bound for _, _, s in rep.flagged)


def test_eps_regularity_unflagged_set_shrinks_with_scale():
    # members of a concentrating sequence: the region where the ratio exceeds
    # eps0 (not flagged as regular) tightens around the concentration plane
    from fueterlab.bubbletree import synth_sequence

    abc = (0.6, -0.48, 0.64)
    abc = tuple(np.array(abc) / np.linalg.norm(abc))
    seq = synth_sequence([(0.35, abc, (0.0, 0.0), 2.0, 1.0)], seed=3)
    spreads = []
    for ell in (3, 5):
        u = GridField.from_function(functools.partial(seq.eval4, ell), 1, 1, 21,
                                    domain="box", L=0.3)
        rep = eps_regularity_scan(u, eps0=0.5, r=0.12, stride=3)
        coords = u.axis_coords()
        # distance of unflagged (high-ratio) nodes from the {X2 = 0} plane
        dists = [
            np.linalg.norm([coords[n[2]], coords[n[3]]]) for n, _ in rep.unflagged
        ]
        assert dists, "concentration region must be visible"
        spreads.append(max(dists))
    assert spreads[1] <= spreads[0]


# ---------------------------------------------------------------------------
# bitwise parity of the ball passes with the implementation that evaluated
# function-backed grids through their callable by itself (verbatim copies)


def _hodge_dual_pairing(V):
    """Skew K with sum_{a<b} K_ab G_ab = (V ^ G)(vol) for 2-forms on R^4."""
    # verbatim copy of monotone's own table from before the perturbed bracket
    # took its tables from `fields._pairing_table`
    K = np.zeros_like(V)
    K[..., 0, 1] = V[..., 2, 3]
    K[..., 0, 2] = -V[..., 1, 3]
    K[..., 0, 3] = V[..., 1, 2]
    K[..., 1, 2] = V[..., 0, 3]
    K[..., 1, 3] = -V[..., 0, 2]
    K[..., 2, 3] = V[..., 0, 1]
    return K - np.swapaxes(K, -1, -2)


class _ParentBallPass:
    """One streaming pass over B_rmax(center) collecting weighted sums."""

    def __init__(self, u: GridField, center, radii, annuli=(), bracket=None):
        self.u = u
        self.center = np.asarray(center, dtype=float)
        self.radii = np.asarray(sorted(radii), dtype=float)
        self.annuli = list(annuli)
        self.bracket = bracket  # None or (S_dom, S_tar, forms_fn)
        d = u.dim
        if u.domain != "box":
            raise NotImplementedError("ball quadrature expects a box domain")
        if self.center.shape != (d,):
            raise ValueError("center must be a point of the domain")
        if not len(self.radii) and not self.annuli:
            raise ValueError("nothing to integrate")
        self.halfdiag = u.h * math.sqrt(d) / 2.0
        rmax = float(self.radii.max()) if len(self.radii) else 0.0
        for s, R in self.annuli:
            rmax = max(rmax, R)
        self.rmax = rmax
        room = u.L - np.abs(self.center).max()
        if rmax + self.halfdiag + 2 * u.h > room:
            raise ValueError("ball exits the domain interior")
        self.offsets = _subcell_offsets(d, u.h)

    def run(self):
        u = self.u
        d = u.dim
        h = u.h
        tdim = u.target_dim
        coords = u.axis_coords()
        reach = self.rmax + self.halfdiag
        # per-axis index windows: core (quadrature nodes) and extended (stencil)
        lo = [np.searchsorted(coords, self.center[a] - reach - 1e-12) for a in range(d)]
        hi = [np.searchsorted(coords, self.center[a] + reach + 1e-12, side="right") for a in range(d)]
        lo_e = [v - 1 for v in lo]
        hi_e = [v + 1 for v in hi]

        rest_coords = [coords[lo_e[a] : hi_e[a]] for a in range(1, d)]
        core_coords = [coords[lo[a] : hi[a]] for a in range(1, d)]
        ext_shape = tuple(hi_e[a] - lo_e[a] for a in range(1, d))
        core_shape = tuple(hi[a] - lo[a] for a in range(1, d))

        # flat gather indices from the core window into the extended block,
        # plus the +-1 shifts along every remaining axis (built once)
        strides = np.cumprod((ext_shape + (1,))[::-1])[::-1][1:]
        core_grids = np.meshgrid(
            *[np.arange(1, 1 + n) for n in core_shape], indexing="ij"
        )
        idx0 = sum(g.ravel() * s for g, s in zip(core_grids, strides))
        idx_shift = []
        for a in range(d - 1):
            idx_shift.append((idx0 + strides[a], idx0 - strides[a]))

        # squared distance and coordinates over the remaining axes
        sq_rest = 0.0
        for a, cc in enumerate(core_coords):
            shp = [1] * (d - 1)
            shp[a] = len(cc)
            sq_rest = sq_rest + ((cc - self.center[1 + a]) ** 2).reshape(shp)
        sq_rest = sq_rest.ravel()
        pts_rest = np.stack(
            [g.ravel() for g in np.meshgrid(*core_coords, indexing="ij")], axis=-1
        )

        n_r = len(self.radii)
        energy = np.zeros(n_r)
        bracket_sums = np.zeros(n_r)
        radial = np.zeros(len(self.annuli))

        cache = {}
        if not u.is_dense():
            mesh_e = list(np.meshgrid(*rest_coords, indexing="ij"))
            pts_ext = np.empty(mesh_e[0].shape + (d,))
            for a in range(1, d):
                pts_ext[..., a] = mesh_e[a - 1]

        def block(i):
            """Extended-window values of slab i, flattened to (P, 4n)."""
            if i not in cache:
                if u.is_dense():
                    sl = tuple([i] + [slice(lo_e[a], hi_e[a]) for a in range(1, d)])
                    cache[i] = u.values[sl].reshape(-1, tdim)
                else:
                    pts_ext[..., 0] = coords[i]
                    cache[i] = np.asarray(u._fn(pts_ext), dtype=float).reshape(-1, tdim)
            return cache[i]

        if self.bracket is not None:
            S_dom, S_tar, forms_fn = self.bracket
            tables, W = _identity_tables(S_dom, S_tar)

        for i in range(lo[0], hi[0]):
            x0 = coords[i]
            dx0sq = (x0 - self.center[0]) ** 2
            rho_sq = dx0sq + sq_rest
            sel = np.nonzero(rho_sq <= (self.rmax + self.halfdiag) ** 2)[0]
            if not len(sel):
                cache.pop(i - 1, None)
                continue
            bm, b0, bp = block(i - 1), block(i), block(i + 1)
            g0 = idx0[sel]
            du = np.empty((len(sel), tdim, d))
            du[:, :, 0] = stencil.first(bp[g0], bm[g0], h)
            for a in range(d - 1):
                gp, gm = idx_shift[a]
                du[:, :, 1 + a] = stencil.first(b0[gp[sel]], b0[gm[sel]], h)
            rho = np.sqrt(rho_sq[sel])

            pts = np.empty((len(sel), d))
            pts[:, 0] = x0
            pts[:, 1:] = pts_rest[sel]
            diff = pts - self.center
            safe = np.maximum(rho, 1e-300)
            er = diff / safe[:, None]
            du_sq = np.einsum("mia,mia->m", du, du)
            dur = np.einsum("mia,ma->mi", du, er)
            dur_sq = np.einsum("mi,mi->m", dur, dur)

            w_cache = {}
            osq = np.sum(self.offsets**2, axis=1)

            def weight(r):
                if r not in w_cache:
                    w = np.zeros(len(rho))
                    w[rho <= r - self.halfdiag] = 1.0
                    band = np.nonzero(np.abs(rho - r) <= self.halfdiag)[0]
                    if len(band):
                        # |p + o - c|^2 = rho^2 + 2 (p - c) . o + |o|^2
                        cross = diff[band] @ self.offsets.T  # (B, 3^d)
                        d2 = rho_sq[sel][band, None] + 2.0 * cross + osq[None, :]
                        w[band] = np.mean(d2 <= r * r, axis=-1)
                    w_cache[r] = w
                return w_cache[r]

            br = None
            if self.bracket is not None:
                if forms_fn is None:
                    br = 0.0
                    for K, Wl in zip(tables, W):
                        G = np.einsum("mia,ij,mjb->mab", du, Wl, du)
                        br = br + 0.5 * np.einsum("ab,mab->m", K, G)
                else:
                    Vs = np.asarray(forms_fn(pts), dtype=float)  # (M, 3, d, d)
                    br = 0.0
                    for ell, Wl in enumerate(W):
                        G = np.einsum("mia,ij,mjb->mab", du, Wl, du)
                        Kp = _hodge_dual_pairing(Vs[:, ell])
                        br = br + 0.5 * np.einsum("mab,mab->m", Kp, G)

            for k, r in enumerate(self.radii):
                w = weight(float(r))
                energy[k] += float(w @ du_sq)
                if br is not None:
                    bracket_sums[k] += float(w @ br)
            for k, (s, R) in enumerate(self.annuli):
                wa = weight(float(R)) - weight(float(s))
                sel = wa > 0
                if sel.any():
                    radial[k] += float(
                        (wa[sel] * dur_sq[sel]) @ (safe[sel] ** (2 - d))
                    )
            cache.pop(i - 1, None)

        cell = h**d
        return {
            "energy": energy * cell,
            "radial": radial * cell,
            "bracket": bracket_sums * cell,
        }


def _parent_sup_gradient(u: GridField, center, r):
    """Max Frobenius norm of the central-difference du over nodes in B_r(center)."""
    d = u.dim
    h = u.h
    coords = u.axis_coords()
    N = len(coords)
    lo = [max(1, int(np.searchsorted(coords, center[a] - r - 1e-12))) for a in range(d)]
    hi = [min(N - 1, int(np.searchsorted(coords, center[a] + r + 1e-12, side="right")))
          for a in range(d)]
    if any(l >= h_ for l, h_ in zip(lo, hi)):
        return 0.0
    ext = tuple(slice(lo[a] - 1, hi[a] + 1) for a in range(d))
    if u.is_dense():
        vals = u.values[ext]
    else:
        mesh = np.meshgrid(*[coords[ext[a]] for a in range(d)], indexing="ij")
        vals = np.asarray(u._fn(np.stack(mesh, axis=-1)), dtype=float)
    du_sq = 0.0
    for a in range(d):
        du_sq = du_sq + np.sum(stencil.d1(vals, a, h, d) ** 2, axis=-1)
    mesh = np.meshgrid(*[coords[lo[a] : hi[a]] for a in range(d)], indexing="ij")
    rho_sq = sum((mesh[a] - center[a]) ** 2 for a in range(d))
    inside = rho_sq <= r * r
    if not inside.any():
        return 0.0
    return float(np.sqrt(du_sq[inside].max()))


def _parity_grids():
    poly = standard_triholomorphic_field(seed=3, degree=4)
    ABC = tuple(np.array((0.6, -0.48, 0.64)) / np.linalg.norm((0.6, -0.48, 0.64)))
    seq = synth_sequence([(0.35, ABC, (0.0, 0.0), 2.0, 1.0)],
                         noise={"center_x1": (0.05, 0.0), "amplitude": 0.3}, seed=3)
    return {
        "dense": GridField.from_function(poly, 1, 1, 21, L=0.55, materialize=True),
        "function": GridField.from_function(poly, 1, 1, 21, L=0.55),
        "member": GridField.from_function(functools.partial(seq.eval4, 4), 1, 1, 21, L=0.3),
    }


def _tilted_forms(pts):
    S = StructureTriple.standard(1)
    base = np.stack([-S.i_mat, -S.j_mat, -S.k_mat])
    out = np.broadcast_to(base, pts.shape[:-1] + base.shape).copy()
    out[..., 0, 0, 1] += 0.2 * pts[..., 0]
    out[..., 0, 1, 0] -= 0.2 * pts[..., 0]
    return out


def _flat_forms(pts):
    S = StructureTriple.standard(1)
    return np.broadcast_to(np.stack([-S.i_mat, -S.j_mat, -S.k_mat]), pts.shape[:-1] + (3, 4, 4))


@pytest.mark.parametrize("kind", ["dense", "function", "member"])
def test_flat_forms_given_as_a_perturbation_give_the_flat_sweep_bitwise(kind):
    # both brackets are the one `fields._wedge_pairing`: the Kaehler forms
    # supplied at every node must reproduce the flat sweep to the bit
    u = _parity_grids()[kind]
    x, radii = np.array([0.003, -0.006, 0.0045, 0.0015]), [3 * u.h, 5 * u.h, 6 * u.h]
    assert (almost_monotone_sweep(u, x, radii, perturbation=_flat_forms)
            == almost_monotone_sweep(u, x, radii))


def test_perturbed_forms_are_read_at_the_nodes():
    # the forms see the grid's own coordinates, bit for bit: on this grid
    # (p - x) + x rounds off some of them, by too little to move the sweep's sums
    u = _parity_grids()["member"]
    seen = []

    def forms(pts):
        seen.append(pts.copy())
        return _tilted_forms(pts)

    almost_monotone_sweep(u, [0.003, -0.006, 0.0045, 0.0015], [3 * u.h, 6 * u.h],
                          perturbation=forms)
    assert np.isin(np.concatenate(seen), u.axis_coords()).all()


# the parent's `_profile` and `almost_monotone_sweep`, reading that single pass


def _parent_profile(u, x, radii):
    radii = sorted(float(r) for r in radii)
    out = _ParentBallPass(u, x, radii, annuli=list(zip(radii[:-1], radii[1:]))).run()
    d = u.dim
    ratios = [out["energy"][k] / radii[k] ** (d - 2) for k in range(len(radii))]
    radial_terms = [0.0] + list(out["radial"])
    defects = [0.0] + [
        ratios[k + 1] - ratios[k] - 2.0 * out["radial"][k] for k in range(len(radii) - 1)
    ]
    return monotone.RatioProfile(np.asarray(x, dtype=float), radii, ratios, radial_terms,
                                 defects)


def _parent_sweep(u, x, radii, perturbation=None):
    radii = sorted((float(r) for r in radii), reverse=True)
    bracket = (StructureTriple.standard(u.m), StructureTriple.standard(u.n), perturbation)
    out = _ParentBallPass(u, x, sorted(radii), bracket=bracket).run()
    d = u.dim
    m = u.m
    by_r = dict(zip(sorted(radii), out["bracket"]))
    values = [(1.0 + (d - 2) * r) / r ** (d - 2) * by_r[r] for r in radii]
    norm = -2.0 / math.factorial(2 * m - 1)
    energylike = [norm * v for v in values]
    violation = 0.0
    for big, small in zip(energylike[:-1], energylike[1:]):
        violation = max(violation, small - big)
    return values, float(violation)


def _parent_scan(u, eps0, r, stride=None):
    # verbatim copy from before the scan read its ratio and its gradient bound
    # from one ball pass per centre
    import itertools

    d = u.dim
    h = u.h
    coords = u.axis_coords()
    N = len(coords)
    margin = int(np.ceil((r + u.h * math.sqrt(d) / 2 + 2 * h) / h)) + 1
    if 2 * margin >= N:
        raise ValueError("radius too large for the grid")
    if stride is None:
        stride = max(1, (N - 2 * margin) // 6)
    idx = list(range(margin, N - margin, stride))
    report = monotone.EpsRegularityReport(eps0=eps0, r=r,
                                          bound=monotone.EPS_REG_GRADIENT_C * math.sqrt(eps0) / r)
    for node in itertools.product(idx, repeat=d):
        center = np.array([coords[i] for i in node])
        ratio = monotone.energy_ratio(u, center, r)
        if ratio < eps0:
            sup = _parent_sup_gradient(u, center, r / 2.0)
            report.flagged.append((node, ratio, sup))
            if sup > report.bound:
                report.violations += 1
        else:
            report.unflagged.append((node, ratio))
    return report


def _ball_pass_results(u, sweep=almost_monotone_sweep, scan=eps_regularity_scan):
    h = u.h
    x = np.array([0.003, -0.006, 0.0045, 0.0015])
    # eps0 at the median ratio, so both branches of the scan run
    ratios = sorted(q for _, q in scan(u, 0.0, 3 * h, stride=3).unflagged)
    rep = scan(u, ratios[len(ratios) // 2], 3 * h, stride=3)
    prof = ratio_profile(u, x, [3 * h, 4.5 * h, 6 * h])
    return [
        (prof.ratios, prof.radial_terms, prof.defects),
        monotonicity_defect(u, x, 3 * h, 6 * h),
        sweep(u, x, [3 * h, 5 * h, 6 * h]),
        sweep(u, x, [3 * h, 5 * h, 6 * h], perturbation=_tilted_forms),
        (rep.flagged, rep.unflagged, rep.violations),
    ]


@pytest.mark.parametrize("kind", ["dense", "function", "member"])
def test_ball_passes_match_the_parent_implementation_bitwise(kind, monkeypatch):
    u = _parity_grids()[kind]
    got = _ball_pass_results(u)
    flagged, unflagged, _ = got[-1]
    # each scan ratio is the one `energy_ratio` gives, to the bit
    coords = u.axis_coords()
    for node, ratio, *_ in flagged + unflagged:
        assert ratio == energy_ratio(u, coords[list(node)], 3 * u.h)
    # the profile behind the three ratio functions, the sweep and the scan,
    # each from the parent's single pass (the scan with its second reader)
    monkeypatch.setattr(monotone, "_profile", _parent_profile)
    want = _ball_pass_results(u, sweep=_parent_sweep, scan=_parent_scan)
    assert got == want
    assert flagged and unflagged
    assert kind == "dense" or not u.is_dense()


def _parent_ball_slabs(u: GridField, center, reach):
    """Yield (pts, rho_sq, du) for each axis-0 slab of the nodes within `reach`
    of center: their points, squared distances |p - c|^2 and central-difference
    du rows of shape (M, 4n, 4m).  Each slab's values are read once."""
    # verbatim copy from before the ball pass read its planes through
    # `fields._planes`
    center = np.asarray(center, dtype=float)
    d = u.dim
    h = u.h
    if u.domain != "box":
        raise NotImplementedError("ball quadrature expects a box domain")
    if center.shape != (d,):
        raise ValueError("center must be a point of the domain")
    if reach + 2 * h > u.L - np.abs(center).max():
        raise ValueError("ball exits the domain interior")
    tdim = u.target_dim
    coords = u.axis_coords()
    # per-axis index windows: core (quadrature nodes) and extended (stencil)
    lo = [np.searchsorted(coords, center[a] - reach - 1e-12) for a in range(d)]
    hi = [np.searchsorted(coords, center[a] + reach + 1e-12, side="right") for a in range(d)]
    core_coords = [coords[lo[a] : hi[a]] for a in range(1, d)]
    ext = tuple(slice(lo[a] - 1, hi[a] + 1) for a in range(1, d))
    core = (slice(1, -1),) * (d - 1)  # the core window inside the extended one

    # squared distance and coordinates over the remaining axes
    sq_rest = 0.0
    for a, cc in enumerate(core_coords):
        shp = [1] * (d - 1)
        shp[a] = len(cc)
        sq_rest = sq_rest + ((cc - center[1 + a]) ** 2).reshape(shp)
    du_core = np.empty((d,) + sq_rest.shape + (tdim,))
    sq_rest = sq_rest.ravel()
    # core-window points; the axis-0 coordinate is set per slab
    pts_core = np.empty((len(sq_rest), d))
    for a, g in enumerate(np.meshgrid(*core_coords, indexing="ij")):
        pts_core[:, 1 + a] = g.ravel()

    cache = {}  # extended-window values of the slabs i - 1, i and i + 1
    for i in range(lo[0], hi[0]):
        rho_sq = (coords[i] - center[0]) ** 2 + sq_rest
        sel = np.nonzero(rho_sq <= reach**2)[0]
        if len(sel):
            for j in (i - 1, i, i + 1):
                if j not in cache:
                    cache[j] = u.block((j,) + ext)
            bm, b0, bp = cache[i - 1], cache[i], cache[i + 1]
            # du on the whole core window by box slices, then the ball nodes' rows
            stencil.first(bp[core], bm[core], h, out=du_core[0])
            for a in range(d - 1):
                p, m = (stencil._at(b0, d - 1, {a: s}) for s in (1, -1))
                stencil.first(p, m, h, out=du_core[1 + a])
            du = np.empty((len(sel), tdim, d))
            for a in range(d):
                du[:, :, a] = du_core[a].reshape(-1, tdim)[sel]
            pts_core[:, 0] = coords[i]
            yield pts_core[sel], rho_sq[sel], du
        cache.pop(i - 1, None)


def test_ball_pass_reads_the_parent_blocks_in_the_parent_order(monkeypatch):
    poly = standard_triholomorphic_field(seed=3, degree=4)
    calls = []

    def fn(p):
        calls.append((p.shape, hashlib.sha256(p.tobytes()).digest()))
        return poly(p)

    u = GridField.from_function(fn, 1, 1, 17, L=0.55)
    x = np.array([0.003, -0.006, 0.0045, 0.0015])  # no node's coordinate

    def reads():
        calls.clear()
        prof = ratio_profile(u, x, [2 * u.h, 3.5 * u.h, 4 * u.h])
        rep = eps_regularity_scan(u, 0.05, 2 * u.h)  # 5 centres per axis
        assert len(rep.flagged) + len(rep.unflagged) == 625
        return list(calls), (prof.ratios, prof.defects, rep.flagged, rep.unflagged)

    got = reads()
    monkeypatch.setattr(monotone, "_ball_slabs", _parent_ball_slabs)
    want = reads()
    assert got == want
    assert not u.is_dense()


@pytest.mark.parametrize("materialize", [True, False])
def test_ball_pass_differences_only_the_nodes_it_yields(materialize, monkeypatch):
    # each of the 4m difference columns takes its operands at the M nodes a
    # slab yields, M x 4n values each, not at the slab's whole core window
    operands = []

    def first(p, m, h, out=None):
        operands.append((p.size, m.size))
        return central(p, m, h, out=out)

    central = stencil.first
    monkeypatch.setattr(stencil, "first", first)
    u = GridField.from_function(standard_triholomorphic_field(seed=3, degree=4), 1, 1, 17,
                                L=0.55, materialize=materialize)
    slabs = 0
    for center in (ORIGIN, np.array([0.003, -0.006, 0.0045, 0.0015])):
        for pts, _, du in monotone._ball_slabs(u, center, 0.3):
            size = len(pts) * u.target_dim
            assert operands == [(size, size)] * u.dim
            assert du.shape == (len(pts), u.target_dim, u.dim)
            operands.clear()
            slabs += 1
    assert slabs > 10 and u.is_dense() == materialize


def _parent_cell_weights(u: GridField, center, radii):
    # verbatim copy from before the near band's subcell distances were formed
    # over fixed chunks of nodes: one (M, 81) array for the whole band
    if not len(radii):
        raise ValueError("nothing to integrate")
    offsets = _subcell_offsets(u.dim, u.h)
    offsets_sq = np.sum(offsets**2, axis=1)
    band = math.sqrt(offsets_sq.max()) * (1.0 + 1e-9)
    d2_buf = np.empty((0, len(offsets)))
    halfdiag = u.h * math.sqrt(u.dim) / 2.0
    for pts, rho_sq, du in monotone._ball_slabs(u, center, max(radii) + halfdiag):
        rho = np.sqrt(rho_sq)
        diff = pts - center
        w = [np.zeros(len(rho)) for _ in radii]
        for k, r in enumerate(radii):
            w[k][rho <= r - band] = 1.0
            near = np.nonzero(np.abs(rho - r) <= band)[0]
            if len(near):
                if len(d2_buf) < len(near):
                    d2_buf = np.empty((len(near), len(offsets)))
                d2 = np.matmul(diff[near], offsets.T, out=d2_buf[: len(near)])
                d2 *= 2.0
                d2 += rho_sq[near, None]
                d2 += offsets_sq
                w[k][near] = np.count_nonzero(d2 <= r * r, axis=-1) / d2.shape[1]
        yield pts, rho_sq, du, w


def _near_band_sizes(u, center, r):
    """The near-band node count of each slab of the ball pass at radius r."""
    offsets = _subcell_offsets(u.dim, u.h)
    band = math.sqrt(np.sum(offsets**2, axis=1).max()) * (1.0 + 1e-9)
    halfdiag = u.h * math.sqrt(u.dim) / 2.0
    return [int(np.count_nonzero(np.abs(np.sqrt(rho_sq) - r) <= band))
            for _, rho_sq, _ in monotone._ball_slabs(u, center, r + halfdiag)]


@pytest.mark.parametrize("chunk", [7, 256, 2048])
@pytest.mark.parametrize("nodes, L, radii", [
    (29, 0.55, [0.4]),  # near bands of 0 to 1,682 nodes
    (17, 0.55, [0.05, 0.1, 0.23, 0.3]),
    (9, 0.55, [0.06]),  # a ball of a few nodes
])
def test_cell_weights_match_the_parent_bitwise(nodes, L, radii, chunk, monkeypatch):
    monkeypatch.setattr(monotone, "_NEAR_CHUNK", chunk)
    u = poly_grid(nodes=nodes, L=L)
    for center in (ORIGIN, np.array([0.003, -0.006, 0.0045, 0.0015])):
        got = list(monotone._cell_weights(u, center, radii))
        want = list(_parent_cell_weights(u, center, radii))
        assert len(got) == len(want) > 0
        for (p, q, du, w), (wp, wq, wdu, ww) in zip(got, want):
            assert p.tobytes() == wp.tobytes() and q.tobytes() == wq.tobytes()
            assert du.tobytes() == wdu.tobytes()
            assert [x.tobytes() for x in w] == [x.tobytes() for x in ww]


def test_cell_weights_hold_the_near_band_in_chunks(monkeypatch):
    # the parent held a slab's whole near band of subcell distances at once,
    # an (M, 81) array; the chunks hold at most two of _NEAR_CHUNK rows (the
    # next one is formed while the last is still bound), whatever the band
    import tracemalloc

    chunk = 256
    monkeypatch.setattr(monotone, "_NEAR_CHUNK", chunk)
    u = poly_grid(nodes=29, L=0.55)
    near = max(_near_band_sizes(u, ORIGIN, 0.4))
    assert near > 4 * chunk

    def peak(weights):
        tracemalloc.start()
        try:
            for _ in weights(u, ORIGIN, [0.4]):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    saved = peak(_parent_cell_weights) - peak(monotone._cell_weights)
    assert saved >= 0.9 * (near - 2 * chunk) * 81 * 8
