"""Energy ratios, the exact flat monotonicity formula, the perturbed
almost-monotone quantity, and the eps-regularity detector.

Ball quadrature uses cell-fraction weights: cells cut by the sphere get the
fraction of 3^{4m} subcell centers inside the ball.  Every ball quantity
reads one stream of axis-0 slabs with their weights (`_cell_weights` over
`_ball_slabs`) and sums its own integrand, so function-backed grids at fine
spacings stay within memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import stencil
from .exterior import basis_form, index_tuples
from .fields import GridField, _identity_tables, _pairing_table, _planes, _wedge_pairing
from .quat import StructureTriple

__all__ = [
    "RatioProfile",
    "EpsRegularityReport",
    "energy_ratio",
    "monotonicity_defect",
    "ratio_profile",
    "almost_monotone_sweep",
    "eps_regularity_scan",
    "EPS_REG_GRADIENT_C",
]

# empirical gradient-estimate constant, calibrated once on the triholomorphic
# suite (max observed sup|grad| * r / sqrt(ratio) was ~2.5) and then frozen
EPS_REG_GRADIENT_C = 4.0


def _subcell_offsets(d, h):
    g = np.array([-h / 3.0, 0.0, h / 3.0])
    mesh = np.meshgrid(*([g] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)  # (3^d, d)


def _ball_slabs(u: GridField, center, reach):
    """Yield (pts, rho_sq, du) for each axis-0 slab of the nodes within `reach`
    of center: their points, squared distances |p - c|^2 and central-difference
    du rows of shape (M, 4n, 4m).  Each slab's values are read once."""
    center = np.asarray(center, dtype=float)
    d = u.dim
    h = u.h
    if center.shape != (d,):
        raise ValueError("center must be a point of the domain")
    if reach + 2 * h > u.L - np.abs(center).max():
        raise ValueError("ball exits the domain interior")
    coords = u.axis_coords()
    # per-axis index windows: core (quadrature nodes) and extended (stencil)
    tol = min(1e-12, 1e-9 * h)  # rounding slack, a fraction of h on the finest grids
    lo = [np.searchsorted(coords, center[a] - reach - tol) for a in range(d)]
    hi = [np.searchsorted(coords, center[a] + reach + tol, side="right") for a in range(d)]
    ext = tuple(slice(lo[a] - 1, hi[a] + 1) for a in range(1, d))
    # the core nodes over the remaining axes, raveled: their points (the
    # axis-0 coordinate is set per slab), squared distances and flat indices
    # in the extended window, whose axis a + 1 has flat stride `step[a]`
    step = [math.prod(s.stop - s.start for s in ext[a + 1:]) for a in range(d - 1)]
    grids = np.meshgrid(*(range(lo[a], hi[a]) for a in range(1, d)), indexing="ij")
    pts_core = np.empty((grids[0].size, d))
    sq_rest, flat = 0.0, 0
    for a, g in enumerate(grids):
        g = g.ravel()
        x = pts_core[:, 1 + a] = coords[g]
        sq_rest = sq_rest + (x - center[1 + a]) ** 2
        flat = flat + (g - ext[a].start) * step[a]

    # slabs with a node within reach (rounding is monotone: the min decides)
    rest_min = sq_rest.min(initial=np.inf)
    starts = (i for i in range(lo[0], hi[0])
              if (coords[i] - center[0]) ** 2 + rest_min <= reach**2)
    for i, planes in _planes(u, starts, 1, hi[0], ext):
        rho_sq = (coords[i] - center[0]) ** 2 + sq_rest
        sel = np.nonzero(rho_sq <= reach**2)[0]
        du = stencil.jets([b.reshape(-1, u.target_dim) for b in planes], flat[sel], step, h)
        pts_core[:, 0] = coords[i]
        yield pts_core[sel], rho_sq[sel], du


# near-band nodes per chunk of subcell distances in `_cell_weights` (a count
# reads its own row only).  `monotonicity --grid 33 --seed 3` peaked at 56.1 MB
# RSS, at 58.2 MB with a slab's whole band at once and at 57.0 MB with one
# reused (2048, 81) buffer.  With 1024 the bench's `dense_grid` worker kept
# 9 MB more heap untrimmed after its ball pass (188-189 MB against 179 MB)
_NEAR_CHUNK = 2048


def _cell_weights(u: GridField, center, radii):
    """`_ball_slabs` out to the largest radius, each slab with one array of M
    cell-fraction weights per radius (one 2-D array raised the peak RSS of the
    65^4 defect by 7 MB): 1 for cells inside B_r(center), the fraction of
    3^{4m} subcell centres inside for cells the sphere cuts."""
    if not len(radii):
        raise ValueError("nothing to integrate")
    offsets = _subcell_offsets(u.dim, u.h)
    offsets_sq = np.sum(offsets**2, axis=1)
    # max|o| and a roundoff margin: nodes farther from the sphere weigh 0 or 1
    band = math.sqrt(offsets_sq.max()) * (1.0 + 1e-9)
    halfdiag = u.h * math.sqrt(u.dim) / 2.0
    for pts, rho_sq, du in _ball_slabs(u, center, max(radii) + halfdiag):
        rho = np.sqrt(rho_sq)
        diff = pts - center
        w = [np.zeros(len(rho)) for _ in radii]
        for k, r in enumerate(radii):
            w[k][rho <= r - band] = 1.0
            near = np.nonzero(np.abs(rho - r) <= band)[0]
            for lo in range(0, len(near), _NEAR_CHUNK):
                part = near[lo : lo + _NEAR_CHUNK]
                # |p + o - c|^2 = rho^2 + 2 (p - c) . o + |o|^2, summed in
                # place (IEEE addition commutes)
                d2 = diff[part] @ offsets.T
                d2 *= 2.0
                d2 += rho_sq[part, None]
                d2 += offsets_sq
                # the count over 3^d is exactly the mean of the booleans
                w[k][part] = np.count_nonzero(d2 <= r * r, axis=-1) / d2.shape[1]
        yield pts, rho_sq, du, w


@dataclass
class RatioProfile:
    """Radius sweep at one center: energy ratios, annulus radial terms, defects."""

    center: np.ndarray
    radii: list
    ratios: list
    radial_terms: list  # per annulus (radii[k-1], radii[k]); first entry 0
    defects: list

    def to_csv(self) -> str:
        lines = ["r,ratio,radial_term,defect"]
        for r, q, t, dft in zip(self.radii, self.ratios, self.radial_terms, self.defects):
            lines.append(f"{r:.17g},{q:.17g},{t:.17g},{dft:.17g}")
        return "\n".join(lines) + "\n"


def _profile(u: GridField, x, radii) -> RatioProfile:
    """The ball sums and ratio/defect arithmetic behind `energy_ratio`,
    `monotonicity_defect` and `ratio_profile`, which never call each other:
    the energy in every ball of the sorted ladder, the radial term on every
    annulus (radii[k-1], radii[k])."""
    radii = sorted(float(r) for r in radii)
    x = np.asarray(x, dtype=float)
    d = u.dim
    energy = np.zeros(len(radii))
    radial = np.zeros(len(radii[1:]))  # one per annulus, none for an empty ladder
    for pts, rho_sq, du, w in _cell_weights(u, x, radii):
        safe = np.where(rho_sq > 0.0, np.sqrt(rho_sq), np.inf)  # the centre adds 0
        dur = np.einsum("mia,ma->mi", du, (pts - x) / safe[:, None])
        dur_sq = np.einsum("mi,mi->m", dur, dur)
        du_sq = np.einsum("mia,mia->m", du, du)
        for k in range(len(radii)):
            energy[k] += float(w[k] @ du_sq)
        for k in range(len(radii) - 1):
            wa = w[k + 1] - w[k]
            sel = wa > 0
            if sel.any():
                radial[k] += float((wa[sel] * dur_sq[sel]) @ (safe[sel] ** (2 - d)))
    energy *= u.h**d
    radial *= u.h**d
    ratios = [e / r ** (d - 2) for e, r in zip(energy, radii)]
    defects = [0.0] + [b - a - 2.0 * t for a, b, t in zip(ratios, ratios[1:], radial)]
    return RatioProfile(x, radii, ratios, [0.0] + list(radial), defects)


def energy_ratio(u: GridField, x, r: float) -> float:
    """r^(2-4m) * integral of |du|^2 over B_r(x), cell-fraction weighted."""
    return float(_profile(u, x, [r]).ratios[0])


def monotonicity_defect(u: GridField, x, s: float, R: float) -> float:
    """ratio(R) - ratio(s) - 2 * radial_term(s, R); near zero for
    triholomorphic fields with flat structures.  The radial term is the
    integral over B_R \\ B_s of |du(d/dr)|^2 |p-x|^(2-4m).

    The factor 2 belongs to the energy convention without the 1/2: the ratio
    difference of int |du|^2 equals twice the weighted radial integral (for
    the halved energy the constant would be 1).
    """
    if not s < R:
        raise ValueError("need s < R")
    if s < 3 * u.h:
        raise ValueError("inner radius below stencil resolution (need s >= 3h)")
    return float(_profile(u, x, [s, R]).defects[1])


def ratio_profile(u: GridField, x, radii) -> RatioProfile:
    """The sorted ladder's ratios, radial terms and defects; radii below 3h are accepted."""
    return _profile(u, x, radii)


def almost_monotone_sweep(u: GridField, x, radii, perturbation=None):
    """The almost-monotone quantity on a decreasing radius sweep: at radius r,
    (1+(4m-2)r)/r^(4m-2) times the integral over B_r(x) of
    w_1^(2m-1)^u*O_I + w_2^(2m-1)^u*O_J + w_3^(2m-1)^u*O_K, with the
    standard structures on domain and target.

    With flat forms and u triholomorphic the bracket equals -(2m-1)!/2 |du|^2,
    so the values are negative; `perturbation` may supply position-dependent
    domain 2-forms (m=1 only), as a callable from (M, 4) node points to
    (M, 3, 4, 4) skew matrices.

    Returns (values, violation): `values` follow the sweep order; `violation`
    is the largest failure of weak monotonicity of the energy-normalized
    sequence (for flat triholomorphic fields it is quadrature-level, for
    perturbed forms it grows like eps * r).
    Checks the paper's almost-monotonicity of almost-stationary maps.
    """
    if perturbation is not None and u.m != 1:
        raise ValueError("position-dependent forms are supported for m=1 only")
    radii = sorted((float(r) for r in radii), reverse=True)
    d = u.dim
    tables, W = _identity_tables(StructureTriple.standard(u.m), StructureTriple.standard(u.n))
    if perturbation is not None:
        # a node's tables: its forms' coefficients on the basis 2-forms' tables
        upper = np.triu_indices(d, 1)
        basis = np.stack([_pairing_table(basis_form(d, J)) for J in index_tuples(d, 2)])
    sums = np.zeros(len(radii))
    for pts, _, du, w in _cell_weights(u, x, radii):
        if perturbation is not None:
            Vs = np.asarray(perturbation(pts), dtype=float)
            if Vs.shape != (len(pts), 3, d, d):
                raise ValueError(f"perturbation must return (nodes, 3, {d}, {d}), got {Vs.shape}")
            tables = np.einsum("...p,pab->...ab", Vs[..., upper[0], upper[1]], basis)
        bracket = _wedge_pairing(du, tables, W)
        for k in range(len(radii)):
            sums[k] += float(w[k] @ bracket)
    sums *= u.h**d
    values = [(1.0 + (d - 2) * r) / r ** (d - 2) * s for r, s in zip(radii, sums)]
    norm = -2.0 / math.factorial(2 * u.m - 1)
    energylike = [norm * v for v in values]
    violation = 0.0
    for big, small in zip(energylike[:-1], energylike[1:]):
        violation = max(violation, small - big)
    return values, float(violation)


@dataclass
class EpsRegularityReport:
    eps0: float
    r: float
    flagged: list = field(default_factory=list)  # (node, ratio, sup_grad)
    unflagged: list = field(default_factory=list)  # (node, ratio)
    bound: float = 0.0
    violations: int = 0


def eps_regularity_scan(u: GridField, eps0: float, r: float,
                        stride=None) -> EpsRegularityReport:
    """Flag grid nodes whose energy ratio at radius r is below eps0 and check
    sup_{B_{r/2}} |du| <= C sqrt(eps0) / r on the flagged balls.  One ball pass
    per centre gives the ratio (as `energy_ratio`, to the bit) and the du rows
    on B_{r/2}, inside its reach; a flagged centre takes their max Frobenius norm."""
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
    report = EpsRegularityReport(eps0=eps0, r=r, bound=EPS_REG_GRADIENT_C * math.sqrt(eps0) / r)
    for node in itertools.product(idx, repeat=d):
        center = np.array([coords[i] for i in node])
        energy = 0.0
        inner = []  # du rows of the nodes in B_{r/2}, one array per slab
        for _, rho_sq, du, w in _cell_weights(u, center, [r]):
            energy += float(w[0] @ np.einsum("mia,mia->m", du, du))
            inner.append(du[rho_sq <= r * r / 4])
        ratio = energy * h**d / r ** (d - 2)
        if ratio < eps0:
            du = np.concatenate(inner)  # B_{r/2} holds at least the centre
            du_sq = sum(np.sum(du[:, :, a] ** 2, axis=-1) for a in range(d))
            sup = math.sqrt(du_sq.max())
            report.flagged.append((node, ratio, sup))
            if sup > report.bound:
                report.violations += 1
        else:
            report.unflagged.append((node, ratio))
    return report
