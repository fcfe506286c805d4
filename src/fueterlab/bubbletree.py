"""Blow-up detection, slice selection, concentration-scale search, rescaling,
neck analysis in cylinder coordinates, quantization accounting, bubble
structure identification, and the Wirtinger calibration defect - all exercised
on synthetic concentrating sequences with a ground-truth manifest.

Members are function-backed: a smooth base plus bubble profiles
phi((X2 - c)/delta_l) localized by a fixed cutoff in the 2-plane normal to the
concentration plane {X2 = 0}.  Profiles are arbitrary smooth finite-energy
2-D maps (flat targets admit no nonconstant finite-energy harmonic spheres),
so correctness is judged against the manifest, not against harmonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stencil
from .norms import ScalarGrid, hl_maximal, lorentz_21
from .poisson import smoothstep, smoothstep_slope
from .quat import SphereStructure, StructureTriple

__all__ = [
    "BubbleProfile",
    "BubbleSpec",
    "ConcentratingSequence",
    "SequenceManifest",
    "NeckView",
    "BubbleTree",
    "TreeNode",
    "QuantizeConfig",
    "NoConcentrationError",
    "NoAdmissibleSliceError",
    "make_profile",
    "synth_sequence",
    "blowup_set_detect",
    "defect_density",
    "slice_select",
    "concentration_scale",
    "rescale_and_extract",
    "neck_view",
    "neck_scan",
    "quantize",
    "bubble_structure",
    "calibration_defect",
]


class NoConcentrationError(RuntimeError):
    """The localized energy ratio never reaches the concentration target."""


class NoAdmissibleSliceError(RuntimeError):
    """No slice X1 has its maximal function and its Lorentz norm in bounds."""


# ---------------------------------------------------------------------------
# profiles


def _complete_frame(w, v2, n, rng):
    cols = [w, v2]
    while len(cols) < 3:
        cand = rng.normal(size=n)
        for c in cols:
            cand -= np.dot(cand, c) * c
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            cols.append(cand / nrm)
    return np.stack(cols, axis=1)  # (n, 3)


@np.errstate(over="ignore")
def _radii(y1, y2):
    """y1, y2, r2 = |y|^2 and 1 + r2 at the points y = (y1, y2): the terms
    a profile's value and gradient share.  y1 y1 + y2 y2 adds the same two
    numbers as np.sum(y * y, axis=-1), so r2 keeps that form's bits."""
    r2 = y1 * y1 + y2 * y2
    return y1, y2, r2, 1.0 + r2


def _points_last(g):
    """A component-first (4n, 2, ...) array as a C-contiguous (..., 4n, 2)."""
    return np.ascontiguousarray(np.moveaxis(g, (0, 1), (-2, -1)))


class BubbleProfile:
    """amplitude * frame @ sigma(y), with sigma the inverse stereographic map
    R^2 -> S^2; smooth, finite energy 8 pi amplitude^2, rank-2 differential.

    The frame is chosen so the jet at y = 0 is holomorphic for the complex
    structure -(a I + b J + c K) with the stored (a, b, c).
    """

    def __init__(self, amplitude, frame, structure: SphereStructure):
        self.amplitude = float(amplitude)
        self.frame = np.asarray(frame, dtype=float)  # (4n, 3)
        self.structure = structure
        self.target_dim = self.frame.shape[0]

    @np.errstate(over="ignore", invalid="ignore")
    def _sigma(self, y1, y2, r2, one_r2):
        """sigma as (..., 3) at the points of `_radii`."""
        s = np.stack([2 * y1 / one_r2, 2 * y2 / one_r2, (r2 - 1.0) / one_r2], axis=-1)
        # past |y| ~ 1.3e154 r2 overflows and (r2 - 1) / (1 + r2) is NaN: the limit is the pole
        s[np.isinf(r2), 2] = 1.0
        return s

    def _value(self, sigma):
        return self.amplitude * sigma @ self.frame.T

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self._value(self._sigma(*_radii(y[..., 0], y[..., 1])))

    def far_value(self):
        return self.amplitude * self.frame @ np.array([0.0, 0.0, 1.0])

    @np.errstate(over="ignore", invalid="ignore")
    def _grad(self, y1, y2, r2, one_r2):
        """The derivative of value at the points of `_radii`, component
        first: (4n, 2, ...), each (u, k) entry one array over the points."""
        den = one_r2**2
        # ds[i][k] = d sigma_i / d y_k; the off-diagonal entry is shared
        off = -4 * y1 * y2 / den
        ds = ((2 * (one_r2 - 2 * y1 * y1) / den, off),
              (off, 2 * (one_r2 - 2 * y2 * y2) / den),
              (4 * y1 / den, 4 * y2 / den))
        F = self.frame.reshape(self.frame.shape + (1,) * np.ndim(y1))
        out = np.empty((self.target_dim, 2) + np.shape(y1))
        for k in range(2):
            # the frame contraction, summed over i in einsum's order
            acc = np.multiply(F[:, 0], ds[0][k], out=out[:, k])
            acc += F[:, 1] * ds[1][k]
            acc += F[:, 2] * ds[2][k]
        # past |y| ~ 1e77 den overflows and ds is 0, its limit; past ~1e154 so do
        # the products 2 y1 y1, and inf - inf is NaN there: the same limit
        out[np.isnan(out)] = 0.0
        out *= self.amplitude
        return out

    def grad(self, y):
        """(..., 4n, 2) derivative of value."""
        y = np.asarray(y, dtype=float)
        return _points_last(self._grad(*_radii(y[..., 0], y[..., 1])))

    @np.errstate(over="ignore")
    def energy_density(self, rad):
        """|grad phi|^2 as a function of |y| (radially symmetric); past
        |y| ~ 1e77 the denominator overflows, and the density is 0, its limit."""
        return self.amplitude**2 * 8.0 / (1.0 + np.asarray(rad) ** 2) ** 2

    def total_energy(self):
        """Energy on R^2: fine-grid quadrature in log radius out to R plus the
        analytic tail of the reference profile."""
        R = 1e4
        t = np.linspace(np.log(1e-8), np.log(R), 4001)
        r = np.exp(t)
        integrand = self.energy_density(r) * 2.0 * np.pi * r * r  # dt measure
        return float(np.trapezoid(integrand, t)) + self.amplitude**2 * 8.0 * np.pi / (1.0 + R * R)


def make_profile(amplitude, structure: SphereStructure, n=1, seed=0) -> BubbleProfile:
    """Profile whose origin jet satisfies d2 phi = -(aI + bJ + cK) d1 phi."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=4 * n)
    w /= np.linalg.norm(w)
    J = structure.matrix(StructureTriple.standard(n))
    v2 = -J @ w
    frame = _complete_frame(w, v2, 4 * n, rng)
    return BubbleProfile(amplitude, frame, structure)


# ---------------------------------------------------------------------------
# sequences


@dataclass
class BubbleSpec:
    profile: BubbleProfile
    center: np.ndarray  # (2,) position in the X2-plane
    rate: float  # scale law delta_l = coef * rate^(-l)
    coef: float = 1.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)

    def scale(self, ell):
        return self.coef * self.rate ** (-float(ell))


@dataclass
class SequenceManifest:
    energies: list
    theta: float


class _ConstantBase:
    def __init__(self, value, target_dim):
        self.value_vec = (
            np.zeros(target_dim) if value is None else np.asarray(value, dtype=float)
        )

    def value(self, x2):
        x2 = np.asarray(x2, dtype=float)
        return np.broadcast_to(self.value_vec, x2.shape[:-1] + self.value_vec.shape).copy()

    def grad(self, x2):
        x2 = np.asarray(x2, dtype=float)
        return np.zeros(x2.shape[:-1] + (len(self.value_vec), 2))


class SmoothBase:
    """Analytic X2-dependent base profile (invariant along the plane), given
    by vectorized value / gradient callables."""

    def __init__(self, value_fn, grad_fn):
        self.value = value_fn
        self.grad = grad_fn


@dataclass
class _Noise:
    """X1-localized separable disturbance eta(X1) * exp(-|X2|^2/(2 s^2)) * dir."""

    center_x1: np.ndarray
    radius: float
    amplitude: float
    x2_scale: float
    direction: np.ndarray

    def _rho(self, x1):
        return np.linalg.norm(np.asarray(x1, dtype=float) - self.center_x1, axis=-1)

    def eta(self, x1):
        return self.amplitude * (1.0 - smoothstep(self._rho(x1) / self.radius))

    def grad_eta_sq(self, x1):
        """|grad eta|^2: eta is radial in X1, so its gradient has the length
        amplitude * smoothstep'(rho / radius) / radius."""
        return (self.amplitude * smoothstep_slope(self._rho(x1) / self.radius)
                / self.radius) ** 2

    def psi(self, x2):
        r2 = np.sum(np.asarray(x2, dtype=float) ** 2, axis=-1)
        return np.exp(-r2 / (2.0 * self.x2_scale**2))

    def psi_l2_sq(self):
        return float(np.pi * self.x2_scale**2)


class _SliceMap:
    """The 2-D map X2 -> u_l(X1, X2) with analytic values and gradients."""

    def __init__(self, seq, ell, x1, base_only=False):
        self.seq = seq
        self.ell = ell
        self.x1 = np.asarray(x1, dtype=float)
        self.base_only = base_only

    def value(self, x2):
        x2 = np.asarray(x2, dtype=float)
        seq = self.seq
        out = seq.base.value(x2)
        if self.base_only:
            return out
        chi, _ = _chi_radial(seq, np.linalg.norm(x2, axis=-1))
        for b in seq.bubbles:
            d = b.scale(self.ell)
            y = (x2 - b.center) / d
            out += chi[..., None] * (b.profile.value(y) - b.profile.far_value())
        if seq.noise is not None:
            out += (
                seq.noise.eta(self.x1)[..., None]
                * seq.noise.psi(x2)[..., None]
                * seq.noise.direction
            )
        return out

    def grad(self, x2):
        """(..., 4n, 2) gradient in the X2 variables.  Formed component
        first, (4n, 2, ...), so each term's (u, k) entry is one array over
        the points, with the elementwise operations of the term-by-term
        formula in its order; each bubble's profile shares its radii between
        its value and its gradient."""
        x2 = np.asarray(x2, dtype=float)
        seq = self.seq
        if self.base_only:
            return seq.base.grad(x2)
        out = np.ascontiguousarray(np.moveaxis(seq.base.grad(x2), (-2, -1), (0, 1)),
                                   dtype=float)  # summed into in place
        xs = np.moveaxis(x2, -1, 0)  # (2, ...)
        rho = np.maximum(np.linalg.norm(x2, axis=-1), 1e-300)
        chi, dchi = _chi_radial(seq, rho)
        dchi = dchi / rho * xs  # (2, ...)
        for b in seq.bubbles:
            d = b.scale(self.ell)
            prof = b.profile
            radii = _radii(*((x - c) / d for x, c in zip(xs, b.center)))
            term = prof._grad(*radii)  # chi * grad phi / d, in place
            term *= chi
            term /= d
            out += term
            dev = prof._value(prof._sigma(*radii)) - prof.far_value()
            out += np.multiply(np.ascontiguousarray(np.moveaxis(dev, -1, 0))[:, None], dchi,
                               out=term)
        if seq.noise is not None:
            psi = seq.noise.psi(x2)
            gpsi = -xs / seq.noise.x2_scale**2 * psi
            direction = seq.noise.direction.reshape((-1,) + (1,) * gpsi.ndim)
            out += seq.noise.eta(self.x1) * (direction * gpsi)
        return _points_last(out)

    def grad_sq(self, x2):
        g = self.grad(x2)
        return np.einsum("...uk,...uk->...", g, g)


class ConcentratingSequence:
    """Parametrized family u_l with a ground-truth manifest.

    The concentration plane is {X2 = 0}; bubbles (and the base) are invariant
    along it, which is what makes the 4m-ball quadratures reduce exactly to
    weighted 2-D integrals.  The optional noise term breaks the invariance in
    a controlled, X1-localized way for the slice-selection machinery.
    """

    def __init__(self, bubbles, base=None, n=1, m=1, cutoff_radius=0.3, noise=None):
        self.m = int(m)
        self.n = int(n)
        self.target_dim = 4 * self.n
        self.bubbles = list(bubbles)
        if base is None or isinstance(base, (list, tuple, np.ndarray)):
            self.base = _ConstantBase(base, self.target_dim)
        else:
            self.base = base
        self.cutoff_radius = float(cutoff_radius)
        self.noise = noise
        self._validate()
        self.manifest = self._build_manifest()

    def _validate(self):
        for i, a in enumerate(self.bubbles):
            for b in self.bubbles[i + 1 :]:
                same_center = np.linalg.norm(a.center - b.center) < 1e-12
                same_law = abs(a.rate - b.rate) < 1e-12 and abs(a.coef - b.coef) < 1e-12
                if same_center and same_law:
                    raise ValueError(
                        "overlapping same-scale bubbles at one center are rejected"
                    )

    def _build_manifest(self):
        energies = [b.profile.total_energy() for b in self.bubbles]
        return SequenceManifest(energies=energies, theta=float(sum(energies)))

    @property
    def x1_invariant(self):
        return self.noise is None

    def slice_map(self, ell, x1=(0.0, 0.0)) -> _SliceMap:
        return _SliceMap(self, ell, x1)

    def base_slice_map(self) -> _SliceMap:
        return _SliceMap(self, 0, (0.0, 0.0), base_only=True)

    def f_of_x1(self, ell, x1_points):
        """f_l(X1) = integral over X2 of |d u / d X1|^2 (zero when invariant)."""
        x1_points = np.asarray(x1_points, dtype=float)
        if self.noise is None:
            return np.zeros(x1_points.shape[:-1])
        return self.noise.grad_eta_sq(x1_points) * self.noise.psi_l2_sq()

    def eval4(self, ell, pts):
        """Values at 4-D points (X1 first 2 axes, X2 last 2); m = 1 only."""
        pts = np.asarray(pts, dtype=float)
        return _SliceMap(self, ell, pts[..., :2]).value(pts[..., 2:])


def synth_sequence(bubble_specs, base=None, n=1, cutoff_radius=0.3, noise=None,
                   seed=0) -> ConcentratingSequence:
    """Build a ConcentratingSequence from (amplitude, structure_abc, center,
    rate, coef) tuples; scale laws must decrease strictly in l, and bubbles
    sharing a center need separated scale laws."""
    rng = np.random.default_rng(seed)
    bubbles = []
    for spec in bubble_specs:
        amp, abc, center, rate, coef = spec
        if rate <= 1.0:
            raise ValueError("scale law must decrease strictly in l (rate > 1)")
        prof = make_profile(amp, SphereStructure(*abc), n=n,
                            seed=int(rng.integers(1 << 31)))
        bubbles.append(BubbleSpec(prof, np.asarray(center, dtype=float), rate, coef))
    noise_obj = None
    if noise is not None:
        noise_obj = _Noise(
            np.asarray(noise.get("center_x1", (0.0, 0.0)), dtype=float),
            float(noise.get("radius", 0.2)),
            float(noise.get("amplitude", 1.0)),
            float(noise.get("x2_scale", 0.1)),
            np.asarray(noise.get("direction", [1.0] + [0.0] * (4 * n - 1)), dtype=float),
        )
    return ConcentratingSequence(bubbles, base=base, n=n,
                                 cutoff_radius=cutoff_radius, noise=noise_obj)


# ---------------------------------------------------------------------------
# 2-D quadrature on slices


def _log_polar(center, rmin, r, nrad, nang):
    """Log-radial x angular samples of rmin <= |X2 - center| <= r:
    (t = log radius, radius, points of shape (nrad, nang, 2))."""
    t = np.linspace(np.log(rmin), np.log(r), nrad)
    rad = np.exp(t)
    ang = np.linspace(0.0, 2.0 * np.pi, nang, endpoint=False)
    pts = np.asarray(center, dtype=float) + rad[:, None, None] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=-1
    )[None]
    return t, rad, pts


def _disk_energy(sl: _SliceMap, center, r, rmin=None, nrad=700, nang=24,
                 weight=None):
    """Integral of |grad u|^2 (optionally radially weighted) over B_r(center),
    or over the annulus rmin <= |X2 - center| <= r, by log-radial x angular
    quadrature."""
    if rmin is None:
        scales = [b.scale(sl.ell) for b in sl.seq.bubbles] or [r]
        rmin = max(1e-14, min(min(scales) * 1e-4, r * 1e-6))
    if not rmin < r:
        raise ValueError("need rmin < r")
    return float(_log_polar_energy(sl, *_log_polar(center, rmin, r, nrad, nang), weight))


def _log_polar_energy(sl: _SliceMap, t, rad, pts, weight=None):
    """The quadrature of `_disk_energy` on `_log_polar` samples; leading
    axes before the (nrad, nang) ones batch independent annuli."""
    dens = sl.grad_sq(pts)
    if weight is not None:
        dens = dens * weight(rad)[..., None]
    ang_mean = dens.mean(axis=-1)
    integrand = ang_mean * rad * rad * 2.0 * np.pi  # d(log r) measure
    return np.trapezoid(integrand, t, axis=-1)


def _x1_ball_volume(m):
    k = 4 * m - 2
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def _x1_weight(m, r, s_sq):
    """vol_{4m-2}(sqrt(r^2 - s_sq)): the X1-ball volume over a plane point at
    squared distance s_sq from the center of the 4m-ball B_r."""
    return _x1_ball_volume(m) * np.maximum(r * r - s_sq, 0.0) ** ((4 * m - 2) / 2.0)


def _ball4_ratio(sl: _SliceMap, center2, r):
    """Theta ratio of the 4m-ball B_r on the concentration plane: direct quadrature
    of the slice `sl` (use at the cluster center) in the slab reduction, exact for
    plane-invariant members: int_{B_r} |du|^2 = int |grad_{X2} u|^2 `_x1_weight` dX2."""
    m = sl.seq.m
    return _disk_energy(sl, center2, r, weight=lambda s: _x1_weight(m, r, s * s)) / r**(4 * m - 2)


def _model_ratio(seq: ConcentratingSequence, ell, center2, r):
    """Sigma ratio: the ratio of `_ball4_ratio` from the analytic radial bubble
    densities against the 64-angle ring mean of the X1-ball weight (robust
    off-center, detection grade)."""
    if not seq.x1_invariant:
        raise NotImplementedError("4-ball ratios need a plane-invariant sequence")
    theta_s = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def ring_mean(rho, D, r):
        D = D[..., None]
        return _x1_weight(seq.m, r, D * D + rho[..., None] ** 2
                          - 2.0 * D * rho[..., None] * np.cos(theta_s)).mean(axis=-1)

    return float(_bubble_model_energy(seq, ell, center2, r, ring_mean, lambda s: _x1_weight(
        seq.m, r, s * s))[0]) / r**(4 * seq.m - 2)


# ---------------------------------------------------------------------------
# detection and slicing


def blowup_set_detect(seq: ConcentratingSequence, eps0, r, ells, grid_n=17):
    """X2-grid nodes where the energy ratio stays >= eps0 - r for every
    supplied member index (the liminf surrogate over the available tail).
    Checks the paper's blow-up set Sigma, where the energy ratio stays >= eps0."""
    grid_radius = seq.cutoff_radius * 0.6
    ax = np.linspace(-grid_radius, grid_radius, grid_n)
    flagged = []
    for i, x in enumerate(ax):
        for j, y in enumerate(ax):
            c = np.array([x, y])
            vals = [_model_ratio(seq, ell, c, r) for ell in ells]
            if min(vals) >= eps0 - r:
                flagged.append(((i, j), c.copy()))
    return flagged


@dataclass
class DefectDensity:
    theta: float
    reliable: bool


def defect_density(seq: ConcentratingSequence, center2, ells,
                   radii=(0.08, 0.11, 0.15)) -> DefectDensity:
    """Energy-ratio defect at a plane point: member ratio minus the base
    contribution, divided by the unit-ball volume of the plane directions and
    extrapolated to r -> 0.

    The omega_{4m-2} division matches the quantization normalization, where
    Theta equals the sum of 2-D bubble energies.
    """
    if not seq.x1_invariant:
        raise NotImplementedError("4-ball ratios need a plane-invariant sequence")
    vol = _x1_ball_volume(seq.m)
    bases = [_ball4_ratio(seq.base_slice_map(), center2, r) for r in radii]
    thetas = []
    for ell in ells:
        vals = [(_ball4_ratio(seq.slice_map(ell), center2, r) - base) / vol
                for r, base in zip(radii, bases)]
        A = np.column_stack([np.ones(len(radii)), np.asarray(radii)])
        coef, *_ = np.linalg.lstsq(A, np.asarray(vals), rcond=None)
        thetas.append(float(coef[0]))
    theta = thetas[-1]
    scale = max(abs(t) for t in thetas) or 1.0
    reliable = (max(thetas) - min(thetas)) <= 0.05 * scale
    return DefectDensity(theta, reliable)


@dataclass
class SliceChoice:
    x1: np.ndarray
    admissible_fraction: float
    maximal_value: float
    lorentz_value: float


def _slice_lorentz(sl: _SliceMap, center, r_out):
    """L^{2,1} norm of |grad u(X1, .)| over B_{r_out}, on log-polar samples
    with their cell measures."""
    scales = [b.scale(sl.ell) for b in sl.seq.bubbles] or [r_out]
    rmin = max(1e-14, min(scales) * 1e-3)
    if not rmin < r_out:
        raise NoAdmissibleSliceError(f"r_out {r_out!r} is not above the slice quadrature's "
                                     f"inner radius {rmin!r} at ell {sl.ell}")
    t, rad, pts = _log_polar(center, rmin, r_out, 400, 24)
    dt = t[1] - t[0]
    g = np.sqrt(sl.grad_sq(pts))
    meas = np.broadcast_to((rad * rad * dt)[:, None] * (2 * np.pi / 24), g.shape)
    return lorentz_21(g, weights=meas)


def slice_select(seq: ConcentratingSequence, ell, grid_n=9, r_out=0.25) -> SliceChoice:
    """Pick a good slice X1 in [-0.4, 0.4]^2: the maximal function of f_l must
    stay at most 0.05 and the slice Lorentz norm at most the uniform bound 60."""
    ax = np.linspace(-0.4, 0.4, grid_n)
    mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    f = seq.f_of_x1(ell, mesh)
    Mf = hl_maximal(ScalarGrid(f, ax[1] - ax[0])).values
    admissible = []
    lor = None
    for i in range(grid_n):
        for j in range(grid_n):
            if Mf[i, j] > 0.05:
                continue
            x1 = mesh[i, j]
            # every slice of an X1-invariant sequence is the same map
            if lor is None or not seq.x1_invariant:
                lor = _slice_lorentz(seq.slice_map(ell, x1), np.zeros(2), r_out)
            if lor <= 60.0:
                admissible.append((Mf[i, j], lor, x1))
    if not admissible:
        raise NoAdmissibleSliceError(f"no slice of the {grid_n}x{grid_n} X1 grid at ell {ell} "
                                     "has maximal function <= 0.05 and Lorentz norm <= 60")
    admissible.sort(key=lambda t: (t[0], t[1], float(np.linalg.norm(t[2]))))
    best = admissible[0]
    frac = len(admissible) / float(grid_n * grid_n)
    return SliceChoice(best[2], frac, float(best[0]), float(best[1]))


# ---------------------------------------------------------------------------
# concentration scale and extraction


def _chi_radial(seq, rho):
    """The cutoff 1 - smoothstep(|X2| / R - 1) at |X2| = rho, and its derivative."""
    s = np.clip(np.asarray(rho, dtype=float) / seq.cutoff_radius - 1.0, 0.0, 1.0)
    return 1.0 - smoothstep(s), -smoothstep_slope(s) / seq.cutoff_radius


def _bubble_radial_density(seq, b: BubbleSpec, ell, rho):
    """Exact radial profile of |grad(chi (phi - phi_inf))|^2 at distance rho
    from the bubble's center: the gradient magnitude, the deviation |phi -
    phi_inf|^2 and its radial derivative are all radial for these profiles.

    Exact for bubbles centered at the cutoff center; for offset bubbles the
    cutoff factor is approximated by its value at the bubble-centered radius
    (detection-grade, the offsets in use are far inside {chi = 1}).
    """
    d = b.scale(ell)
    lam = b.profile.amplitude**2
    y = rho / d
    chi, dchi = _chi_radial(seq, rho + np.linalg.norm(b.center))
    g2 = b.profile.energy_density(y) / d**2
    with np.errstate(over="ignore"):  # as the density, the deviation's limit is 0
        dev2 = lam * 4.0 / (1.0 + y * y)
        ddev2 = -lam * 8.0 * y / (1.0 + y * y) ** 2 / d
    return chi * chi * g2 + dchi * dchi * dev2 + chi * dchi * ddev2


def _arc_fraction(rho, D, r):
    """Fraction of the circle of radius rho (around a cluster center) lying
    inside the disk of radius r whose center is D away."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros(np.broadcast(rho, D).shape)
    full = rho <= r - D
    out[full] = 1.0
    part = (~full) & (rho < r + D) & (rho > D - r)
    if np.any(part):
        rr = np.broadcast_to(rho, out.shape)[part]
        DD = np.broadcast_to(D, out.shape)[part]
        c = (DD**2 + rr**2 - r * r) / (2.0 * DD * rr)
        out[part] = np.arccos(np.clip(c, -1.0, 1.0)) / np.pi
    return out


def _bubble_model_energy(seq, ell, centers, r, angular, weight=None):
    """Weighted energies on B_r around centers (C, 2), or one center (2,).

    Each bubble's analytic radial density is integrated against
    `angular(rho, D, r)`, the mean weight over the circle of radius rho around
    the bubble at distance D (robust for centers offset from a concentrated
    core, where direct angular sampling would alias the spike); a smooth
    base is added by direct quadrature with the radial `weight`.
    Cross terms between separated scales are omitted - they are O(delta
    ratio) and far below the detection thresholds this feeds.
    """
    one = np.ndim(centers) == 1
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    out = np.zeros(len(centers))
    for b in seq.bubbles:
        # np.linalg.norm rounds one vector (a BLAS dot) differently from the
        # rows of a batch; one center keeps the former
        D = np.linalg.norm(centers[0] - b.center)[None] if one else (
            np.linalg.norm(centers - b.center, axis=1))  # (C,)
        rmin = b.scale(ell) * 1e-5
        t = np.linspace(np.log(rmin), np.log(float(np.max(D) + r)), 400)
        rho = np.exp(t)
        dens = _bubble_radial_density(seq, b, ell, rho)  # (R,)
        frac = angular(rho[None, :], D[:, None], r)  # (C, R)
        out += np.trapezoid(frac * dens[None, :] * rho * rho * 2.0 * np.pi, t, axis=1)
    if not isinstance(seq.base, _ConstantBase):
        bsl = seq.base_slice_map()
        for k, c in enumerate(centers):
            out[k] += _disk_energy(bsl, c, r, rmin=r * 1e-6, nrad=200, weight=weight)
    return out


def _tracked_max(sl, delta, around, span, grid=9):
    """Max of the localized ratio over an X2 grid centered at `around`."""
    ax = np.linspace(-span, span, grid)
    centers = np.asarray(around) + np.stack(
        np.meshgrid(ax, ax, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    energies = _bubble_model_energy(sl.seq, sl.ell, centers, delta, _arc_fraction)
    vals = _x1_ball_volume(sl.seq.m) * energies
    k = int(np.argmax(vals))
    return centers[k], float(vals[k])


def concentration_scale(seq: ConcentratingSequence, ell, x1=(0.0, 0.0), eps0=0.1):
    """Bisection in delta for the scale at which the max over X2 of the
    localized energy ratio equals eps0 / (8 * 2^{4m}); returns (delta, X2).

    The captured energy grows monotonically with delta, so the crossing is
    unique and locks onto the smallest concentrated scale present; larger
    scales are recovered afterwards by the neck scans.  The argmax is tracked
    coarse-to-fine while delta descends (at large delta every ball captures
    everything and the max is uninformative).
    """
    target = eps0 / (8.0 * 2 ** (4 * seq.m))
    sl = seq.slice_map(ell, x1)
    x2c, f = _tracked_max(sl, 0.5, (0.0, 0.0), 0.25)
    if f < target:
        raise NoConcentrationError(
            f"localized ratio peaks at {f:.3e} < target {target:.3e}"
        )
    # descend geometrically, re-centering the search on the previous argmax
    hi = 0.5
    while True:
        lo = hi / 4.0
        x2_lo, f_lo = _tracked_max(sl, lo, x2c, span=2.0 * lo)
        if f_lo < target:
            break
        hi, x2c = lo, x2_lo
        if lo < 1e-14:
            raise NoConcentrationError(f"ratio above target at scale {lo!r}, the last tried, "
                                       "below the search's floor 1e-14")
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        x2_mid, f_mid = _tracked_max(sl, mid, x2c, span=1.5 * mid, grid=5)
        if abs(f_mid / target - 1.0) <= 0.01:
            break
        if f_mid > target:
            hi = mid
        else:
            lo = mid
    return float(mid), x2_mid


@dataclass
class ExtractedBubble:
    center: np.ndarray
    scale_median: float
    energy: float
    sat_radius: float
    converged: bool


# annuli per batch of `_median_energy_radius`: under tracemalloc each of its
# two calls in `extract-bubbles --manifest two --ell 8 --seed 5` peaks at
# 2.0 MB with 16, and peaked at 24.1 MB with all 199 annuli in one batch
_ANNULI_PER_BATCH = 16


def _median_energy_radius(sl, center, r_lo, r_hi, total):
    rads = np.exp(np.linspace(np.log(max(r_lo, 1e-14)), np.log(r_hi), 200))
    if not np.all(rads[:-1] < rads[1:]):
        raise ValueError("need rmin < r")
    acc = 0.0
    for k0 in range(0, len(rads) - 1, _ANNULI_PER_BATCH):
        # a batch of annuli, each sampled as `_disk_energy` samples it
        polar = [_log_polar(center, lo, hi, 24, 16)
                 for lo, hi in zip(rads[k0:k0 + _ANNULI_PER_BATCH], rads[k0 + 1:])]
        energies = _log_polar_energy(sl, *(np.stack(x) for x in zip(*polar)))
        for k, energy in enumerate(energies, start=k0 + 1):
            acc += float(energy)
            if acc >= total / 2.0:
                return float(rads[k])
    return float(rads[-1])


def rescale_and_extract(seq: ConcentratingSequence, ells, x1, center, deltas,
                        outer_bound=0.25, eps0=0.1) -> ExtractedBubble:
    """Check C^1 convergence of the rescaled members v_l(y) = u_l(c + delta_l y)
    on B_2, then saturate the energy by an R-sweep.

    The recovered scale is the median-energy radius (profile-normalized);
    the crossing scale from the concentration search carries a threshold-
    dependent prefactor instead, and `quantize` reports it as `crossing_scale`.
    """
    center = np.asarray(center, dtype=float)
    ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    rad = np.linspace(0.05, 2.0, 12)
    ypts = rad[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)[None]
    samples = []
    scale_ref = 0.0
    for ell, d in zip(ells, deltas):
        sl = seq.slice_map(ell, x1)
        v = sl.value(center + d * ypts)
        samples.append(v)
        scale_ref = max(scale_ref, float(np.max(np.abs(v))))
    converged = True
    for a, b in zip(samples[:-1], samples[1:]):
        if np.max(np.abs(a - b)) > 1e-3 * max(scale_ref, 1e-12):
            converged = False
    ell, d = ells[-1], deltas[-1]
    sl = seq.slice_map(ell, x1)
    E_curr = _disk_energy(sl, center, d, nrad=400, nang=20)
    rho = 2.0
    r_stop = d
    while d * rho <= outer_bound:
        E_next = _disk_energy(sl, center, d * rho, nrad=500, nang=20)
        grew = E_next - E_curr
        E_curr = E_next
        r_stop = d * rho
        if grew < 0.02 * max(E_next, 1e-300):
            break
        rho *= 2.0
    if E_curr < eps0:
        raise NoConcentrationError(
            f"recovered profile energy {E_curr:.3e} below the bubble threshold"
        )
    med = _median_energy_radius(sl, center, d * 1e-3, r_stop, E_curr)
    return ExtractedBubble(center, med, float(E_curr), float(r_stop), converged)


def _paraboloid_step(f, step):
    """Move from the middle of a 3x3 stencil of values f[i, j] at offsets
    ((i - 1) step, (j - 1) step) to the vertex of the quadratic model
    f = a + b.x + x^T C x / 2 that the stencil differences define; None when
    the model's Hessian is singular."""
    table = stencil.neighbours(2)
    d = {key: stencil.formula(key)(*(f[1 + i, 1 + j] for i, j in table[key]), step)
         for key in ((0,), (1,), (0, 0), (0, 1), (1, 1))}
    try:  # the one mixed difference (0, 1) on both sides of the diagonal
        return -np.linalg.solve(np.array([[d[0, 0], d[0, 1]], [d[0, 1], d[1, 1]]]),
                                np.array([d[(0,)], d[(1,)]]))
    except np.linalg.LinAlgError:
        return None


def _paraboloid_descent(f, c, step, rounds, shrink, reach):
    """Walk c to the vertex of the paraboloid fitted to f on a 3x3 stencil of
    spacing `step`, for `rounds` rounds; each move is clipped to `reach`
    steps per axis and the stencil shrinks by `shrink` after it.  f maps
    (3, 3, 2) points to (3, 3) values.  Stops early on a non-finite stencil or
    a singular Hessian."""
    c = np.asarray(c, dtype=float)
    for _ in range(rounds):
        ax = np.array([-step, 0.0, step])
        vals = f(c + np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1))
        if not np.all(np.isfinite(vals)):
            break
        move = _paraboloid_step(vals, step)
        if move is None:
            break
        c = c + np.clip(move, -reach * step, reach * step)
        step *= shrink
    return c


def _probe_jet(sl: _SliceMap, center, h):
    return np.stack([stencil.first(*(sl.value(center + np.multiply(s, h))
                                     for s in stencil.neighbours(2)[(a,)]), h)
                     for a in range(2)], axis=1)


def _center_structure(sl: _SliceMap, center, probe_scale):
    """(a, b, c) of the jet at the center, probed at the deepest scale.

    Concentric profiles built with one (a, b, c) superpose to a jet that is
    exactly holomorphic for that structure at the exact center, so a single
    sharp center probe serves every bubble in the chain.  The reading drifts
    linearly with the centering error, so after the density-peak refinement
    the holomorphy residual itself is polished to its (quadratic) minimum.
    Both are paraboloid descents; on the near-quadratic core a few rounds
    reach a small fraction of the core scale.
    """
    center = _paraboloid_descent(sl.grad_sq, center, 0.3 * probe_scale, 3, 0.1, 1)
    h = probe_scale * 1e-3

    def residual_sq(c):
        try:
            _, res = bubble_structure(_probe_jet(sl, c, h))
        except ValueError:
            return np.inf
        return res * res

    center = _paraboloid_descent(lambda pts: np.apply_along_axis(residual_sq, -1, pts),
                                 center, 3e-2 * probe_scale, 4, 0.05, 2)
    try:
        return bubble_structure(_probe_jet(sl, center, h))
    except ValueError:
        return None, float("nan")


# ---------------------------------------------------------------------------
# neck analysis


class NeckView:
    """The member on the neck in the cylinder chart X2 = c + e^{-t} e^{i theta},
    t increasing from -log(outer) to -log(inner).

    The chart is conformal with factor |X2 - c| = e^{-t}, so the cylinder
    density |grad_(t,theta) u|^2 equals e^{-2t} |grad_{X2} u|^2; `g` holds it,
    from the analytic slice gradient, at the samples t[1:-1] x theta.  `t`
    carries one more sample beyond each end: `neck_scan` starts its windows
    at t[0], and the energies cover the full requested annulus."""

    def __init__(self, seq, ell, x1, center, inner, outer, ntheta=48):
        if not inner < outer:
            raise ValueError("need inner < outer")
        self.seq = seq
        self.ell = ell
        self.center = np.asarray(center, dtype=float)
        t0, t1 = -math.log(outer), -math.log(inner)
        nt = min(4000, max(96, int((t1 - t0) / 0.04)))
        dt = (t1 - t0) / (nt - 1)
        self.t = np.linspace(t0 - dt, t1 + dt, nt + 2)
        self.theta = np.linspace(0, 2 * np.pi, ntheta, endpoint=False)
        rad = np.exp(-self.t[1:-1])
        pts = self.center + rad[:, None, None] * np.stack(
            [np.cos(self.theta), np.sin(self.theta)], axis=-1
        )[None]
        self.g = (rad * rad)[:, None] * seq.slice_map(ell, x1).grad_sq(pts)

    def cylinder_energy(self, t_lo=None, t_hi=None):
        tt = self.t[1:-1]
        mask = np.ones(len(tt), dtype=bool)
        if t_lo is not None:
            mask &= tt >= t_lo - 1e-12
        if t_hi is not None:
            mask &= tt <= t_hi + 1e-12
        if mask.sum() < 2:
            return 0.0
        dtheta = 2 * np.pi / len(self.theta)
        return float(np.trapezoid(self.g[mask].sum(axis=1) * dtheta, tt[mask]))

    def window_energy(self, t_start):
        """Scan quantity on the unit window [t_start, t_start + 1]: the
        X1-window factor e^{(4m-2)t} vol(B_{e^-t}) reduces to omega_{4m-2}
        for plane-invariant members."""
        return _x1_ball_volume(self.seq.m) * self.cylinder_energy(t_start, t_start + 1.0)


def neck_view(seq, ell, x1, center, inner, outer, **kw) -> NeckView:
    return NeckView(seq, ell, x1, center, inner, outer, **kw)


def neck_scan(view: NeckView, eps1):
    """Argmax unit-window energy along the neck, window starts 0.2 apart; None
    when every window stays below eps1 (the neck admits no further bubbles)."""
    t0, t1 = view.t[0], view.t[-1] - 1.0
    if t1 <= t0:
        return None, 0.0, []
    starts = np.arange(t0, t1, 0.2)
    energies = [view.window_energy(s) for s in starts]
    k = int(np.argmax(energies))
    if energies[k] < eps1:
        return None, float(energies[k]), list(zip(starts, energies))
    return float(starts[k]), float(energies[k]), list(zip(starts, energies))


def _qualified_peaks(series, eps1):
    """Interior local maxima of the scan series that rise above eps1 AND above
    twice the dips adjacent to them on both sides; each peak is returned with
    its flanking dip positions (the segment boundaries).

    The prominence requirement is what terminates the walk on synthetic
    profiles with 1/r^2 gradient tails: their windowed energies stay above any
    fixed eps1 near a core no matter how large l is, so a bare threshold rule
    would keep producing tail windows; a genuine further bubble shows up as an
    interior peak with low dips on both sides.
    """
    e = np.asarray([v for _, v in series], dtype=float)
    t = np.asarray([s for s, _ in series], dtype=float)
    cand = [
        k
        for k in range(1, len(e) - 1)
        if e[k] >= e[k - 1] and e[k] >= e[k + 1] and e[k] >= eps1
    ]
    # merge candidates with no genuine dip between them (plateaus, ripples)
    merged = []
    for k in cand:
        if merged:
            kp = merged[-1]
            between = e[kp : k + 1]
            if between.min() > min(e[kp], e[k]) / 2.0:
                if e[k] > e[kp]:
                    merged[-1] = k
                continue
        merged.append(k)
    # adjacent dips: between consecutive peaks, and toward each boundary
    peaks = []
    prev = 0
    for k, nxt in zip(merged, merged[1:] + [len(e) - 1]):
        li = prev + int(np.argmin(e[prev : k + 1]))
        ri = k + int(np.argmin(e[k : nxt + 1]))
        if e[k] >= 2.0 * e[li] and e[k] >= 2.0 * e[ri]:
            peaks.append(
                {"t": t[k], "energy": float(e[k]), "t_left": t[li], "t_right": t[ri]}
            )
        prev = ri
    return peaks


# ---------------------------------------------------------------------------
# quantization pipeline


@dataclass
class TreeNode:
    kind: str  # root | bubble | neck
    center: np.ndarray | None = None
    scale: float = float("nan")
    energy: float = 0.0
    structure: tuple | None = None
    parent: int = -1
    depth: int = 0


@dataclass
class BubbleTree:
    nodes: list
    theta: float
    residual_neck_energy: float

    def bubbles(self):
        return [n for n in self.nodes if n.kind == "bubble"]

    def depth(self):
        return max((n.depth for n in self.nodes if n.kind == "bubble"), default=0)

    def sum_energies(self):
        return float(sum(n.energy for n in self.bubbles()))

    def to_text(self):
        lines = ["BTREE1"]
        lines.append(f"theta {self.theta:.17g}")
        lines.append(f"sum_bubble_energies {self.sum_energies():.17g}")
        lines.append(f"residual_neck_energy {self.residual_neck_energy:.17g}")
        for k, n in enumerate(self.nodes):
            c = "none" if n.center is None else f"{n.center[0]:.17g},{n.center[1]:.17g}"
            s = "none" if n.structure is None else ",".join(
                f"{x:.12g}" for x in n.structure
            )
            lines.append(
                f"node {k} kind={n.kind} parent={n.parent} center={c} "
                f"scale={n.scale:.17g} energy={n.energy:.17g} structure={s} "
                f"depth={n.depth}"
            )
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "theta": self.theta,
            "sum_bubble_energies": self.sum_energies(),
            "residual_neck_energy": self.residual_neck_energy,
            "depth": self.depth(),
            "nodes": [
                {
                    "kind": n.kind,
                    "center": None if n.center is None else list(map(float, n.center)),
                    "scale": None if math.isnan(n.scale) else n.scale,
                    "energy": n.energy,
                    "structure": None if n.structure is None else list(n.structure),
                    "parent": n.parent,
                    "depth": n.depth,
                }
                for n in self.nodes
            ],
        }


@dataclass
class QuantizeConfig:
    eps0: float = 0.1
    eps1: float = None  # defaults to eps0 / 4
    r_out: float = 0.25
    theta_radii: tuple = (0.08, 0.11, 0.15)

    def __post_init__(self):
        if self.eps1 is None:
            self.eps1 = self.eps0 / 4.0


def quantize(seq: ConcentratingSequence, ells, config: QuantizeConfig | None = None):
    """Full pipeline at the last member index: slice selection, concentration
    search, first (deepest) extraction, then neck scans upward until no window
    exceeds eps1; returns (BubbleTree, report).

    Bubble scales are median-energy radii.  The energy ledger is one ascending
    list of annulus edges from mu_0 * 1e-5 to r_out, split at mu * sep^{+-0.47}
    between consecutive scales and at min(mu (r_out / mu)^0.75, 0.9 r_out) above
    the last; bubble k takes (edges[2k], edges[2k+1]) and its neck the next one.
    """
    config = config or QuantizeConfig()
    ells = sorted(ells)
    ell = ells[-1]
    for b in seq.bubbles:
        # past this the bubble's core energy density 8 a^2 / scale^2 is no float
        if not 8.0 * b.profile.amplitude**2 <= b.scale(ell) ** 2 * np.finfo(float).max:
            raise ValueError(f"ell {ell} is past the bubble model: the scale law {b.coef!r} * "
                             f"{b.rate!r}^-ell gives the scale {b.scale(ell)!r}, at which the "
                             f"core energy density 8 a^2 / scale^2 overflows (a = "
                             f"{b.profile.amplitude!r})")
    choice = slice_select(seq, ell, r_out=config.r_out)
    x1 = choice.x1
    crossings = []
    for e in ells:  # x2c is left at the last member's centre
        d_e, x2c = concentration_scale(seq, e, x1, eps0=config.eps0)
        crossings.append(d_e)
    theta = defect_density(seq, x2c, ells[-2:] if len(ells) > 1 else ells,
                           radii=config.theta_radii)
    first = rescale_and_extract(seq, ells, x1, x2c, crossings,
                                outer_bound=config.r_out, eps0=config.eps0)
    mus = [first.scale_median]
    sl = seq.slice_map(ell, x1)

    # scan the neck above the deepest bubble; every qualified peak (interior
    # local max with low dips on both flanks) is a further bubble, and its
    # flanking dips delimit the segment its median-energy scale is read from
    diagnostics = {"depth_cap_hit": False}
    inner = first.sat_radius
    if inner < config.r_out * 0.98:
        view = neck_view(seq, ell, x1, x2c, inner, config.r_out)
        _, _, series = neck_scan(view, config.eps1)
        peaks = _qualified_peaks(series, config.eps1)
        if len(peaks) > 8:
            peaks = peaks[:8]
            diagnostics["depth_cap_hit"] = True
        for p in peaks:
            hi = min(math.exp(-(p["t_left"] + 0.5)), config.r_out)
            lo = max(math.exp(-(p["t_right"] + 0.5)), inner)
            if not lo < hi:
                continue
            E_seg = _disk_energy(sl, x2c, hi, rmin=lo, nrad=500)
            mus.append(_median_energy_radius(sl, x2c, lo, hi, E_seg))

    # deepest first: the smallest scale is the deepest leaf
    mus.sort()
    S = len(mus)
    edges = [mus[0] * 1e-5]
    for mu, mu_next in zip(mus, mus[1:]):
        sep = mu_next / mu
        edges += [mu * sep**0.47, mu_next * sep**-0.47]
    edges += [min(mus[-1] * (config.r_out / mus[-1]) ** 0.75, 0.9 * config.r_out),
              config.r_out]
    energies = [_disk_energy(sl, x2c, hi, rmin=lo, nrad=500)
                for lo, hi in zip(edges, edges[1:])]

    base_disk = _disk_energy(seq.base_slice_map(), x2c, config.r_out)
    total_disk = _disk_energy(sl, x2c, config.r_out)
    residual = max(0.0, total_disk - base_disk - sum(energies[0::2]))

    structure, struct_res = _center_structure(sl, x2c, mus[0])
    struct_tuple = None if structure is None else (structure.a, structure.b, structure.c)

    # one chain from the root, largest scale first: each neck, then its bubble
    nodes = [TreeNode(kind="root", center=None, depth=-1)]
    for k in reversed(range(S)):
        nodes.append(TreeNode(kind="neck", center=x2c.copy(), energy=energies[2 * k + 1],
                              parent=len(nodes) - 1, depth=S - 1 - k))
        nodes.append(TreeNode(kind="bubble", center=x2c.copy(), scale=mus[k],
                              energy=energies[2 * k], structure=struct_tuple,
                              parent=len(nodes) - 1, depth=S - 1 - k))

    tree = BubbleTree(nodes=nodes, theta=theta.theta, residual_neck_energy=residual)
    report = {
        "theta": theta.theta,
        "theta_reliable": theta.reliable,
        "bubble_count": S,
        "sum_energies": tree.sum_energies(),
        "abs_gap": abs(theta.theta - tree.sum_energies()),
        "residual_neck_energy": residual,
        "depth": tree.depth(),
        "slice_x1": list(map(float, x1)),
        "center_x2": list(map(float, x2c)),
        "crossing_scale": crossings[-1],
        "crossing_scales": crossings,
        "structure": struct_tuple,
        "structure_residual": struct_res,
        "ell": ell,
        "diagnostics": diagnostics,
    }
    return tree, report


# ---------------------------------------------------------------------------
# bubble structure and calibration


def bubble_structure(du):
    """Recover (a, b, c) from a rank-2 jet du: with e, v the images of the
    oriented domain pair, (a, b, c) solves v = -(aI + bJ + cK) e.

    Returns (SphereStructure, holomorphicity residual relative to |du|);
    raises on jets whose numerical rank differs from 2 (a triholomorphic jet
    holomorphic for +(aI+bJ+cK) must have rank at least 4, so a rank-2 bubble
    jet forces the minus sign).
    """
    du = np.asarray(du, dtype=float)
    dn = du.shape[0]
    S_tar = StructureTriple.standard(dn // 4)
    _, s, Vt = np.linalg.svd(du, full_matrices=False)
    if len(s) < 2 or s[1] <= 1e-6 * s[0]:
        raise ValueError("jet has numerical rank < 2")
    if len(s) > 2 and s[2] > 1e-6 * s[0]:
        raise ValueError("jet has numerical rank > 2")
    r1, r2 = Vt[0], Vt[1]
    if du.shape[1] == 2 and np.linalg.det(np.stack([r1, r2])) < 0:
        r2 = -r2  # keep the standard orientation of the 2-D domain
    e = du @ r1
    v = du @ r2
    e_unit = e / np.linalg.norm(e)
    raw = np.array([float(v @ (M @ e_unit)) for M in S_tar.mats()])
    nrm = np.linalg.norm(raw)
    if nrm == 0.0:
        raise ValueError("jet image does not determine a sphere structure")
    abc = SphereStructure(*(-raw / nrm))
    J = abc.matrix(S_tar)
    res = float(np.linalg.norm(v + J @ e) / max(np.linalg.norm(du), 1e-300))
    return abc, res


def calibration_defect(e1, e2, s: SphereStructure) -> float:
    """1 - (a O_I + b O_J + c O_K)(e1, e2) for a pair orthonormal to 1e-9;
    nonnegative (Wirtinger), zero exactly on the holomorphic planes
    e2 = (aI + bJ + cK) e1."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if abs(np.linalg.norm(e1) - 1) > 1e-9 or abs(np.linalg.norm(e2) - 1) > 1e-9:
        raise ValueError("plane basis must be orthonormal")
    if abs(float(e1 @ e2)) > 1e-9:
        raise ValueError("plane basis must be orthonormal")
    J = s.matrix(StructureTriple.standard(len(e1) // 4))
    # the Kaehler forms are w(X, Y) = g(SX, Y)
    return float(1.0 - (J @ e1) @ e2)
