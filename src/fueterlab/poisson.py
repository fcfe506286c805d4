"""The perturbed-Poisson contraction scheme: spectral solves of the discrete
Laplacian on a torus, the fixed-point iteration for the cutoff equation, and
the discrete W^{2,1} norm with its regression bound.

poisson_solve inverts the central-difference symbol (modified wavenumbers),
so applying the grid Laplacian to the solution reproduces the source to
roundoff, not merely to O(h^2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import stencil
from .fields import GridField, _flat_grad_sq, _flat_windows
from .norms import ScalarGrid

__all__ = [
    "PerturbedProblem",
    "NonContractionError",
    "poisson_solve",
    "contraction_step",
    "fixed_point_solve",
    "w21_norm",
    "W21_SUITE_C",
    "smoothstep",
    "smoothstep_slope",
    "radial_cutoff",
    "default_problem",
    "manufactured_problem",
]

# frozen regression constant for w21_norm <= C (1 + dirichlet_energy) over the
# triholomorphic calibration suite (max observed ratio was 1.27 at 21 nodes)
W21_SUITE_C = 2.0


class NonContractionError(RuntimeError):
    """The fixed-point map failed to contract; carries the measured ratios."""

    def __init__(self, message, ratios):
        super().__init__(message)
        self.ratios = list(ratios)


def _laplacian_symbol(shape, h):
    sym = 0.0
    for a, N in enumerate(shape):
        k = np.fft.fftfreq(N) * N
        lam = (2.0 * np.cos(2.0 * np.pi * k / N) - 2.0) / h**2
        shp = [1] * len(shape)
        shp[a] = N
        sym = sym + lam.reshape(shp)
    return sym


def poisson_solve(f: ScalarGrid) -> ScalarGrid:
    """Solve the central-difference Laplace equation on the torus:
    Delta_h v = f - mean(f) with mean(v) = 0."""
    vals = f.values
    shape = vals.shape
    sym = _laplacian_symbol(shape, f.h)
    F = np.fft.fftn(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        V = np.where(np.abs(sym) > 1e-300, F / sym, 0.0)
    V[(0,) * vals.ndim] = 0.0
    v = np.real(np.fft.ifftn(V))
    return f.like(v)


@dataclass
class PerturbedProblem:
    """Cutoff chi, small coefficients mu^{ij}, tau^j, source f, optional
    sqrt(det g) weight; all on one periodic grid."""

    chi: np.ndarray
    mu: np.ndarray  # (d, d) constants or (d, d, *dims)
    tau: np.ndarray  # (d,) constants or (d, *dims)
    f: ScalarGrid
    sqrt_g: np.ndarray | None = None

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        d = self.f.d
        if self.chi.shape != self.f.values.shape:
            raise ValueError("chi must live on the source grid")
        if self.mu.shape[:2] != (d, d) or self.tau.shape[0] != d:
            raise ValueError("coefficient shapes must start with (d, d) and (d,)")


def _coef(arr, ij, shape):
    c = arr[ij]
    return c if np.ndim(c) else np.full(shape, float(c))


def _rhs_operator(P: PerturbedProblem):
    """w -> RHS(w) of the cutoff equation.  The terms that depend on P alone
    are built here, once; each call pads w once, periodically, so that every
    neighbour its differences take is a slice of that one copy."""
    h = P.f.h
    d = P.f.d
    chi = P.chi
    sq = P.sqrt_g if P.sqrt_g is not None else 1.0
    lap_chi = stencil.laplacian(chi, h, True)
    d1_chi = [stencil.d1(chi, a, h, True) for a in range(d)]
    chi_mu = {}
    for i, j in np.ndindex(d, d):
        mu_ij = _coef(P.mu, (i, j), chi.shape)
        if np.any(mu_ij):
            # a symmetric mu shares one product per pair, to hold less memory
            twin = chi_mu.get((j, i))
            same = twin is not None and np.array_equal(mu_ij, _coef(P.mu, (j, i), chi.shape))
            chi_mu[i, j] = twin if same else chi * mu_ij
    chi_tau = []
    for j in range(d):
        tau_j = _coef(P.tau, (j,), chi.shape)
        if np.any(tau_j):
            chi_tau.append((j, chi * tau_j))
    source = chi * sq * P.f.values

    def rhs(w):
        # on the padded copy the box differences are the torus ones
        wp = np.pad(w, 1, mode="wrap")
        out = lap_chi * w
        for a in range(d):
            out += d1_chi[a] * stencil.d1(wp, a, h, False)
        for (i, j), c in chi_mu.items():
            out -= c * stencil.d2(wp, i, j, h, False)
        for j, c in chi_tau:
            out -= c * stencil.d1(wp, j, h, False)
        out += source
        return out

    return rhs


def contraction_step(w: ScalarGrid, P: PerturbedProblem) -> ScalarGrid:
    """One sweep of the scheme: solve Delta v = RHS(w) with RHS built from the
    cutoff terms, the small coefficients, and the source (all derivatives
    central)."""
    if w.values.shape != P.f.values.shape:
        raise ValueError("iterate must live on the problem grid")
    return poisson_solve(P.f.like(_rhs_operator(P)(w.values)))


def _w11(v, h):
    d = v.ndim
    total = np.abs(v).sum()
    # on the padded copy the box differences are the torus ones
    vp = np.pad(v, 1, mode="wrap")
    for a in range(d):
        total += np.abs(stencil.d1(vp, a, h, False)).sum()
    return float(total * h**d)


def fixed_point_solve(P: PerturbedProblem, tol=1e-10, max_iter=100):
    """Iterate v_{k+1} = contraction_step(v_k) from v_0 = 0 until the W^{1,1}
    distance of consecutive iterates drops below tol.

    Returns (v, stats) with the measured contraction ratio and the final
    residual of the cutoff equation; raises NonContractionError when the
    ratios sit at or above 1 for three consecutive steps, or when the
    iteration stalls without converging.
    """
    h = P.f.h
    v = np.zeros_like(P.f.values)
    prev_diff = None
    ratios = []
    flat_count = 0
    rhs = _rhs_operator(P)
    for it in range(1, max_iter + 1):
        v_next = poisson_solve(P.f.like(rhs(v))).values
        diff = _w11(v_next - v, h)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
            ratios.append(ratio)
            flat_count = flat_count + 1 if ratio >= 0.9999 else 0
            if flat_count >= 3:
                raise NonContractionError(
                    f"non-contraction: ratio held at {ratio:.4f} for 3 steps", ratios
                )
        prev_diff = diff
        v = v_next
        if diff < tol:
            # residual of the cutoff equation, in the L1 metric matching the
            # W^{1,1} convergence norm; keep sweeping until it clears 10 tol
            res_field = stencil.laplacian(v, h, True) - _centered(rhs(v))
            residual = float(np.abs(res_field).sum() * h**v.ndim)
            if residual >= 10.0 * tol and it < max_iter:
                continue
            stats = {
                "iterations": it,
                "converged": True,
                "contraction": float(np.median(ratios[-5:])) if ratios else 0.0,
                "ratios": ratios,
                "residual": residual,
                "residual_sup": float(np.abs(res_field).max()),
            }
            return P.f.like(v), stats
    last = ratios[-1] if ratios else float("inf")
    if last >= 0.9:
        raise NonContractionError(
            f"non-contraction: stalled after {max_iter} iterations at ratio {last:.4f}",
            ratios,
        )
    raise RuntimeError(
        f"did not reach tol={tol} in {max_iter} iterations (ratio {last:.4f}); "
        "increase max_iter"
    )


def _centered(v):
    return v - v.mean()


# ---------------------------------------------------------------------------
# W^{2,1} norm on grid fields


def w21_norm(u: GridField) -> float:
    """sum over interior nodes of (|u| + |grad u| + |grad^2 u|) h^{4m},
    with central first and second (incl. mixed) differences.

    Streams over the flat windows shared with `dirichlet_energy`
    (`fields._flat_windows`) and never materializes a function-backed grid.
    Every difference is one pass over contiguous ranges (`stencil.FlatBlock`)
    into reused buffers.  Each window, on whichever worker, writes only its
    own planes of the node sums, which are then added once in the order of
    the whole-grid formula, so the value is the same to the last bit."""
    d = u.dim
    h = u.h
    margin = u.interior_margin()
    total = np.empty((u.shape[0] - 2 * margin,) * d)

    def window(i0, block, comps, bufs):
        part, buf, grad_sq, hess_sq = bufs
        grad = _flat_grad_sq(block, comps, h, grad_sq, part, buf)
        hess = block.at(hess_sq, {})
        hess[...] = 0.0
        for a in range(d):
            for b in range(d):
                hess += stencil._sum_of_squares(
                    [functools.partial(block.d2, v, a, b, h) for v in comps], part, buf)
        absu = stencil._sum_of_squares(
            [functools.partial(_copy_range, block, v) for v in comps], part, buf)
        for x in (absu, grad, hess):
            np.sqrt(x, out=x)
        out = total[i0 - margin : i0 - margin + block.shape[0] - 2]
        np.add(block.interior(part), block.interior(grad_sq), out=out)
        out += block.interior(hess_sq)

    _flat_windows(u, 4, window)
    return float(total.sum() * h**d)


def _copy_range(block, v, out):
    """v over the flat range of `block`, copied into out's range."""
    dst = block.at(out, {})
    dst[...] = block.at(v, {})
    return dst


# ---------------------------------------------------------------------------
# canned problems


def smoothstep(s):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 in between."""
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def smoothstep_slope(s):
    """The derivative of `smoothstep`: 30 s^2 (s - 1)^2 on [0, 1], 0 outside."""
    s = np.clip(s, 0.0, 1.0)
    return 30.0 * s**2 * (s - 1.0) ** 2


def radial_cutoff(shape, h, inner, outer, center=None):
    """chi = 1 inside radius `inner`, 0 outside `outer`, quintic in between,
    on the torus [0, N h)^d."""
    d = len(shape)
    if center is None:
        center = np.full(d, shape[0] * h / 2.0)
    rho = np.sqrt(sum((x - c) ** 2 for x, c in zip(_grid_axes(shape, h), center)))
    return 1.0 - smoothstep((rho - inner) / (outer - inner))


def _grid_axes(shape, h):
    """The node coordinates i h along each grid axis, shaped to broadcast."""
    return np.meshgrid(*[np.arange(N) * h for N in shape], indexing="ij", sparse=True)


def _smooth_random(shape, h, rng):
    axes = _grid_axes(shape, h)
    L = shape[0] * h
    out = np.zeros(shape)
    for _ in range(4):
        kvec = rng.integers(1, 3, size=len(shape))
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.normal()
        arg = sum(2 * np.pi * k * x / L for k, x in zip(kvec, axes)) + phase
        out += amp * np.sin(arg)
    return out / max(1e-12, np.abs(out).max())


def default_problem(N=16, magnitude=0.05, seed=0):
    """A generic perturbed problem on the unit 4-torus: standard cutoff, smooth
    coefficients of the given magnitude, localized smooth source.

    mu is dominated by magnitude * identity (the worst case at a given max
    norm: at magnitude 1 the scheme reproduces -w on the cutoff plateau and
    genuinely stops contracting), plus a smaller random symmetric part.
    """
    rng = np.random.default_rng(seed)
    d = 4
    h = 1.0 / N
    shape = (N,) * d
    L = N * h
    chi = radial_cutoff(shape, h, 0.22 * L, 0.47 * L)
    mu = np.zeros((d, d) + shape)
    for i in range(d):
        mu[i, i] = magnitude
        for j in range(i + 1, d):
            bump = 0.2 * magnitude * _smooth_random(shape, h, rng)
            mu[i, j] = bump
            mu[j, i] = bump
    tau = np.zeros((d,) + shape)
    for j in range(d):
        tau[j] = magnitude * _smooth_random(shape, h, rng)
    src = _smooth_random(shape, h, rng) * radial_cutoff(shape, h, 0.10 * L, 0.20 * L)
    return PerturbedProblem(chi, mu, tau, ScalarGrid(src, h))


def manufactured_problem(N=16, magnitude=0.05, seed=0):
    """Problem whose exact fixed point is known: pick w* supported strictly
    inside {chi = 1}, then read off the source from the discrete equation.

    Returns (P, w_star); the iteration recovers w* up to its torus mean (the
    mean is the discrete stand-in for the decay-at-infinity normalization).
    """
    rng = np.random.default_rng(seed)
    d = 4
    h = 1.0 / N
    shape = (N,) * d
    L = N * h
    chi = radial_cutoff(shape, h, 0.3 * L, 0.47 * L)
    center = np.full(d, L / 2.0)
    rho = np.sqrt(sum((x - c) ** 2 for x, c in zip(_grid_axes(shape, h), center)))
    env = 1.0 - smoothstep(rho / (0.55 * 0.3 * L))
    carrier = 0.5 + _smooth_random(shape, h, rng)
    # exactly mean-zero while supported in {chi = 1}: the constant Fourier
    # mode would otherwise couple through the (Delta chi) w term and shift
    # the fixed point away from w*
    carrier = carrier - (env * carrier).sum() / env.sum()
    w_star = env * carrier

    mu = np.zeros((d, d) + shape)
    for i in range(d):
        for j in range(i, d):
            bump = magnitude * _smooth_random(shape, h, rng)
            mu[i, j] = bump
            mu[j, i] = bump
    tau = np.zeros((d,) + shape)
    for j in range(d):
        tau[j] = magnitude * _smooth_random(shape, h, rng)

    # source from the discrete equation on {chi = 1}; w* vanishes on the
    # cutoff transition so the chi-derivative terms drop out exactly
    lap = stencil.laplacian(w_star, h, True)
    corr = np.zeros(shape)
    for i in range(d):
        for j in range(d):
            corr += mu[i, j] * stencil.d2(w_star, i, j, h, True)
    for j in range(d):
        corr += tau[j] * stencil.d1(w_star, j, h, True)
    f_vals = lap + corr
    P = PerturbedProblem(chi, mu, tau, ScalarGrid(f_vals, h))
    return P, w_star
