"""The perturbed-Poisson contraction scheme: spectral solves of the discrete
Laplacian on a torus, the fixed-point iteration for the cutoff equation, and
the discrete W^{2,1} norm with its regression bound.

poisson_solve inverts the central-difference symbol (modified wavenumbers),
so applying the grid Laplacian to the solution reproduces the source to
roundoff, not merely to O(h^2).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import stencil
from .fields import GridField, _flat_grad_sq, _flat_windows
from .norms import ScalarGrid

__all__ = [
    "PerturbedProblem",
    "NotConvergedError",
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


class NotConvergedError(RuntimeError):
    """The fixed-point iteration stopped short of tol; carries the measured ratios."""

    def __init__(self, message, ratios):
        super().__init__(message)
        self.ratios = list(ratios)


class NonContractionError(NotConvergedError):
    """The fixed-point map failed to contract, or its iterate overflowed."""


def _symbol_axes(shape, h):
    """The central-difference Laplacian's symbol per axis, shaped to broadcast."""
    lams = []
    for a, N in enumerate(shape):
        k = np.fft.fftfreq(N) * N
        lam = (2.0 * np.cos(2.0 * np.pi * k / N) - 2.0) / h**2
        lams.append(lam.reshape([N if b == a else 1 for b in range(len(shape))]))
    return lams


def poisson_solve(f: ScalarGrid, spectrum=None, out=None) -> ScalarGrid:
    """Solve the central-difference Laplace equation on the torus:
    Delta_h v = f - mean(f) with mean(v) = 0.  The spectrum is transformed
    and divided in place (one axis-0 plane at a time): in `spectrum` if
    given, a complex grid whose real part may hold f's values.  v is written
    into `out` if given, which may be `spectrum.real`: numpy skips the
    assignment of a view to itself, so f's values already in the real part
    and v left there are copied neither in nor out."""
    vals = f.values
    F = np.empty(vals.shape, complex) if spectrum is None else spectrum
    F.real = vals
    F.imag = 0.0
    np.fft.fftn(F, out=F)
    lam0, *lams = _symbol_axes(vals.shape, f.h)
    for i in range(vals.shape[0]):
        # the symbol on plane i, its axis terms added in the whole grid's order
        sym, Fi = sum(lams, 0.0 + lam0[i : i + 1]), F[i : i + 1]
        np.divide(Fi, sym, out=Fi, where=(keep := np.abs(sym) > 1e-300))
        Fi[~keep] = 0.0
    F[(0,) * vals.ndim] = 0.0
    # np.fft.ifftn written out in place: one pass per axis, from the last
    for a in reversed(range(vals.ndim)):
        np.fft.ifft(F, axis=a, out=F)
    out = np.empty(vals.shape) if out is None else out
    out[...] = F.real
    return f.like(out)


@dataclass
class PerturbedProblem:
    """Cutoff chi, small coefficients mu^{ij}, tau^j, source f, optional
    sqrt(det g) weight; all on one periodic grid.

    Each entry mu[i, j] and tau[j] is a constant or a grid, in one of three
    forms: a (d, d) and a (d,) array of constants; a (d, d, *dims) and a
    (d, *dims) array of grids; or a table keyed by (i, j) and by j, such as
    a dict.  A table holds each entry once: a constant as a scalar, and a
    symmetric pair as one array object at both keys.  sqrt_g too is a
    constant or a grid."""

    chi: np.ndarray
    mu: np.ndarray | Mapping
    tau: np.ndarray | Mapping
    f: ScalarGrid
    sqrt_g: np.ndarray | None = None

    def __post_init__(self):
        d = self.f.d
        grid = self.f.values.shape
        self.chi = np.asarray(self.chi, dtype=float)
        if self.chi.shape != grid:
            raise ValueError("chi must live on the source grid")
        self.mu = _table("mu", self.mu, (d, d), grid)
        self.tau = _table("tau", self.tau, (d,), grid)
        if self.sqrt_g is not None:
            self.sqrt_g = _entry("sqrt_g", self.sqrt_g, grid)


def _table(name, given, lead, grid):
    """`given` as a float array whose shape starts with `lead`, or as a dict
    keyed by (i, j) for a two-axis `lead` and by j for a one-axis one; each
    entry must be a constant or a grid (`_entry`)."""
    keys = [k if len(lead) > 1 else k[0] for k in np.ndindex(lead)]
    if isinstance(given, Mapping):
        table = dict(given)
        if extra := table.keys() - set(keys):
            raise ValueError(f"{name} has keys outside {lead}: {sorted(extra, key=repr)}")
    else:
        table = np.asarray(given, dtype=float)
        if table.shape[:len(lead)] != lead:
            raise ValueError(f"{name} of shape {table.shape} does not start with {lead}")
    for key in keys:
        label = f"{name}[{str(key).strip('()')}]"
        if isinstance(table, dict):
            if key not in table:
                raise ValueError(f"{label} is missing")
            table[key] = _entry(label, table[key], grid)
        else:
            _entry(label, table[key], grid)
    return table


def _entry(label, value, grid):
    """value as a float array: a constant, or a grid of shape `grid`."""
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), grid):
        raise ValueError(f"{label} has shape {arr.shape}: neither a constant nor "
                         f"the grid's {grid}")
    return arr


def _coef(arr, ij, shape):
    """arr[ij] as a grid of `shape`; a constant is broadcast, not stored."""
    return np.broadcast_to(arr[ij], shape)


# axis-0 planes per block of `_wrapped_blocks`.  fixed_point_solve of
# default_problem(seed=3) on 2 cores, median of 3 solves in each of 3
# processes: at 20^4 0.72 s with 2 planes, 0.85 s with 1 and 0.67 s with 4;
# at 32^4 4.7 s with 2, 4.9 s with 1 and 4.7 s with 4.  Its traced peak
# beyond P at 20^4 is 4.0 grids with 2 planes, 3.7 with 1 and 4.7 with 4,
# and `solve-w21 --grid 20` peaks at 56.5 MB RSS with 2, 56.0 with 1 and
# 57.4 with 4
_RHS_PLANES = 2


def _wrapped_blocks(v):
    """(b, vb) for each block b of _RHS_PLANES axis-0 planes of the torus
    grid v: vb, in one buffer, holds planes b.start - 1 ... b.stop of v
    (round the torus), each padded by `stencil.wrap`, so the box differences
    of vb are v's torus differences on the planes of b."""
    N = v.shape[0]
    buf = np.empty((min(_RHS_PLANES, N) + 2,) + tuple(n + 2 for n in v.shape[1:]))
    for lo in range(0, N, _RHS_PLANES):
        b = slice(lo, min(lo + _RHS_PLANES, N))
        vb = buf[: b.stop - lo + 2]
        for p, i in enumerate(range(lo - 1, b.stop + 1)):
            stencil.wrap(v[i % N], vb[p])
        yield b, vb


def _rhs_operator(P: PerturbedProblem, out=None):
    """w -> RHS(w) of the cutoff equation, in `out` (by default a grid of
    the operator's own), which the next call overwrites.  Over the blocks of
    `_wrapped_blocks` of chi and of w, Delta chi, each d_a chi, chi mu_ij and
    chi tau_j, each difference of w and the source are formed into two
    block-sized buffers and added into a third in the term-by-term
    formula's order, so every bit stays; that block is then written into
    the output's planes, which need not be contiguous."""
    h = P.f.h
    d = P.f.d
    chi = P.chi
    sq = np.broadcast_to(P.sqrt_g if P.sqrt_g is not None else 1.0, chi.shape)
    mu = [(i, j, c) for i, j in np.ndindex(d, d)
          if np.any(c := _coef(P.mu, (i, j), chi.shape))]
    tau = [(j, c) for j in range(d) if np.any(c := _coef(P.tau, j, chi.shape))]
    out = np.empty_like(chi) if out is None else out
    block = (min(_RHS_PLANES, chi.shape[0]),) + chi.shape[1:]
    total, dchi, diff = np.empty(block), np.empty(block), np.empty(block)

    def rhs(w):
        for (b, cp), (_, wb) in zip(_wrapped_blocks(chi), _wrapped_blocks(w)):
            k = b.stop - b.start
            dc, df = dchi[:k], diff[:k]  # dc holds each chi coefficient too
            acc = stencil.laplacian(cp, h, out=total[:k])
            acc *= w[b]
            for a in range(d):
                dw = stencil.d1(wb, a, h, out=df)
                acc += np.multiply(stencil.d1(cp, a, h, out=dc), dw, out=df)
            for i, j, mu_ij in mu:
                np.multiply(chi[b], mu_ij[b], out=dc)
                acc -= np.multiply(dc, stencil.d2(wb, i, j, h, out=df), out=df)
            for j, tau_j in tau:
                np.multiply(chi[b], tau_j[b], out=dc)
                acc -= np.multiply(dc, stencil.d1(wb, j, h, out=df), out=df)
            np.multiply(chi[b], sq[b], out=dc)
            acc += np.multiply(dc, P.f.values[b], out=dc)
            out[b] = acc
        return out

    return rhs


def contraction_step(w: ScalarGrid, P: PerturbedProblem) -> ScalarGrid:
    """One sweep of the scheme: solve Delta v = RHS(w) with RHS built from the
    cutoff terms, the small coefficients, and the source (all derivatives
    central)."""
    if w.values.shape != P.f.values.shape:
        raise ValueError("iterate must live on the problem grid")
    return poisson_solve(P.f.like(_rhs_operator(P)(w.values)))


def _w11(v, h, grid=None):
    """The W^{1,1} norm of v on the torus, in a grid buffer (which may be a
    strided view, such as a complex grid's imaginary part)."""
    grid = np.empty_like(v) if grid is None else grid
    total = np.abs(v, out=grid).sum()
    for a in range(v.ndim):
        for b, vb in _wrapped_blocks(v):
            stencil.d1(vb, a, h, out=grid[b])
        total += np.abs(grid, out=grid).sum()
    return float(total * h**v.ndim)


def fixed_point_solve(P: PerturbedProblem, tol=1e-10, max_iter=100):
    """Iterate v_{k+1} = contraction_step(v_k) from v_0 = 0 until the W^{1,1}
    distance of consecutive iterates drops below tol.

    Returns (v, stats) with the measured contraction ratio and the final
    residual of the cutoff equation.  Raises NonContractionError when the ratios
    sit at or above 1 for three consecutive steps, when an iterate overflows or
    when max_iter runs out at a ratio >= 0.9; NotConvergedError when it runs out sooner.
    """
    h = P.f.h
    shape = P.f.values.shape
    # three whole grids: v and one spectrum, whose real part takes the
    # right-hand side and then the next iterate, and whose imaginary part
    # is the scratch grid of the W^{1,1} norm and the final residual
    spectrum = np.empty(shape, complex)
    nxt, grid = spectrum.real, spectrum.imag
    v = np.zeros(shape)
    prev_diff = None
    ratios = []
    flat_count = 0
    rhs = _rhs_operator(P, nxt)
    for it in range(1, max_iter + 1):
        try:  # an overflow raises here, not as a numpy warning and a non-finite grid
            with np.errstate(over="raise", invalid="raise"):
                poisson_solve(P.f.like(rhs(v)), spectrum, nxt)
                # the increment nxt - v takes the place of v, which is done with
                diff = _w11(np.subtract(nxt, v, out=v), h, grid)
        except FloatingPointError:
            raise NonContractionError(
                f"non-contraction: the iterate overflowed at iteration {it}", ratios) from None
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
            ratios.append(ratio)
            flat_count = flat_count + 1 if ratio >= 0.9999 else 0
            if flat_count >= 3:
                raise NonContractionError(
                    f"non-contraction: ratio held at {ratio:.4f} for 3 steps", ratios
                )
        prev_diff = diff
        np.copyto(v, nxt)
        if diff < tol:
            # residual of the cutoff equation, in the L1 metric matching the
            # W^{1,1} convergence norm; keep sweeping until it clears 10 tol
            r = rhs(v)
            r -= r.mean()
            for b, vb in _wrapped_blocks(v):
                stencil.laplacian(vb, h, out=grid[b])
            res_abs = np.subtract(grid, r, out=grid)
            np.abs(res_abs, out=res_abs)
            residual = float(res_abs.sum() * h**v.ndim)
            if residual >= 10.0 * tol and it < max_iter:
                continue
            stats = {
                "iterations": it,
                "converged": True,
                "contraction": _median(ratios[-5:]) if ratios else 0.0,
                "ratios": ratios,
                "residual": residual,
                "residual_sup": float(res_abs.max()),
            }
            return P.f.like(v), stats
    last = f"ratio {ratios[-1]:.4f}" if ratios else "no ratio measured"
    if ratios and ratios[-1] >= 0.9:
        raise NonContractionError(
            f"non-contraction: stalled after {max_iter} iterations at {last}", ratios)
    raise NotConvergedError(
        f"did not reach tol={tol} in {max_iter} iterations ({last}); increase max_iter", ratios)


def _median(xs):
    """np.median of a few floats, to the bit, without the numpy.ma import of
    its NaN check, which added 0.8 MB to `solve-w21 --grid 20`'s peak RSS."""
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


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


def smoothstep(s, out=None):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 in between; written
    into `out` (which may be s) when given."""
    s = np.clip(s, 0.0, 1.0, out=out)
    poly = 10.0 - 15.0 * s + 6.0 * s * s
    s **= 3
    s *= poly
    return s


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
    s = sum((x - c) ** 2 for x, c in zip(_grid_axes(shape, h), center))
    np.sqrt(s, out=s)
    s -= inner
    s /= outer - inner
    return np.subtract(1.0, smoothstep(s, out=s), out=s)


def _grid_axes(shape, h):
    """The node coordinates i h along each grid axis, shaped to broadcast."""
    return np.meshgrid(*[np.arange(N) * h for N in shape], indexing="ij", sparse=True)


def _smooth_random(shape, h, rng):
    axes = _grid_axes(shape, h)
    L = shape[0] * h
    out, arg = np.zeros(shape), np.empty(shape)
    for _ in range(4):
        kvec = rng.integers(1, 3, size=len(shape))
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.normal()
        terms = [2 * np.pi * k * x / L for k, x in zip(kvec, axes)]
        np.add(sum(terms[:-1]), terms[-1], out=arg)  # the one whole-grid addition
        arg += phase
        out += np.multiply(amp, np.sin(arg, out=arg), out=arg)
    out /= max(1e-12, np.abs(out, out=arg).max())
    return out


def default_problem(N=16, magnitude=0.05, seed=0):
    """A generic perturbed problem on the unit 4-torus: standard cutoff, smooth
    coefficients of the given magnitude, localized smooth source.

    mu is dominated by magnitude * identity (the worst case at a given max
    norm: at magnitude 1 the scheme reproduces -w on the cutoff plateau and
    genuinely stops contracting), plus a smaller random symmetric part.  Its
    table holds the diagonal as 4 scalars and each off-diagonal grid once.
    """
    rng = np.random.default_rng(seed)
    d = 4
    h = 1.0 / N
    shape = (N,) * d
    L = N * h
    chi = radial_cutoff(shape, h, 0.22 * L, 0.47 * L)
    mu = {}
    for i in range(d):
        mu[i, i] = magnitude
        for j in range(i + 1, d):
            mu[i, j] = mu[j, i] = 0.2 * magnitude * _smooth_random(shape, h, rng)
    tau = np.zeros((d,) + shape)
    for j in range(d):
        tau[j] = magnitude * _smooth_random(shape, h, rng)
    src = _smooth_random(shape, h, rng)
    src *= radial_cutoff(shape, h, 0.10 * L, 0.20 * L)
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

    # a symmetric table: each of the 10 grids at both of its keys
    mu = {}
    for i in range(d):
        for j in range(i, d):
            mu[i, j] = mu[j, i] = magnitude * _smooth_random(shape, h, rng)
    tau = np.zeros((d,) + shape)
    for j in range(d):
        tau[j] = magnitude * _smooth_random(shape, h, rng)

    # source from the discrete equation on {chi = 1}; w* vanishes on the
    # cutoff transition so the chi-derivative terms drop out exactly
    ws = stencil.wrap(w_star)  # the torus as a box, padded once
    lap = stencil.laplacian(ws, h)
    corr = np.zeros(shape)
    for i in range(d):
        for j in range(d):
            corr += mu[i, j] * stencil.d2(ws, i, j, h)
    for j in range(d):
        corr += tau[j] * stencil.d1(ws, j, h)
    f_vals = lap + corr
    P = PerturbedProblem(chi, mu, tau, ScalarGrid(f_vals, h))
    return P, w_star
