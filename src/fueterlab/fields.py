"""Discretized maps u: grid in R^{4m} -> R^{4n}: differentials, the
quaternionic del-bar residual, the pointwise energy identity, the
Laplacian, pullback closedness, domain variations, and a heat-flow generator.

Grids are either dense (values stored per node) or function-backed (values
produced on demand, slab by slab), so ball quadrature at fine spacings never
materializes the full 4-D array.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading

import numpy as np

from . import stencil
from .exterior import KForm, basis_form, index_tuples, wedge, wedge_power
from .quat import ONE, QI, QJ, QK, StructureTriple, kaehler_form, quat_mul_array

__all__ = [
    "GridField",
    "differential",
    "triholo_residual",
    "dirichlet_energy",
    "energy_identity_defects",
    "laplacian_direct",
    "pullback_closedness_defect",
    "domain_variation_derivative",
    "heat_flow_step",
    "save_fld1",
    "load_fld1",
    "FueterPolynomialMap",
    "standard_triholomorphic_field",
    "triholomorphic_suite",
    "residual_operator_matrix",
    "triholomorphic_kernel",
]

_DENSE_LIMIT_BYTES = 2_000_000_000

# axis-0 planes per window of GridField.windows: with its halo a window of a
# 33^4 field stays within a core's cache (there, on 2 cores, with one worker /
# two: w21_norm 0.22 / 0.17 s at 1 plane, 0.21 / 0.14 s at 2, 0.25 / 0.14 s at
# 4; dirichlet_energy 0.057 / 0.037 s at 1, 0.051 / 0.035 s at 2, 0.056 / 0.030
# s at 4)
_WINDOW_PLANES = 2

# nodes a window's flat block needs before the windows of stored values run on
# more than one worker: shorter numpy calls hand the GIL over more often than
# they save (2 cores, box, 2 workers against 1: w21_norm and dirichlet_energy
# 1.02-1.07x the time on 21 nodes, 27,436-node blocks; 0.98-1.01x on 23, 37,044;
# 0.79-0.92x on 25, 48,668; 0.57-0.61x on 33, 119,164).  A function-backed grid
# runs on one worker: its planes are evaluated one at a time under the window
# lock, and a second worker only competes with the BLAS threads of the
# callable (33 nodes: dirichlet_energy 1.10-1.24x the time, w21_norm 1.00x)
_FANOUT_SIZE = 40_000


def _finite(values):
    # min and max propagate NaN and reach any infinity, with no temporary
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError("field values must be finite")
    return values


# ---------------------------------------------------------------------------
# grid fields


class GridField:
    """A map u from a uniform grid in R^{4m} (torus [0,L)^{4m} or box
    [-L,L]^{4m}) into R^{4n}.

    Either ``values`` (shape ``shape + (4n,)``) or ``fn`` (vectorized callable
    on (..., 4m) points) must be given.  All axes share the spacing h; a box
    needs at least 5 nodes per axis for the central stencils.
    """

    def __init__(self, m, n, domain, L, shape, values=None, fn=None):
        if domain not in ("torus", "box"):
            raise ValueError("domain must be 'torus' or 'box'")
        self.m = int(m)
        self.n = int(n)
        self.domain = domain
        self.L = float(L)
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {L!r}")
        shape = tuple(int(s) for s in shape)
        if len(shape) != 4 * self.m:
            raise ValueError(f"grid needs {4 * self.m} axes, got {len(shape)}")
        if min(shape) < 5:
            raise ValueError("need at least 5 nodes per axis")
        if len(set(shape)) != 1:
            raise ValueError("all axes share one node count")
        self.shape = shape
        N = shape[0]
        self.h = self.L / N if domain == "torus" else 2.0 * self.L / (N - 1)
        self._values = None
        self._fn = fn
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != shape + (4 * self.n,):
                raise ValueError(f"values must have shape {shape + (4 * self.n,)}")
            self._values = _finite(values)
        elif fn is None:
            raise ValueError("provide values or fn")

    # -- constructors

    @staticmethod
    def from_array(values, m, n, domain="box", L=0.5):
        values = np.asarray(values, dtype=float)
        return GridField(m, n, domain, L, values.shape[:-1], values=values)

    @staticmethod
    def from_function(fn, m, n, nodes, domain="box", L=0.5, materialize=False):
        g = GridField(m, n, domain, L, (nodes,) * (4 * m), fn=fn)
        if materialize:
            g.values  # noqa: B018 - force the dense cache
        return g

    # -- geometry

    @property
    def dim(self):
        return 4 * self.m

    @property
    def target_dim(self):
        return 4 * self.n

    def axis_coords(self):
        N = self.shape[0]
        if self.domain == "torus":
            return np.arange(N) * self.h
        return -self.L + np.arange(N) * self.h

    def interior_margin(self):
        """Nodes this many layers from a box edge are excluded from statistics."""
        return 0 if self.domain == "torus" else 2

    def is_interior(self, node):
        """Whether a central stencil at node stays on the grid."""
        if self.domain == "torus":
            return True
        N = self.shape[0]
        return all(1 <= i <= N - 2 for i in node)

    # -- values

    @property
    def values(self):
        if self._values is None:
            nbytes = 8 * self.target_dim * int(np.prod(self.shape))
            if nbytes > _DENSE_LIMIT_BYTES:
                raise MemoryError(
                    f"refusing to materialize {nbytes / 1e9:.1f} GB; use slab access"
                )
            values = np.empty(self.shape + (self.target_dim,))
            for i in range(self.shape[0]):
                values[i] = self.slab(i)
            self._values = values
        return self._values

    def is_dense(self):
        return self._values is not None

    def evaluate(self, pts):
        """Values at arbitrary points: direct for function-backed grids,
        multilinear interpolation for dense ones."""
        pts = np.asarray(pts, dtype=float)
        if self._fn is not None:
            return np.asarray(self._fn(pts), dtype=float)
        return self._interpolate(pts)

    def block(self, index):
        """Values on the grid nodes that `index` selects: an int or a slice per
        leading grid axis, as in numpy basic indexing.  A function-backed grid
        evaluates its callable on exactly those nodes."""
        if self._values is not None:
            return self._values[index]
        c = self.axis_coords()
        index = index if isinstance(index, tuple) else (index,)
        axes = [c[ix] for ix in index] + [c] * (self.dim - len(index))
        shape = tuple(len(x) for x in axes if x.ndim)
        pts = np.empty(shape + (self.dim,))
        k = len(shape)
        for a, x in enumerate(axes):
            k -= x.ndim  # sliced axes after this one, so x lines up with its own
            pts[..., a] = x.reshape((-1,) + (1,) * k) if x.ndim else x
        return _finite(np.asarray(self._fn(pts), dtype=float))

    def slab(self, i):
        """Values on the hyperplane of axis-0 index i (wrapped on a torus)."""
        return self.block(i % self.shape[0] if self.domain == "torus" else i)

    def windows(self):
        """Yield (i0, window) over the axis-0 planes i0 .. i0 + k - 1 of the
        interior (every plane on a torus), k <= _WINDOW_PLANES.

        A window holds those planes and one halo plane on each side of them,
        so box differences over it cover exactly its k planes.  On a box it
        holds the whole in-slab extent (a view when the grid is dense); on a
        torus the plane indices wrap and the in-slab axes are padded by one
        periodic layer.  A function-backed grid is evaluated slab by slab,
        each plane once, and never materialized.
        """
        N = self.shape[0]
        periodic = self.domain == "torus"
        margin = self.interior_margin()
        lo, hi = margin, N - margin
        pad = [(0, 0)] + [(1, 1)] * (self.dim - 1) + [(0, 0)]
        planes, wrap = {}, {}
        for i0 in range(lo, hi, _WINDOW_PLANES):
            idx = [i % N for i in range(i0 - 1, min(i0 + _WINDOW_PLANES, hi) + 1)]
            if self._values is not None and not periodic:
                yield i0, self._values[idx[0] : idx[-1] + 1]
                continue
            # the two planes a window shares with the next are evaluated once,
            # and so are planes N - 1 and 0, which a torus's last window reads again
            known = {**wrap, **planes}
            planes = {i: known[i] if i in known else self.slab(i) for i in idx}
            if periodic and not wrap:
                wrap = {i: planes[i] for i in (N - 1, 0)}
            win = np.stack([planes[i] for i in idx])
            yield i0, np.pad(win, pad, mode="wrap") if periodic else win

    def _interpolate(self, pts):
        c = self.axis_coords()
        N = self.shape[0]
        vals = self.values
        x0 = c[0]
        t = (pts - x0) / self.h
        if self.domain == "torus":
            base = np.floor(t).astype(int)
            frac = t - base
            base = base % N
        else:
            eps = 1e-12
            if np.any(pts < -self.L - eps) or np.any(pts > self.L + eps):
                raise ValueError("interpolation point outside the box")
            base = np.clip(np.floor(t).astype(int), 0, N - 2)
            frac = t - base
        out = 0.0
        d = self.dim
        for corner in range(1 << d):
            idx = []
            w = 1.0
            for a in range(d):
                bit = (corner >> a) & 1
                ia = base[..., a] + bit
                if self.domain == "torus":
                    ia = ia % N
                idx.append(ia)
                w = w * (frac[..., a] if bit else 1.0 - frac[..., a])
            out = out + vals[tuple(idx)] * w[..., None]
        return out

    def with_values(self, values):
        return GridField(self.m, self.n, self.domain, self.L, self.shape, values=values)

    def __repr__(self):
        kind = "dense" if self.is_dense() else "fn"
        return (
            f"GridField(m={self.m}, n={self.n}, {self.domain}, L={self.L}, "
            f"shape={self.shape}, h={self.h:.5g}, {kind})"
        )


def _neighbor(u, node, axis, step):
    node = list(node)
    node[axis] += step
    if u.domain == "torus":
        node[axis] %= u.shape[0]
    return u.block(tuple(node))


def differential(u: GridField, node) -> np.ndarray:
    """Central-difference jet at a node, the (4n, 4m) array whose column a is
    (u(+h e_a) - u(-h e_a)) / 2h.  The field values are finite, but their
    differences can overflow; such a jet raises ValueError."""
    node = tuple(int(i) for i in node)
    if not u.is_interior(node):
        raise ValueError(f"node {node} too close to the box boundary for the stencil")
    du = np.stack([stencil.first(_neighbor(u, node, a, +1), _neighbor(u, node, a, -1), u.h)
                   for a in range(u.dim)], axis=1)
    if not np.isfinite(du).all():
        raise ValueError(f"jet entries at node {node} must be finite (the differences overflow)")
    return du


# ---------------------------------------------------------------------------
# pointwise algebra: residual and energy identity


def triholo_residual(A, S_dom: StructureTriple, S_tar: StructureTriple, connection=None):
    """R = du - I du i - J du j - K du k - (optional zeroth-order term), for
    one jet of shape (4n, 4m) or a batch of shape (..., 4n, 4m).

    The map is flagged triholomorphic at the node when ||R||_F is below the
    caller's tolerance.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (S_tar.dim, S_dom.dim):
        raise ValueError(f"jet shape {A.shape} does not match (..., {S_tar.dim}, {S_dom.dim})")
    R = A.copy()
    for St, Sd in zip(S_tar.mats(), S_dom.mats()):
        R -= np.einsum("ij,...jk,kl->...il", St, A, Sd)
    if connection is not None:
        C = np.asarray(connection, dtype=float)
        if C.shape != A.shape:
            raise ValueError("connection term must match the jet shape")
        R -= C
    return R


_identity_table_cache = {}


def _identity_tables(S_dom, S_tar):
    """Pairing tables K_l with (alpha_l^(2m-1) ^ G)(vol) = sum_{a<b} K_l[a,b] G_{ab},
    computed once per pair of triples from the honest exterior algebra."""
    key = tuple(M.tobytes() for S in (S_dom, S_tar) for M in S.mats())
    if key in _identity_table_cache:
        return _identity_table_cache[key]
    m = S_dom.d
    dm = S_dom.dim
    tables = []
    for which in ("i", "j", "k"):
        alpha = kaehler_form(S_dom, which)
        P = wedge_power(alpha, 2 * m - 1)
        K = np.zeros((dm, dm))
        for (a, b) in index_tuples(dm, 2):
            top = wedge(P, basis_form(dm, (a, b)))
            K[a, b] = top.coeffs[0]
            K[b, a] = -top.coeffs[0]
        tables.append(K)
    W = [kaehler_form(S_tar, w).as_matrix() for w in ("i", "j", "k")]
    _identity_table_cache[key] = (tables, W)
    return tables, W


def _wedge_pairing(As, S_dom, S_tar):
    """sum_l (alpha_l^(2m-1) ^ A*omega_l)(vol) = sum_l 0.5 K_l . (A^T W_l A), batched."""
    tables, W = _identity_tables(S_dom, S_tar)
    out = 0.0
    for K, Wl in zip(tables, W):
        G = np.einsum("nia,ij,njb->nab", As, Wl, As)
        out = out + 0.5 * np.einsum("ab,nab->n", K, G)
    return out


def energy_identity_defects(As, S_dom: StructureTriple, S_tar: StructureTriple):
    """LHS - RHS of the pointwise energy identity, which vanishes for every
    jet, over a batch of jets dv of shape (N, 4n, 4m).

    LHS = -(1/(2m-1)!) [a_1^(2m-1) ^ v*O_I + a_2^(2m-1) ^ v*O_J
          + a_3^(2m-1) ^ v*O_K] on the unit volume, and
    RHS = 1/2 |dv|^2 - 1/8 |dv - I dv i - J dv j - K dv k|^2.

    The 1/8 is forced by the left-multiplication convention: with it the
    identity is exact algebra for arbitrary jets, and for triholomorphic
    jets the LHS reduces to 1/2 |dv|^2.
    """
    As = np.asarray(As, dtype=float)
    lhs = -_wedge_pairing(As, S_dom, S_tar) / math.factorial(2 * S_dom.d - 1)
    R = triholo_residual(As, S_dom, S_tar)
    rhs = 0.5 * np.einsum("nab,nab->n", As, As) - 0.125 * np.einsum("nab,nab->n", R, R)
    return lhs - rhs


def residual_operator_matrix(S_dom, S_tar):
    """The residual A -> R(A) as a matrix on vectorized jets (the kernel oracle)."""
    size = S_tar.dim * S_dom.dim
    units = np.eye(size).reshape(size, S_tar.dim, S_dom.dim)
    return triholo_residual(units, S_dom, S_tar).reshape(size, size).T


def triholomorphic_kernel(S_dom, S_tar):
    """Kernel of the linear residual, via SVD of the oracle matrix.

    Returns (dimension, basis) where basis[k] is a 4n x 4m jet with
    ||triholo_residual(basis[k])|| at roundoff level.
    """
    M = residual_operator_matrix(S_dom, S_tar)
    _, s, Vt = np.linalg.svd(M)
    null = Vt[int(np.sum(s > 1e-10 * s.max())) :]
    basis = [v.reshape(S_tar.dim, S_dom.dim) for v in null]
    return len(basis), basis


# ---------------------------------------------------------------------------
# grid-level operators


def _flat_windows(u: GridField, scratch, kernel):
    """{i0: kernel(i0, block, comps, bufs)} over the windows of `u.windows()`.

    `block` is the `stencil.FlatBlock` over a window's planes and in-slab
    interior with a one-node halo, comps[c] holds component c of the window
    raveled, and `bufs` is `scratch` more flat buffers.

    The windows run on one worker per CPU in the affinity mask, at most one
    per window, when the grid is dense and its blocks hold at least
    _FANOUT_SIZE nodes, and on one worker otherwise.  The calling thread is
    one of them, and each reuses comps and bufs of its own, allocated here up
    front.  The workers take the windows from one generator under a lock; a
    worker's exception is raised here once every worker has stopped."""
    N, d = u.shape[0], u.dim
    periodic = u.domain == "torus"
    margin = u.interior_margin()
    count = len(range(margin, N - margin, _WINDOW_PLANES))
    ring = N + 2 if periodic else N - 2  # in-slab extent of a window's block
    size = (min(_WINDOW_PLANES, N - 2 * margin) + 2) * ring ** (d - 1)
    fan_out = u.is_dense() and size >= _FANOUT_SIZE
    workers = min(len(os.sched_getaffinity(0)), count) if fan_out else 1
    core = (slice(None),) + (slice(None) if periodic else slice(1, N - 1),) * (d - 1)
    windows = u.windows()
    lock = threading.Lock()
    results, errors = {}, []

    def work(comps, bufs):
        try:
            while not errors:
                with lock:
                    i0, win = next(windows, (None, None))
                if win is None:
                    return
                block = stencil.FlatBlock(win[core + (0,)].shape)
                for c in range(u.target_dim):
                    np.copyto(comps[c, : block.size].reshape(block.shape), win[core + (c,)])
                results[i0] = kernel(i0, block, comps, bufs)
        except BaseException as e:  # noqa: BLE001 - raised again by the caller
            errors.append(e)

    buffers = [(np.empty((u.target_dim, size)), np.empty((scratch, size)))
               for _ in range(workers)]
    threads = [threading.Thread(target=work, args=b) for b in buffers[1:]]
    for t in threads:
        t.start()
    work(*buffers[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _flat_grad_sq(block, comps, h, out, part, buf):
    """|du|^2_F over the flat range of `block`, into out's range, axis by axis."""
    grad = block.at(out, {})
    grad[...] = 0.0
    for a in range(len(block.shape)):
        grad += stencil._sum_of_squares(
            [functools.partial(block.d1, v, a, h) for v in comps], part, buf)
    return grad


def dirichlet_energy(u: GridField) -> float:
    """sum over interior nodes of |du|^2_F h^{4m}, without the 1/2 factor,
    over the flat windows of `_flat_windows`, so the full field is never
    materialized; each plane is summed on its own, and the plane sums are
    added in plane order whichever worker took their window."""

    def plane_sums(i0, block, comps, bufs):
        part, buf, grad_sq = bufs
        _flat_grad_sq(block, comps, u.h, grad_sq, part, buf)
        return [float(plane.sum()) for plane in block.interior(grad_sq)]

    total = 0.0
    for _, sums in sorted(_flat_windows(u, 3, plane_sums).items()):
        for s in sums:
            total += s
    return total * u.h**u.dim


def laplacian_direct(u: GridField, node) -> np.ndarray:
    """sum_a (u(+h e_a) - 2 u + u(-h e_a)) / h^2 at an interior node."""
    node = tuple(int(i) for i in node)
    if not u.is_interior(node):
        raise ValueError("laplacian stencil reaches the boundary")
    c = u.block(node)
    return sum(stencil.second(_neighbor(u, node, a, +1), c, _neighbor(u, node, a, -1), u.h)
               for a in range(u.dim))


def pullback_closedness_defect(u: GridField, Omega: KForm) -> float:
    """Max over interior 3-cells of the Stokes sum of u*Omega over the cell
    faces, normalized by cell volume; zero for closed pullbacks.

    Omega must be a constant-coefficient (hence closed) 2-form on the target.
    """
    if Omega.k != 2 or Omega.n != u.target_dim:
        raise ValueError("Omega must be a 2-form on the target")
    W = Omega.as_matrix()
    vals = u.values
    d = u.dim
    h = u.h
    if u.domain == "torus":
        # wrap-pad two layers so the box slicing below covers every cell
        vals = np.pad(vals, [(2, 2)] * d + [(0, 0)], mode="wrap")

    # du along each axis at every 1-interior node, then the components b < c
    # of the pullback 2-form G_bc = du_b^T W du_c, the only ones `flux` reads
    du = [stencil.d1(vals, a, h, False, d) for a in range(d)]
    G = {(b, c): np.einsum("...i,ij,...j->...", du[b], W, du[c]) for b, c in index_tuples(d, 2)}

    M = du[0].shape[0]  # at least 3: a box has 5 nodes or more, a torus is padded

    def flux(a, b, c):
        # G_bc averaged over the 4 corners of each (b, c)-face, on an a-range
        # one node longer, then the difference of opposite faces along a
        tot = 0.0
        for db in (0, 1):
            for dc in (0, 1):
                sl = [slice(0, M - 1)] * d
                sl[a] = slice(0, M)
                sl[b] = slice(db, M - 1 + db)
                sl[c] = slice(dc, M - 1 + dc)
                tot = tot + G[b, c][tuple(sl)]
        return np.diff(tot / 4.0, axis=a)

    worst = 0.0
    for (a, b, c) in index_tuples(d, 3):
        s = flux(a, b, c) - flux(b, a, c) + flux(c, a, b)
        worst = max(worst, float(np.max(np.abs(s))) / h)
    return worst


def domain_variation_derivative(u: GridField, X, t=None) -> float:
    """d/dt at t=0 of the Dirichlet energy of u composed with Id + tX,
    by a symmetric difference in t with resampled fields.

    X is a vectorized callable on points, vanishing near the box boundary.
    Checks stationarity: the derivative vanishes for stationary maps.
    """
    if u.domain != "box":
        raise ValueError("domain variations are defined on box grids")
    if t is None:
        t = u.h / 8.0
    c = u.axis_coords()
    mesh = np.meshgrid(*([c] * u.dim), indexing="ij")
    pts = np.stack(mesh, axis=-1)
    Xv = np.asarray(X(pts), dtype=float)
    # support must stay clear of the boundary: check the outer 4h shell
    N = u.shape[0]
    shell = np.ones(u.shape, dtype=bool)
    shell[(slice(4, N - 4),) * u.dim] = False
    if np.max(np.linalg.norm(Xv, axis=-1)[shell]) > 1e-14:
        raise ValueError("vector field support touches the boundary layer")

    def energy_at(tt):
        moved = pts + tt * Xv
        resampled = u.evaluate(moved)
        return dirichlet_energy(u.with_values(resampled))

    return stencil.first(energy_at(t), energy_at(-t), t)


def heat_flow_step(u: GridField, dt: float) -> GridField:
    """Forward-Euler heat step u + dt * Laplacian(u); requires dt <= h^2/(8m).

    At the stability bound every Fourier mode is damped (weakly), so the
    Dirichlet energy never increases.
    """
    if dt > u.h**2 / (8.0 * u.m) * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds the stability bound h^2/(8m)")
    vals = u.values
    periodic = u.domain == "torus"
    # a box keeps its boundary layer fixed
    inner = tuple(slice(None) if periodic else slice(1, -1) for _ in range(u.dim))
    new = vals.copy()
    new[inner] = vals[inner] + dt * stencil.laplacian(vals, u.h, periodic, u.dim)
    return u.with_values(new)


# ---------------------------------------------------------------------------
# FLD1 file format


def save_fld1(u: GridField, path):
    """ASCII header + raw little-endian float64 payload; bit-exact round trip."""
    dims = ",".join(str(s) for s in u.shape)
    header = f"FLD1 m={u.m} n={u.n} domain={u.domain} L={u.L!r} h={u.h!r} dims={dims}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        # plane by plane, so a function-backed grid is never materialized
        for i in range(u.shape[0]):
            f.write(np.ascontiguousarray(u.slab(i), dtype="<f8").data)


# an FLD1 header holds each of these fields once, as key=value, read from its
# text by the function here; any other header raises a ValueError naming it
_FLD1_FIELDS = {"m": int, "n": int, "domain": str, "L": float, "h": float,
                "dims": lambda s: tuple(int(x) for x in s.split(","))}


def load_fld1(path) -> GridField:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").strip()
        parts = header.split()
        if not parts or parts[0] != "FLD1":
            raise ValueError("not an FLD1 file")
        text, kv = {}, {}
        for token in parts[1:]:
            key, eq, raw = token.partition("=")
            if not eq or key not in _FLD1_FIELDS:
                raise ValueError(f"header token {token!r} is not key=value for an FLD1 field")
            if key in kv:
                raise ValueError(f"header field {key} is repeated")
            try:
                text[key], kv[key] = raw, _FLD1_FIELDS[key](raw)
            except ValueError:
                raise ValueError(f"header field {key} has a malformed value {raw!r}") from None
        missing = [key for key in _FLD1_FIELDS if key not in kv]
        if missing:
            raise ValueError(f"header field {missing[0]} is missing")
        m, n, shape = kv["m"], kv["n"], kv["dims"]
        for key, least in (("m", m), ("n", n), ("dims", min(shape))):
            if least < 1:
                raise ValueError(f"header field {key} must be at least 1, got {text[key]}")
        count = int(np.prod(shape)) * 4 * n
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 8 * count:
            raise ValueError(f"payload has {size} bytes, header dims need {8 * count}")
        values = np.empty(shape + (4 * n,), dtype="<f8")
        got = f.readinto(values.data.cast("B"))
        if got != 8 * count:
            raise ValueError(f"payload has {got} bytes, header dims need {8 * count}")
    g = GridField(m, n, kv["domain"], kv["L"], shape, values=values)
    if not abs(g.h - kv["h"]) <= 1e-12 * max(1.0, g.h):  # a NaN h fails too
        raise ValueError("header spacing inconsistent with L and dims")
    return g


# ---------------------------------------------------------------------------
# triholomorphic polynomial fields (m = n = 1)
#
# The residual du - I du i - J du j - K du k vanishes exactly when the
# quaternion-valued map satisfies (d/dx0 - i d/dx1 - j d/dx2 - k d/dx3) u = 0.
# Solutions are generated by the conjugated linear variables
# z_l(x) = -(x_l + e_l x0), their powers, symmetrized mixed products, and
# right quaternion coefficients.

_UNITS = [ONE, QI, QJ, QK]


def _z_value(pts, ell):
    out = np.zeros(pts.shape[:-1] + (4,))
    out[..., 0] = -pts[..., ell]
    out[..., ell] = -pts[..., 0]
    return out


class FueterPolynomialMap:
    """Quaternion polynomial u(x) = sum over terms of sym(z_{i1}...z_{ik}) c,
    with right quaternion coefficients; every such map is triholomorphic and
    componentwise harmonic.

    Evaluation expands the symmetrized quaternion products once into plain
    monomials in (x0..x3) with quaternion coefficients; `value_direct` keeps
    the product-form evaluation as an independent cross-check.
    """

    def __init__(self, terms):
        # terms: list of (indices tuple with entries in {1,2,3}, coeff (4,))
        self.terms = [(tuple(idx), np.asarray(c, dtype=float)) for idx, c in terms]
        self._compiled = None

    def _arrangements(self, idx):
        return sorted(set(itertools.permutations(idx)))

    def value_direct(self, pts):
        """Symmetrized quaternion-product evaluation (slow reference)."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1] + (4,))
        for idx, c in self.terms:
            if len(idx) == 0:
                out += c
                continue
            arr = self._arrangements(idx)
            acc = np.zeros_like(out)
            for order in arr:
                prod = _z_value(pts, order[0])
                for ell in order[1:]:
                    prod = quat_mul_array(prod, _z_value(pts, ell))
                acc += prod
            acc /= len(arr)
            out += quat_mul_array(acc, c)
        return out

    # -- monomial expansion

    def _expand(self):
        if self._compiled is not None:
            return self._compiled

        def z_poly(ell):
            # z_l = -(x_l + e_l x0) as {exponent tuple: quaternion coeff}
            return {tuple(int(a == ell) for a in range(4)): -_UNITS[0],
                    (1, 0, 0, 0): -_UNITS[ell]}

        def poly_mul(p, q):
            out = {}
            for ea, ca in p.items():
                for eb, cb in q.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    c = quat_mul_array(ca, cb)
                    out[e] = out.get(e, 0.0) + c
            return out

        total = {}
        for idx, c in self.terms:
            if len(idx) == 0:
                term = {(0, 0, 0, 0): _UNITS[0].copy()}
            else:
                arr = self._arrangements(idx)
                term = {}
                for order in arr:
                    prod = z_poly(order[0])
                    for ell in order[1:]:
                        prod = poly_mul(prod, z_poly(ell))
                    for e, cc in prod.items():
                        term[e] = term.get(e, 0.0) + cc / len(arr)
            for e, cc in term.items():
                total[e] = total.get(e, 0.0) + quat_mul_array(cc, c)

        # column a of du is sum_e e_a c_e x^(e - e_a): one coefficient table
        # over the 16 entries (row-major), zero where a monomial misses a column
        deriv = {}
        for e, c in total.items():
            for a in range(4):
                if e[a]:
                    de = e[:a] + (e[a] - 1,) + e[a + 1 :]
                    deriv.setdefault(de, np.zeros((4, 4)))[:, a] = c * e[a]

        def table(poly, size):
            exps = np.array(sorted(poly), dtype=int).reshape(-1, 4)
            return exps, np.array([poly[tuple(e)] for e in exps]).reshape(-1, size)

        self._compiled = (table(total, 4), table(deriv, 16))
        return self._compiled

    def _monomials_t(self, flat, exps, out=None):
        """Monomial matrix (T, P), written row-contiguously."""
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

    def _evaluate(self, pts, exps, coefs):
        """sum_e coefs[e] x^e at each point, in 2^19-point chunks on one buffer."""
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 4)
        out = np.empty((flat.shape[0], coefs.shape[1]))
        chunk = 1 << 19
        buf = None
        for k in range(0, flat.shape[0], chunk):
            part = flat[k : k + chunk]
            if buf is None or buf.shape[1] != part.shape[0]:
                buf = np.empty((len(exps), part.shape[0]))
            M = self._monomials_t(part, exps, out=buf)
            out[k : k + chunk] = M.T @ coefs
        return out.reshape(pts.shape[:-1] + coefs.shape[1:])

    def value(self, pts):
        return self._evaluate(pts, *self._expand()[0])

    def jacobian(self, pts):
        """Analytic du, shape (..., 4, 4), column a = d u / d x_a."""
        du = self._evaluate(pts, *self._expand()[1])
        return du.reshape(du.shape[:-1] + (4, 4))

    def __call__(self, pts):
        return self.value(pts)


def standard_triholomorphic_field(seed=0, degree=4):
    """A seeded polynomial triholomorphic map H -> H of the given max degree."""
    rng = np.random.default_rng(seed)

    def coeff():
        return rng.normal(size=4) / 2.0

    terms = [((ell,), coeff()) for ell in (1, 2, 3)]
    if degree >= 2:
        terms += [((1, 1), coeff()), ((2, 2), coeff()), ((1, 2), coeff()), ((2, 3), coeff())]
    if degree >= 3:
        terms += [((1, 1, 1), coeff()), ((3, 3, 3), coeff())]
    if degree >= 4:
        terms += [((1, 1, 1, 1), coeff()), ((2, 2, 2, 2), coeff())]
    return FueterPolynomialMap(terms)


def triholomorphic_suite():
    """The fixed calibration suite of triholomorphic fields (seed, degree)."""
    specs = [(0, 1), (1, 2), (2, 2), (3, 4), (4, 4)]
    return [standard_triholomorphic_field(seed=s, degree=d) for s, d in specs]
