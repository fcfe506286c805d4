"""Discretized maps u: grid in R^{4m} -> R^{4n}: differentials, the
quaternionic del-bar residual, the pointwise energy identity, the
Dirichlet energy and domain variations.

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
from .exterior import basis_form, index_tuples, wedge, wedge_power
from .quat import ONE, QI, QJ, QK, StructureTriple, kaehler_form, quat_mul_array

__all__ = [
    "GridField",
    "differential",
    "triholo_residual",
    "dirichlet_energy",
    "energy_identity_defects",
    "domain_variation_derivative",
    "save_fld1",
    "load_fld1",
    "FueterPolynomialMap",
    "standard_triholomorphic_field",
    "triholomorphic_suite",
    "residual_operator_matrix",
    "triholomorphic_kernel",
]

_DENSE_LIMIT_BYTES = 2_000_000_000

# axis-0 planes per window of `_flat_windows`: with its halo a window of a
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


def _finite(values, what="field"):
    """values, when every one is finite; the one finiteness check.  min and
    max propagate NaN and reach any infinity, with no full-size temporary."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{what} values must be finite")
    return values


# ---------------------------------------------------------------------------
# grid fields


class GridField:
    """A map u from a uniform grid on the box [-L,L]^{4m} into R^{4n}.

    Either ``values`` (shape ``shape + (4n,)``) or ``fn`` (vectorized callable
    from (..., 4m) points to (..., 4n) values) must be given.  All axes share
    the spacing h, and need at least 5 nodes for the central stencils.
    `domain` is "box", the one domain; FLD1 headers carry it.
    """

    def __init__(self, m, n, domain, L, shape, values=None, fn=None):
        if domain != "box":
            raise ValueError(f"domain must be 'box', got {domain!r}")
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
        self.h = 2.0 * self.L / (shape[0] - 1)
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
        return -self.L + np.arange(self.shape[0]) * self.h

    def interior_margin(self):
        """Nodes this many layers from a box edge are excluded from statistics."""
        return 2

    def is_interior(self, node):
        """Whether a central stencil at node stays on the grid."""
        return all(1 <= i <= self.shape[0] - 2 for i in node)

    # -- values

    @property
    def values(self):
        if self._values is None:
            nbytes = 8 * self.target_dim * int(np.prod(self.shape))
            if nbytes > _DENSE_LIMIT_BYTES:
                raise MemoryError(f"refusing to materialize {nbytes / 1e9:.1f} GB; use block")
            values = np.empty(self.shape + (self.target_dim,))
            for i in range(self.shape[0]):
                values[i] = self.block(i)
            self._values = values
        return self._values

    def is_dense(self):
        return self._values is not None

    def evaluate(self, pts):
        """The callable's values at arbitrary points (..., 4m).  A dense grid
        has values at its nodes only, and raises."""
        if self._fn is None:
            raise ValueError("a dense grid has values at its nodes only: read them with block")
        return self._call(np.asarray(pts, dtype=float))

    def _call(self, pts):
        """The callable's values at pts (..., 4m), which must have the shape
        pts.shape[:-1] + (4n,): one row of 4n components per point."""
        vals = np.asarray(self._fn(pts), dtype=float)
        want = pts.shape[:-1] + (self.target_dim,)
        if vals.shape != want:
            raise ValueError(f"fn must return shape nodes + (4n,) = {want}, got {vals.shape}")
        return _finite(vals)

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
        return self._call(pts)

    def __repr__(self):
        kind = "dense" if self.is_dense() else "fn"
        return (f"GridField(m={self.m}, n={self.n}, {self.domain}, L={self.L}, "
                f"shape={self.shape}, h={self.h:.5g}, {kind})")


def differential(u: GridField, node) -> np.ndarray:
    """Central-difference jet at a node, the (4n, 4m) array whose column a is
    (u(+h e_a) - u(-h e_a)) / 2h, its operands `stencil.neighbours` steps
    from the node, read by u.block.  The field values are finite, but their
    differences can overflow; such a jet raises ValueError."""
    node = tuple(int(i) for i in node)
    if not u.is_interior(node):
        raise ValueError(f"node {node} too close to the box boundary for the stencil")
    du = np.stack([stencil.first(*(u.block(tuple(i + k for i, k in zip(node, s)))
                                   for s in stencil.neighbours(u.dim)[(a,)]), u.h)
                   for a in range(u.dim)], axis=1)
    if not np.isfinite(du).all():
        raise ValueError(f"jet entries at node {node} must be finite (the differences overflow)")
    return du


# ---------------------------------------------------------------------------
# pointwise algebra: residual and energy identity


def triholo_residual(A, S_dom: StructureTriple, S_tar: StructureTriple):
    """R = du - I du i - J du j - K du k, for one jet of shape (4n, 4m) or a
    batch of shape (..., 4n, 4m).

    The map is flagged triholomorphic at the node when ||R||_F is below the
    caller's tolerance.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (S_tar.dim, S_dom.dim):
        raise ValueError(f"jet shape {A.shape} does not match (..., {S_tar.dim}, {S_dom.dim})")
    R = A.copy()
    for St, Sd in zip(S_tar.mats(), S_dom.mats()):
        R -= np.einsum("ij,...jk,kl->...il", St, A, Sd)
    return R


def _pairing_table(P):
    """The skew K with (P ^ G)(vol) = sum_{a<b} K[a,b] G_ab for every 2-form G,
    for a (dim - 2)-form P, from the exterior algebra; linear in P."""
    d = P.n
    K = np.zeros((d, d))
    for (a, b) in index_tuples(d, 2):
        top = wedge(P, basis_form(d, (a, b)))
        K[a, b] = top.coeffs[0]
        K[b, a] = -top.coeffs[0]
    return K


def _identity_tables(S_dom, S_tar):
    """(tables, W), each stacked over l = I, J, K: the pairing tables of
    alpha_l^(2m-1) on the domain (3, 4m, 4m) and the target Kaehler matrices
    W_l (3, 4n, 4n), built afresh on every call."""
    P = [wedge_power(kaehler_form(S_dom, w), 2 * S_dom.d - 1) for w in "ijk"]
    return (np.stack([_pairing_table(p) for p in P]),
            np.stack([kaehler_form(S_tar, w).as_matrix() for w in "ijk"]))


def _wedge_pairing(As, tables, W):
    """sum_l (alpha_l^(2m-1) ^ A*omega_l)(vol) = sum_l 0.5 K_l . (A^T W_l A)
    over jets As (N, 4n, 4m): the one pairing of a domain form with a pulled-back
    target form.  `tables` holds one set (3, 4m, 4m) for every jet, or one set
    per jet (N, 3, 4m, 4m) for position-dependent domain forms."""
    out = 0.0
    for ell, Wl in enumerate(W):
        G = np.einsum("nia,ij,njb->nab", As, Wl, As)
        out = out + 0.5 * np.einsum("...ab,...ab->...", tables[..., ell, :, :], G)
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
    tables, W = _identity_tables(S_dom, S_tar)
    lhs = -_wedge_pairing(As, tables, W) / math.factorial(2 * S_dom.d - 1)
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


def _planes(u: GridField, starts, k, end, inslab=()):
    """Yield (i0, planes) for each i0 of `starts`: the axis-0 planes
    i0 - 1 .. min(i0 + k, end), each `u.block((i,) + inslab)`.  The one
    reader of streamed planes.  Each plane is read once: a step keeps the
    planes it shares with the one before."""
    planes = {}
    for i0 in starts:
        idx = range(i0 - 1, min(i0 + k, end) + 1)
        planes = {i: planes[i] if i in planes else u.block((i,) + inslab) for i in idx}
        yield i0, list(planes.values())


def _flat_windows(u: GridField, scratch, kernel):
    """{i0: kernel(i0, block, comps, bufs)} over the windows of axis-0 planes
    i0 .. i0 + k - 1 of the interior, k <= _WINDOW_PLANES.

    `block` is the `stencil.FlatBlock` over a window's planes from `_planes`,
    halo planes included, and their in-slab nodes 1 .. N - 2 (all that the
    differences read).  comps[c] holds component c of the window raveled,
    and `bufs` is `scratch` more flat buffers.  A function-backed grid
    evaluates its callable on these in-slab planes, `values` on whole slabs:
    the two agree bitwise only if the callable's value at a point does not
    depend on the shape of its batch.

    The windows run on one worker per CPU in the affinity mask, at most one
    per window, when the grid is dense and its blocks hold at least
    _FANOUT_SIZE nodes, and on one worker otherwise.  The calling thread is
    one of them, and each reuses comps and bufs of its own, allocated here up
    front.  The workers take the windows from one generator under a lock; a
    worker's exception is raised here once every worker has stopped."""
    N, d = u.shape[0], u.dim
    margin = u.interior_margin()
    starts = range(margin, N - margin, _WINDOW_PLANES)
    ring = N - 2  # in-slab extent of a window's block
    size = (min(_WINDOW_PLANES, N - 2 * margin) + 2) * ring ** (d - 1)
    fan_out = u.is_dense() and size >= _FANOUT_SIZE
    workers = min(len(os.sched_getaffinity(0)), len(starts)) if fan_out else 1
    inslab = (slice(1, N - 1),) * (d - 1)
    windows = _planes(u, starts, _WINDOW_PLANES, N - margin, inslab)
    lock = threading.Lock()
    results, errors = {}, []

    def work(comps, bufs):
        try:
            while not errors:
                with lock:
                    i0, planes = next(windows, (None, None))
                if planes is None:
                    return
                block = stencil.FlatBlock((len(planes),) + (ring,) * (d - 1))
                for c in range(u.target_dim):
                    dst = comps[c, : block.size].reshape(block.shape)
                    np.stack([plane[..., c] for plane in planes], out=dst)
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
    grad = block.at(out)
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


def domain_variation_derivative(u: GridField, X) -> float:
    """The first variation of the Dirichlet energy under the deformation
    Id + tX of the domain: the stress-energy tensor of u paired with dX,
    sum over the 1-interior nodes of (2 <D_a u, D_b u> - |Du|^2 delta_ab)
    D_a X^b h^{4m}, with D the central difference.  It vanishes for
    stationary maps.

    X is a vectorized callable on points that vanishes on the box's outer 4h
    shell.  There summation by parts, exact for central differences, turns
    the sum into -sum X^b D_a T_ab: it is 0 to rounding where the differences
    read u exactly (a quadratic u) and O(h^2) for a smooth stationary u.  A
    function-backed grid is evaluated on its nodes, not materialized.
    """
    d, h, N = u.dim, u.h, u.shape[0]
    pts = np.stack(np.meshgrid(*([u.axis_coords()] * d), indexing="ij"), axis=-1)
    Xv = np.asarray(X(pts), dtype=float)
    shell = np.ones(u.shape, dtype=bool)
    shell[(slice(4, N - 4),) * d] = False
    if np.max(np.linalg.norm(Xv, axis=-1)[shell]) > 1e-14:
        raise ValueError("vector field support touches the boundary layer")
    vals = u.block(())
    du = [stencil.d1(vals, a, h, d) for a in range(d)]
    div = sum(stencil.d1(Xv[..., a], a, h, d) for a in range(d))
    total = 0.0
    for a in range(d):
        for b in range(d):
            g = np.einsum("...i,...i->...", du[a], du[b])
            total += 2.0 * np.vdot(g, stencil.d1(Xv[..., b], a, h, d))
            if a == b:
                total -= np.vdot(g, div)
    return float(total) * h**d


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
            f.write(np.ascontiguousarray(u.block(i), dtype="<f8").data)


# an FLD1 header holds each of these fields once, as key=value, read from its
# text by the function here; any other header raises a ValueError naming it
_FLD1_FIELDS = {"m": int, "n": int, "domain": str, "L": float, "h": float,
                "dims": lambda s: tuple(int(x) for x in s.split(","))}


def load_fld1(path) -> GridField:
    """The dense GridField of an FLD1 file, its payload read plane by plane
    into one array."""
    with open(path, "rb") as f:
        u = _fld1_header(f)
        values = np.empty(u.shape + (u.target_dim,), dtype="<f8")
        for _ in _fld1_planes(f, u, values):
            pass
    # each plane was checked finite as it was read
    u._values, u._fn = values, None
    return u


def _fld1_header(f):
    """The GridField that the header of the open FLD1 file f describes, once
    its fields, its spacing and the size of the payload are checked.  The
    payload is not read: `_fld1_planes` reads it, and the callable of the
    field returned here raises."""
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
    need = 8 * int(np.prod(shape)) * 4 * n
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size != need:
        raise ValueError(f"payload has {size} bytes, header dims need {need}")
    u = GridField(m, n, kv["domain"], kv["L"], shape, fn=_unread)
    if not abs(u.h - kv["h"]) <= 1e-12 * max(1.0, u.h):  # a NaN h fails too
        raise ValueError("header spacing inconsistent with L and dims")
    return u


def _unread(pts):
    raise ValueError("the FLD1 payload is read by _fld1_planes")


def _fld1_planes(f, u, out=None):
    """Yield (i, plane) for each axis-0 plane of the FLD1 payload of u, in
    order, from the open file f just past its header: read into out[i], or
    into a new array when out is None, and checked finite as it is read.
    The one reader of FLD1 payloads."""
    shape = u.shape[1:] + (u.target_dim,)
    got = 0
    for i in range(u.shape[0]):
        plane = np.empty(shape, dtype="<f8") if out is None else out[i]
        got += f.readinto(plane.data.cast("B"))
        if got != 8 * (i + 1) * plane.size:
            raise ValueError(f"payload has {got} bytes, header dims need "
                             f"{8 * u.shape[0] * plane.size}")
        yield i, _finite(plane)


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
            # M.T @ coefs bit for bit, 4 columns at a time (on one thread
            # OpenBLAS adds 16 swapped columns in another order).  A first
            # M.T @ coefs on 29,791 points raised a fresh process's RSS by
            # 4.6 MB (OpenBLAS's second thread packs the tall operand), this
            # form by 1.3 MB; 33^4 materializes in 0.12-0.14 s (0.13-0.15 s)
            for g in range(0, coefs.shape[1], 4):
                out[k : k + chunk, g : g + 4] = (coefs[:, g : g + 4].T @ M).T
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
