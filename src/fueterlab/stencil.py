"""Central differences on uniform grids, each formula written once:

    first   (p - m) / (2h)
    second  (p - 2c + m) / h^2
    mixed   (pp - pm - mp + mm) / (4h^2)

The formulas take the neighbour values themselves, so point stencils and
callers that gather their own neighbours share them.  Each takes `out=`, an
array the result is written into (its operations run in the same order, so
the values are the same to the bit); without it the result is a new array.

`neighbours(nd)` is the one neighbour table: the steps x + sum_a s_a h e_a
of each difference's operands, keyed (a,) for d_a and (a, b) for d_a d_b;
`formula(key)` names its formula when called, and a key with an axis off
the grid raises ValueError.  The grid functions `d1`, `d2` and `laplacian`
act on boxes: arrays whose first `ndim` axes are the grid (any further axes
are components).  They read the steps as slices (`box_operands`) and return
only the nodes one step inside every edge, where each stencil is defined.
A torus is the box that `wrap` pads by one periodic layer, so its caller
wraps it once and the box differences of the result are every node of the
torus.  `d1`, `d2`, `laplacian` and `wrap` take `out=` as the formulas do.

`jets` gathers the first-difference jets at nodes of the middle one of three
raveled axis-0 planes: across the planes along axis 0, at each step's flat
offset within the plane along the others.

`FlatBlock` is the same box differences on a C-contiguous block raveled to
one axis.  There each step sits at the fixed flat offset sum_a s_a stride_a
from every node of the block's 1-interior, so each operand is one
contiguous slice `v[lo + off : lo + off + length]`, with `lo = sum_a
stride_a` and `length = size - 2 lo`.  That range also holds the nodes
where an offset wraps past the end of a row; their values are meaningless,
and `FlatBlock.interior` drops them.

`_sum_of_squares` is the one sum of squares over field components; it adds in
the order of numpy's `np.sum(x**2, axis=-1)`, so the norms keep that form's bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["first", "second", "mixed", "formula", "neighbours", "box_operands", "wrap", "d1", "d2",
           "laplacian", "jets", "FlatBlock"]


def first(p, m, h, out=None):
    """Central first difference from the values at x + h e and x - h e."""
    return np.divide(np.subtract(p, m, out=out), 2.0 * h, out=out)


def second(p, c, m, h, out=None):
    """Central second difference from the values at x + h e, x and x - h e."""
    twice = np.multiply(2.0, c, out=out)
    return np.divide(np.add(np.subtract(p, twice, out=out), m, out=out), h**2, out=out)


def mixed(pp, pm, mp, mm, h, out=None):
    """Central mixed difference from the values at x + h(+-e_a +-e_b)."""
    diff = np.subtract(np.subtract(pp, pm, out=out), mp, out=out)
    return np.divide(np.add(diff, mm, out=out), 4.0 * h**2, out=out)


def wrap(v, out=None, ndim=None):
    """v padded by one periodic layer on its first ndim (grid) axes, as
    np.pad(mode="wrap") pads it: the box differences of the result are the
    torus differences of v."""
    v = np.asarray(v)
    nd = v.ndim if ndim is None else ndim
    if out is None:
        out = np.empty(tuple(n + 2 for n in v.shape[:nd]) + v.shape[nd:], v.dtype)
    out[(slice(1, -1),) * nd] = v
    # axis by axis over the whole of the others, so the corners wrap too
    for a in range(nd):
        lead = (slice(None),) * a
        out[lead + (0,)] = out[lead + (-2,)]
        out[lead + (-1,)] = out[lead + (1,)]
    return out


@functools.cache
def neighbours(nd):
    """Each difference's operand steps on an nd-axis grid, tuples of nd node
    offsets in the order its formula takes them: key (a,) for d_a, (a, b)
    for d_a d_b."""

    def step(a=0, sa=0, b=0, sb=0):
        return tuple(sa * (x == a) + sb * (x == b) for x in range(nd))

    table = {(a,): (step(a, 1), step(a, -1)) for a in range(nd)}
    for a, b in np.ndindex(nd, nd):  # second: p, c, m; mixed: pp, pm, mp, mm
        table[a, b] = ((step(a, 1), step(), step(a, -1)) if a == b else
                       tuple(step(a, sa, b, sb) for sa in (1, -1) for sb in (1, -1)))
    return table


@functools.cache
def box_operands(nd):
    """`neighbours(nd)` as slice tuples over the 1-interior of any box with nd
    grid axes."""
    return {key: tuple(tuple(slice(1 + s, s - 1 or None) for s in st) for st in steps)
            for key, steps in neighbours(nd).items()}


def formula(key):
    """The formula of difference `key`, looked up when called."""
    if len(key) == 1:
        return first
    return second if key[0] == key[1] else mixed


def _operands(table, key, nd):
    """table[key], the operands of difference `key` on an nd-axis grid."""
    if key not in table:
        axis = next(a for a in key if a not in range(nd))
        raise ValueError(f"axis {axis} is not an axis of a grid with ndim {nd}")
    return table[key]


def _difference(v, key, h, ndim, out):
    """Difference `key` of the box v over its 1-interior."""
    nd = v.ndim if ndim is None else ndim
    return formula(key)(*(v[s] for s in _operands(box_operands(nd), key, nd)), h, out=out)


def d1(v, a, h, ndim=None, out=None):
    """First central difference along grid axis a."""
    return _difference(v, (a,), h, ndim, out)


def d2(v, a, b, h, ndim=None, out=None):
    """Second central difference along grid axes a and b (mixed when a != b)."""
    return _difference(v, (a, b), h, ndim, out)


def laplacian(v, h, ndim=None, out=None):
    """Sum of the second differences along every grid axis."""
    nd = v.ndim if ndim is None else ndim
    out = np.empty(v[(slice(1, -1),) * nd].shape) if out is None else out
    out[...] = 0.0
    buf = np.empty_like(out)
    for a in range(nd):
        out += d2(v, a, a, h, nd, buf)
    return out


def jets(planes, at, strides, h):
    """The (len(at), c, nd) first-difference jets at the flat nodes `at` of
    planes[1], from three raveled (nodes, c) planes whose axis a >= 1 has
    flat stride strides[a - 1]."""
    nd = len(strides) + 1
    du = np.empty((len(at), planes[1].shape[-1], nd))
    for a in range(nd):
        ops = (planes[1 + s[0]][at + sum(k * t for k, t in zip(s[1:], strides))]
               for s in neighbours(nd)[(a,)])
        first(*ops, h, out=du[:, :, a])
    return du


class FlatBlock:
    """Box differences on a C-contiguous block of `shape`, raveled.

    Every flat array here, operand or buffer, is at least `size` long and
    holds the flat range at `[lo : lo + length]`: `at(buf)`.  `d1`/`d2`
    write the differences of `v` there in `out` and return that view;
    `interior(buf)` reads the 1-interior nodes back in the block's shape.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        if min(self.shape) < 3:
            raise ValueError("every block axis needs an interior node")
        self.size = math.prod(self.shape)
        self.strides = [math.prod(self.shape[a + 1:]) for a in range(len(self.shape))]
        self.lo = sum(self.strides)
        self.length = self.size - 2 * self.lo

    def at(self, v, steps=()):
        """v at x + sum_a steps[a] h e_a over the flat range."""
        start = self.lo + sum(s * k for s, k in zip(steps, self.strides))
        return v[start : start + self.length]

    def _difference(self, v, key, h, out):
        steps = _operands(neighbours(len(self.shape)), key, len(self.shape))
        return formula(key)(*(self.at(v, s) for s in steps), h, out=self.at(out))

    def d1(self, v, a, h, out):
        return self._difference(v, (a,), h, out)

    def d2(self, v, a, b, h, out):
        return self._difference(v, (a, b), h, out)

    def interior(self, buf):
        return buf[: self.size].reshape(self.shape)[(slice(1, -1),) * len(self.shape)]


def _sum_of_squares(parts, out, buf):
    """sum of p**2 over parts, added in the order np.sum(x**2, axis=-1) adds
    the same numbers along a last axis of len(parts).

    Each part is a callable that writes its values into the flat buffer it
    is given and returns them; they are squared in place.  The sum is left
    where the first part writes in `out`; `buf` is scratch."""
    if len(parts) >= 8:  # where numpy switches to a pairwise sum
        views = [parts[0](out)] + [p(np.empty_like(buf)) for p in parts[1:]]
        return np.sum(np.square(np.stack(views, axis=-1)), axis=-1, out=views[0])
    acc = parts[0](out)
    acc *= acc
    for p in parts[1:]:
        x = p(buf)
        x *= x
        acc += x
    return acc
