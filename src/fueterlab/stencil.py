"""Central differences on uniform grids, each formula written once:

    first   (p - m) / (2h)
    second  (p - 2c + m) / h^2
    mixed   (pp - pm - mp + mm) / (4h^2)

The formulas take the neighbour values themselves, so point stencils and
callers that gather their own neighbours share them.  Each takes `out=`, an
array the result is written into (its operations run in the same order, so
the values are the same to the bit); without it the result is a new array.

The grid functions `d1`, `d2` and `laplacian` act on boxes: arrays whose
first `ndim` axes are the grid (any further axes are components).  They
take neighbours by slices and return only the nodes one step inside every
edge, where each stencil is defined.  A torus is the box that `wrap` pads
by one periodic layer, so its caller wraps it once and the box differences
of the result are every node of the torus.  `d1`, `d2`, `laplacian` and
`wrap` take `out=` as the formulas do.

`FlatBlock` is the same box differences on a C-contiguous block raveled to
one axis.  There the neighbour x + sum_a s_a h e_a of every node of the
block's 1-interior sits at the fixed flat offset sum_a s_a stride_a, so each
operand is one contiguous slice `v[lo + off : lo + off + length]`, with
`lo = sum_a stride_a` and `length = size - 2 lo`.  That range also holds the
nodes where an offset wraps past the end of a row; their values are
meaningless, and `FlatBlock.interior` drops them.

`_sum_of_squares` is the one sum of squares over field components; it adds in
the order of numpy's `np.sum(x**2, axis=-1)`, so the norms keep that form's bits.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["first", "second", "mixed", "wrap", "d1", "d2", "laplacian", "FlatBlock"]


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


_MIXED_STEPS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _first_along(at, a, h, out=None):
    """first difference along axis a, neighbours read through at(steps)."""
    return first(at({a: 1}), at({a: -1}), h, out=out)


def _second_along(at, a, b, h, out=None):
    """second (a == b) or mixed difference, neighbours read through at(steps)."""
    if a == b:
        return second(at({a: 1}), at({}), at({a: -1}), h, out=out)
    return mixed(*(at({a: sa, b: sb}) for sa, sb in _MIXED_STEPS), h, out=out)


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


def _at(v, ndim, steps):
    """v at x + sum_a steps[a] h e_a over the box's 1-interior, on the first
    ndim (grid) axes, or on every axis when ndim is None."""
    nd = v.ndim if ndim is None else ndim
    return v[tuple(slice(1 + steps.get(a, 0), v.shape[a] - 1 + steps.get(a, 0))
                   for a in range(nd))]


def d1(v, a, h, ndim=None, out=None):
    """First central difference along grid axis a."""
    return _first_along(lambda steps: _at(v, ndim, steps), a, h, out)


def d2(v, a, b, h, ndim=None, out=None):
    """Second central difference along grid axes a and b (mixed when a != b)."""
    return _second_along(lambda steps: _at(v, ndim, steps), a, b, h, out)


def laplacian(v, h, ndim=None, out=None):
    """Sum of the second differences along every grid axis."""
    nd = v.ndim if ndim is None else ndim
    out = np.empty(_at(v, nd, {}).shape) if out is None else out
    out[...] = 0.0
    buf = np.empty_like(out)
    for a in range(nd):
        out += d2(v, a, a, h, nd, buf)
    return out


class FlatBlock:
    """Box differences on a C-contiguous block of `shape`, raveled.

    Every flat array here, operand or buffer, is at least `size` long and
    holds the flat range at `[lo : lo + length]`: `at(buf, {})`.  `d1`/`d2`
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

    def at(self, v, steps):
        """v at x + sum_a steps[a] h e_a over the flat range."""
        start = self.lo + sum(s * self.strides[a] for a, s in steps.items())
        return v[start : start + self.length]

    def d1(self, v, a, h, out):
        return _first_along(lambda steps: self.at(v, steps), a, h, self.at(out, {}))

    def d2(self, v, a, b, h, out):
        return _second_along(lambda steps: self.at(v, steps), a, b, h, self.at(out, {}))

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
