"""Central differences on uniform grids, each formula written once:

    first   (p - m) / (2h)
    second  (p - 2c + m) / h^2
    mixed   (pp - pm - mp + mm) / (4h^2)

The formulas take the neighbour values themselves, so point stencils and
callers that gather their own neighbours share them.  The grid functions
`d1`, `d2` and `laplacian` act on arrays whose first `ndim` axes are the grid
(any further axes are components).  On a box they take neighbours by slices
and return only the nodes one step inside every edge, where each stencil is
defined.  On a torus they pad the grid axes once by one periodic layer,
which makes a box whose result is every node of the torus.
"""

from __future__ import annotations

import numpy as np

__all__ = ["first", "second", "mixed", "d1", "d2", "laplacian"]


def first(p, m, h):
    """Central first difference from the values at x + h e and x - h e."""
    return (p - m) / (2.0 * h)


def second(p, c, m, h):
    """Central second difference from the values at x + h e, x and x - h e."""
    return (p - 2.0 * c + m) / h**2


def mixed(pp, pm, mp, mm, h):
    """Central mixed difference from the values at x + h(+-e_a +-e_b)."""
    return (pp - pm - mp + mm) / (4.0 * h**2)


def _box(v, periodic, ndim):
    """(v as a box, its grid-axis count): a torus is padded by one periodic layer."""
    nd = v.ndim if ndim is None else ndim
    if periodic:
        v = np.pad(v, [(1, 1)] * nd + [(0, 0)] * (v.ndim - nd), mode="wrap")
    return v, nd


def _at(v, ndim, steps):
    """v at x + sum_a steps[a] h e_a over the box's 1-interior, on the first
    ndim (grid) axes."""
    return v[tuple(slice(1 + steps.get(a, 0), v.shape[a] - 1 + steps.get(a, 0))
                   for a in range(ndim))]


def d1(v, a, h, periodic, ndim=None):
    """First central difference along grid axis a."""
    v, nd = _box(v, periodic, ndim)
    return first(_at(v, nd, {a: 1}), _at(v, nd, {a: -1}), h)


def d2(v, a, b, h, periodic, ndim=None):
    """Second central difference along grid axes a and b (mixed when a != b)."""
    v, nd = _box(v, periodic, ndim)
    if a == b:
        return second(_at(v, nd, {a: 1}), _at(v, nd, {}), _at(v, nd, {a: -1}), h)
    return mixed(*(_at(v, nd, {a: sa, b: sb})
                   for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))), h)


def laplacian(v, h, periodic, ndim=None):
    """Sum of the second differences along every grid axis."""
    v, nd = _box(v, periodic, ndim)
    out = 0.0
    for a in range(nd):
        out = out + d2(v, a, a, h, False, nd)
    return out
