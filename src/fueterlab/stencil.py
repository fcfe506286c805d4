"""Central differences on uniform grids, each formula written once:

    first   (p - m) / (2h)
    second  (p - 2c + m) / h^2
    mixed   (pp - pm - mp + mm) / (4h^2)

The formulas take the neighbour values themselves, so point stencils and
callers that gather their own neighbours share them.  The grid functions
`d1`, `d2` and `laplacian` act on arrays whose first `ndim` axes are the grid
(any further axes are components): on a torus they take neighbours by
periodic rolls and return every node; on a box they take them by slices and
return only the nodes one step inside every edge, where each stencil is
defined.  A torus array padded by one periodic layer is a box whose result
is the torus result.
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


def _at(v, ndim, steps, periodic):
    """v at x + sum_a steps[a] h e_a, over the first ndim (grid) axes."""
    if periodic:
        for a, s in steps.items():
            v = np.roll(v, -s, axis=a)
        return v
    return v[tuple(slice(1 + steps.get(a, 0), v.shape[a] - 1 + steps.get(a, 0))
                   for a in range(ndim))]


def d1(v, a, h, periodic, ndim=None):
    """First central difference along grid axis a."""
    nd = v.ndim if ndim is None else ndim
    return first(_at(v, nd, {a: 1}, periodic), _at(v, nd, {a: -1}, periodic), h)


def d2(v, a, b, h, periodic, ndim=None):
    """Second central difference along grid axes a and b (mixed when a != b)."""
    nd = v.ndim if ndim is None else ndim
    if a == b:
        return second(_at(v, nd, {a: 1}, periodic), _at(v, nd, {}, periodic),
                      _at(v, nd, {a: -1}, periodic), h)
    return mixed(*(_at(v, nd, {a: sa, b: sb}, periodic)
                   for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))), h)


def laplacian(v, h, periodic, ndim=None):
    """Sum of the second differences along every grid axis."""
    nd = v.ndim if ndim is None else ndim
    out = 0.0
    for a in range(nd):
        out = out + d2(v, a, a, h, periodic, nd)
    return out
