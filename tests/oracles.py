"""Exact references shared by the unit tests and the acceptance gate."""

import math

import numpy as np


def exact_w21_and_energy(poly, nodes, L=0.5):
    """The node sums of `w21_norm` and `dirichlet_energy` on the box grid of
    `nodes` per axis, over the same interior nodes (two layers in from every
    edge), with the exact u, du and d^2 u of the polynomial in place of the
    central differences.  Each derivative is read off the exponent table of
    `_expand()`: d^k sum_e c_e x^e = sum_e c_e prod_j e_j! / (e_j - k_j)! x^(e - k)."""
    (exps, coefs), _ = poly._expand()
    h = 2.0 * L / (nodes - 1)
    ax = (-L + np.arange(nodes) * h)[2:-2]
    eye = np.eye(4, dtype=int)
    orders = ([np.zeros(4, dtype=int)] + list(eye)
              + [eye[a] + eye[b] for a in range(4) for b in range(4)])
    tables = [(np.maximum(exps - k, 0),
               coefs * np.array([math.prod(map(math.perm, e, k)) for e in exps])[:, None])
              for k in orders]
    w21 = energy = 0.0
    for x0 in ax:  # one plane of nodes at a time
        pts = np.stack(np.meshgrid([x0], ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)
        powers = pts[:, :, None] ** np.arange(exps.max() + 1)  # (P, 4, degree + 1)
        sq = []
        for e, c in tables:
            d = math.prod(powers[:, j, e[:, j]] for j in range(4)) @ c  # (P, 4)
            sq.append(np.sum(d * d, axis=-1))
        grad_sq, hess_sq = sum(sq[1:5]), sum(sq[5:])
        w21 += np.sum(np.sqrt(sq[0]) + np.sqrt(grad_sq) + np.sqrt(hess_sq))
        energy += np.sum(grad_sq)
    return w21 * h**4, energy * h**4
