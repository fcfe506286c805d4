"""Quaternion algebra and flat quaternionic structure triples on R^{4d}.

A quaternion w + x i + y j + z k is a float array with last axis (w, x, y, z);
`quat_mul_array` is the Hamilton product, and ONE, QI, QJ, QK are read-only.

The three structures act by componentwise LEFT quaternion multiplication by
i, j, k under R^{4d} = H^d.  Left multiplication realizes the composition
rule i o j o k = -Id (right multiplication would give +Id).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exterior import KForm, form_from_matrix

__all__ = [
    "ONE",
    "QI",
    "QJ",
    "QK",
    "quat_mul_array",
    "left_mult_matrix",
    "StructureTriple",
    "SphereStructure",
    "kaehler_form",
]

_UNITS = np.eye(4)
_UNITS.flags.writeable = False
ONE, QI, QJ, QK = _UNITS


def quat_mul_array(p, q):
    """Hamilton product on (..., 4) arrays, broadcasting like numpy."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w1, x1, y1, z1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    w2, x2, y2, z2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def left_mult_matrix(u) -> np.ndarray:
    """4x4 matrix of q -> u*q in the basis (1, i, j, k), for a (4,) array u."""
    return quat_mul_array(u, np.eye(4)).T


@dataclass(frozen=True)
class StructureTriple:
    """Three anticommuting complex structures on R^{4d}, flat metric.

    i_mat, j_mat, k_mat are the 4d x 4d block matrices of componentwise left
    multiplication by the quaternion units.  Each squares to -Id, each is a
    metric isometry, and i_mat @ j_mat @ k_mat = -Id.
    """

    d: int
    i_mat: np.ndarray = field(repr=False)
    j_mat: np.ndarray = field(repr=False)
    k_mat: np.ndarray = field(repr=False)

    @staticmethod
    def standard(d: int) -> "StructureTriple":
        if d < 1:
            raise ValueError("quaternionic dimension must be >= 1")
        blocks = [left_mult_matrix(u) for u in (QI, QJ, QK)]
        mats = []
        for B in blocks:
            M = np.zeros((4 * d, 4 * d))
            for t in range(d):
                M[4 * t : 4 * t + 4, 4 * t : 4 * t + 4] = B
            mats.append(M)
        return StructureTriple(d, mats[0], mats[1], mats[2])

    @property
    def dim(self) -> int:
        return 4 * self.d

    def mats(self):
        return (self.i_mat, self.j_mat, self.k_mat)

    def mat(self, which: str) -> np.ndarray:
        try:
            return {"i": self.i_mat, "j": self.j_mat, "k": self.k_mat}[which]
        except KeyError:
            raise ValueError(f"unknown structure {which!r}, expected 'i', 'j' or 'k'")


@dataclass(frozen=True)
class SphereStructure:
    """Coefficients (a, b, c) on the 2-sphere of complex structures a*i+b*j+c*k."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = np.sqrt(self.a**2 + self.b**2 + self.c**2)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"(a,b,c) must be a unit vector, got norm {n}")

    def as_array(self):
        return np.array([self.a, self.b, self.c])

    def matrix(self, triple: StructureTriple) -> np.ndarray:
        """The matrix of a*i + b*j + c*k."""
        return self.a * triple.i_mat + self.b * triple.j_mat + self.c * triple.k_mat


def kaehler_form(S: StructureTriple, which: str) -> KForm:
    """The 2-form w(X, Y) = g(S_which X, Y) for the flat metric; skew-symmetric
    and nondegenerate.

    This orientation gives w_i = dx^01 + dx^23 (per quaternionic block), makes
    the tangential part of w^(2m-1) equal +Hodge(dr ^ S dr), and makes the
    Wirtinger equality planes those with e2 = S e1.
    """
    return form_from_matrix(-S.mat(which))
