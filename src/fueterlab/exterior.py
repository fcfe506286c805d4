"""Exterior algebra on R^n: k-forms, wedge, interior product, tangential
parts, and the radial scaling identities behind the monotonicity derivation.
The pullback of a 2-form w along A is `form_from_matrix(A.T @ w.as_matrix() @ A)`.

Forms are stored dense over increasing multi-indices (at most C(8,4) = 70
coefficients for the dimensions used here), so brute-force evaluation stays
cheap and doubles as the verification oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import stencil

__all__ = [
    "KForm",
    "scalar_form",
    "basis_form",
    "form_from_matrix",
    "dr_form",
    "wedge",
    "wedge_power",
    "contract",
    "tangential_part",
    "radial_scaling_defect",
]


@lru_cache(maxsize=None)
def index_tuples(n: int, k: int):
    """All increasing k-multi-indices on {0..n-1}, in lexicographic order."""
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def index_positions(n: int, k: int):
    return {J: p for p, J in enumerate(index_tuples(n, k))}


def _merge_sign(J, K):
    """Sign of sorting the concatenation J+K (disjoint increasing tuples), or 0."""
    merged = J + K
    if len(set(merged)) != len(merged):
        return 0, None
    # count inversions between the two sorted halves
    inv = 0
    for a in J:
        for b in K:
            if a > b:
                inv += 1
    return (-1) ** inv, tuple(sorted(merged))


class KForm:
    """Exterior k-form on R^n with dense real coefficients."""

    def __init__(self, n: int, k: int, coeffs=None):
        if not 0 <= k <= n:
            raise ValueError(f"degree {k} out of range for ambient dimension {n}")
        self.n = n
        self.k = k
        size = math.comb(n, k)
        if coeffs is None:
            self.coeffs = np.zeros(size)
        else:
            self.coeffs = np.asarray(coeffs, dtype=float).reshape(size).copy()

    def copy(self):
        return KForm(self.n, self.k, self.coeffs)

    def __add__(self, other):
        self._check_compatible(other)
        return KForm(self.n, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return KForm(self.n, self.k, self.coeffs - other.coeffs)

    def __mul__(self, s):
        return KForm(self.n, self.k, self.coeffs * float(s))

    __rmul__ = __mul__

    def __neg__(self):
        return KForm(self.n, self.k, -self.coeffs)

    def _check_compatible(self, other):
        if self.n != other.n or self.k != other.k:
            raise ValueError("forms have mismatched dimension or degree")

    def set_coefficient(self, J, value):
        self.coeffs[index_positions(self.n, self.k)[tuple(J)]] = value

    def evaluate(self, vectors) -> float:
        """Evaluate on k vectors: sum_J c_J det(rows J of the column matrix)."""
        V = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
        if V.shape != (self.n, self.k):
            raise ValueError(f"need {self.k} vectors of dimension {self.n}")
        if self.k == 0:
            return float(self.coeffs[0])
        tot = 0.0
        for J, c in zip(index_tuples(self.n, self.k), self.coeffs):
            if c != 0.0:
                tot += c * np.linalg.det(V[list(J), :])
        return float(tot)

    def as_matrix(self) -> np.ndarray:
        """Skew coefficient matrix of a 2-form."""
        if self.k != 2:
            raise ValueError("as_matrix applies to 2-forms only")
        M = np.zeros((self.n, self.n))
        for (a, b), c in zip(index_tuples(self.n, 2), self.coeffs):
            M[a, b] = c
            M[b, a] = -c
        return M

    def __repr__(self):
        nz = sum(1 for c in self.coeffs if c != 0.0)
        return f"KForm(n={self.n}, k={self.k}, {nz} nonzero coefficients)"


def scalar_form(n: int, value: float) -> KForm:
    return KForm(n, 0, [value])


def basis_form(n: int, J) -> KForm:
    """dx^J for an increasing multi-index J."""
    J = tuple(J)
    f = KForm(n, len(J))
    f.set_coefficient(J, 1.0)
    return f


def form_from_matrix(M) -> KForm:
    """2-form w(X, Y) = X^T M Y from a skew matrix M."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if not np.allclose(M, -M.T, atol=1e-12):
        raise ValueError("matrix of a 2-form must be skew-symmetric")
    f = KForm(n, 2)
    for p, (a, b) in enumerate(index_tuples(n, 2)):
        f.coeffs[p] = M[a, b]
    return f


def dr_form(x) -> KForm:
    """The 1-form d|x| = x_a dx^a / |x| at the point x != 0."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r == 0.0:
        raise ValueError("dr is undefined at the origin")
    return KForm(len(x), 1, x / r)


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative wedge product: a^b = (-1)^{deg a deg b} b^a."""
    if a.n != b.n:
        raise ValueError("forms live on different ambient spaces")
    if a.k + b.k > a.n:
        raise ValueError(f"degree overflow: {a.k} + {b.k} > {a.n}")
    out = KForm(a.n, a.k + b.k)
    pos = index_positions(a.n, a.k + b.k)
    idx_a = index_tuples(a.n, a.k)
    idx_b = index_tuples(b.n, b.k)
    for J, ca in zip(idx_a, a.coeffs):
        if ca == 0.0:
            continue
        for K, cb in zip(idx_b, b.coeffs):
            if cb == 0.0:
                continue
            s, merged = _merge_sign(J, K)
            if s:
                out.coeffs[pos[merged]] += s * ca * cb
    return out


def wedge_power(a: KForm, p: int) -> KForm:
    """p-fold wedge a^...^a; p = 0 gives the constant 1."""
    if p < 0:
        raise ValueError("wedge power needs p >= 0")
    if p == 0:
        return scalar_form(a.n, 1.0)
    if p * a.k > a.n:
        raise ValueError(f"degree overflow: {p} * {a.k} > {a.n}")
    out = a.copy()
    for _ in range(p - 1):
        out = wedge(out, a)
    return out


def contract(X, a: KForm) -> KForm:
    """Interior product iota_X a; satisfies iota_X o iota_X = 0."""
    if a.k == 0:
        raise ValueError("cannot contract a 0-form")
    X = np.asarray(X, dtype=float)
    if X.shape != (a.n,):
        raise ValueError(f"vector must have dimension {a.n}")
    out = KForm(a.n, a.k - 1)
    pos = index_positions(a.n, a.k - 1)
    for J, c in zip(index_tuples(a.n, a.k), a.coeffs):
        if c == 0.0:
            continue
        for t, jt in enumerate(J):
            if X[jt] != 0.0:
                rest = J[:t] + J[t + 1 :]
                out.coeffs[pos[rest]] += ((-1) ** t) * X[jt] * c
    return out


def tangential_part(a: KForm, x) -> KForm:
    """a_tan = a - dr ^ iota_{d/dr} a at x != 0, so iota_{d/dr} a_tan = 0."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r == 0.0:
        raise ValueError("tangential part is undefined at the origin")
    er = x / r
    return a - wedge(dr_form(x), contract(er, a))


def _d_eval(field, x, vectors, h):
    """Central-difference exterior derivative of a form-valued field, evaluated
    on the given vectors: (d beta)(v_0..v_k) = sum_t (-1)^t D_{v_t}[beta(.. v_t omitted ..)].
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    tot = 0.0
    for t, vt in enumerate(vectors):
        rest = vectors[:t] + vectors[t + 1 :]
        fp = field(x + h * vt)
        fm = field(x - h * vt)
        vp = fp.evaluate(rest) if rest else float(fp.coeffs[0])
        vm = fm.evaluate(rest) if rest else float(fm.coeffs[0])
        tot += ((-1) ** t) * stencil.first(vp, vm, h)
    return tot


def radial_scaling_defect(alpha: KForm, x, probe, h, weighted=False) -> float:
    """Discrepancy in the radial scaling identity for the constant 2-form alpha
    on R^{4m}, checked by central finite differences of step h.

    With P = alpha^(2m-1) (a (4m-2)-form) the plain identity is

        d( iota_{x dx} P / |x|^(4m-2) ) = (4m-2) P_tan / |x|^(4m-2),

    and the weighted variant replaces the left side with the combination
    d( iota_{x dx} P / ((4m-2) |x|^(4m-2)) + iota_{x dx} P / |x|^(4m-3) ),
    whose right side is ((1+(4m-3)|x|) P_tan + |x| P) / |x|^(4m-2).

    The defect is evaluated on every (4m-2)-subset of the probe vectors and
    the maximum absolute difference is returned.
    """
    x = np.asarray(x, dtype=float)
    n = alpha.n
    if n % 4 != 0:
        raise ValueError("ambient dimension must be 4m")
    m = n // 4
    if np.linalg.norm(x) == 0.0:
        raise ValueError("identity is singular at the origin")
    P = wedge_power(alpha, 2 * m - 1)
    k = 4 * m - 2

    def one_form_field(y):
        y = np.asarray(y, dtype=float)
        r = np.linalg.norm(y)
        beta = contract(y, P) * (1.0 / r**k)
        if weighted:
            beta = beta * (1.0 / k) + contract(y, P) * (1.0 / r ** (k - 1))
        return beta

    probe = [np.asarray(v, dtype=float) for v in probe]
    if len(probe) < k:
        raise ValueError(f"probe must contain at least {k} vectors")
    r = np.linalg.norm(x)
    rhs_form = tangential_part(P, x) * (k / r**k)
    if weighted:
        rhs_form = tangential_part(P, x) * ((1.0 + (k - 1) * r) / r**k) + P * (1.0 / r ** (k - 1))

    worst = 0.0
    for subset in itertools.combinations(range(len(probe)), k):
        vecs = [probe[s] for s in subset]
        lhs = _d_eval(one_form_field, x, vecs, h)
        rhs = rhs_form.evaluate(vecs)
        worst = max(worst, abs(lhs - rhs))
    return worst
