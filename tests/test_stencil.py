import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab import stencil
from fueterlab.fields import GridField, dirichlet_energy, heat_flow_step
from fueterlab.poisson import w21_norm

SRC = Path(__file__).resolve().parent.parent / "src" / "fueterlab"


# ---------------------------------------------------------------------------
# the formulas are exact where their truncation error vanishes


@st.composite
def box_polynomial(draw, max_ndim=4):
    """A box grid, its node coordinates, and two grid axes a, b."""
    ndim = draw(st.integers(1, max_ndim))
    n = draw(st.integers(3, 7 if ndim < 4 else 5))
    h = draw(st.sampled_from([0.5, 0.25, 0.1]))
    a = draw(st.integers(0, ndim - 1))
    b = draw(st.integers(0, ndim - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    axis = -1.0 + h * np.arange(n)
    x = np.meshgrid(*([axis] * ndim), indexing="ij")
    return x, h, a, b, np.random.default_rng(seed)


def _inner(v, ndim):
    return v[(slice(1, -1),) * ndim]


@settings(max_examples=60, deadline=None)
@given(box_polynomial())
def test_d1_exact_on_quadratics(case):
    x, h, a, b, rng = case
    c = rng.normal(size=4)
    v = c[0] + c[1] * x[a] + c[2] * x[a] ** 2 + c[3] * x[a] * x[b]
    want = c[1] + 2.0 * c[2] * x[a] + c[3] * (x[b] + (x[a] if a == b else 0.0))
    got = stencil.d1(v, a, h, False)
    assert np.max(np.abs(got - _inner(want, len(x)))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(box_polynomial())
def test_d2_and_mixed_exact_on_cubics_and_products(case):
    x, h, a, b, rng = case
    c = rng.normal(size=4)
    # a cubic in x_a, plus x_a x_b
    v = c[0] * x[a] ** 3 + c[1] * x[a] ** 2 * x[b] + c[2] * x[a] + c[3] * x[a] * x[b]
    if a == b:
        want = 6.0 * (c[0] + c[1]) * x[a] + 2.0 * c[3]
    else:
        want = 2.0 * c[1] * x[a] + c[3]
    got = stencil.d2(v, a, b, h, False)
    scale = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - _inner(want, len(x)))) < 1e-11 * scale
    if a != b:
        prod = stencil.d2(x[a] * x[b], a, b, h, False)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# torus (rolled neighbours) and box (sliced neighbours) agree on the interior


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(3, 6), st.integers(0, 2), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_torus_and_box_agree_bitwise_on_interior(ndim, n, comps, a, b, seed):
    a, b = a % ndim, b % ndim
    shape = (n,) * ndim + ((comps,) if comps else ())
    v = np.random.default_rng(seed).normal(size=shape)
    h = 0.37
    pairs = [
        (stencil.d1(v, a, h, True), stencil.d1(v, a, h, False, ndim)),
        (stencil.d2(v, a, b, h, True), stencil.d2(v, a, b, h, False, ndim)),
        (stencil.laplacian(v, h, True, ndim), stencil.laplacian(v, h, False, ndim)),
    ]
    for torus, box in pairs:
        assert box.shape == (n - 2,) * ndim + shape[ndim:]
        assert np.array_equal(_inner(torus, ndim), box)


def test_no_second_stencil_in_the_package():
    # periodic neighbours come from one wrap padding, never from full rolled
    # copies, so every central difference runs through the stencil module
    offenders = [
        f"{path.name}:{k}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.roll\(", line)
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# bitwise parity with the roll-based implementations the stencil replaced


def _old_d1(v, a, h):
    return (np.roll(v, -1, axis=a) - np.roll(v, +1, axis=a)) / (2.0 * h)


def _old_d2(v, a, b, h):
    if a == b:
        return (np.roll(v, -1, axis=a) - 2.0 * v + np.roll(v, +1, axis=a)) / h**2
    vpp = np.roll(np.roll(v, -1, axis=a), -1, axis=b)
    vpm = np.roll(np.roll(v, -1, axis=a), +1, axis=b)
    vmp = np.roll(np.roll(v, +1, axis=a), -1, axis=b)
    vmm = np.roll(np.roll(v, +1, axis=a), +1, axis=b)
    return (vpp - vpm - vmp + vmm) / (4.0 * h**2)


def _old_w21_norm(u):
    vals = u.values
    d = u.dim
    h = u.h
    if u.domain == "torus":
        sl = tuple(slice(None) for _ in range(d))
    else:
        N = u.shape[0]
        sl = tuple(slice(2, N - 2) for _ in range(d))
    absu = np.linalg.norm(vals, axis=-1)
    grad_sq = 0.0
    hess_sq = 0.0
    for a in range(d):
        grad_sq = grad_sq + np.sum(_old_d1(vals, a, h) ** 2, axis=-1)
        for b in range(d):
            hess_sq = hess_sq + np.sum(_old_d2(vals, a, b, h) ** 2, axis=-1)
    total = absu[sl] + np.sqrt(grad_sq)[sl] + np.sqrt(hess_sq)[sl]
    return float(total.sum() * h**d)


def _old_du_squared_slabs(u):
    N = u.shape[0]
    margin = u.interior_margin()
    d = u.dim
    i_range = range(N) if u.domain == "torus" else range(margin, N - margin)
    inner = tuple(
        slice(None) if u.domain == "torus" else slice(margin, N - margin)
        for _ in range(d - 1)
    )
    cache = {}

    def get(i):
        key = i % N if u.domain == "torus" else i
        if key not in cache:
            cache[key] = u.slab(key)
        return cache[key]

    for i in i_range:
        sm, s0, sp = get(i - 1), get(i), get(i + 1)
        acc = np.sum(((sp - sm) / (2 * u.h)) ** 2, axis=-1)
        for a in range(1, d):
            plus = np.roll(s0, -1, axis=a - 1)
            minus = np.roll(s0, +1, axis=a - 1)
            acc += np.sum(((plus - minus) / (2 * u.h)) ** 2, axis=-1)
        yield i, acc[inner]
        cache.pop((i - 1) % N if u.domain == "torus" else i - 1, None)


def _old_dirichlet_energy(u):
    total = 0.0
    for _, block in _old_du_squared_slabs(u):
        total += float(block.sum())
    return total * u.h**u.dim


def _old_heat_flow_step(u, dt):
    vals = u.values
    d = u.dim
    lap = np.zeros_like(vals)
    if u.domain == "torus":
        for a in range(d):
            lap += (np.roll(vals, -1, axis=a) - 2 * vals + np.roll(vals, +1, axis=a)) / u.h**2
        new = vals + dt * lap
    else:
        N = u.shape[0]
        inner = tuple(slice(1, N - 1) for _ in range(d))
        lap_in = np.zeros(vals[inner].shape)
        for a in range(d):
            up = [slice(1, N - 1)] * d
            dn_ = [slice(1, N - 1)] * d
            up[a] = slice(2, N)
            dn_[a] = slice(0, N - 2)
            lap_in += (vals[tuple(up)] - 2 * vals[inner] + vals[tuple(dn_)]) / u.h**2
        new = vals.copy()
        new[inner] = vals[inner] + dt * lap_in
    return u.with_values(new)


def _parity_fields():
    rng = np.random.default_rng(21)
    torus = GridField(1, 1, "torus", 1.0, (8,) * 4, values=rng.normal(size=(8,) * 4 + (4,)))
    box = GridField(1, 1, "box", 0.5, (11,) * 4, values=rng.normal(size=(11,) * 4 + (4,)))
    A = rng.normal(size=(4, 4))
    streamed = GridField.from_function(lambda p: np.sin(p @ A.T), 1, 1, 10, domain="box")
    return [torus, box, streamed]


def test_w21_norm_matches_roll_implementation_bitwise():
    for u in _parity_fields():
        assert w21_norm(u) == _old_w21_norm(u)


@pytest.mark.parametrize("domain", ["box", "torus"])
@pytest.mark.parametrize("N", [5, 6, 7, 12])
def test_w21_norm_bitwise_when_windows_do_not_tile_the_planes(domain, N):
    rng = np.random.default_rng(N)
    for n in (1, 2) if N < 12 else (1,):
        u = GridField(1, n, domain, 0.5, (N,) * 4, values=rng.normal(size=(N,) * 4 + (4 * n,)))
        assert w21_norm(u) == _old_w21_norm(u)


@pytest.mark.parametrize("domain", ["box", "torus"])
def test_w21_norm_streams_a_function_backed_grid(domain):
    A = np.random.default_rng(4).normal(size=(4, 4))
    fn = lambda p: np.sin(p @ A.T)  # noqa: E731
    streamed = GridField.from_function(fn, 1, 1, 9, domain=domain)
    got = w21_norm(streamed)
    assert not streamed.is_dense()
    assert got == w21_norm(GridField.from_function(fn, 1, 1, 9, domain=domain, materialize=True))


def test_dirichlet_energy_matches_roll_implementation_bitwise():
    for u in _parity_fields():
        assert dirichlet_energy(u) == _old_dirichlet_energy(u)


def test_heat_flow_step_matches_roll_implementation_bitwise():
    for u in _parity_fields():
        dt = u.h**2 / (8.0 * u.m)
        assert np.array_equal(heat_flow_step(u, dt).values, _old_heat_flow_step(u, dt).values)
