import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab import norms, poisson, stencil
from fueterlab.fields import GridField, dirichlet_energy
from fueterlab.poisson import w21_norm
from fueterlab.stencil import _sum_of_squares

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
    got = stencil.d1(v, a, h)
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
    got = stencil.d2(v, a, b, h)
    scale = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - _inner(want, len(x)))) < 1e-11 * scale
    if a != b:
        prod = stencil.d2(x[a] * x[b], a, b, h)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# a torus is the box that `wrap` pads: on the interior, the box differences
# of the wrapped grid are those of the grid itself


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(3, 6), st.integers(0, 2), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_torus_and_box_agree_bitwise_on_interior(ndim, n, comps, a, b, seed):
    a, b = a % ndim, b % ndim
    shape = (n,) * ndim + ((comps,) if comps else ())
    v = np.random.default_rng(seed).normal(size=shape)
    h = 0.37
    torus = stencil.wrap(v, ndim=ndim)
    pairs = [
        (stencil.d1(torus, a, h, ndim), stencil.d1(v, a, h, ndim)),
        (stencil.d2(torus, a, b, h, ndim), stencil.d2(v, a, b, h, ndim)),
        (stencil.laplacian(torus, h, ndim), stencil.laplacian(v, h, ndim)),
    ]
    for wrapped, box in pairs:
        assert wrapped.shape == shape
        assert box.shape == (n - 2,) * ndim + shape[ndim:]
        assert np.array_equal(_inner(wrapped, ndim), box)
    # padding the component axes too, and differencing them as grid axes,
    # gives the same values on the components
    every = stencil.wrap(v)
    assert np.array_equal(stencil.d1(every, a, h), pairs[0][0])
    assert np.array_equal(stencil.d2(every, a, b, h), pairs[1][0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(3, 6), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_flat_block_matches_the_box_differences_bitwise(ndim, n, a, b, seed):
    a, b = a % ndim, b % ndim
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(3, n + 1, size=ndim))
    v = rng.normal(size=shape)
    h = 0.29
    block = stencil.FlatBlock(shape)
    flat = v.ravel()
    buf = np.full(block.size, np.nan)
    block.d1(flat, a, h, buf)
    assert np.array_equal(block.interior(buf), stencil.d1(v, a, h))
    block.d2(flat, a, b, h, buf)
    assert np.array_equal(block.interior(buf), stencil.d2(v, a, b, h))


def test_flat_block_rejects_an_axis_without_interior_nodes():
    with pytest.raises(ValueError, match="interior"):
        stencil.FlatBlock((4, 2, 5))


def test_formulas_write_into_out_with_the_same_values():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(4, 3, 5))
    h = 0.13
    cases = [(stencil.first, vals[:2]), (stencil.second, vals[:3]), (stencil.mixed, vals)]
    for formula, args in cases:
        want = formula(*args, h)
        out = np.empty_like(want)
        assert formula(*args, h, out=out) is out
        assert np.array_equal(out, want)
        # point stencils pass scalars
        assert formula(*(x[0, 0] for x in args), h) == want[0, 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_wrap_and_laplacian_match_the_pad_forms_bitwise(ndim, comps, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 6, size=ndim)) + ((comps,) if comps else ())
    v = rng.normal(size=shape)
    v[v < -1.5] = -0.0  # 0.0 + (-0.0) is +0.0, as the old sum made it
    padded = np.pad(v, [(1, 1)] * ndim + [(0, 0)] * (v.ndim - ndim), mode="wrap")
    assert np.array_equal(stencil.wrap(v, ndim=ndim), padded)
    out = np.full(padded.shape, np.nan)
    assert stencil.wrap(v, out, ndim) is out
    assert out.tobytes() == padded.tobytes()
    # the Laplacian summed into new arrays, axis by axis, from 0.0
    h = 0.31
    want = 0.0
    for a in range(ndim):
        want = want + stencil.d2(padded, a, a, h, ndim)
    torus = stencil.wrap(v, ndim=ndim)
    for got in (stencil.laplacian(torus, h, ndim), stencil.laplacian(padded, h, ndim)):
        assert got.tobytes() == want.tobytes()


def test_no_second_stencil_in_the_package():
    # periodic neighbours come from one wrap padding, never from full rolled
    # copies, so every central difference runs through the stencil module;
    # its box-slicing helpers stay private to it
    offenders = [
        f"{path.name}:{k}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.roll\(", line)
        or (path.name != "stencil.py" and re.search(r"stencil\._(at|box)\(", line))
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
    inner = tuple(slice(margin, N - margin) for _ in range(d - 1))
    cache = {}

    def get(i):
        if i not in cache:
            cache[i] = u.block(i)
        return cache[i]

    for i in range(margin, N - margin):
        sm, s0, sp = get(i - 1), get(i), get(i + 1)
        acc = np.sum(((sp - sm) / (2 * u.h)) ** 2, axis=-1)
        for a in range(1, d):
            plus = np.roll(s0, -1, axis=a - 1)
            minus = np.roll(s0, +1, axis=a - 1)
            acc += np.sum(((plus - minus) / (2 * u.h)) ** 2, axis=-1)
        yield i, acc[inner]
        cache.pop(i - 1, None)


def _old_dirichlet_energy(u):
    total = 0.0
    for _, block in _old_du_squared_slabs(u):
        total += float(block.sum())
    return total * u.h**u.dim


def _parity_fields():
    rng = np.random.default_rng(21)
    box = GridField(1, 1, "box", 0.5, (11,) * 4, values=rng.normal(size=(11,) * 4 + (4,)))
    A = rng.normal(size=(4, 4))
    streamed = GridField.from_function(lambda p: np.sin(p @ A.T), 1, 1, 10, domain="box")
    return [box, streamed]


def test_w21_norm_matches_roll_implementation_bitwise():
    for u in _parity_fields():
        assert w21_norm(u) == _old_w21_norm(u)


@pytest.mark.parametrize("domain", ["box"])
@pytest.mark.parametrize("N", [5, 6, 7, 12])
def test_w21_norm_bitwise_when_windows_do_not_tile_the_planes(domain, N):
    rng = np.random.default_rng(N)
    for n in (1, 2) if N < 12 else (1,):
        u = GridField(1, n, domain, 0.5, (N,) * 4, values=rng.normal(size=(N,) * 4 + (4 * n,)))
        assert w21_norm(u) == _old_w21_norm(u)


@pytest.mark.parametrize("count", [1, 4, 7, 8, 12])
def test_sum_of_squares_adds_in_the_order_of_numpys_last_axis_sum(count):
    rng = np.random.default_rng(count)
    values = rng.normal(size=(count, 3000))

    def part(c):
        def write(buf):
            buf[:] = values[c]
            return buf
        return write

    out, buf = np.empty(3000), np.empty(3000)
    got = _sum_of_squares([part(c) for c in range(count)], out, buf)
    assert got is out
    assert np.array_equal(got, np.sum(np.stack(list(values), axis=-1) ** 2, axis=-1))


@pytest.mark.parametrize("domain", ["box"])
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


def test_grid_differences_take_no_periodic_flag():
    # a torus is differenced as the box `wrap` pads, so no difference takes a flag
    params = {f: list(inspect.signature(getattr(stencil, f)).parameters)
              for f in ("d1", "d2", "laplacian")}
    assert params == {"d1": ["v", "a", "h", "ndim", "out"],
                      "d2": ["v", "a", "b", "h", "ndim", "out"],
                      "laplacian": ["v", "h", "ndim", "out"]}
    assert not hasattr(stencil, "_box")


def test_each_torus_caller_wraps_each_grid_once(monkeypatch):
    wrapped = []
    real = stencil.wrap

    def wrap(v, out=None, ndim=None):
        wrapped.append(np.shape(v))
        return real(v, out, ndim)

    monkeypatch.setattr(stencil, "wrap", wrap)
    rng = np.random.default_rng(3)
    poisson.manufactured_problem(8, seed=1)
    assert wrapped == [(8,) * 4]  # w* once, for its Laplacian, 16 d2 and 4 d1
    wrapped.clear()
    psi, phi = (norms.ScalarGrid(rng.normal(size=(12, 12)), 1 / 12) for _ in range(2))
    norms.jacobian_hardy_bound(psi, phi)
    assert wrapped == [(12, 12), (12, 12)]
    wrapped.clear()
    norms.lorentz_interpolation_check(rng.normal(size=(12, 12, 3)), 1 / 12)
    assert wrapped == [(12, 12, 3)]
