import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fueterlab.norms as norms
from fueterlab.norms import (
    DUALITY_K,
    INTERP_K2,
    JACOBIAN_C,
    ScalarGrid,
    _grad_magnitude,
    bmo_norm,
    duality_pairing_check,
    h1_norm,
    hl_maximal,
    jacobian_hardy_bound,
    lorentz_21,
    lorentz_2inf,
    lorentz_interpolation_check,
    weak_l1_excess,
)
from fueterlab.norms import _ball_kernel_fft, _maximal_radii, _periodic_conv

N2, H2 = 64, 1.0 / 64
N4, H4 = 8, 1.0 / 8


def grid2(values):
    return ScalarGrid(values, H2)


def smooth2(rng, modes=6):
    ms = rng.integers(1, 8, size=(modes, 2))
    amps = rng.normal(size=modes)
    ph = rng.uniform(0, 2 * np.pi, modes)
    x = np.arange(N2) * H2
    X, Y = np.meshgrid(x, x, indexing="ij")
    v = sum(a * np.sin(2 * np.pi * (mx * X + my * Y) + p)
            for a, (mx, my), p in zip(amps, ms, ph))
    return grid2(v)


def dipole2(sep, axis=1):
    v = np.zeros((N2, N2))
    v[N2 // 2, N2 // 2] = 1.0 / H2**2
    idx = [N2 // 2, N2 // 2]
    idx[axis] = (idx[axis] + sep) % N2
    v[tuple(idx)] = -1.0 / H2**2
    return grid2(v)


def step2(frac):
    v = np.zeros((N2, N2))
    v[: int(N2 * frac), :] = 1.0
    return grid2(v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scalar_grid_rejects_non_finite_values(bad):
    vals = np.zeros((N4,) * 4)
    vals[5, 0, 7, 2] = bad
    with pytest.raises(ValueError, match="grid values must be finite"):
        ScalarGrid(vals, H4)
    with pytest.raises(ValueError, match="grid values must be finite"):
        ScalarGrid(np.zeros((N4,) * 4), H4).like(vals)
    # one bad value among finite ones of both signs, at the last node
    vals = np.random.default_rng(0).normal(size=(N2, N2))
    vals[-1, -1] = bad
    with pytest.raises(ValueError, match="grid values must be finite"):
        grid2(vals)


# ---------------------------------------------------------------------------
# maximal function


def test_maximal_constant_and_lower_bound():
    c = grid2(np.full((N2, N2), -3.0))
    M = hl_maximal(c)
    assert np.allclose(M.values, 3.0)
    rng = np.random.default_rng(0)
    f = grid2(rng.normal(size=(N2, N2)))
    M = hl_maximal(f)
    assert np.all(M.values >= np.abs(f.values) - 1e-12)


def test_maximal_sublinear():
    rng = np.random.default_rng(1)
    f = grid2(rng.normal(size=(N2, N2)))
    g = grid2(rng.normal(size=(N2, N2)))
    Mfg = hl_maximal(grid2(f.values + g.values))
    assert np.all(Mfg.values <= hl_maximal(f).values + hl_maximal(g).values + 1e-12)


def test_maximal_point_mass_decay():
    f = grid2(np.zeros((N2, N2)))
    f.values[0, 0] = 1.0 / H2**2  # total mass 1
    M = hl_maximal(f)
    # Mf(x) ~ c_d / |x|^d: the product Mf * |x|^d is near-constant at 3 radii
    vals = []
    for k in (8, 12, 16):
        x = np.array([k * H2, 0.0])
        vals.append(M.values[k, 0] * np.linalg.norm(x) ** 2)
    vals = np.array(vals)
    assert vals.max() / vals.min() < 2.0


def test_weak_l1_at_every_level_2d_and_4d():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = grid2(np.abs(rng.normal(size=(N2, N2))))
        M = hl_maximal(f).values
        for v in np.unique(M):
            meas = float(np.sum(M >= v) * f.cell)
            assert meas * v <= 5**2 * f.l1() + 1e-9
    for _ in range(5):
        f4 = ScalarGrid(np.abs(rng.normal(size=(N4,) * 4)), H4)
        M = hl_maximal(f4).values
        for v in np.unique(M):
            meas = float(np.sum(M >= v) * f4.cell)
            assert meas * v <= 5**4 * f4.l1() + 1e-9


def test_maximal_matches_per_radius_convolutions_bitwise():
    rng = np.random.default_rng(5)
    for f in (grid2(rng.normal(size=(N2, N2))), ScalarGrid(rng.normal(size=(N4,) * 4), H4)):
        g = np.abs(f.values)
        want = np.full(g.shape, -np.inf)
        for r in _maximal_radii(f):
            kf, count = _ball_kernel_fft(g.shape, f.h, float(r))
            np.maximum(want, _periodic_conv(np.fft.rfftn(g), kf, g.shape) / count, out=want)
        assert np.array_equal(hl_maximal(f).values, np.maximum(want, 0.0))


def _weak_l1_excess_by_level(f):
    """One pass per level over the whole grid: the reference for weak_l1_excess."""
    M = hl_maximal(f).values
    worst = 0.0
    for v in np.unique(M):
        meas = float(np.sum(M >= v) * f.cell)
        worst = max(worst, meas * v - norms.VITALI_CONSTANT_BASE**f.d * f.l1())
    return worst


@pytest.mark.parametrize("base", [5, 0.5, 0.0])
def test_weak_l1_excess_matches_per_level_sweep(monkeypatch, base):
    # below the true constant 5 the bound fails and the excess is positive,
    # so the comparison covers the level sweep, not just the clamp at 0
    monkeypatch.setattr(norms, "VITALI_CONSTANT_BASE", base)
    rng = np.random.default_rng(6)
    fields = [grid2(np.abs(rng.normal(size=(N2, N2)))) for _ in range(4)]
    fields += [ScalarGrid(np.abs(rng.normal(size=(N4,) * 4)), H4) for _ in range(2)]
    spike = np.zeros((N2, N2))  # Mf of a point mass ties at many cells
    spike[3, 5] = 1.0 / H2**2
    fields.append(grid2(spike))
    excess = [weak_l1_excess(f, hl_maximal(f)) for f in fields]
    assert excess == [_weak_l1_excess_by_level(f) for f in fields]
    assert (max(excess) > 0.0) == (base < 5)


def test_weak_l1_excess_is_the_sup_over_the_exact_levels(monkeypatch):
    # the sup of v |{Mf >= v}| is attained at a value of Mf; a level rounded
    # to 12 decimals can round up past the cells that carry it, and such a
    # sweep read below the sup, by 1e-13 to 5e-13, on each of these fields
    monkeypatch.setattr(norms, "VITALI_CONSTANT_BASE", 0.5)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = grid2(np.abs(rng.normal(size=(N2, N2))))
        excess = weak_l1_excess(f, hl_maximal(f))
        assert excess > 0.0
        assert excess == _weak_l1_excess_by_level(f)


def test_weak_l1_point_mass_bound_and_scaling():
    f = grid2(np.zeros((N2, N2)))
    f.values[0, 0] = 1.0 / H2**2
    Mf = hl_maximal(f).values
    meas = []
    # levels high enough that {Mf > lam} is a proper ball (below that the
    # radius cap at 1/2 makes the superlevel set the whole torus)
    lams = [4.0, 8.0, 16.0, 32.0]
    for lam in lams:
        m = float(np.sum(Mf > lam) * f.cell)
        assert m <= norms.VITALI_CONSTANT_BASE**f.d * f.l1() / lam
        meas.append(m)
    # measure scales like 1/lambda: the bound is sharp up to its constant
    prod = [m * l for m, l in zip(meas, lams)]
    assert max(prod) / min(prod) < 2.5


# ---------------------------------------------------------------------------
# h1 and bmo


def test_h1_zero_and_positive_lower_bound():
    assert h1_norm(grid2(np.zeros((N2, N2)))) == 0.0
    rng = np.random.default_rng(3)
    f = grid2(np.abs(rng.normal(size=(N2, N2))))
    assert h1_norm(f) >= f.l1() * (1 - 1e-9)


def test_h1_dipole_log_growth_and_cancellation():
    h1s = [h1_norm(dipole2(sep)) for sep in (16, 4, 1)]
    assert h1s[0] > h1s[1] > h1s[2]  # grows with separation ~ log
    # Hardy cancellation: each piece alone has h1 ~ its L1 mass (= 1), the
    # mean-zero dipole at tiny separation has much smaller h1
    single = grid2(np.zeros((N2, N2)))
    single.values[N2 // 2, N2 // 2] = 1.0 / H2**2
    assert h1_norm(single) >= 1.0 - 1e-9
    assert h1s[2] < 2.0 * h1_norm(single)


def test_bmo_basics():
    assert abs(bmo_norm(grid2(np.full((N2, N2), 2.5))) - 2.5) < 1e-12
    f = step2(0.5)
    # straddling cubes see mean oscillation 1/2
    assert bmo_norm(f) >= 0.5
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.uniform(-1, 1, size=(N2, N2))
        assert bmo_norm(grid2(v)) <= 3.0 * np.abs(v).max() + 1e-12


def _oscillation_by_cube(vals, k):
    """max over every periodic k-cube Q of the mean of |f - mean_Q f|, one
    cube at a time: the reference for `_window_oscillation`."""
    N = vals.shape[0]
    worst = 0.0
    for x in np.ndindex(vals.shape):
        cube = vals[np.ix_(*((xa + np.arange(k)) % N for xa in x))]
        worst = max(worst, float(np.mean(np.abs(cube - cube.mean()))))
    return worst


@pytest.mark.parametrize("shape, sides", [((16, 16), (1, 2, 3, 4, 8, 16)),
                                          ((6,) * 4, (2, 3, 6))])
def test_bmo_oscillation_matches_every_cube_by_brute_force(shape, sides):
    # each cube's oscillation is measured against its own mean
    rng = np.random.default_rng(11)
    vals = rng.normal(size=shape)
    for k in sides:
        got = norms._window_oscillation(vals, np.fft.rfftn(vals), k)
        assert abs(got - _oscillation_by_cube(vals, k)) < 1e-12
    # no cube of a 0/1 step oscillates by more than 1/2 about its mean
    step = np.zeros((N2, N2))
    step[: int(0.3 * N2)] = 1.0
    for k in (4, 8, 16):
        got = norms._window_oscillation(step, np.fft.rfftn(step), k)
        assert got == pytest.approx(0.5, abs=1e-12)


def test_duality_pairing():
    z = grid2(np.zeros((N2, N2)))
    f = step2(0.3)
    assert duality_pairing_check(f, z) == (0.0, 0.0)
    # constant f against a mean-zero dipole: pairing = 0, bound > 0
    c = grid2(np.ones((N2, N2)))
    pairing, bound = duality_pairing_check(c, dipole2(8))
    assert pairing < 1e-9 and bound > 0
    # the adversarial family stays under the frozen K
    for frac in (0.1, 0.25, 0.5):
        for sep in (1, 2, 4, 8, 16, 24):
            for axis in (0, 1):
                pairing, bound = duality_pairing_check(step2(frac), dipole2(sep, axis))
                assert pairing <= bound


# ---------------------------------------------------------------------------
# Lorentz norms


def test_lorentz_zero_and_homogeneity():
    z = grid2(np.zeros((N2, N2)))
    assert lorentz_21(z) == 0.0 and lorentz_2inf(z) == 0.0
    rng = np.random.default_rng(5)
    f = grid2(rng.normal(size=(N2, N2)))
    for lam in (0.5, -2.0, 3.7):
        assert abs(lorentz_21(grid2(lam * f.values)) - abs(lam) * lorentz_21(f)) < 1e-9
        assert abs(lorentz_2inf(grid2(lam * f.values)) - abs(lam) * lorentz_2inf(f)) < 1e-9


def test_lorentz_indicator_equalities_exact():
    v = np.zeros((N2, N2))
    v[:16, :32] = 1.0  # measure a = 16*32*h^2 = 1/8
    a = 16 * 32 * H2**2
    f = grid2(v)
    assert abs(lorentz_21(f) - np.sqrt(a)) < 1e-12
    assert abs(lorentz_2inf(f) - np.sqrt(a)) < 1e-12
    pairing = float(np.sum(v * v) * H2**2)
    assert abs(pairing - lorentz_21(f) * lorentz_2inf(f)) < 1e-12


def test_lorentz_l2_ordering():
    rng = np.random.default_rng(6)
    for _ in range(200):
        f = grid2(rng.normal(size=(N2, N2)))
        l2 = f.l2()
        assert lorentz_2inf(f) <= l2 + 1e-12
        assert l2 <= lorentz_21(f) + 1e-12


@st.composite
def values_with_measures(draw):
    """(values, positive cell measures) of one length: drawn values, some
    repeated (ties) and some zero, with measures across 1e-3..1e3."""
    k = draw(st.integers(1, 40))
    mag = st.one_of(st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))  # squares stay normal
    pool = draw(st.lists(mag, min_size=1, max_size=k))
    vals = draw(st.lists(st.one_of(st.sampled_from(pool), st.just(0.0)), min_size=k, max_size=k))
    w = draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))
    return np.array(vals), np.array(w)


@settings(max_examples=300, deadline=None)
@given(values_with_measures())
def test_lorentz_ordering_on_raw_arrays(fw):
    f, w = fw
    l2 = math.sqrt(float(np.sum(w * f * f)))
    tol = 1e-12 * l2
    assert lorentz_2inf(f, w) <= l2 + tol
    assert l2 <= lorentz_21(f, w) + tol


def test_lorentz_interpolation():
    # constant slice: 0 <= 0
    lhs, rhs = lorentz_interpolation_check(np.ones((N2, N2)), H2)
    assert lhs == 0.0 and rhs == 0.0
    # indicator |grad v|: equality up to the frozen constant, i.e. lhs = product
    v = np.zeros((N2, N2))
    v[:8, :8] = 1.0
    g = ScalarGrid(v, H2)
    assert abs(float(np.sum(v**2) * g.cell) - lorentz_21(g) * lorentz_2inf(g)) < 1e-12
    # random smooth slices obey the frozen-K2 inequality, with a peak
    # lhs / rhs within 2% of the 0.781 measured
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        f = smooth2(rng)
        lhs, rhs = lorentz_interpolation_check(f.values, H2)
        assert lhs <= rhs
        worst = max(worst, lhs / rhs)
    assert worst >= 0.98 * 0.781


def test_interpolation_adversarial_family_below_frozen_k2():
    # truncated layer-cake profiles mu(t) ~ 1/t^2, the near-extremizers
    cells = N2 * N2
    for T in (2.0, 8.0, 32.0, 64.0):
        for frac in (0.2, 0.5, 0.9):
            ncap = max(1, int(frac * cells / T**2))
            k = np.arange(1, cells + 1)
            vals = np.minimum(T, T * np.sqrt(ncap / k))
            g = ScalarGrid(vals.reshape(N2, N2), H2)
            lhs = float(np.sum(g.values**2) * g.cell)
            assert lhs <= INTERP_K2 * lorentz_21(g) * lorentz_2inf(g)


# ---------------------------------------------------------------------------
# Jacobian Hardy bound


def test_jacobian_hardy_bound():
    rng = np.random.default_rng(8)
    c = grid2(np.full((N2, N2), 1.3))
    f = smooth2(rng)
    h1J, bound = jacobian_hardy_bound(f, c)
    assert h1J < 1e-9  # constant phi gives J = 0
    # psi, phi independent of a common variable: J = 0
    x = np.arange(N2) * H2
    col = np.sin(2 * np.pi * x)[:, None] * np.ones((1, N2))
    h1J, _ = jacobian_hardy_bound(grid2(col), grid2(2 * col + 1.0))
    assert h1J < 1e-9
    # random pairs obey the frozen-C bound, with a peak h1 / bound within 2%
    # of the 0.454 measured
    worst = 0.0
    for _ in range(25):
        psi, phi = smooth2(rng), smooth2(rng)
        h1J, bound = jacobian_hardy_bound(psi, phi)
        assert h1J <= bound
        worst = max(worst, h1J / bound)
    assert worst >= 0.98 * 0.454
