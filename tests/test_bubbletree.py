import math

import numpy as np
import pytest

from fueterlab.bubbletree import (
    ConcentratingSequence,
    NoConcentrationError,
    QuantizeConfig,
    SmoothBase,
    blowup_set_detect,
    bubble_structure,
    calibration_defect,
    concentration_scale,
    defect_density,
    make_profile,
    neck_l2inf_check,
    neck_scan,
    neck_view,
    quantize,
    rescale_and_extract,
    slice_select,
    synth_sequence,
)
from fueterlab import bubbletree, stencil
from fueterlab.bubbletree import SliceChoice, _disk_energy, _slice_lorentz
from fueterlab.norms import ScalarGrid, hl_maximal
from fueterlab.quat import SphereStructure, StructureTriple

ABC = tuple(np.array((0.6, -0.48, 0.64)) / np.linalg.norm((0.6, -0.48, 0.64)))


def one_bubble(rate=2.0, amp=1.0, seed=3):
    return synth_sequence([(amp, ABC, (0.0, 0.0), rate, 1.0)], seed=seed)


def two_bubble(seed=5):
    return synth_sequence(
        [(1.0, ABC, (0.0, 0.0), 2.0, 1.0), (1.0, ABC, (0.0, 0.0), 4.0, 1.0)],
        seed=seed,
    )


def zero_bubble():
    return synth_sequence([], seed=0)


# ---------------------------------------------------------------------------
# profiles and sequences


def test_profile_energy_matches_reference():
    prof = make_profile(1.3, SphereStructure(*ABC), seed=1)
    # reference value for the rescaled inverse-stereographic profile
    assert abs(prof.total_energy() - 8 * np.pi * 1.3**2) < 1e-4
    # rank-2 jet at the origin with the requested structure
    y0 = np.zeros(2)
    du = prof.grad(y0)
    s, res = bubble_structure(du)
    assert np.max(np.abs(s.as_array() - np.array(ABC))) < 1e-12
    assert res < 1e-12


def test_synth_sequence_validation():
    with pytest.raises(ValueError):
        synth_sequence(
            [(1.0, ABC, (0.0, 0.0), 2.0, 1.0), (1.0, ABC, (0.0, 0.0), 2.0, 1.0)]
        )
    with pytest.raises(ValueError):
        synth_sequence([(1.0, ABC, (0.0, 0.0), 0.5, 1.0)])


def test_member_energy_approaches_manifest():
    seq = one_bubble()
    sl_energies = [
        _disk_energy(seq.slice_map(ell), (0.0, 0.0), 0.25) for ell in (4, 6, 8)
    ]
    target = seq.manifest.energies[0]
    errs = [abs(e - target) for e in sl_energies]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.01 * target


def test_zero_bubble_sequence_is_trivial():
    seq = zero_bubble()
    assert seq.manifest.theta == 0.0
    assert _disk_energy(seq.slice_map(8), (0.0, 0.0), 0.2) == 0.0


# ---------------------------------------------------------------------------
# detection


def test_blowup_set_detect():
    assert blowup_set_detect(zero_bubble(), 0.1, 0.05, [6, 8], grid_n=5) == []
    seq = one_bubble()
    r = 0.05
    flagged = blowup_set_detect(seq, 0.1, r, [6, 7, 8], grid_n=9)
    assert flagged  # the center is detected
    dists = [np.linalg.norm(c) for _, c in flagged]
    assert min(dists) < 1e-9
    # O(r)-neighborhood: profile tails extend the detected set slightly past r
    assert max(dists) <= 1.6 * r
    # extending the member range only sharpens the tail boundary: the set
    # shrinks monotonically and every node strictly inside r stays detected
    flagged2 = blowup_set_detect(seq, 0.1, r, [6, 7, 8, 9, 10], grid_n=9)
    idx1 = {ij for ij, _ in flagged}
    idx2 = {ij for ij, _ in flagged2}
    assert idx2 <= idx1
    core = {ij for ij, c in flagged if np.linalg.norm(c) < r}
    assert core <= idx2


def test_defect_density_values():
    seq0 = zero_bubble()
    d0 = defect_density(seq0, (0.0, 0.0), [8])
    assert abs(d0.theta) < 1e-12
    seq1 = one_bubble()
    d1 = defect_density(seq1, (0.0, 0.0), [9, 10])
    assert d1.reliable
    assert abs(d1.theta - seq1.manifest.energies[0]) < 0.03 * seq1.manifest.energies[0]
    seq2 = two_bubble()
    d2 = defect_density(seq2, (0.0, 0.0), [9, 10])
    assert abs(d2.theta - seq2.manifest.theta) < 0.03 * seq2.manifest.theta


def test_defect_density_with_smooth_base():
    def base_value(x2):
        out = np.zeros(x2.shape[:-1] + (4,))
        out[..., 0] = 0.3 * np.sin(3.0 * x2[..., 0])
        out[..., 1] = 0.3 * x2[..., 1] ** 2
        return out

    def base_grad(x2):
        out = np.zeros(x2.shape[:-1] + (4, 2))
        out[..., 0, 0] = 0.9 * np.cos(3.0 * x2[..., 0])
        out[..., 1, 1] = 0.6 * x2[..., 1]
        return out

    seq = synth_sequence([(1.0, ABC, (0.0, 0.0), 2.0, 1.0)],
                         base=None, seed=3)
    seq_b = ConcentratingSequence(seq.bubbles, base=SmoothBase(base_value, base_grad))
    d = defect_density(seq_b, (0.0, 0.0), [9, 10])
    assert abs(d.theta - seq_b.manifest.energies[0]) < 0.03 * seq_b.manifest.energies[0]


def test_off_sigma_point_has_no_defect():
    seq = one_bubble()
    d = defect_density(seq, (0.1, 0.1), [7, 8], radii=(0.02, 0.03, 0.04))
    assert abs(d.theta) < 0.03 * seq.manifest.theta


# ---------------------------------------------------------------------------
# slice selection


def _slice_select_every_slice(seq, ell, grid_n=9, x1_extent=0.4,
                              maximal_threshold=0.05, lorentz_bound=60.0, r_out=0.25):
    """slice_select with the Lorentz norm evaluated on every candidate slice,
    invariant or not: the reference for the shared-slice shortcut.  Returns
    the choice and the number of candidates."""
    ax = np.linspace(-x1_extent, x1_extent, grid_n)
    mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    Mf = hl_maximal(ScalarGrid(seq.f_of_x1(ell, mesh), ax[1] - ax[0])).values
    candidates = [(Mf[i, j], mesh[i, j]) for i in range(grid_n) for j in range(grid_n)
                  if Mf[i, j] <= maximal_threshold]
    admissible = []
    for m, x1 in candidates:
        lor = _slice_lorentz(seq.slice_map(ell, x1), np.zeros(2), r_out)
        if lor <= lorentz_bound:
            admissible.append((m, lor, x1))
    admissible.sort(key=lambda t: (t[0], t[1], float(np.linalg.norm(t[2]))))
    best = admissible[0]
    return SliceChoice(best[2], len(admissible) / float(grid_n * grid_n),
                       float(best[0]), float(best[1])), len(candidates)


def _count_slice_lorentz(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].x1)
        return _slice_lorentz(*args, **kwargs)

    monkeypatch.setattr(bubbletree, "_slice_lorentz", counted)
    return calls


def _assert_same_choice(a, b):
    assert np.array_equal(a.x1, b.x1)
    assert (a.admissible_fraction, a.maximal_value, a.lorentz_value) == (
        b.admissible_fraction, b.maximal_value, b.lorentz_value)


def test_slice_select_invariant_sequence(monkeypatch):
    seq = one_bubble()
    want, candidates = _slice_select_every_slice(seq, 8)
    assert candidates == 81
    calls = _count_slice_lorentz(monkeypatch)
    choice = slice_select(seq, 8)
    assert len(calls) == 1  # one slice stands for all 81
    _assert_same_choice(choice, want)
    assert choice.admissible_fraction == 1.0
    assert choice.maximal_value == 0.0


def test_slice_select_avoids_noise(monkeypatch):
    seq = synth_sequence(
        [(1.0, ABC, (0.0, 0.0), 2.0, 1.0)],
        noise={"center_x1": (0.25, 0.25), "radius": 0.12, "amplitude": 3.0,
               "x2_scale": 0.08},
        seed=3,
    )
    want, candidates = _slice_select_every_slice(seq, 8, grid_n=11)
    calls = _count_slice_lorentz(monkeypatch)
    choice = slice_select(seq, 8, grid_n=11)
    assert len(calls) == candidates
    assert len({tuple(x1) for x1 in calls}) == candidates
    _assert_same_choice(choice, want)
    assert np.linalg.norm(choice.x1 - np.array([0.25, 0.25])) > 0.12
    assert 0 < choice.admissible_fraction < 1.0
    assert choice.maximal_value <= 0.05


# ---------------------------------------------------------------------------
# concentration scale and extraction


def test_concentration_scale_no_bubble():
    with pytest.raises(NoConcentrationError):
        concentration_scale(zero_bubble(), 8)


def test_concentration_scale_tracks_scale_law():
    seq = one_bubble(rate=2.0)
    ells = [6, 8, 10]
    deltas = []
    for ell in ells:
        d, c = concentration_scale(seq, ell)
        # the argmax localizes within the bubble's own core scale
        assert np.linalg.norm(c) < seq.bubbles[0].scale(ell)
        deltas.append(d)
    slope = np.polyfit(ells, np.log(deltas), 1)[0]
    assert abs(slope - (-math.log(2.0))) < 0.05 * math.log(2.0)


def test_concentration_scale_two_scale_tracks_smallest():
    # the energy-capture crossing is monotone, so the first (deepest) scale
    # found follows the smallest bubble's law; the larger one is recovered by
    # the neck scan afterwards
    seq = two_bubble()
    d8, _ = concentration_scale(seq, 8)
    d10, _ = concentration_scale(seq, 10)
    slope = (math.log(d10) - math.log(d8)) / 2.0
    assert abs(slope - (-math.log(4.0))) < 0.05 * math.log(4.0)


def test_rescale_and_extract_profile_and_energy():
    seq = one_bubble()
    ells = [6, 7, 8]
    crossings = [concentration_scale(seq, e)[0] for e in ells]
    bub = rescale_and_extract(seq, ells, (0.0, 0.0), np.zeros(2), crossings)
    assert bub.converged
    man_E = seq.manifest.energies[0]
    assert abs(bub.energy - man_E) < 0.02 * man_E
    # median-energy radius recovers the true scale up to a profile constant
    assert abs(bub.scale_median / 2.0**-8 - 1.0) < 0.1
    # recovered profile matches the manifest profile in sup norm on B_R
    prof = seq.bubbles[0].profile
    delta_true = seq.bubbles[0].scale(8)
    sl = seq.slice_map(8)
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    rad = np.linspace(0.1, 2.0, 8)
    y = rad[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)[None]
    got = sl.value(bub.scale_median * y)
    want = prof.value(bub.scale_median * y / delta_true) - prof.far_value()
    rangeof = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < 0.02 * rangeof


def test_rescale_constant_sequence_raises():
    seq = zero_bubble()
    with pytest.raises(NoConcentrationError):
        rescale_and_extract(seq, [6, 7], (0.0, 0.0), np.zeros(2), [0.01, 0.005])


# ---------------------------------------------------------------------------
# necks


def test_neck_view_density_is_the_conformal_chart_identity():
    # u = (cos theta, sin theta, 0, 0) = X2 / |X2| has |grad u| = 1 / |X2|, so
    # its cylinder density |X2|^2 |grad u|^2 is 1 at every sample
    def base_value(x2):
        out = np.zeros(x2.shape[:-1] + (4,))
        out[..., :2] = x2 / np.linalg.norm(x2, axis=-1)[..., None]
        return out

    def base_grad(x2):
        x, y = x2[..., 0], x2[..., 1]
        r3 = np.linalg.norm(x2, axis=-1) ** 3
        out = np.zeros(x2.shape[:-1] + (4, 2))
        out[..., 0, 0], out[..., 0, 1] = y * y / r3, -x * y / r3
        out[..., 1, 0], out[..., 1, 1] = -x * y / r3, x * x / r3
        return out

    seq = ConcentratingSequence([], base=SmoothBase(base_value, base_grad))
    view = neck_view(seq, 0, (0.0, 0.0), np.zeros(2), 0.01, 0.2)
    assert view.g.shape == (len(view.t) - 2, len(view.theta))
    assert np.max(np.abs(view.g - 1.0)) < 1e-12


def test_neck_view_energy_matches_annulus():
    seq = one_bubble()
    ell = 8
    delta = seq.bubbles[0].scale(ell)
    inner, outer = 4 * delta, 0.2
    view = neck_view(seq, ell, (0.0, 0.0), np.zeros(2), inner, outer, ntheta=64)
    cyl = view.cylinder_energy()
    ann = _disk_energy(seq.slice_map(ell), np.zeros(2), outer, rmin=inner, nrad=900)
    assert abs(cyl - ann) < 0.01 * ann


def _annulus_energy_reference(sl, center, r_in, r_out, nrad=500, nang=24):
    """The separate annulus quadrature that _disk_energy(rmin=...) replaced."""
    t = np.linspace(np.log(r_in), np.log(r_out), nrad)
    rad = np.exp(t)
    ang = np.linspace(0.0, 2.0 * np.pi, nang, endpoint=False)
    pts = np.asarray(center, dtype=float) + rad[:, None, None] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=-1
    )[None]
    dens = sl.grad_sq(pts).mean(axis=1)
    return float(np.trapezoid(dens * rad * rad * 2.0 * np.pi, t))


def test_disk_energy_annulus_matches_reference_bitwise_and_guards():
    sl = two_bubble().slice_map(8)
    c = np.array([0.01, -0.02])
    for lo, hi, nrad, nang in ((1e-4, 0.25, 500, 24), (0.003, 0.004, 24, 16)):
        got = _disk_energy(sl, c, hi, rmin=lo, nrad=nrad, nang=nang)
        assert got == _annulus_energy_reference(sl, c, lo, hi, nrad=nrad, nang=nang)
    for lo in (0.1, 0.2):
        with pytest.raises(ValueError):
            _disk_energy(sl, c, 0.1, rmin=lo)


def _quadratic(vertex, C):
    def f(pts):
        x = pts - vertex
        return 1.5 + 0.5 * np.einsum("...i,ij,...j->...", x, C, x)
    return f


def test_paraboloid_descent_reaches_the_vertex_and_stops_on_a_bad_stencil():
    rng = np.random.default_rng(11)
    for sign in (1.0, -1.0):  # the density refinement climbs to a maximum
        for _ in range(10):
            B = rng.normal(size=(2, 2))
            C = sign * (B @ B.T + 0.5 * np.eye(2))
            start = rng.uniform(-0.3, 0.3, size=2)
            step = rng.uniform(0.05, 0.5)
            vertex = start + rng.uniform(-step, step, size=2)
            got = bubbletree._paraboloid_descent(_quadratic(vertex, C), start, step, 3, 0.1, 1)
            assert np.max(np.abs(got - vertex)) < 1e-12
    # a far vertex: each move is clipped to `reach` steps per axis
    f = _quadratic(np.array([5.0, -5.0]), np.eye(2))
    got = bubbletree._paraboloid_descent(f, np.zeros(2), 0.1, 1, 0.5, 2)
    assert np.array_equal(got, [0.2, -0.2])
    # a singular Hessian or a non-finite value ends the walk where it stands
    calls = []

    def flat(pts):
        calls.append(pts)
        return np.ones(pts.shape[:-1])

    def hole(pts):
        calls.append(pts)
        out = f(pts)
        out[0, 2] = np.inf
        return out

    for bad in (flat, hole):
        calls.clear()
        start = np.array([0.1, 0.2])
        assert np.array_equal(bubbletree._paraboloid_descent(bad, start, 0.1, 4, 0.1, 2), start)
        assert len(calls) == 1


def test_paraboloid_step_reaches_the_vertex_of_a_quadratic():
    rng = np.random.default_rng(6)
    for _ in range(20):
        B = rng.normal(size=(2, 2))
        C = B @ B.T + 0.5 * np.eye(2)  # definite, so the vertex is unique
        vertex = rng.uniform(-0.3, 0.3, size=2)
        step = rng.uniform(0.05, 0.5)
        ax = np.array([-step, 0.0, step])
        x = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1) - vertex
        f = 1.5 + 0.5 * np.einsum("...i,ij,...j->...", x, C, x)
        assert np.max(np.abs(bubbletree._paraboloid_step(f, step) - vertex)) < 1e-12
    assert bubbletree._paraboloid_step(np.ones((3, 3)), 0.1) is None


def test_neck_windows_decay_for_smooth_field():
    # a field smooth across the origin: window energy -> 0 as t grows
    def base_value(x2):
        out = np.zeros(x2.shape[:-1] + (4,))
        out[..., 0] = np.sin(2.0 * x2[..., 0])
        out[..., 1] = x2[..., 1]
        return out

    def base_grad(x2):
        out = np.zeros(x2.shape[:-1] + (4, 2))
        out[..., 0, 0] = 2.0 * np.cos(2.0 * x2[..., 0])
        out[..., 1, 1] = 1.0
        return out

    seq = ConcentratingSequence([], base=SmoothBase(base_value, base_grad))
    view = neck_view(seq, 0, (0.0, 0.0), np.zeros(2), 1e-4, 0.2)
    e_outer = view.window_energy(view.t[0] + 0.2)
    e_mid = view.window_energy(view.t[0] + 3.0)
    e_deep = view.window_energy(view.t[-1] - 1.5)
    assert e_mid < e_outer
    assert e_deep < 1e-3 * max(e_outer, 1e-300)


def test_neck_scan_pure_neck_and_two_scale():
    seq1 = one_bubble()
    ell = 8
    delta = seq1.bubbles[0].scale(ell)
    view = neck_view(seq1, ell, (0.0, 0.0), np.zeros(2), 40 * delta, 0.25)
    t_hit, e_max, series = neck_scan(view, eps1=2.0)
    # tail windows stay below a threshold sized to the genuine peaks
    assert t_hit is None or e_max < 2.5

    seq2 = two_bubble()
    hits = []
    inner_logs = []
    for ell in (6, 8, 10):
        # the neck starts just above the deepest bubble's domain
        inner = 30.0 * seq2.bubbles[1].scale(ell)
        view = neck_view(seq2, ell, (0.0, 0.0), np.zeros(2), inner, 0.25)
        t_hit, e_hit, _ = neck_scan(view, eps1=1.0)
        assert t_hit is not None and e_hit >= 1.0
        hits.append(t_hit)
        inner_logs.append(-math.log(inner))
    # t_l -> infinity and |log(delta_l R)| - t_l -> infinity
    assert hits[0] < hits[1] < hits[2]
    gaps = [lg - th for lg, th in zip(inner_logs, hits)]
    assert gaps[0] < gaps[1] < gaps[2]


def test_neck_l2inf_decreases_and_matches_charts():
    seq = one_bubble()
    vals = []
    r_out = 0.2
    for ell in (8, 10, 12):
        delta = seq.bubbles[0].scale(ell)
        # neck between the scale-adapted bubble domain and the fixed outer radius
        inner = delta * (r_out / delta) ** 0.47
        view = neck_view(seq, ell, (0.0, 0.0), np.zeros(2), inner, r_out,
                         ntheta=32)
        vals.append(neck_l2inf_check(view))
    assert vals[0] > vals[1] > vals[2]
    # chart equivalence: sup |X2| |grad u| from the analytic gradient matches
    # sup |grad W| from central differences of the resampled member
    ell = 8
    delta = seq.bubbles[0].scale(ell)
    view = neck_view(seq, ell, (0.0, 0.0), np.zeros(2), 20 * delta, 0.2, ntheta=64)
    differenced = np.sqrt(_parent_neck_grad_sq(seq, ell, (0.0, 0.0), view).max())
    assert abs(differenced - neck_l2inf_check(view)) < 0.02 * differenced


def _parent_neck_grad_sq(seq, ell, x1, view):
    """|grad_(t,theta) W|^2 at t[1:-1] x theta by central differences of the
    resampled member W(t, theta) = u(c + e^{-t} e^{i theta}): the density that
    `NeckView.g` replaced (verbatim, the attributes W, dt, dtheta as locals)."""
    rad = np.exp(-view.t)
    pts = view.center + rad[:, None, None] * np.stack(
        [np.cos(view.theta), np.sin(view.theta)], axis=-1
    )[None]
    W = seq.slice_map(ell, x1).value(pts)
    dt = view.t[1] - view.t[0]
    dtheta = view.theta[1] - view.theta[0]
    # t is an interval axis (trimmed by the stencil), theta a periodic one
    Wt = stencil.d1(W, 0, dt, False, ndim=1)
    Wth = stencil.d1(W, 1, dtheta, True)
    return np.sum(Wt**2, axis=-1) + np.sum(Wth[1:-1] ** 2, axis=-1)


def _parent_scan_series(seq, ell, x1, view):
    """The `neck_scan` series of unit-window energies on the differenced
    density (the parent's cylinder_energy and window_energy, verbatim)."""
    g = _parent_neck_grad_sq(seq, ell, x1, view)
    tt = view.t[1:-1]
    dtheta = view.theta[1] - view.theta[0]
    series = []
    for s in np.arange(view.t[0], view.t[-1] - 1.0, 0.2):
        mask = (tt >= s - 1e-12) & (tt <= s + 1.0 + 1e-12)
        e = 0.0 if mask.sum() < 2 else float(np.trapezoid(g[mask].sum(axis=1) * dtheta, tt[mask]))
        series.append((s, bubbletree._x1_ball_volume(seq.m) * e))
    return series


@pytest.mark.parametrize("manifest", ["two", "three"])
def test_qualified_peaks_match_the_differenced_density(monkeypatch, manifest):
    from fueterlab.cli import bundled_sequence

    views = []

    def recorded(*args, **kw):
        views.append((args, bubbletree.NeckView(*args, **kw)))
        return views[-1][1]

    monkeypatch.setattr(bubbletree, "neck_view", recorded)
    eps1 = QuantizeConfig().eps1
    seq = bundled_sequence(manifest)
    for ell in range(6, 13):
        views.clear()
        quantize(seq, [ell - 1, ell])
        [((_, _, x1, *_), view)] = views
        got = bubbletree._qualified_peaks(neck_scan(view, eps1)[2], eps1)
        want = bubbletree._qualified_peaks(_parent_scan_series(seq, ell, x1, view), eps1)
        if ell >= 8:  # the scan finds every bubble above the deepest one
            assert len(got) == len(seq.bubbles) - 1, (manifest, ell)
        assert [(p["t"], p["t_left"], p["t_right"]) for p in got] == [
            (p["t"], p["t_left"], p["t_right"]) for p in want]
        for p, q in zip(got, want):
            assert abs(p["energy"] - q["energy"]) < 0.02 * q["energy"]


# ---------------------------------------------------------------------------
# quantize


def test_quantize_zero_bubble():
    with pytest.raises(NoConcentrationError):
        quantize(zero_bubble(), [6, 8])


def test_quantize_two_bubble_manifest():
    seq = two_bubble()
    tree, rep = quantize(seq, [7, 8])
    assert rep["bubble_count"] == 2
    assert rep["abs_gap"] <= 0.02 * rep["theta"]
    assert rep["residual_neck_energy"] <= 0.05 * rep["theta"]
    assert tree.depth() == 1
    got = sorted(b.energy for b in tree.bubbles())
    want = sorted(seq.manifest.energies)
    for g, w in zip(got, want):
        assert abs(g - w) < 0.02 * w
    # shared structure recovered to high accuracy
    assert np.max(np.abs(np.array(rep["structure"]) - np.array(ABC))) < 1e-6
    text = tree.to_text()
    assert text.startswith("BTREE1")
    assert text.count("kind=bubble") == 2


def test_quantize_scale_equivariance():
    lam = 0.5
    seq_a = two_bubble()
    seq_b = synth_sequence(
        [(1.0, ABC, (0.0, 0.0), 2.0, lam), (1.0, ABC, (0.0, 0.0), 4.0, lam)],
        cutoff_radius=0.3 * lam, seed=5,
    )
    cfg_a = QuantizeConfig()
    cfg_b = QuantizeConfig(r_out=0.25 * lam, theta_radii=(0.04, 0.055, 0.075))
    tree_a, rep_a = quantize(seq_a, [7, 8], cfg_a)
    tree_b, rep_b = quantize(seq_b, [7, 8], cfg_b)
    sa = sorted(b.scale for b in tree_a.bubbles())
    sb = sorted(b.scale for b in tree_b.bubbles())
    for x, y in zip(sa, sb):
        assert abs(y / x - lam) < 0.05 * lam
    ea = sorted(b.energy for b in tree_a.bubbles())
    eb = sorted(b.energy for b in tree_b.bubbles())
    for x, y in zip(ea, eb):
        assert abs(x - y) < 0.02 * x


def test_quantize_bubble_energies_above_threshold():
    seq = two_bubble()
    tree, rep = quantize(seq, [7, 8])
    for b in tree.bubbles():
        assert b.energy >= 0.1


# ---------------------------------------------------------------------------
# bubble structure and calibration


def test_bubble_structure_constructed_jets():
    S = StructureTriple.standard(1)
    rng = np.random.default_rng(0)
    s = SphereStructure(1.0, 0.0, 0.0)
    w = np.array([1.0, 0.0, 0.0, 0.0])
    du = np.stack([w, -s.matrix(S) @ w], axis=1)
    got, res = bubble_structure(du)
    assert np.allclose(got.as_array(), [1.0, 0.0, 0.0], atol=1e-14)
    assert res < 1e-12
    for _ in range(200):
        abc = rng.normal(size=3)
        abc /= np.linalg.norm(abc)
        s = SphereStructure(*abc)
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        scale = rng.uniform(0.5, 2.0)
        du = np.stack([scale * w, -scale * (s.matrix(S) @ w)], axis=1)
        got, res = bubble_structure(du)
        assert np.max(np.abs(got.as_array() - abc)) < 1e-8
        assert res < 1e-10


def test_bubble_structure_rank_errors():
    S = StructureTriple.standard(1)
    with pytest.raises(ValueError):
        bubble_structure(np.zeros((4, 2)))
    # a full-rank triholomorphic jet is not a bubble jet
    full = np.eye(4) @ S.i_mat  # rank 4
    with pytest.raises(ValueError):
        bubble_structure(full)


def test_calibration_defect_cases():
    S = StructureTriple.standard(1)
    rng = np.random.default_rng(1)
    for _ in range(200):
        abc = rng.normal(size=3)
        abc /= np.linalg.norm(abc)
        s = SphereStructure(*abc)
        e1 = rng.normal(size=4)
        e1 /= np.linalg.norm(e1)
        J = s.matrix(S)
        assert abs(calibration_defect(e1, J @ e1, s)) < 1e-12
        assert abs(calibration_defect(e1, -(J @ e1), s) - 2.0) < 1e-12
    # random planes: defect in [0, 2]
    for _ in range(500):
        e1 = rng.normal(size=4)
        e1 /= np.linalg.norm(e1)
        v = rng.normal(size=4)
        v -= (v @ e1) * e1
        e2 = v / np.linalg.norm(v)
        d = calibration_defect(e1, e2, SphereStructure(0, 0, 1.0))
        assert -1e-12 <= d <= 2.0 + 1e-12
    with pytest.raises(ValueError):
        calibration_defect(np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0, 0]),
                           SphereStructure(1.0, 0, 0))


# ---------------------------------------------------------------------------
# bitwise parity with the separate member, cutoff and bubble-model
# evaluations that `_SliceMap`, `_chi_radial` and `_bubble_model_energy`
# replaced (verbatim copies, methods written as functions)


def _parent_chi(self, x2):
    from fueterlab.poisson import smoothstep

    rho = np.linalg.norm(np.asarray(x2, dtype=float), axis=-1)
    return 1.0 - smoothstep(rho / self.cutoff_radius - 1.0)


def _parent_grad_chi(self, x2):
    x2 = np.asarray(x2, dtype=float)
    rho = np.maximum(np.linalg.norm(x2, axis=-1), 1e-300)
    s = np.clip(rho / self.cutoff_radius - 1.0, 0.0, 1.0)
    dsm = 30.0 * s**2 * (s - 1.0) ** 2  # d smoothstep / ds
    coef = -dsm / self.cutoff_radius / rho
    return coef[..., None] * x2


def _parent_eval4(self, ell, pts):
    pts = np.asarray(pts, dtype=float)
    x1, x2 = pts[..., :2], pts[..., 2:]
    out = self.base.value(x2)
    chi = _parent_chi(self, x2)
    for b in self.bubbles:
        d = b.scale(ell)
        y = (x2 - b.center) / d
        out += chi[..., None] * (b.profile.value(y) - b.profile.far_value())
    if self.noise is not None:
        out += (
            self.noise.eta(x1)[..., None]
            * self.noise.psi(x2)[..., None]
            * self.noise.direction
        )
    return out


def _parent_slice_value(self, x2):
    x2 = np.asarray(x2, dtype=float)
    seq = self.seq
    out = seq.base.value(x2)
    if self.base_only:
        return out
    chi = _parent_chi(seq, x2)
    for b in seq.bubbles:
        d = b.scale(self.ell)
        y = (x2 - b.center) / d
        out += chi[..., None] * (b.profile.value(y) - b.profile.far_value())
    if seq.noise is not None:
        out += (
            seq.noise.eta(self.x1)
            * seq.noise.psi(x2)[..., None]
            * seq.noise.direction
        )
    return out


def _parent_slice_grad(self, x2):
    x2 = np.asarray(x2, dtype=float)
    seq = self.seq
    out = seq.base.grad(x2)
    if self.base_only:
        return out
    chi = _parent_chi(seq, x2)
    dchi = _parent_grad_chi(seq, x2)  # (..., 2)
    for b in seq.bubbles:
        d = b.scale(self.ell)
        y = (x2 - b.center) / d
        out = out + chi[..., None, None] * b.profile.grad(y) / d
        dev = b.profile.value(y) - b.profile.far_value()
        out = out + np.einsum("...u,...k->...uk", dev, dchi)
    if seq.noise is not None:
        psi = seq.noise.psi(x2)
        gpsi = -x2 / seq.noise.x2_scale**2 * psi[..., None]
        out = out + seq.noise.eta(self.x1) * np.einsum(
            "u,...k->...uk", seq.noise.direction, gpsi
        )
    return out


def _parent_ball4_ratio(seq, ell, center2, r, base_only=False, method="direct"):
    _ConstantBase = bubbletree._ConstantBase
    _x1_ball_volume = bubbletree._x1_ball_volume
    _bubble_radial_density = bubbletree._bubble_radial_density
    if not seq.x1_invariant and not base_only:
        raise NotImplementedError("4-ball ratios need a plane-invariant sequence")
    k = 4 * seq.m - 2
    vol = _x1_ball_volume(seq.m)

    if base_only or method == "direct":
        sl = seq.base_slice_map() if base_only else seq.slice_map(ell)

        def weight(s):
            return vol * np.maximum(r * r - s * s, 0.0) ** (k / 2.0)

        total = _disk_energy(sl, center2, r, weight=weight)
        return total / r**k

    center2 = np.asarray(center2, dtype=float)
    total = 0.0
    theta_s = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for b in seq.bubbles:
        D = float(np.linalg.norm(center2 - b.center))
        d = b.scale(ell)
        rmin = max(1e-16, d * 1e-5)
        t = np.linspace(np.log(rmin), np.log(D + r), 400)
        rho = np.exp(t)
        dens = _bubble_radial_density(seq, b, ell, rho)
        s_sq = D * D + rho[:, None] ** 2 - 2.0 * D * rho[:, None] * np.cos(theta_s)
        wbar = vol * np.maximum(r * r - s_sq, 0.0) ** (k / 2.0)
        wbar = wbar.mean(axis=1)
        total += float(np.trapezoid(dens * wbar * rho * rho * 2.0 * np.pi, t))
    if not isinstance(seq.base, _ConstantBase):
        bsl = seq.base_slice_map()

        def weight(s):
            return vol * np.maximum(r * r - s * s, 0.0) ** (k / 2.0)

        total += _disk_energy(bsl, center2, r, rmin=r * 1e-6, nrad=200,
                              weight=weight)
    return total / r**k


def _parent_multi_disk_energy(sl, centers, r, nrad=400, nang=24):
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    seq = sl.seq
    out = np.zeros(len(centers))
    for b in seq.bubbles:
        D = np.linalg.norm(centers - b.center, axis=1)  # (C,)
        d = b.scale(sl.ell)
        rmin = max(1e-16, d * 1e-5)
        rmax = float(np.max(D) + r)
        t = np.linspace(np.log(rmin), np.log(rmax), nrad)
        rho = np.exp(t)
        dens = bubbletree._bubble_radial_density(seq, b, sl.ell, rho)  # (R,)
        frac = bubbletree._arc_fraction(rho[None, :], D[:, None], r)  # (C, R)
        out += np.trapezoid(frac * dens[None, :] * rho * rho * 2.0 * np.pi, t, axis=1)
    if not isinstance(seq.base, bubbletree._ConstantBase):
        bsl = seq.base_slice_map()
        for k, c in enumerate(centers):
            out[k] += _disk_energy(bsl, c, r, rmin=r * 1e-6, nrad=200, nang=nang)
    return out


def _parent_tracked_max(sl, m, delta, around, span, grid=9):
    ax = np.linspace(-span, span, grid)
    centers = np.asarray(around) + np.stack(
        np.meshgrid(ax, ax, indexing="ij"), axis=-1
    ).reshape(-1, 2)
    vals = bubbletree._x1_ball_volume(m) * _parent_multi_disk_energy(sl, centers, delta)
    k = int(np.argmax(vals))
    return centers[k], float(vals[k])


def _smooth_base():
    def value(x2):
        out = np.zeros(x2.shape[:-1] + (4,))
        out[..., 0] = 0.3 * np.sin(3.0 * x2[..., 0])
        out[..., 1] = 0.2 * np.cos(2.0 * x2[..., 1])
        return out

    def grad(x2):
        out = np.zeros(x2.shape[:-1] + (4, 2))
        out[..., 0, 0] = 0.9 * np.cos(3.0 * x2[..., 0])
        out[..., 1, 1] = -0.4 * np.sin(2.0 * x2[..., 1])
        return out

    return SmoothBase(value, grad)


def _parity_sequences():
    offset = synth_sequence([(1.0, ABC, (0.0, 0.0), 2.0, 1.0),
                             (0.7, ABC, (0.05, -0.03), 3.0, 1.0)], seed=5)
    based = ConcentratingSequence(offset.bubbles, base=_smooth_base())
    noisy = synth_sequence([(1.0, ABC, (0.0, 0.0), 2.0, 1.0)],
                           noise={"center_x1": (0.1, 0.0), "amplitude": 0.5}, seed=2)
    return [two_bubble(), based, noisy, zero_bubble()]


def _parity_points():
    pts = np.random.default_rng(7).uniform(-0.4, 0.4, size=(60, 4))
    pts[:6, 2:] = 0.0  # x2 = 0, where the cutoff gradient divides by |x2|
    pts[6:12, 2:] *= 1e-310
    return pts


def test_member_and_slice_maps_match_the_parent_evaluations_bitwise():
    pts = _parity_points()
    for seq in _parity_sequences():
        for ell in (3, 8):
            assert np.array_equal(seq.eval4(ell, pts), _parent_eval4(seq, ell, pts))
            for sl in (seq.slice_map(ell, (0.1, -0.05)), seq.base_slice_map()):
                for x2 in (pts[:, 2:], pts[:20, 2:].reshape(4, 5, 2), np.zeros(2)):
                    assert np.array_equal(sl.value(x2), _parent_slice_value(sl, x2))
                    assert np.array_equal(sl.grad(x2), _parent_slice_grad(sl, x2))


def test_bubble_model_energies_match_the_parent_quadratures_bitwise():
    centers = np.random.default_rng(8).uniform(-0.1, 0.1, size=(40, 2))
    seqs = _parity_sequences()
    for seq in seqs[:2] + seqs[3:]:  # the 4-ball model needs a plane-invariant sequence
        for c in centers:
            for r in (0.05, 0.12):
                got = bubbletree._ball4_ratio(seq, 7, c, r, method="model")
                assert got == _parent_ball4_ratio(seq, 7, c, r, method="model")
        for ell in (6, 9):
            sl = seq.slice_map(ell)
            for delta in (0.3, 0.01, 0.002):
                for grid in (9, 5):
                    c, v = bubbletree._tracked_max(sl, delta, centers[0], 2 * delta, grid)
                    c0, v0 = _parent_tracked_max(sl, 1, delta, centers[0], 2 * delta, grid)
                    assert np.array_equal(c, c0) and v == v0


# verbatim copies of the einsum gradients and the annulus-by-annulus median
# scan that the broadcast forms and the batched scan replaced


def _einsum_profile_grad(self, y):
    y = np.asarray(y, dtype=float)
    r2 = np.sum(y * y, axis=-1)
    den = (1.0 + r2) ** 2
    y1, y2 = y[..., 0], y[..., 1]
    ds = np.empty(y.shape[:-1] + (3, 2))
    ds[..., 0, 0] = 2 * (1.0 + r2 - 2 * y1 * y1) / den
    ds[..., 0, 1] = -4 * y1 * y2 / den
    ds[..., 1, 0] = -4 * y1 * y2 / den
    ds[..., 1, 1] = 2 * (1.0 + r2 - 2 * y2 * y2) / den
    ds[..., 2, 0] = 4 * y1 / den
    ds[..., 2, 1] = 4 * y2 / den
    return self.amplitude * np.einsum("ui,...ik->...uk", self.frame, ds)


def _einsum_slice_grad(self, x2):
    x2 = np.asarray(x2, dtype=float)
    seq = self.seq
    out = seq.base.grad(x2)
    if self.base_only:
        return out
    rho = np.maximum(np.linalg.norm(x2, axis=-1), 1e-300)
    chi, dchi = bubbletree._chi_radial(seq, rho)
    dchi = (dchi / rho)[..., None] * x2  # (..., 2)
    for b in seq.bubbles:
        d = b.scale(self.ell)
        y = (x2 - b.center) / d
        out = out + chi[..., None, None] * _einsum_profile_grad(b.profile, y) / d
        dev = b.profile.value(y) - b.profile.far_value()
        out = out + np.einsum("...u,...k->...uk", dev, dchi)
    if seq.noise is not None:
        psi = seq.noise.psi(x2)
        gpsi = -x2 / seq.noise.x2_scale**2 * psi[..., None]
        out = out + seq.noise.eta(self.x1) * np.einsum(
            "u,...k->...uk", seq.noise.direction, gpsi
        )
    return out


def _scan_disk_energy(sl, center, r, rmin=None, nrad=700, nang=24, weight=None):
    if rmin is None:
        scales = [b.scale(sl.ell) for b in sl.seq.bubbles] or [r]
        rmin = max(1e-14, min(min(scales) * 1e-4, r * 1e-6))
    if not rmin < r:
        raise ValueError("need rmin < r")
    t, rad, pts = bubbletree._log_polar(center, rmin, r, nrad, nang)
    dens = sl.grad_sq(pts)
    if weight is not None:
        dens = dens * weight(rad)[:, None]
    ang_mean = dens.mean(axis=1)
    integrand = ang_mean * rad * rad * 2.0 * np.pi  # d(log r) measure
    return float(np.trapezoid(integrand, t))


def _scan_median_energy_radius(sl, center, r_lo, r_hi, total, nprobe=200):
    rads = np.exp(np.linspace(np.log(max(r_lo, 1e-14)), np.log(r_hi), nprobe))
    acc = 0.0
    for k in range(1, len(rads)):
        acc += _scan_disk_energy(sl, center, rads[k], rmin=rads[k - 1], nrad=24, nang=16)
        if acc >= total / 2.0:
            return float(rads[k])
    return float(rads[-1])


def _same_bits(a, b):
    """equal values and equal signs of zero"""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_profile_and_slice_gradients_match_the_einsum_forms_bitwise():
    pts = _parity_points()
    ys = [pts[:, 2:], pts[:, :2] * 40.0, pts[:20, 2:].reshape(4, 5, 2), np.zeros(2),
          np.array([[0.0, -0.0], [-0.0, 1e-310], [3.0, 0.0]])]
    structure = SphereStructure(*ABC)
    for prof in (make_profile(1.3, structure, seed=1), make_profile(0.7, structure, n=2, seed=4)):
        for y in ys:
            assert _same_bits(prof.grad(y), _einsum_profile_grad(prof, y))
    for seq in _parity_sequences():
        for ell in (3, 8):
            for sl in (seq.slice_map(ell, (0.1, -0.05)), seq.base_slice_map()):
                for x2 in ys:
                    assert _same_bits(sl.grad(x2), _einsum_slice_grad(sl, x2))


def test_median_energy_radius_matches_the_annulus_scan_bitwise():
    seqs = _parity_sequences()
    lo, hi = 1e-4, 0.2
    rads = np.exp(np.linspace(np.log(lo), np.log(hi), 200))
    for seq in seqs:
        for ell in (4, 9):
            sl = seq.slice_map(ell, (0.1, -0.05))
            for center in (np.zeros(2), np.array([0.01, -0.02])):
                cumulative = np.cumsum([
                    _scan_disk_energy(sl, center, b, rmin=a, nrad=24, nang=16)
                    for a, b in zip(rads[:-1], rads[1:])])
                # totals whose half the scan meets exactly at annulus k, or
                # misses there by one ulp, so a last-bit change either way in
                # the energies up to k moves the radius; a tiny total stops
                # at once, a large one runs through
                ks = (0, 60, 130, 197)
                totals = [2.0 * cumulative[k] for k in ks]
                totals += [2.0 * np.nextafter(cumulative[k], np.inf) for k in ks]
                for total in totals + [1e-9 * totals[-1], 3.0 * totals[-1]]:
                    got = bubbletree._median_energy_radius(sl, center, lo, hi, total)
                    assert got == _scan_median_energy_radius(sl, center, lo, hi, total)
    with pytest.raises(ValueError, match="rmin < r"):
        bubbletree._median_energy_radius(seqs[0].slice_map(4), np.zeros(2), 0.2, 0.1, 1.0)
