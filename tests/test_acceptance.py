"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with `pytest -s tests/test_acceptance.py` to see the
lines as they print)."""

import json
import math
import time

import numpy as np
import pytest

from oracles import exact_w21_and_energy

from fueterlab import stencil
from fueterlab.bubbletree import (
    QuantizeConfig,
    SphereStructure,
    bubble_structure,
    calibration_defect,
    quantize,
)
from fueterlab.cli import bundled_sequence, main
from fueterlab.exterior import radial_scaling_defect
from fueterlab.fields import (
    GridField,
    dirichlet_energy,
    domain_variation_derivative,
    energy_identity_defects,
    standard_triholomorphic_field,
    triholo_residual,
    triholomorphic_kernel,
    triholomorphic_suite,
)
from fueterlab.monotone import monotonicity_defect
from fueterlab.norms import (
    INTERP_K2,
    ScalarGrid,
    hl_maximal,
    lorentz_21,
    lorentz_2inf,
    lorentz_interpolation_check,
)
from fueterlab.poisson import (
    NonContractionError,
    PerturbedProblem,
    W21_SUITE_C,
    default_problem,
    fixed_point_solve,
    manufactured_problem,
    radial_cutoff,
    w21_norm,
)
from fueterlab.quat import StructureTriple, kaehler_form

S1 = StructureTriple.standard(1)
S2 = StructureTriple.standard(2)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {desc} {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_01_energy_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    A1 = rng.standard_normal((10_000, 4, 4)) * 2.0
    d1 = np.max(np.abs(energy_identity_defects(A1, S1, S1)))
    A2 = rng.standard_normal((1_000, 4, 8)) * 2.0
    d2 = np.max(np.abs(energy_identity_defects(A2, S2, S1)))
    elapsed = time.monotonic() - t0
    worst = max(d1, d2)
    report(1, "energy identity defect < 1e-10 on random jets (m=1,2)",
           worst < 1e-10 and elapsed < 30.0,
           f"(max defect {worst:.2e}, {elapsed:.1f}s)")


def test_02_linear_kernel():
    dim, basis = triholomorphic_kernel(S1, S1)
    # an empty kernel prints its line too: the frozen dimension then fails
    worst = max((np.linalg.norm(triholo_residual(B, S1, S1)) for B in basis), default=0.0)
    # dimension computed by the 16x16 oracle once, frozen as regression value
    report(2, "triholomorphic kernel dim 12, basis residuals < 1e-12",
           dim == 12 and worst < 1e-12, f"(dim {dim}, worst {worst:.2e})")


def test_03_flat_monotonicity():
    t0 = time.monotonic()
    poly = standard_triholomorphic_field(seed=3, degree=4)
    defects = []
    hs = []
    for nodes in (33, 65, 129):
        u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.5)
        defects.append(abs(monotonicity_defect(u, np.zeros(4), 0.1, 0.4)))
        hs.append(u.h)
    elapsed = time.monotonic() - t0
    slope = np.polyfit(np.log(hs), np.log(defects), 1)[0]
    report(3, "monotonicity defect (s=0.1, R=0.4) decays with slope >= 1",
           slope >= 1.0 and elapsed < 120.0,
           f"(slope {slope:.2f}, defects {[f'{d:.1e}' for d in defects]}, {elapsed:.0f}s)")


def test_04_discrete_laplacian_decay():
    # the field is componentwise harmonic, so the central-difference Laplacian
    # at the centre is pure truncation error, O(h^2) from the fourth derivatives
    poly = standard_triholomorphic_field(seed=3, degree=4)
    sups, hs = [], []
    for nodes in (9, 17, 33):
        u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.5,
                                    materialize=True)
        window = tuple(slice(s // 2 - 1, s // 2 + 2) for s in u.shape)
        sups.append(np.max(np.abs(stencil.laplacian(u.block(window), u.h, u.dim))))
        hs.append(u.h)
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    report(4, "discrete Laplacian of a harmonic field decays at rate h^2 at the centre",
           abs(slope - 2.0) < 0.2,
           f"(slope {slope:.2f}, |Delta_h u| {[f'{v:.1e}' for v in sups]})")


def test_05_radial_scaling_identities():
    a1 = kaehler_form(S1, "i")
    x = np.array([1.0, 0.3, -0.2, 0.5])
    rng = np.random.default_rng(12)
    probe = [rng.normal(size=4) for _ in range(3)]
    hs = np.array([0.04, 0.02, 0.01, 0.005])
    ok = True
    detail = []
    for weighted in (False, True):
        ds = np.array([radial_scaling_defect(a1, x, probe, h, weighted=weighted)
                       for h in hs])
        slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
        ok = ok and abs(slope - 2.0) < 0.1
        detail.append(f"{slope:.3f}")
    report(5, "radial scaling identities: finite-difference slope 2.0 +- 0.1",
           ok, f"(slopes {', '.join(detail)})")


def test_06_fixed_point_scheme():
    P, w_star = manufactured_problem(N=16, magnitude=0.05, seed=1)
    v, stats = fixed_point_solve(P, tol=1e-12, max_iter=200)
    err = np.abs(v.values - w_star).max() / np.abs(w_star).max()
    contraction_ok = stats["contraction"] < 0.5

    N, h = 16, 1.0 / 16
    shape = (N,) * 4
    chi = radial_cutoff(shape, h, 0.3, 0.47)
    mu = np.zeros((4, 4) + shape)
    for i in range(4):
        mu[i, i] = 1.0
    src = np.zeros(shape)
    src[N // 2, N // 2, N // 2, N // 2] = 0.01
    P_bad = PerturbedProblem(chi, mu, np.zeros((4,) + shape), ScalarGrid(src, h))
    diagnosed = False
    try:
        fixed_point_solve(P_bad, tol=1e-10, max_iter=60)
    except NonContractionError:
        diagnosed = True
    ok = err < 1e-6 and contraction_ok and diagnosed
    report(6, "fixed point: manufactured recovery 1e-6, contraction < 0.5, "
              "non-contraction diagnosed at magnitude 1",
           ok, f"(err {err:.1e}, contraction {stats['contraction']:.2f}, "
               f"diagnosed {diagnosed})")


def test_07_w21_regression():
    # C bounds the ratio from above, and the suite's peak (1.270 at 21 nodes)
    # from below; the exact derivatives bound w21_norm itself.  Central
    # differences are exact on quadratics, so the degree <= 2 members match
    # the exact sums to rounding (measured 3.1e-14), and the degree-4 gap
    # decays as h^2 (two-grid slopes measured 2.09-2.31)
    t0 = time.monotonic()
    ratios, gaps = [], []
    for poly in triholomorphic_suite():  # degrees 1, 2, 2, 4, 4
        gaps.append([])
        for nodes in (13, 21):
            u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.5,
                                        materialize=True)
            w21 = w21_norm(u)
            ratios.append(w21 / (1.0 + dirichlet_energy(u)))
            exact = exact_w21_and_energy(poly, nodes)[0]
            gaps[-1].append((w21 - exact) / exact)
    # every ratio within C (a NaN is not), and the peak within 2% of 1.270
    worst = max(ratios)
    low = 0.98 * 1.270
    exact_gap = float(np.max(np.abs(gaps[:3])))  # NaN if one gap is
    slopes = [math.log(g0 / g1) / math.log(20 / 12) if g0 > 0 and g1 > 0 else math.nan
              for g0, g1 in gaps[3:]]  # h = 1/12, 1/20
    ok = (all(r <= W21_SUITE_C for r in ratios) and worst >= low and exact_gap <= 1e-12
          and all(1.9 < s < 2.5 for s in slopes))
    report(7, f"max w21_norm / (1 + E) over the triholomorphic suite in [{low:.3f}, "
              f"{W21_SUITE_C}]; against the exact derivatives: gap <= 1e-12 at degree <= 2, "
              "degree-4 slope in (1.9, 2.5) (13 -> 21 nodes)",
           ok, f"(max ratio {worst:.2f}, gap {exact_gap:.1e}, slopes "
               f"{', '.join(f'{s:.2f}' for s in slopes)}, {time.monotonic() - t0:.1f}s)")


def test_08_weak_l1():
    rng = np.random.default_rng(8)
    worst_excess = -np.inf

    def sweep(f, d):
        nonlocal worst_excess
        M = hl_maximal(f).values
        bound = 5**d * f.l1()
        vals = np.unique(M)
        meas = f.cell * (len(M.ravel()) - np.searchsorted(np.sort(M.ravel()), vals))
        worst = np.max(vals * meas - bound)
        worst_excess = max(worst_excess, worst)

    for _ in range(1000):
        sweep(ScalarGrid(np.abs(rng.normal(size=(64, 64))), 1 / 64), 2)
    for _ in range(1000):
        sweep(ScalarGrid(np.abs(rng.normal(size=(8,) * 4)), 1 / 8), 4)
    # sharpness: for a point mass (||f||_1 = 1) the bound is attained up to a
    # constant, lambda |{Mf > lambda}| read 0.70-0.98 on 64^2 and 0.49-0.97 on
    # 24^4; with Mf = |f| it reads <= 0.031 and <= 0.0004
    sharp_ok = True
    lows = []
    for N, d, floor in ((64, 2, 0.5), (24, 4, 0.25)):
        v = np.zeros((N,) * d)
        v[(N // 2,) * d] = float(N) ** d
        f = ScalarGrid(v, 1 / N)
        M = hl_maximal(f).values
        low = min(lam * np.count_nonzero(M > lam) * f.cell / f.l1()
                  for lam in (4, 8, 16, 32, 64, 128))
        sharp_ok = sharp_ok and low >= floor
        lows.append(f"{low:.2f} (>= {floor}, {N}^{d})")
    report(8, "weak-L1 bound with 5^d at every level, 1000 fields in 2-D and 4-D; "
              "a point mass comes within a floor of it",
           worst_excess <= 1e-9 and sharp_ok,
           f"(worst excess {worst_excess:.2e}, point-mass lambda |{{Mf > lambda}}| "
           f"min {', '.join(lows)})")


def test_09_lorentz_machinery():
    # indicator equality cases, exact
    v = np.zeros((64, 64))
    v[:16, :32] = 1.0
    a = 16 * 32 / 64.0**2
    f = ScalarGrid(v, 1 / 64)
    eq1 = abs(lorentz_21(f) - math.sqrt(a)) < 1e-12
    eq2 = abs(lorentz_2inf(f) - math.sqrt(a)) < 1e-12
    eq3 = abs(float(np.sum(v * v)) / 64.0**2 - lorentz_21(f) * lorentz_2inf(f)) < 1e-12
    # interpolation inequality with the frozen constant on every random slice
    # (a NaN is not within it), and the peak lhs / rhs within 2% of the 0.791
    # measured
    rng = np.random.default_rng(9)
    x = np.arange(64) / 64.0
    X, Y = np.meshgrid(x, x, indexing="ij")
    ok_interp = True
    worst = 0.0
    for _ in range(1000):
        modes = rng.integers(1, 8, size=(5, 2))
        amps = rng.normal(size=5)
        ph = rng.uniform(0, 2 * np.pi, 5)
        vv = sum(amp * np.sin(2 * np.pi * (mx * X + my * Y) + p)
                 for amp, (mx, my), p in zip(amps, modes, ph))
        lhs, rhs = lorentz_interpolation_check(vv, 1 / 64)
        ok_interp = ok_interp and lhs <= rhs
        worst = max(worst, lhs / rhs)
    low = 0.98 * 0.791
    report(9, f"Lorentz indicator equalities exact; interpolation with K2={INTERP_K2}, "
              f"peak lhs / rhs in [{low:.3f}, 1]",
           eq1 and eq2 and eq3 and ok_interp and worst >= low,
           f"(peak lhs / rhs {worst:.4f})")


@pytest.mark.parametrize("manifest,count,depth", [("two", 2, 1), ("three", 3, 2)])
def test_10_quantization(manifest, count, depth):
    t0 = time.monotonic()
    seq = bundled_sequence(manifest)
    residuals = []
    final = None
    for ell in range(8, 13):
        tree, rep = quantize(seq, [ell - 1, ell], QuantizeConfig())
        residuals.append(rep["residual_neck_energy"])
        if ell == 12:
            final = (tree, rep)
    elapsed = time.monotonic() - t0
    tree, rep = final
    theta = rep["theta"]
    count_ok = rep["bubble_count"] == count and tree.depth() == depth
    gap_ok = rep["abs_gap"] <= 0.02 * theta
    resid_ok = rep["residual_neck_energy"] <= 0.05 * theta
    monotone_ok = all(b <= a * (1 + 1e-6) + 1e-12
                      for a, b in zip(residuals, residuals[1:]))
    ok = count_ok and gap_ok and resid_ok and monotone_ok and elapsed < 300.0
    report(10, f"quantization on the {manifest}-bubble manifest at l=12",
           ok, f"(count {rep['bubble_count']}, gap {rep['abs_gap']/theta*100:.2f}%, "
               f"residual {rep['residual_neck_energy']/theta*100:.2f}%, "
               f"residuals {['%.3f' % r for r in residuals]}, {elapsed:.0f}s)")


def test_11_structure_recovery_and_calibration():
    rng = np.random.default_rng(11)
    worst_abc = 0.0
    for _ in range(1000):
        abc = rng.normal(size=3)
        abc /= np.linalg.norm(abc)
        s = SphereStructure(*abc)
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        scale = rng.uniform(0.2, 3.0)
        du = np.stack([scale * w, -scale * (s.matrix(S1) @ w)], axis=1)
        got, _ = bubble_structure(du)
        worst_abc = max(worst_abc, float(np.max(np.abs(got.as_array() - abc))))

    worst_defect = 0.0
    zero_worst = 0.0
    planes = rng.normal(size=(100_000, 2, 4))
    abcs = rng.normal(size=(100_000, 3))
    abcs /= np.linalg.norm(abcs, axis=1, keepdims=True)
    J_mats = np.einsum("pk,kij->pij", abcs,
                       np.stack([S1.i_mat, S1.j_mat, S1.k_mat]))
    e1 = planes[:, 0] / np.linalg.norm(planes[:, 0], axis=1, keepdims=True)
    v = planes[:, 1] - np.einsum("pi,pi->p", planes[:, 1], e1)[:, None] * e1
    e2 = v / np.linalg.norm(v, axis=1, keepdims=True)
    defects = 1.0 - np.einsum("pij,pj,pi->p", J_mats, e1, e2)
    worst_defect = float(defects.min())
    # holomorphic planes e2 = J e1 give defect 0 exactly
    holo = np.einsum("pij,pj->pi", J_mats, e1)
    zero_worst = float(np.max(np.abs(1.0 - np.einsum("pi,pi->p", holo, holo))))
    # spot-check the vectorized sweep against the API on a few planes
    spot = max(abs(calibration_defect(e1[p], e2[p], SphereStructure(*abcs[p])) - defects[p])
               for p in range(0, 100_000, 20_000))
    ok = worst_abc < 1e-8 and worst_defect >= -1e-12 and zero_worst < 1e-12 and spot < 1e-12
    report(11, "structure recovery 1e-8 on 1000 jets; Wirtinger defect >= -1e-12 "
               "on 1e5 planes, zero on holomorphic planes",
           ok, f"(abc err {worst_abc:.1e}, min defect {worst_defect:.1e}, "
               f"holo {zero_worst:.1e}, API spot check {spot:.1e})")


def test_12_determinism(tmp_path, capsys):
    pairs = []
    for name, argv in (
        ("identity", ["identity-check", "--jets", "200", "--seed", "5"]),
        ("norms", ["norms", "--fields", "10", "--grid", "24", "--seed", "5"]),
        ("bubbles", ["extract-bubbles", "--manifest", "two", "--ell", "8"]),
    ):
        outs = []
        for k in (0, 1):
            path = tmp_path / f"{name}_{k}.json"
            code = main(argv + ["--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        pairs.append(outs[0] == outs[1])
    capsys.readouterr()
    report(12, "fixed seed gives byte-identical CLI reports", all(pairs),
           f"(identity/norms/bubbles: {pairs})")


# criterion 13's deformation: a bump of radius 0.3 centred off the grid's
# centre, since a centred bump pairs to exactly 0 with every field whose
# energy density is even under x -> -x
STATIONARY_CENTRE = np.array([0.01, -0.01, 0.005, 0.008])


def shifted_bump(p):
    r2 = np.sum((p - STATIONARY_CENTRE) ** 2, axis=-1) / 0.09
    return (np.exp(-np.clip(r2, 0, 50.0)) * (r2 < 1.0))[..., None] * np.ones(4)


def non_stationary_field(p):
    """(x0 |x|^2, x1^2, x2 x3, sin 3 x0): not harmonic, and not stationary."""
    x0, x1, x2, x3 = np.moveaxis(p, -1, 0)
    return np.stack([x0 * np.sum(p * p, axis=-1), x1**2, x2 * x3, np.sin(3 * x0)], axis=-1)


def _variation_ratio(fn, nodes):
    """(dE / E under the shifted bump, h) on a grid of `nodes` per axis."""
    u = GridField.from_function(fn, 1, 1, nodes, domain="box", L=0.5)
    return domain_variation_derivative(u, shifted_bump) / dirichlet_energy(u), u.h


def _two_grid(fn):
    """(the ratios at 17 and 25 nodes, their slope in h; NaN if one is 0)."""
    (r0, h0), (r1, h1) = _variation_ratio(fn, 17), _variation_ratio(fn, 25)
    slope = math.log(abs(r0 / r1)) / math.log(h0 / h1) if r0 and r1 else math.nan
    return (r0, r1), slope


def test_13_stationarity():
    # triholomorphic maps between flat hyperKaehler spaces are stationary:
    # exact to rounding where the differences read u exactly (degree <= 2),
    # O(h^2) at degree 4 (slopes measured 2.81 and 2.99), while the
    # non-stationary field keeps a first variation near 1% (slope 0.44)
    t0 = time.monotonic()
    suite = triholomorphic_suite()  # (seed, degree): (0, 1) (1, 2) (2, 2) (3, 4) (4, 4)
    exact = max(abs(_variation_ratio(poly, 17)[0]) for poly in suite[:3])
    slopes = [_two_grid(poly)[1] for poly in suite[3:]]
    control, control_slope = _two_grid(non_stationary_field)
    elapsed = time.monotonic() - t0
    ok = (exact <= 1e-12 and all(s >= 2.0 for s in slopes)
          and min(abs(r) for r in control) >= 2e-3 and not control_slope >= 2.0)
    report(13, "first variation dE/E <= 1e-12 at degree <= 2, degree 4 slope >= 2 "
               "(17 -> 25 nodes); a non-stationary field >= 2e-3 with slope < 2",
           ok, f"(max {exact:.1e}, slopes {', '.join(f'{s:.2f}' for s in slopes)}, "
               f"control {', '.join(f'{r:.2e}' for r in control)} "
               f"slope {control_slope:.2f}, {elapsed:.1f}s)")
