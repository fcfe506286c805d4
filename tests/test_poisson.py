import math
import tracemalloc

import numpy as np
import pytest

from oracles import exact_w21_and_energy

from fueterlab import poisson, stencil
from fueterlab.fields import GridField, dirichlet_energy, triholomorphic_suite
from fueterlab.norms import ScalarGrid
from fueterlab.poisson import (
    NonContractionError,
    NotConvergedError,
    PerturbedProblem,
    W21_SUITE_C,
    contraction_step,
    default_problem,
    fixed_point_solve,
    manufactured_problem,
    poisson_solve,
    radial_cutoff,
    smoothstep,
    w21_norm,
)
from fueterlab.poisson import _median, _rhs_operator, _smooth_random, _w11


def test_poisson_solve_zero_and_eigenmode():
    N, h = 16, 1.0 / 16
    z = ScalarGrid(np.zeros((N,) * 4), h)
    assert np.all(poisson_solve(z).values == 0.0)
    # a single Fourier mode is an eigenfunction of the discrete Laplacian with
    # eigenvalue (2 cos(2 pi k h) - 2)/h^2 (the continuum value -(2 pi k)^2
    # only up to O(h^2))
    x = np.arange(N) * h
    mesh = np.meshgrid(*([x] * 4), indexing="ij")
    k = 2
    f = np.sin(2 * np.pi * k * mesh[0])
    lam = (2.0 * np.cos(2.0 * np.pi * k * h) - 2.0) / h**2
    v = poisson_solve(ScalarGrid(f, h))
    assert np.max(np.abs(v.values - f / lam)) < 1e-12


def test_poisson_solve_residual_roundtrip():
    rng = np.random.default_rng(0)
    N, h = 12, 1.0 / 12
    f = ScalarGrid(rng.normal(size=(N,) * 4), h)
    v = poisson_solve(f)
    target = f.values - f.values.mean()
    assert np.max(np.abs(stencil.laplacian(stencil.wrap(v.values), h) - target)) < 1e-10
    assert abs(v.values.mean()) < 1e-13


def test_contraction_step_unperturbed_is_inverse_laplacian():
    N, h = 16, 1.0 / 16
    shape = (N,) * 4
    rng = np.random.default_rng(1)
    # chi identically 1 on the support of f, mu = tau = 0
    chi = radial_cutoff(shape, h, 0.35, 0.47)
    src = rng.normal(size=shape) * radial_cutoff(shape, h, 0.1, 0.2)
    P = PerturbedProblem(chi, np.zeros((4, 4)), np.zeros(4), ScalarGrid(src, h))
    w0 = ScalarGrid(np.zeros(shape), h)
    v = contraction_step(w0, P)
    want = poisson_solve(ScalarGrid(chi * src, h))
    assert np.max(np.abs(v.values - want.values)) < 1e-12
    # w = 0, f = 0 -> 0
    P0 = PerturbedProblem(chi, np.zeros((4, 4)), np.zeros(4),
                          ScalarGrid(np.zeros(shape), h))
    assert np.all(contraction_step(w0, P0).values == 0.0)


def _rhs_reference(w, P):
    """The cutoff-equation right-hand side term by term, every P-only term
    rebuilt on each call."""
    h = P.f.h
    d = P.f.d
    chi = P.chi
    sq = P.sqrt_g if P.sqrt_g is not None else 1.0
    out = stencil.laplacian(stencil.wrap(chi), h) * w
    for a in range(d):
        out += stencil.d1(stencil.wrap(chi), a, h) * stencil.d1(stencil.wrap(w), a, h)
    for i in range(d):
        for j in range(d):
            mu_ij = np.broadcast_to(P.mu[i, j], w.shape)
            if np.any(mu_ij):
                out -= chi * mu_ij * stencil.d2(stencil.wrap(w), i, j, h)
    for j in range(d):
        tau_j = np.broadcast_to(P.tau[j], w.shape)
        if np.any(tau_j):
            out -= chi * tau_j * stencil.d1(stencil.wrap(w), j, h)
    out += chi * sq * P.f.values
    return out


@pytest.mark.parametrize("make", ["default", "manufactured", "constant", "sqrt_g", "table"])
def test_rhs_operator_matches_reference_bitwise(make):
    rng = np.random.default_rng(4)
    if make == "default":
        P = default_problem(N=12, magnitude=0.05, seed=3)
    elif make == "manufactured":
        P, _ = manufactured_problem(N=12, magnitude=0.05, seed=1)
    elif make == "table":
        # scalar and grid entries, one grid at a symmetric pair, a zero entry,
        # and a tau keyed by j
        shape = (10,) * 4
        bump = 0.01 * rng.normal(size=shape)
        mu = {(i, j): 0.02 if i == j else 0.0 for i, j in np.ndindex(4, 4)}
        mu[0, 2] = mu[2, 0] = bump
        mu[1, 3] = -0.01
        tau = {0: 0.0, 1: 0.03 * rng.normal(size=shape), 2: 0.01, 3: 0.0}
        P = _small_problem(N=10, mu=mu, tau=tau, sqrt_g=1.5)
    else:
        N, h = 10, 1.0 / 10
        shape = (N,) * 4
        mu = np.diag([0.05, 0.0, 0.03, 0.0])
        mu[0, 2] = mu[2, 0] = 0.01  # a symmetric pair and an asymmetric one
        mu[1, 3], mu[3, 1] = 0.02, -0.02
        P = PerturbedProblem(radial_cutoff(shape, h, 0.3, 0.47), mu,
                             np.array([0.0, 0.02, 0.0, -0.01]),
                             ScalarGrid(rng.normal(size=shape), h),
                             **({"sqrt_g": 1.0 + 0.1 * rng.random(shape)}
                                if make == "sqrt_g" else {}))
    rhs = _rhs_operator(P)
    for _ in range(3):
        w = rng.normal(size=P.f.values.shape)
        assert np.array_equal(rhs(w), _rhs_reference(w, P))


def test_fixed_point_zero_source_one_iteration():
    N, h = 12, 1.0 / 12
    shape = (N,) * 4
    chi = radial_cutoff(shape, h, 0.3, 0.45)
    P = PerturbedProblem(chi, np.zeros((4, 4)), np.zeros(4),
                         ScalarGrid(np.zeros(shape), h))
    v, stats = fixed_point_solve(P, tol=1e-12)
    assert stats["iterations"] == 1
    assert np.all(v.values == 0.0)


def test_fixed_point_contraction_small_coefficients():
    P = default_problem(N=16, magnitude=0.05, seed=0)
    largest = max(np.abs(c).max() for c in P.mu.values())
    assert largest <= 0.1 and max(np.abs(c).max() for c in P.tau.values()) <= 0.1
    v, stats = fixed_point_solve(P, tol=1e-10, max_iter=120)
    assert stats["contraction"] < 0.5
    assert stats["residual"] < 10 * 1e-10


def test_fixed_point_manufactured_solution():
    P, w_star = manufactured_problem(N=16, magnitude=0.05, seed=1)
    v, stats = fixed_point_solve(P, tol=1e-12, max_iter=200)
    err = np.abs(v.values - w_star).max() / np.abs(w_star).max()
    assert err < 1e-6
    # geometric decrease of the increments at the measured ratio
    ratios = stats["ratios"]
    assert max(ratios[3:]) < 0.7


def test_fixed_point_non_contraction_diagnosed():
    # mu = identity at magnitude 1.0: the scheme reproduces -w on functions
    # supported in {chi = 1}, an exact eigenvalue of modulus 1
    N, h = 16, 1.0 / 16
    shape = (N,) * 4
    chi = radial_cutoff(shape, h, 0.3, 0.47)
    mu = np.zeros((4, 4) + shape)
    for i in range(4):
        mu[i, i] = 1.0
    src = np.zeros(shape)
    src[N // 2, N // 2, N // 2, N // 2] = 0.01
    P = PerturbedProblem(chi, mu, np.zeros((4,) + shape), ScalarGrid(src, h))
    assert max(np.abs(c).max() for c in P.mu.values()) > 0.1
    with pytest.raises(NonContractionError):
        fixed_point_solve(P, tol=1e-10, max_iter=60)


def test_w21_norm_cases():
    c = 2.5
    const = GridField.from_function(lambda p: np.full(p.shape, c / 2.0), 1, 1, 13,
                                    L=0.5, materialize=True)
    # |u| = c per node (4 components of c/2 -> norm c), no gradient terms
    got = w21_norm(const)
    h = const.h
    vol = (9 * h) ** 4  # interior nodes 2..10
    assert abs(got - c * vol) < 1e-10
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    aff = GridField.from_function(lambda p: p @ A.T, 1, 1, 13, L=0.5, materialize=True)
    # affine: |u| + |grad u| terms only; hessian vanishes
    w = w21_norm(aff)
    assert w > 0
    # and the hessian really contributes 0: compare against direct sums
    vals = aff.values
    lap = stencil.laplacian(vals[..., 0], aff.h)  # the 1-interior
    assert np.max(np.abs(lap[1:-1, 1:-1, 1:-1, 1:-1])) < 1e-9


def _parent_w21_norm(u: GridField) -> float:
    """sum over interior nodes of (|u| + |grad u| + |grad^2 u|) h^{4m},
    with central first and second (incl. mixed) differences."""
    vals = u.values
    d = u.dim
    h = u.h
    grad_sq = 0.0
    hess_sq = 0.0
    for a in range(d):
        grad_sq = grad_sq + np.sum(stencil.d1(vals, a, h, d) ** 2, axis=-1)
        for b in range(d):
            hess_sq = hess_sq + np.sum(stencil.d2(vals, a, b, h, d) ** 2, axis=-1)
    # the differences cover the 1-interior, and the sum runs over the
    # 2-interior: one more layer in from there
    sl = (slice(1, -1),) * d
    absu = np.linalg.norm(vals[sl][sl], axis=-1)
    total = absu + np.sqrt(grad_sq)[sl] + np.sqrt(hess_sq)[sl]
    return float(total.sum() * h**d)


@pytest.mark.parametrize("m, n, domain, nodes, dense", [
    (1, 1, "box", 9, True),  # 5 interior planes: 3 windows
    (1, 1, "box", 7, False),  # 2 windows, fewer than the 4 CPUs
    (1, 2, "box", 7, True),
    (1, 1, "box", 5, False),  # one interior plane: one window
    (2, 1, "box", 6, True),  # one window
])
def test_w21_norm_matches_the_parent_implementation_bitwise(m, n, domain, nodes, dense,
                                                            workers):
    A = np.random.default_rng(nodes).normal(size=(4 * n, 4 * m))
    u = GridField.from_function(lambda p: np.sin(p @ A.T), m, n, nodes, domain=domain,
                                materialize=dense)
    # the whole-grid parent materializes its field, so it reads a copy
    want = _parent_w21_norm(GridField.from_function(u._fn, m, n, nodes, domain=domain))
    for cpus in (1, 4):
        workers(cpus)
        got = w21_norm(u)
        assert got > 0.0
        assert got == want
    assert (u._values is not None) == dense


def test_w21_regression_bound_over_suite():
    worst = 0.0
    for poly in triholomorphic_suite():
        for nodes in (13, 21):
            u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.5,
                                        materialize=True)
            ratio = w21_norm(u) / (1.0 + dirichlet_energy(u))
            assert ratio <= W21_SUITE_C
            worst = max(worst, ratio)
    # two-sided: a norm that reads too little fails as one that reads too much;
    # the suite's peak ratio was measured as 1.270 (at 21 nodes)
    assert worst >= 0.98 * 1.270


def test_w21_norm_and_energy_match_exact_derivatives():
    # central differences are exact on quadratics, so the degree <= 2 members
    # agree to rounding (measured: |gap| <= 3.1e-14 for w21, <= 2.5e-16 for the
    # energy); on the degree-4 members the differencing error is positive and
    # O(h^2) (measured two-grid slopes 2.09-2.31)
    for k, poly in enumerate(triholomorphic_suite()):
        gaps = []
        for nodes in (13, 21):
            u = GridField.from_function(poly, 1, 1, nodes, domain="box", L=0.5,
                                        materialize=True)
            w21, energy = exact_w21_and_energy(poly, nodes)
            gaps.append([(w21_norm(u) - w21) / w21, (dirichlet_energy(u) - energy) / energy])
        gaps = np.array(gaps)  # (grid, [w21, energy])
        if k < 3:
            assert np.all(np.abs(gaps) <= [1e-12, 1e-14])
        else:
            assert np.all(gaps > 0)
            slopes = np.log(gaps[0] / gaps[1]) / math.log(20 / 12)  # h = 1/12, 1/20
            assert np.all((1.9 < slopes) & (slopes < 2.5))


def test_domain_doubling_truncation_control():
    # the torus stands in for 'boundary data 0 at infinity': doubling the
    # domain around the same absolutely-sized problem barely moves the
    # solution (spectral truncation is controlled)
    h = 1.0 / 16
    rng = np.random.default_rng(9)

    def build(N):
        shape = (N,) * 4
        L = N * h
        center = np.full(4, L / 2.0)
        chi = radial_cutoff(shape, h, 0.15, 0.35, center=center)
        axes = [np.arange(N) * h for _ in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        rho = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, center)))
        src = np.exp(-((rho / 0.1) ** 2)) * (rho < 0.3)
        src -= src.mean()
        return PerturbedProblem(chi, np.zeros((4, 4)), np.zeros(4),
                                ScalarGrid(src, h))

    v16, _ = fixed_point_solve(build(16), tol=1e-11, max_iter=100)
    v20, _ = fixed_point_solve(build(20), tol=1e-11, max_iter=100)
    # compare on the common block around the (shifted) center
    c16, c20 = 8, 10
    w = 4
    sl16 = tuple(slice(c16 - w, c16 + w) for _ in range(4))
    sl20 = tuple(slice(c20 - w, c20 + w) for _ in range(4))
    a = v16.values[sl16] - v16.values[sl16].mean()
    b = v20.values[sl20] - v20.values[sl20].mean()
    scale = np.abs(a).max()
    assert np.abs(a - b).max() < 0.05 * scale


# verbatim copies of the meshgrid set-up that the broadcast axes replaced


def _mesh_radial_cutoff(shape, h, inner, outer, center=None):
    d = len(shape)
    if center is None:
        center = np.full(d, shape[0] * h / 2.0)
    axes = [np.arange(N) * h for N in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    rho = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, center)))
    return 1.0 - smoothstep((rho - inner) / (outer - inner))


def _mesh_smooth_random(shape, h, rng, modes=4):
    axes = [np.arange(N) * h for N in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    L = shape[0] * h
    out = np.zeros(shape)
    for _ in range(modes):
        kvec = rng.integers(1, 3, size=len(shape))
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.normal()
        arg = sum(2 * np.pi * k * m / L for k, m in zip(kvec, mesh)) + phase
        out += amp * np.sin(arg)
    return out / max(1e-12, np.abs(out).max())


@pytest.mark.parametrize("shape", [(9,), (7, 5), (6, 6, 4), (8,) * 4, (5, 6, 7, 4)])
def test_problem_set_up_matches_the_meshgrid_forms_bitwise(shape):
    for h in (1.0 / shape[0], 0.37):
        for seed in (0, 3):
            got = _smooth_random(shape, h, np.random.default_rng(seed))
            assert np.array_equal(got, _mesh_smooth_random(shape, h, np.random.default_rng(seed)))
        L = shape[0] * h
        centers = (None, np.linspace(0.2, 0.6, len(shape)) * L)
        for center in centers:
            got = radial_cutoff(shape, h, 0.2 * L, 0.45 * L, center=center)
            assert np.array_equal(got, _mesh_radial_cutoff(shape, h, 0.2 * L, 0.45 * L, center))


def test_w11_matches_the_torus_differences_bitwise():
    v = np.random.default_rng(2).normal(size=(6, 5, 7, 4))
    h = 0.21
    want = np.abs(v).sum()
    for a in range(v.ndim):
        want += np.abs(stencil.d1(stencil.wrap(v), a, h)).sum()
    assert _w11(v, h) == float(want * h**v.ndim)


# verbatim copies of the solver that stored every chi mu_ij and chi tau_j
# product and allocated its temporaries on each sweep


def _laplacian_symbol(shape, h):
    sym = 0.0
    for a, N in enumerate(shape):
        k = np.fft.fftfreq(N) * N
        lam = (2.0 * np.cos(2.0 * np.pi * k / N) - 2.0) / h**2
        shp = [1] * len(shape)
        shp[a] = N
        sym = sym + lam.reshape(shp)
    return sym


def _parent_poisson_solve(f: ScalarGrid) -> ScalarGrid:
    """Solve the central-difference Laplace equation on the torus:
    Delta_h v = f - mean(f) with mean(v) = 0."""
    vals = f.values
    shape = vals.shape
    sym = _laplacian_symbol(shape, f.h)
    F = np.fft.fftn(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        V = np.where(np.abs(sym) > 1e-300, F / sym, 0.0)
    V[(0,) * vals.ndim] = 0.0
    v = np.real(np.fft.ifftn(V))
    return f.like(v)


def _parent_coef(arr, ij, shape):
    c = arr[ij]
    return c if np.ndim(c) else np.full(shape, float(c))


def _parent_rhs_operator(P: PerturbedProblem):
    """w -> RHS(w) of the cutoff equation.  The terms that depend on P alone
    are built here, once; each call pads w once, periodically, so that every
    neighbour its differences take is a slice of that one copy."""
    h = P.f.h
    d = P.f.d
    chi = P.chi
    sq = P.sqrt_g if P.sqrt_g is not None else 1.0
    lap_chi = stencil.laplacian(stencil.wrap(chi), h)
    d1_chi = [stencil.d1(stencil.wrap(chi), a, h) for a in range(d)]
    chi_mu = {}
    for i, j in np.ndindex(d, d):
        mu_ij = _parent_coef(P.mu, (i, j), chi.shape)
        if np.any(mu_ij):
            # a symmetric mu shares one product per pair, to hold less memory
            twin = chi_mu.get((j, i))
            same = twin is not None and np.array_equal(mu_ij, _parent_coef(P.mu, (j, i), chi.shape))
            chi_mu[i, j] = twin if same else chi * mu_ij
    chi_tau = []
    for j in range(d):
        tau_j = _parent_coef(P.tau, j, chi.shape)
        if np.any(tau_j):
            chi_tau.append((j, chi * tau_j))
    source = chi * sq * P.f.values

    def rhs(w):
        # on the padded copy the box differences are the torus ones
        wp = np.pad(w, 1, mode="wrap")
        out = lap_chi * w
        for a in range(d):
            out += d1_chi[a] * stencil.d1(wp, a, h)
        for (i, j), c in chi_mu.items():
            out -= c * stencil.d2(wp, i, j, h)
        for j, c in chi_tau:
            out -= c * stencil.d1(wp, j, h)
        out += source
        return out

    return rhs


def _parent_contraction_step(w: ScalarGrid, P: PerturbedProblem) -> ScalarGrid:
    """One sweep of the scheme: solve Delta v = RHS(w) with RHS built from the
    cutoff terms, the small coefficients, and the source (all derivatives
    central)."""
    if w.values.shape != P.f.values.shape:
        raise ValueError("iterate must live on the problem grid")
    return _parent_poisson_solve(P.f.like(_parent_rhs_operator(P)(w.values)))


def _parent_w11(v, h):
    d = v.ndim
    total = np.abs(v).sum()
    # on the padded copy the box differences are the torus ones
    vp = np.pad(v, 1, mode="wrap")
    for a in range(d):
        total += np.abs(stencil.d1(vp, a, h)).sum()
    return float(total * h**d)


def _parent_fixed_point_solve(P: PerturbedProblem, tol=1e-10, max_iter=100):
    """Iterate v_{k+1} = contraction_step(v_k) from v_0 = 0 until the W^{1,1}
    distance of consecutive iterates drops below tol.

    Returns (v, stats) with the measured contraction ratio and the final
    residual of the cutoff equation; raises NonContractionError when the
    ratios sit at or above 1 for three consecutive steps, or when the
    iteration stalls without converging.
    """
    h = P.f.h
    v = np.zeros_like(P.f.values)
    prev_diff = None
    ratios = []
    flat_count = 0
    rhs = _parent_rhs_operator(P)
    for it in range(1, max_iter + 1):
        v_next = _parent_poisson_solve(P.f.like(rhs(v))).values
        diff = _parent_w11(v_next - v, h)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
            ratios.append(ratio)
            flat_count = flat_count + 1 if ratio >= 0.9999 else 0
            if flat_count >= 3:
                raise NonContractionError(
                    f"non-contraction: ratio held at {ratio:.4f} for 3 steps", ratios
                )
        prev_diff = diff
        v = v_next
        if diff < tol:
            # residual of the cutoff equation, in the L1 metric matching the
            # W^{1,1} convergence norm; keep sweeping until it clears 10 tol
            res_field = stencil.laplacian(stencil.wrap(v), h) - _parent_centered(rhs(v))
            residual = float(np.abs(res_field).sum() * h**v.ndim)
            if residual >= 10.0 * tol and it < max_iter:
                continue
            stats = {
                "iterations": it,
                "contraction": float(np.median(ratios[-5:])) if ratios else 0.0,
                "ratios": ratios,
                "residual": residual,
            }
            return P.f.like(v), stats
    last = ratios[-1] if ratios else float("inf")
    if last >= 0.9:
        raise NonContractionError(
            f"non-contraction: stalled after {max_iter} iterations at ratio {last:.4f}",
            ratios,
        )
    raise RuntimeError(
        f"did not reach tol={tol} in {max_iter} iterations (ratio {last:.4f}); "
        "increase max_iter"
    )


def _parent_centered(v):
    return v - v.mean()


def _oracle_problem(make):
    if make == "default":
        return default_problem(N=12, seed=3)
    if make == "manufactured":
        return manufactured_problem(N=12, seed=1)[0]
    # constant (d, d) mu with a symmetric pair, an asymmetric one and zeros,
    # constant tau, and a sqrt(det g) weight
    N, h = 10, 1.0 / 10
    shape = (N,) * 4
    rng = np.random.default_rng(7)
    mu = np.diag([0.05, 0.0, 0.03, 0.04])
    mu[0, 2] = mu[2, 0] = 0.01
    mu[1, 3], mu[3, 1] = 0.02, -0.02
    src = rng.normal(size=shape) * radial_cutoff(shape, h, 0.1, 0.3)
    return PerturbedProblem(radial_cutoff(shape, h, 0.3, 0.47), mu,
                            np.array([0.0, 0.02, 0.0, -0.01]), ScalarGrid(src, h),
                            sqrt_g=1.0 + 0.1 * rng.random(shape))


def _assert_solves_as_the_parent(P):
    v, stats = fixed_point_solve(P)
    want_v, want_stats = _parent_fixed_point_solve(P)
    assert stats["iterations"] > 3
    assert v.values.tobytes() == want_v.values.tobytes()
    assert v.values.flags.c_contiguous
    assert stats.keys() == want_stats.keys()
    for key, want in want_stats.items():
        assert np.asarray(stats[key]).tobytes() == np.asarray(want).tobytes(), key


@pytest.mark.parametrize("make", ["default", "manufactured", "constant"])
def test_fixed_point_solve_matches_the_parent_implementation_bitwise(make):
    _assert_solves_as_the_parent(_oracle_problem(make))


@pytest.mark.parametrize("N", [9, 11, 20])
def test_fixed_point_solve_matches_the_parent_on_any_number_of_planes(N):
    # blocks of _RHS_PLANES planes divide 20 but neither 9 nor 11
    _assert_solves_as_the_parent(default_problem(N=N, seed=3))


def test_median_is_numpys_median_bitwise():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for _ in range(200):
            xs = list(rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, size=n))
            assert _median(xs) == float(np.median(xs))
            assert _median(xs) == _median(xs[::-1])
    assert _median([0.3, 0.3 + 2**-54]) == float(np.median([0.3, 0.3 + 2**-54]))


def _parent_smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def test_smoothstep_into_out_matches_the_parent_bitwise():
    s = np.random.default_rng(4).uniform(-0.5, 1.5, size=(7, 9, 5))
    want = _parent_smoothstep(s).tobytes()
    assert smoothstep(s).tobytes() == want
    out = np.empty_like(s)
    assert smoothstep(s, out=out) is out and out.tobytes() == want
    assert smoothstep(s, out=s) is s and s.tobytes() == want
    for x in (-0.2, 0.0, 0.3, 1.0, 2.0):
        assert smoothstep(x) == _parent_smoothstep(x)


@pytest.mark.parametrize("shape", [(9,), (6, 5), (7, 4, 5, 6), (8,) * 4, (11,) * 4])
def test_poisson_solve_matches_the_parent_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    f = ScalarGrid(rng.normal(size=shape), 0.37)
    want = _parent_poisson_solve(f).values.tobytes()
    v = poisson_solve(f).values
    assert v.tobytes() == want and v.flags.c_contiguous
    # into the caller's buffers, whatever they held
    spectrum, out = np.full(shape, np.nan, complex), np.full(shape, np.nan)
    assert poisson_solve(f, spectrum, out).values is out
    assert out.tobytes() == want
    # with f's values already in the spectrum's real part
    spectrum.real, spectrum.imag = f.values, np.nan
    assert poisson_solve(f.like(spectrum.real), spectrum, out).values.tobytes() == want
    # and v left there, as the fixed point solves: no grid in or out
    spectrum.real, spectrum.imag = f.values, np.nan
    v = poisson_solve(f.like(spectrum.real), spectrum, spectrum.real).values
    assert v.tobytes() == want and np.shares_memory(v, spectrum)


@pytest.mark.parametrize("make", ["default", "manufactured", "constant"])
def test_contraction_step_matches_the_parent_implementation_bitwise(make):
    P = _oracle_problem(make)
    rng = np.random.default_rng(5)
    for scale in (0.0, 1.0, 1e-3):
        w = P.f.like(scale * rng.normal(size=P.f.values.shape))
        got = contraction_step(w, P).values
        assert got.flags.c_contiguous and got.base is None
        assert got.tobytes() == _parent_contraction_step(w, P).values.tobytes()


def test_non_contraction_matches_the_parent_implementation():
    N, h = 10, 1.0 / 10
    shape = (N,) * 4
    mu = np.zeros((4, 4) + shape)
    for i in range(4):
        mu[i, i] = 1.0
    src = np.zeros(shape)
    src[N // 2, N // 2, N // 2, N // 2] = 0.01
    P = PerturbedProblem(radial_cutoff(shape, h, 0.3, 0.47), mu, np.zeros((4,) + shape),
                         ScalarGrid(src, h))
    with pytest.raises(NonContractionError) as got:
        fixed_point_solve(P, max_iter=40)
    with pytest.raises(NonContractionError) as want:
        _parent_fixed_point_solve(P, max_iter=40)
    assert str(got.value) == str(want.value)
    assert got.value.ratios == want.value.ratios


def test_fixed_point_solve_raises_when_tol_is_out_of_reach():
    with pytest.raises(NotConvergedError, match="did not reach tol") as got:
        fixed_point_solve(default_problem(N=8, seed=1), tol=1e-30, max_iter=3)
    assert not isinstance(got.value, NonContractionError)
    assert len(got.value.ratios) == 2 and max(got.value.ratios) < 0.9


def test_fixed_point_solve_holds_a_fixed_set_of_grid_buffers():
    # beyond the problem's own arrays a solve holds three whole grids: the
    # iterate and one complex spectrum, whose real part takes the next
    # iterate and whose imaginary part is scratch; chi and w are wrapped per
    # block of planes: 4.37 grids at N = 16.  With a separate next-iterate
    # grid it peaked at 5.24, with chi and w padded whole (1.6 grids each)
    # and the spectral solve's own grids at 11.1, with Delta chi, the d_a chi
    # and the source stored whole at 16.1, and with its chi mu_ij and
    # chi tau_j products stored at 32.4.  A first solve makes the imports
    # the solve's first call would otherwise count
    fixed_point_solve(default_problem(N=6, seed=3))
    N = 16
    P = default_problem(N=N, seed=3)
    tracemalloc.start()
    try:
        fixed_point_solve(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * N**4) <= 4.5


@pytest.mark.parametrize("planes", [1, 2, 3, 5, 40])
@pytest.mark.parametrize("make, N", [("default", 9), ("default", 12), ("manufactured", 11),
                                     ("constant", 10)])
def test_rhs_operator_matches_the_parent_over_any_block_of_planes(make, N, planes,
                                                                   monkeypatch):
    # blocks of 1, 2, 3 and 5 planes divide some of these N and not others,
    # and 40 planes make one block of the whole grid
    monkeypatch.setattr(poisson, "_RHS_PLANES", planes)
    if make == "default":
        P = default_problem(N=N, seed=3)
    elif make == "manufactured":
        P = manufactured_problem(N=N, seed=1)[0]
    else:
        P = _oracle_problem("constant")
    rng = np.random.default_rng(N)
    rhs, want = _rhs_operator(P), _parent_rhs_operator(P)
    for _ in range(2):  # a second call reuses the operator's buffers
        w = rng.normal(size=P.f.values.shape)
        assert rhs(w).tobytes() == want(w).tobytes()


def _expanded(P):
    """P with its mu table written out as the full (4, 4, *dims) array."""
    shape = P.f.values.shape
    mu = np.empty((4, 4) + shape)
    for i, j in np.ndindex(4, 4):
        mu[i, j] = P.mu[i, j]
    return PerturbedProblem(P.chi, mu, P.tau, P.f, P.sqrt_g)


@pytest.mark.parametrize("make", ["default", "manufactured"])
def test_coefficient_table_solves_as_the_full_array_bitwise(make):
    P = _oracle_problem(make)
    full = _expanded(P)
    assert all(c.shape == P.f.values.shape for c in full.mu.values())
    v, stats = fixed_point_solve(P)
    want_v, want_stats = fixed_point_solve(full)
    assert stats["iterations"] > 3
    assert v.values.tobytes() == want_v.values.tobytes()
    assert stats.keys() == want_stats.keys()
    for key, want in want_stats.items():
        assert np.asarray(stats[key]).tobytes() == np.asarray(want).tobytes(), key


def test_canned_problems_hold_each_coefficient_once():
    P = default_problem(N=8, seed=3)
    assert all(P.mu[i, i].shape == () for i in range(4))
    assert len({id(c) for c in P.mu.values() if c.shape}) == 6
    P, _ = manufactured_problem(N=8, seed=1)
    assert len({id(c) for c in P.mu.values()}) == 10
    for i, j in np.ndindex(4, 4):
        assert P.mu[i, j] is P.mu[j, i]


def test_default_problem_holds_a_table_not_16_grids():
    # chi, 6 bump grids, 4 tau grids and the source, with the constant
    # diagonal held as scalars: 13.45 grids held and a 16.45-grid peak while
    # it first builds at N = 16 (15.0 on later builds), its grids built in
    # place; 18.45 with a temporary per operation, and 23.45 and 29.45 with
    # the full (4, 4, *dims) mu
    N = 16
    tracemalloc.start()
    try:
        P = default_problem(N=N, seed=3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / (8 * N**4) <= 14.0
    assert peak / (8 * N**4) <= 17.0


def _small_problem(N=8, **changes):
    """A valid problem on an N^4 grid, with the given arguments changed."""
    h = 1.0 / N
    shape = (N,) * 4
    rng = np.random.default_rng(6)
    args = dict(chi=radial_cutoff(shape, h, 0.3, 0.47),
                mu={(i, j): 0.01 for i, j in np.ndindex(4, 4)},
                tau=np.full(4, 0.02), f=ScalarGrid(rng.normal(size=shape), h))
    args.update(changes)
    return PerturbedProblem(**args)


@pytest.mark.parametrize("bad, named", [
    ({"mu": np.zeros((4, 4) + (7,) * 4)}, r"mu\[0, 0\] has shape \(7, 7, 7, 7\)"),
    ({"mu": {**{k: 0.0 for k in np.ndindex(4, 4)}, (2, 1): np.zeros((8, 8))}},
     r"mu\[2, 1\] has shape \(8, 8\)"),
    ({"mu": {k: 0.0 for k in np.ndindex(4, 4) if k != (1, 3)}}, r"mu\[1, 3\] is missing"),
    ({"mu": {**{k: 0.0 for k in np.ndindex(4, 4)}, (0, 4): 0.0}}, r"mu has keys outside"),
    ({"mu": np.zeros((3, 3))}, r"mu of shape \(3, 3\) does not start with \(4, 4\)"),
    ({"tau": np.zeros((4, 8, 8))}, r"tau\[0\] has shape \(8, 8\)"),
    ({"tau": {0: 0.0, 1: 0.0, 3: 0.0}}, r"tau\[2\] is missing"),
    ({"tau": np.zeros(3)}, r"tau of shape \(3,\) does not start with \(4,\)"),
    ({"sqrt_g": np.ones((3, 3))}, r"sqrt_g has shape \(3, 3\)"),
    # a non-finite value is refused here, not left to overflow the solve
    ({"mu": np.full((4, 4), np.nan)}, r"mu\[0, 0\] values must be finite"),
    ({"mu": {**{k: 0.0 for k in np.ndindex(4, 4)}, (2, 1): np.full((8,) * 4, np.inf)}},
     r"mu\[2, 1\] values must be finite"),
    ({"tau": np.array([np.inf, 0.0, 0.0, 0.0])}, r"tau\[0\] values must be finite"),
    ({"tau": {0: 0.0, 1: 0.0, 2: -np.inf, 3: 0.0}}, r"tau\[2\] values must be finite"),
    ({"sqrt_g": np.nan}, r"sqrt_g values must be finite"),
    ({"sqrt_g": None}, r"sqrt_g values must be finite"),
    ({"chi": np.where(np.arange(8**4).reshape((8,) * 4) == 100, np.nan, 1.0)},
     r"chi values must be finite"),
    ({"chi": np.full((8,) * 4, -np.inf)}, r"chi values must be finite"),
])
def test_a_bad_coefficient_is_named_where_it_enters(bad, named):
    with pytest.raises(ValueError, match=named):
        _small_problem(**bad)


@pytest.mark.parametrize("form", ["constants", "grids", "table"])
def test_each_coefficient_form_is_held_as_one_table(form):
    shape = (6,) * 4
    rng = np.random.default_rng(9)
    if form == "constants":
        mu, tau = rng.normal(size=(4, 4)), rng.normal(size=4)
    elif form == "grids":
        mu, tau = rng.normal(size=(4, 4) + shape), rng.normal(size=(4,) + shape)
    else:
        # keyed out of row-major order, with one grid at a symmetric pair
        bump, grid = rng.normal(size=shape), rng.normal(size=shape)
        mu = {(i, j): 0.01 * i for i, j in reversed(list(np.ndindex(4, 4)))}
        mu[0, 2] = mu[2, 0] = bump
        tau = {3: -0.5, 1: grid, 0: 0.0, 2: 0.5}
    P = _small_problem(N=6, mu=mu, tau=tau)
    for table, given, keys in ((P.mu, mu, list(np.ndindex(4, 4))), (P.tau, tau, list(range(4)))):
        assert type(table) is dict and list(table) == keys
        for key, c in table.items():
            assert type(c) is np.ndarray and c.shape in ((), shape)
            if isinstance(given, np.ndarray):
                assert np.shares_memory(c, given) and np.array_equal(c, given[key])
            else:
                assert c is given[key] or (c.shape == () and c == given[key])
    if form == "table":
        assert P.mu[0, 2] is bump and P.mu[2, 0] is bump and P.tau[1] is grid
    assert type(P.sqrt_g) is np.ndarray and P.sqrt_g.shape == () and P.sqrt_g == 1.0
