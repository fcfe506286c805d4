"""Mutation checks: each check named here must FAIL when a known defect is
patched into the name it reads.  A check that passes on a wrong program
shows nothing about the right one."""

import itertools
import json
import math

import numpy as np
import pytest

import test_acceptance
import test_norms
import test_poisson
from fueterlab import cli, exterior, fields, stencil
from fueterlab.bubbletree import calibration_defect, quantize
from fueterlab.cli import bundled_sequence
from fueterlab.fields import (
    GridField,
    energy_identity_defects,
    save_fld1,
    standard_triholomorphic_field,
    triholo_residual,
)
from fueterlab.norms import lorentz_21, lorentz_interpolation_check
from fueterlab.poisson import PerturbedProblem, fixed_point_solve, w21_norm
from fueterlab.stencil import second

W21_MUTANTS = {
    "zero": lambda u: 0.0,
    "tenth": lambda u: 0.1 * w21_norm(u),
    # NaN on the 13-node members only: the suite's peak, at 21 nodes, stays
    "nan13": lambda u: math.nan if u.shape[0] == 13 else w21_norm(u),
}


@pytest.mark.parametrize("mutant", sorted(W21_MUTANTS))
@pytest.mark.parametrize("module, check", [
    (test_acceptance, "test_07_w21_regression"),
    (test_poisson, "test_w21_regression_bound_over_suite"),
])
def test_the_w21_band_fails_on_a_w21_norm_mutant(module, check, mutant, monkeypatch, capsys):
    monkeypatch.setattr(module, "w21_norm", W21_MUTANTS[mutant])
    with pytest.raises(AssertionError):
        getattr(module, check)()
    _printed_only_fail(capsys, 1 if module is test_acceptance else 0)


def test_criterion_7_fails_on_a_w21_norm_half_again_too_large(monkeypatch, capsys):
    # its max ratio 1.905 stays within C = 2: only the exact side can see it
    monkeypatch.setattr(test_acceptance, "w21_norm", lambda u: 1.5 * w21_norm(u))
    with pytest.raises(AssertionError):
        test_acceptance.test_07_w21_regression()
    _printed_only_fail(capsys, 1)


def _printed_only_fail(capsys, lines):
    """The check printed `lines` lines, and each says FAIL: the check failed
    for its criterion's reason.  They are read here, so `pytest -s` does not
    print them."""
    out = capsys.readouterr().out.splitlines()
    assert len(out) == lines and all("[FAIL]" in line for line in out)


def _nan_on_call(fn, n):
    """fn, but the left side of its n-th result (from 1) is NaN."""
    calls = itertools.count(1)

    def mutant(*args):
        lhs, rhs = fn(*args)
        return (math.nan if next(calls) == n else lhs), rhs
    return mutant


@pytest.mark.parametrize("name, check, n", [
    # the second random slice, and the second random pair, neither the peak
    ("lorentz_interpolation_check", "test_lorentz_interpolation", 3),
    ("jacobian_hardy_bound", "test_jacobian_hardy_bound", 4),
])
def test_the_norm_bands_fail_on_one_nan_item(name, check, n, monkeypatch):
    monkeypatch.setattr(test_norms, name, _nan_on_call(getattr(test_norms, name), n))
    with pytest.raises(AssertionError):
        getattr(test_norms, check)()


def _half_lhs(v, h):
    lhs, rhs = lorentz_interpolation_check(v, h)
    return 0.5 * lhs, rhs


# each entry makes its mutant afresh, so a NaN counter starts at 1 on every run
LORENTZ_MUTANTS = {
    # NaN on the second random slice, not the peak
    "nan3": ("lorentz_interpolation_check", lambda: _nan_on_call(lorentz_interpolation_check, 3)),
    "l21_double": ("lorentz_21", lambda: lambda f: 2.0 * lorentz_21(f)),
    # every slice within the inequality, but the peak below the band
    "lhs_half": ("lorentz_interpolation_check", lambda: _half_lhs),
}


@pytest.mark.parametrize("mutant", sorted(LORENTZ_MUTANTS))
def test_criterion_9_fails_on_a_lorentz_mutant(mutant, monkeypatch, capsys):
    name, make = LORENTZ_MUTANTS[mutant]
    monkeypatch.setattr(test_acceptance, name, make())
    with pytest.raises(AssertionError):
        test_acceptance.test_09_lorentz_machinery()
    _printed_only_fail(capsys, 1)


def _identity_quarter(As, S_dom, S_tar):
    """energy_identity_defects with its 1/8 replaced by 1/4: the defect grows
    by |R|^2 / 8, which is 0 only on a triholomorphic jet."""
    R = triholo_residual(np.asarray(As, dtype=float), S_dom, S_tar)
    return energy_identity_defects(As, S_dom, S_tar) + 0.125 * np.einsum("nab,nab->n", R, R)


def test_criterion_1_fails_on_an_energy_identity_mutant(monkeypatch, capsys):
    monkeypatch.setattr(test_acceptance, "energy_identity_defects", _identity_quarter)
    with pytest.raises(AssertionError):
        test_acceptance.test_01_energy_identity()
    _printed_only_fail(capsys, 1)


def test_identity_check_on_a_field_fails_on_an_energy_identity_mutant(tmp_path, monkeypatch,
                                                                      capsys):
    # the mutant reaches only the field's jets (the second batch), so the
    # field's part of the check is what must fail: the discrete jets of a
    # degree-4 triholomorphic field carry an O(h^2) residual
    calls = itertools.count(1)
    monkeypatch.setattr(cli, "energy_identity_defects", lambda *args: (
        _identity_quarter if next(calls) == 2 else energy_identity_defects)(*args))
    poly = standard_triholomorphic_field(seed=3, degree=4)
    path = tmp_path / "u.fld1"
    save_fld1(GridField.from_function(poly, 1, 1, 13, L=0.5, materialize=True), path)
    code = cli.main(["identity-check", "--jets", "100", "--field", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert next(calls) == 3  # the random jets, then the field's
    assert code == 1 and rep["passed"] is False and rep["error"] == "identity-defect"
    monkeypatch.undo()
    assert cli.main(["identity-check", "--jets", "100", "--field", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def _solve_without_tau(P, *args, **kwargs):
    """fixed_point_solve with the tau_j d_j w term dropped: P's tau is zeros."""
    P = PerturbedProblem(P.chi, P.mu, np.zeros(P.f.d), P.f, P.sqrt_g)
    return fixed_point_solve(P, *args, **kwargs)


def test_criterion_6_fails_on_a_solver_that_drops_tau(monkeypatch, capsys):
    # the manufactured source holds tau_j d_j w*, so the recovery misses w*
    monkeypatch.setattr(test_acceptance, "fixed_point_solve", _solve_without_tau)
    with pytest.raises(AssertionError):
        test_acceptance.test_06_fixed_point_scheme()
    _printed_only_fail(capsys, 1)


def _residual_k_flipped(A, S_dom, S_tar):
    """triholo_residual with the sign of its K du k term flipped."""
    A = np.asarray(A, dtype=float)
    k_term = np.einsum("ij,...jk,kl->...il", S_tar.k_mat, A, S_dom.k_mat)
    return triholo_residual(A, S_dom, S_tar) + 2.0 * k_term


def test_criterion_2_fails_on_a_residual_with_one_sign_flipped(monkeypatch, capsys):
    # the kernel oracle and the basis check both read the mutant: its kernel
    # is empty, so the frozen dimension 12 is what fails
    monkeypatch.setattr(fields, "triholo_residual", _residual_k_flipped)
    monkeypatch.setattr(test_acceptance, "triholo_residual", _residual_k_flipped)
    with pytest.raises(AssertionError):
        test_acceptance.test_02_linear_kernel()
    _printed_only_fail(capsys, 1)


def _d_eval_one_sided(field, x, vectors, h):
    """exterior._d_eval with the forward difference (f(x + h v) - f(x)) / h in
    place of the central one: first order in h, so the slopes fall to 1."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    tot = 0.0
    for t, vt in enumerate(vectors):
        rest = vectors[:t] + vectors[t + 1 :]
        tot += (-1) ** t * (field(x + h * vt).evaluate(rest) - field(x).evaluate(rest)) / h
    return tot


def test_criterion_5_fails_on_a_one_sided_difference(monkeypatch, capsys):
    monkeypatch.setattr(exterior, "_d_eval", _d_eval_one_sided)
    with pytest.raises(AssertionError):
        test_acceptance.test_05_radial_scaling_identities()
    _printed_only_fail(capsys, 1)


def test_criterion_11_fails_on_a_calibration_defect_mutant(monkeypatch, capsys):
    # off by 1e-9 on every plane: the vectorized sweep stays right, so only
    # the API spot check can see it
    monkeypatch.setattr(test_acceptance, "calibration_defect",
                        lambda *args: calibration_defect(*args) + 1e-9)
    with pytest.raises(AssertionError):
        test_acceptance.test_11_structure_recovery_and_calibration()
    _printed_only_fail(capsys, 1)


def _bubbles_swapped_with_necks(*args, **kwargs):
    """quantize, but each bubble carries its neck's energy and the neck the
    bubble's; the sum and the gap are read from the mutated tree."""
    tree, rep = quantize(*args, **kwargs)
    for bubble in tree.bubbles():
        neck = tree.nodes[bubble.parent]
        bubble.energy, neck.energy = neck.energy, bubble.energy
    rep["sum_energies"] = tree.sum_energies()
    rep["abs_gap"] = abs(rep["theta"] - rep["sum_energies"])
    return tree, rep


def _bubbles_left_in_the_residual(*args, **kwargs):
    """quantize, but the residual neck energy keeps the bubbles' energies."""
    tree, rep = quantize(*args, **kwargs)
    tree.residual_neck_energy += tree.sum_energies()
    rep["residual_neck_energy"] = tree.residual_neck_energy
    return tree, rep


@pytest.mark.parametrize("mutant", [_bubbles_swapped_with_necks, _bubbles_left_in_the_residual])
def test_criterion_10_fails_on_a_quantize_ledger_mutant(mutant, monkeypatch, capsys):
    # a gap near 100% against the 2% bound, and a residual near 100% against 5%
    monkeypatch.setattr(test_acceptance, "quantize", mutant)
    with pytest.raises(AssertionError):
        test_acceptance.test_10_quantization("two", 2, 1)
    _printed_only_fail(capsys, 1)


def _second_times_h(p, c, m, h, out=None):
    """stencil.second with one of its two 1/h factors lost: criterion 4's
    slope moves from 2 to 3, and w21_norm's Hessian term shrinks by h."""
    return np.multiply(second(p, c, m, h, out=out), h, out=out)


@pytest.mark.parametrize("module, check", [
    (test_acceptance, "test_04_discrete_laplacian_decay"),
    (test_acceptance, "test_07_w21_regression"),
    (test_poisson, "test_w21_norm_and_energy_match_exact_derivatives"),
])
def test_the_second_difference_checks_fail_when_it_loses_a_1_over_h(module, check, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(stencil, "second", _second_times_h)
    with pytest.raises(AssertionError):
        getattr(module, check)()
    _printed_only_fail(capsys, 1 if module is test_acceptance else 0)


def test_criterion_8_fails_when_the_maximal_function_is_f_itself(monkeypatch, capsys):
    # Mf = |f| keeps the weak-L1 bound at every level; only the point mass's
    # lambda |{Mf > lambda}| (<= 0.031 in 2-D, <= 0.0004 in 4-D) sees it
    monkeypatch.setattr(test_acceptance, "hl_maximal", lambda f: f.like(np.abs(f.values)))
    with pytest.raises(AssertionError):
        test_acceptance.test_08_weak_l1()
    _printed_only_fail(capsys, 1)


def test_criterion_12_fails_on_an_unseeded_draw(tmp_path, monkeypatch, capsys):
    # extract-bubbles builds its sequence from an unseeded generator, so the
    # bubble frames change from run to run; the other two commands keep their
    # seeds.  (A norms mutant would survive: its report reads the same bytes
    # for every seed.)
    monkeypatch.setattr(cli, "bundled_sequence",
                        lambda name, seed: bundled_sequence(name, seed=None))
    with pytest.raises(AssertionError):
        test_acceptance.test_12_determinism(tmp_path, capsys)
    _printed_only_fail(capsys, 1)


def _trace_term(u, X):
    """sum over the 1-interior of |Du|^2 div_h X h^{4m}: the trace half of
    the stress-energy pairing dE = 2 sum <D_a u, D_b u> D_a X^b - this."""
    d, h = u.dim, u.h
    Xv = X(np.stack(np.meshgrid(*([u.axis_coords()] * d), indexing="ij"), axis=-1))
    vals = u.block(())
    grad_sq = sum(np.sum(stencil.d1(vals, a, h, d) ** 2, axis=-1) for a in range(d))
    div = sum(stencil.d1(Xv[..., a], a, h, d) for a in range(d))
    return float(np.vdot(grad_sq, div)) * h**d


VARIATION_MUTANTS = {
    "zero": lambda u, X: 0.0,
    # 1 <D_a u, D_b u> D_a X^b in place of 2 (dE / E 5.1e-2 and 8.7e-3 on the
    # degree-2 members), and the trace term dropped (-1.0e-1 and -1.7e-2)
    "factor_one": lambda u, X: 0.5 * (fields.domain_variation_derivative(u, X)
                                      - _trace_term(u, X)),
    "no_trace": lambda u, X: fields.domain_variation_derivative(u, X) + _trace_term(u, X),
}


@pytest.mark.parametrize("mutant", sorted(VARIATION_MUTANTS))
def test_criterion_13_fails_on_a_first_variation_mutant(mutant, monkeypatch, capsys):
    monkeypatch.setattr(test_acceptance, "domain_variation_derivative", VARIATION_MUTANTS[mutant])
    with pytest.raises(AssertionError):
        test_acceptance.test_13_stationarity()
    _printed_only_fail(capsys, 1)
