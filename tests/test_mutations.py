"""Mutation checks: each check named here must FAIL when a known defect is
patched into the name it reads.  A check that passes on a wrong program
shows nothing about the right one."""

import itertools
import math

import pytest

import test_acceptance
import test_norms
import test_poisson
from fueterlab.norms import lorentz_21, lorentz_interpolation_check
from fueterlab.poisson import w21_norm

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
    # capsys keeps the criterion's FAIL line out of `pytest -s` output
    monkeypatch.setattr(module, "w21_norm", W21_MUTANTS[mutant])
    with pytest.raises(AssertionError):
        getattr(module, check)()


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
def test_criterion_9_fails_on_a_lorentz_mutant(mutant, monkeypatch):
    name, make = LORENTZ_MUTANTS[mutant]
    monkeypatch.setattr(test_acceptance, name, make())
    with pytest.raises(AssertionError):
        test_acceptance.test_09_lorentz_machinery()
