"""The exact rational reference (exact.py), checked by hand, and the per-arm
bounds it pins where the float solve once went wrong."""

import math
from fractions import Fraction

import pytest

from exact import exact_bounds, ulps
from phasebound import (
    InterferometerInput,
    ModeStatistics,
    SplitterSpec,
    Target,
    TwoArmIndependent,
    lbs_moments,
    nbs_moments,
    optimize_gamma,
    qfim_matrix,
    two_param_bound,
)
from phasebound.cli import ScanSpec, point_record

SU2_STATS = lbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.7)))
SU11_STATS = nbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.nbs(1.2)))


def test_su11_vacuum_under_equal_loss_is_16_thirds():
    # <n> = 3 and var = cov = 12 on both arms (|J| = 1): k = 1/3, det = 9, every
    # element of M is 4/3, so f_pm = 0 and both bounds are f_pp = 16/3
    stats = nbs_moments(InterferometerInput(0.0, 0.0, SplitterSpec.nbs(2.0)))
    assert exact_bounds(stats, 0.5, 0.5, Target.PHASE_SUM) == (Fraction(16, 3), Fraction(16, 3))


@pytest.mark.parametrize("stats", [SU2_STATS, SU11_STATS], ids=["SU2", "SU11"])
@pytest.mark.parametrize("target", list(Target))
def test_transparent_arms_give_the_lossless_schur_bound(stats, target):
    _, _, var_a, var_b, cov = (Fraction(x) for x in stats)
    sign = 1 if target is Target.PHASE_SUM else -1
    diag, comp = var_a + var_b + 2 * sign * cov, var_a + var_b - 2 * sign * cov
    want = (diag, diag - (var_a - var_b) ** 2 / comp)
    assert exact_bounds(stats, 1.0, 1.0, target) == want
    assert ulps(two_param_bound(qfim_matrix(stats), target), want[1]) <= 4


@pytest.mark.parametrize("target", list(Target))
def test_an_arm_that_keeps_nothing_is_the_limit_of_one_that_keeps_little(target):
    # eta <n> = 0 takes k -> infinity; the least positive eta is next to it
    for etas, near in (((0.0, 0.6), (5e-324, 0.6)), ((0.6, 0.0), (0.6, 5e-324)),
                       ((0.0, 0.0), (5e-324, 5e-324))):
        for got, want in zip(exact_bounds(SU11_STATS, *etas, target),
                             exact_bounds(SU11_STATS, *near, target)):
            assert abs(got - want) <= Fraction(1, 10**300) * max(want, 1)


def test_perfect_correlation_keeps_the_schur_bound_below_the_diagonal():
    # |J| = 1 exactly, where the infimum needs gamma_a at infinity; reading the
    # bound from C at the reported gamma gave 0.00023799375092448116, 3.3e-6
    # above the infimum and above the diagonal
    stats = ModeStatistics(2.233699386362904, 2.233699386362904, 7.223112335000918,
                           7.223112335000918, 7.223112335000918)
    family = TwoArmIndependent(0.90625, 2.663622235288266e-05)
    result = optimize_gamma(stats, family, Target.PHASE_SUM)
    _, exact = exact_bounds(stats, *family, Target.PHASE_SUM)
    assert result.minimum <= result.single_minimum
    assert ulps(result.minimum, exact) <= 4


def _cancelling_row():
    """(printed info_two, its exact value) of an SU11 TwoArm row whose bound is
    1e-8 of its diagonal, 604."""
    fixed = {"alpha_photons": 1208.457, "squeeze_r": 0.004166, "gain": 1.00171,
             "eta": 0.5, "eta_b": 1e-9}
    row = point_record(ScanSpec("SU11", "TwoParameter", "TwoArm", fixed))
    moments = [row[name] for name in ("mean_a", "mean_b", "var_a", "var_b", "cov")]
    return row["info_two"], exact_bounds(moments, 0.5, 1e-9, Target.PHASE_SUM)[1]


def test_a_cancelling_bound_keeps_its_leading_digits():
    # read from C at the argmin it printed 1.1175870895385742e-08, 32.5 % low
    info_two, exact = _cancelling_row()
    assert math.isclose(info_two, exact, rel_tol=1e-5)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 3a: s = 1 - J**2 is not formed with error-free products")
def test_a_cancelling_bound_is_exact_to_a_few_ulps():
    info_two, exact = _cancelling_row()
    assert ulps(info_two, exact) <= 4
