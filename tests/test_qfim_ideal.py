"""Lossless information matrix, Schur bounds, and precision bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import (
    FisherMatrix,
    ModeStatistics,
    NonFiniteObjective,
    NonpositiveInformation,
    SingularComplement,
    Target,
    derived_correlations,
    overestimation,
    qcrb,
    qfim_matrix,
    two_param_bound,
)
from phasebound.moments import InterferometerInput, SplitterSpec, lbs_moments, nbs_moments

SU2_STATS = ModeStatistics(
    2.8814620952222865,
    1.3900782221853354,
    4.362529605610581,
    3.0387491747189435,
    -1.355364928779308,
)


# ---------------------------------------------------------------------------
# matrix assembly


def test_qfim_uncorrelated_equal_arms():
    fm = qfim_matrix(ModeStatistics(1.0, 1.0, 1.0, 1.0, 0.0))
    assert fm == FisherMatrix(2.0, 2.0, 0.0)


def test_qfim_perfectly_correlated():
    fm = qfim_matrix(ModeStatistics(1.0, 1.0, 1.0, 1.0, 1.0))
    assert fm == FisherMatrix(4.0, 0.0, 0.0)


def test_qfim_frozen_reference_point():
    fm = qfim_matrix(SU2_STATS)
    assert fm.f_pp == pytest.approx(4.690548922770908, rel=1e-12)
    assert fm.f_mm == pytest.approx(10.11200863788814, rel=1e-12)
    assert fm.f_pm == pytest.approx(1.3237804308916372, rel=1e-12)


def test_fisher_matrix_rejects_negative_diagonal():
    with pytest.raises(ValueError):
        FisherMatrix(-1.0, 2.0, 0.0)


def test_fisher_matrix_rejects_indefinite():
    with pytest.raises(ValueError, match="semidefinite"):
        FisherMatrix(1.0, 1.0, 2.0)


def test_fisher_matrix_tolerates_rounding_below_zero():
    # a vanishing diagonal a few ulps negative, and a singular matrix at
    # scale 4e6 whose determinant lands scale**2 ulps below zero
    FisherMatrix(-4e-16, 5.0, 1e-8)
    big = 4.0e6
    FisherMatrix(big, big, big * (1.0 + 1e-15))
    with pytest.raises(ValueError, match="semidefinite"):
        FisherMatrix(big, big, big * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# Schur complement bound


def test_two_param_bound_diagonal_passthrough():
    fm = FisherMatrix(3.0, 2.0, 0.0)
    assert two_param_bound(fm, Target.PHASE_DIFFERENCE) == 2.0
    assert two_param_bound(fm, Target.PHASE_SUM) == 3.0


def test_two_param_bound_frozen_reference_point():
    fm = qfim_matrix(SU2_STATS)
    assert two_param_bound(fm, Target.PHASE_DIFFERENCE) == pytest.approx(
        9.738407454302907, rel=1e-12
    )


def test_two_param_bound_ratio_identity():
    # Schur complement equals 4(var_a var_b - cov^2)/(var_a + var_b +/- 2cov)
    stats = SU2_STATS
    fm = qfim_matrix(stats)
    det4 = 4.0 * (stats.var_a * stats.var_b - stats.cov**2)
    assert two_param_bound(fm, Target.PHASE_DIFFERENCE) == pytest.approx(
        det4 / (stats.var_a + stats.var_b + 2.0 * stats.cov), rel=1e-12
    )
    assert two_param_bound(fm, Target.PHASE_SUM) == pytest.approx(
        det4 / (stats.var_a + stats.var_b - 2.0 * stats.cov), rel=1e-12
    )


def test_overflowing_schur_term_raises():
    fm = FisherMatrix(2.5e300, 2.5e300, 1e300)  # f_pm**2 overflows, f_pm**2/comp would not
    for target in Target:
        with pytest.raises(NonFiniteObjective, match="shift=inf"):
            two_param_bound(fm, target)
        with pytest.raises(NonFiniteObjective):
            overestimation(fm, target)


def test_singular_complement_raises():
    fm = FisherMatrix(0.0, 2.0, 1e-5)
    with pytest.raises(SingularComplement):
        two_param_bound(fm, Target.PHASE_DIFFERENCE)
    with pytest.raises(SingularComplement):
        overestimation(fm, Target.PHASE_DIFFERENCE)


def test_degenerate_zero_over_zero_passes_diagonal():
    # both the off-diagonal and the complement vanish: no coupling left
    fm = FisherMatrix(0.0, 2.0, 0.0)
    assert two_param_bound(fm, Target.PHASE_DIFFERENCE) == 2.0
    assert overestimation(fm, Target.PHASE_DIFFERENCE) == 0.0


def test_off_diagonal_below_tolerance_is_exact_passthrough():
    fm = FisherMatrix(3.0, 2.0, 1e-13)
    assert two_param_bound(fm, Target.PHASE_DIFFERENCE) == 2.0
    assert overestimation(fm, Target.PHASE_DIFFERENCE) == 0.0


# ---------------------------------------------------------------------------
# overestimation


def test_overestimation_explicit_value():
    fm = FisherMatrix(4.0, 2.0, 1.0)
    assert overestimation(fm, Target.PHASE_DIFFERENCE) == pytest.approx(0.25, rel=1e-15)
    assert overestimation(fm, Target.PHASE_SUM) == pytest.approx(0.5, rel=1e-15)


def test_overestimation_closes_the_gap():
    fm = qfim_matrix(SU2_STATS)
    for target in Target:
        diag = fm.f_mm if target is Target.PHASE_DIFFERENCE else fm.f_pp
        assert diag - overestimation(fm, target) == pytest.approx(
            two_param_bound(fm, target), rel=1e-12
        )


def test_overestimation_equal_variances_vanishes():
    fm = qfim_matrix(ModeStatistics(1.0, 2.0, 3.0, 3.0, 0.5))
    assert overestimation(fm, Target.PHASE_DIFFERENCE) == 0.0


# balanced splitter: the attainable information reduces to
# n_mean (Q + 1)(1 -/+ J) per arm pair


def test_balanced_lbs_reduction():
    stats = lbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.5)))
    corr = derived_correlations(stats)
    bound = two_param_bound(qfim_matrix(stats), Target.PHASE_DIFFERENCE)
    expected = 2.0 * stats.mean_a * (corr.q_a + 1.0) * (1.0 - corr.j)
    assert bound == pytest.approx(expected, rel=1e-12)


def test_balanced_nbs_reduction():
    # alpha^2 = sinh(2r)^2 / 2 makes the two variances coincide
    r = 0.5
    alpha = math.sinh(2.0 * r) / math.sqrt(2.0)
    stats = nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(1.2)))
    assert stats.var_a == pytest.approx(stats.var_b, rel=1e-12)
    corr = derived_correlations(stats)
    bound = two_param_bound(qfim_matrix(stats), Target.PHASE_SUM)
    expected = 2.0 * stats.mean_a * (corr.q_a + 1.0) * (1.0 + corr.j)
    assert bound == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# precision bound


def test_qcrb_single_shot():
    assert qcrb(100.0) == pytest.approx(0.1, rel=1e-15)


def test_qcrb_repeats_scale():
    assert qcrb(25.0, repeats=4) == pytest.approx(0.1, rel=1e-15)


def test_qcrb_rejects_nonpositive_information():
    with pytest.raises(NonpositiveInformation):
        qcrb(0.0)
    with pytest.raises(NonpositiveInformation):
        qcrb(-1.0)


def test_qcrb_rejects_bad_repeats():
    with pytest.raises(ValueError):
        qcrb(1.0, repeats=0)


@pytest.mark.parametrize("info", [math.nan, math.inf])
def test_qcrb_rejects_nonfinite_information(info):
    # +inf would give delta_phi = 0 and NaN a NaN bound
    with pytest.raises(NonpositiveInformation):
        qcrb(info)


# ---------------------------------------------------------------------------
# structural properties

_var = st.floats(min_value=1e-6, max_value=1e6)
_jj = st.floats(min_value=-0.999, max_value=0.999)


@settings(max_examples=300, deadline=None)
@given(va=_var, vb=_var, jj=_jj)
def test_schur_bound_never_exceeds_diagonal(va, vb, jj):
    cov = jj * math.sqrt(va * vb)
    fm = qfim_matrix(ModeStatistics(1.0, 1.0, va, vb, cov))
    for target in Target:
        diag = fm.f_mm if target is Target.PHASE_DIFFERENCE else fm.f_pp
        bound = two_param_bound(fm, target)
        assert bound <= diag * (1.0 + 1e-12)
        assert bound >= 0.0
