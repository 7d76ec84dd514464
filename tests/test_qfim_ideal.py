"""Lossless information matrix, Schur bounds, and precision bounds."""

import math

import pytest
from hypothesis import assume, given, settings
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
    # past overflow, where f_pp f_mm and f_pm**2 are both inf and the Schur
    # bound would be -9.9e201; det is reported in units of the largest element
    with pytest.raises(ValueError, match=r"det=-0\.99 \* 1e\+201\*\*2"):
        FisherMatrix(1e200, 1e200, 1e201)


def test_fisher_matrix_tolerates_rounding_below_zero():
    # a vanishing diagonal a few ulps negative, and a singular matrix whose
    # determinant lands scale**2 ulps below zero, at 4e6 and at every scale from
    # 1e-300 to 1e300, where a diagonal and a determinant 1e-9 below 0 are still
    # refused (absolute floors let both through at small scales, and a
    # determinant of inf - inf = nan through at large ones)
    for scale in [4.0e6, *(10.0**exponent for exponent in range(-300, 301, 10))]:
        FisherMatrix(-4e-16 * scale, 5.0 * scale, 1e-8 * scale)
        FisherMatrix(scale, scale, scale * (1.0 + 1e-15))
        with pytest.raises(ValueError, match="semidefinite"):
            FisherMatrix(scale, scale, scale * (1.0 + 1e-9))
        with pytest.raises(ValueError, match=">= 0"):
            FisherMatrix(-1e-9 * scale, scale, 0.0)


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


def test_overflowing_schur_product_is_taken_in_range():
    mp = pytest.importorskip("mpmath")
    fm = FisherMatrix(2.5e300, 2.5e300, 1e300)  # f_pm**2 overflows, f_pm**2/comp does not
    with mp.workdps(50):
        shift = mp.mpf(fm.f_pm) ** 2 / mp.mpf(fm.f_pp)
        bound = mp.mpf(fm.f_pp) - shift
    for target in Target:
        assert two_param_bound(fm, target) == pytest.approx(float(bound), rel=2.3e-16)
        assert overestimation(fm, target) == pytest.approx(float(shift), rel=2.3e-16)
    assert float(bound) == pytest.approx(2.1e300) and float(shift) == pytest.approx(4e299)
    # a matrix whose shift would leave float range is not PSD, and is refused
    with pytest.raises(ValueError, match="semidefinite"):
        FisherMatrix(1e308, 1e297, 1e305)
    # an infinite diagonal is accepted by the PSD check and raises in the kernel
    with pytest.raises(NonFiniteObjective, match="diag=inf"):
        two_param_bound(FisherMatrix(math.inf, 1.0, 0.5), Target.PHASE_SUM)


@settings(max_examples=200, deadline=None)
@given(
    log_pp=st.floats(min_value=-4.0, max_value=154.0),
    log_ratio=st.floats(min_value=-8.0, max_value=8.0),
    j=st.floats(min_value=-1.0, max_value=1.0).filter(lambda j: abs(j) >= 1e-3),
    target=st.sampled_from(list(Target)),
)
def test_schur_shift_keeps_its_bytes_where_f_pm_squared_is_finite(log_pp, log_ratio, j, target):
    # up to the overflow of f_pm**2 the shift is the plain quotient, bit for bit
    f_pp = 10.0**log_pp
    f_mm = f_pp * 10.0**log_ratio
    fm = FisherMatrix(f_pp, f_mm, j * math.sqrt(f_pp) * math.sqrt(f_mm))
    diag, comp = (f_pp, f_mm) if target is Target.PHASE_SUM else (f_mm, f_pp)
    tol = 1e-12 * max(f_pp, f_mm)
    assume(abs(fm.f_pm) > tol and comp > tol and math.isfinite(fm.f_pm * fm.f_pm))
    shift = fm.f_pm * fm.f_pm / comp
    assert overestimation(fm, target) == shift
    assert two_param_bound(fm, target) == diag - shift


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
