"""Lossy information matrices, analytic optima, and limit regimes."""

import math
import sys
from collections import namedtuple
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasebound import (
    DegenerateStatistics,
    SingleArm,
    InterferometerInput,
    ModeStatistics,
    SplitterSpec,
    Target,
    TwoArmIndependent,
    TwoArmSymmetric,
    derived_correlations,
    lbs_moments,
    nbs_moments,
    qfim_matrix,
    two_param_bound,
)
from phasebound.qfim_lossy import (
    SingleArmLoss,
    TwoArmLoss,
    c_matrix_single,
    c_matrix_two,
    gamma_opt_single,
)

SU2_STATS = lbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.7)))
SU11_STATS = nbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.nbs(1.2)))


# ---------------------------------------------------------------------------
# matrix assembly


def test_loss_types_validate_eta():
    with pytest.raises(ValueError):
        SingleArmLoss(1.5, 0.0)
    with pytest.raises(ValueError):
        SingleArmLoss(-0.1, 0.0)
    with pytest.raises(ValueError):
        TwoArmLoss(0.5, -0.1, 0.0, 0.0)


@pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 0.7])
def test_single_arm_lossless_reduces_to_ideal(gamma):
    cm = c_matrix_single(SU2_STATS, SingleArmLoss(1.0, gamma))
    fm = qfim_matrix(SU2_STATS)
    assert cm.f_pp == pytest.approx(fm.f_pp, rel=1e-15)
    assert cm.f_mm == pytest.approx(fm.f_mm, rel=1e-15)
    assert cm.f_pm == pytest.approx(fm.f_pm, rel=1e-15)


def test_single_arm_opaque_keeps_only_arm_b():
    cm = c_matrix_single(SU2_STATS, SingleArmLoss(0.0, 0.0))
    vb = SU2_STATS.var_b
    assert cm.f_pp == pytest.approx(vb, rel=1e-15)
    assert cm.f_mm == pytest.approx(vb, rel=1e-15)
    assert cm.f_pm == pytest.approx(-vb, rel=1e-15)


@pytest.mark.parametrize("gamma_b", [-0.8, 0.0, 0.4])
def test_two_arm_with_transparent_arm_b_matches_single(gamma_b):
    # at eta_b = 1 arm b is exact for every gamma_b: u_b = 1 and L_b = 0
    single = c_matrix_single(SU11_STATS, SingleArmLoss(0.6, -0.3))
    two = c_matrix_two(SU11_STATS, TwoArmLoss(0.6, 1.0, -0.3, gamma_b))
    assert repr(two) == repr(single)


def _written_out_two(stats, loss):
    """c_matrix_two with its elements written out, as it was before it
    became qfim_matrix of the kept moments; returns the matrix and its
    cross term 2 u_a u_b cov."""
    u_a = 1.0 - (loss.gamma_a + 1.0) * (1.0 - loss.eta_a)
    u_b = 1.0 - (loss.gamma_b + 1.0) * (1.0 - loss.eta_b)
    l_a = (loss.gamma_a + 1.0) ** 2 * (1.0 - loss.eta_a) * loss.eta_a * stats.mean_a
    l_b = (loss.gamma_b + 1.0) ** 2 * (1.0 - loss.eta_b) * loss.eta_b * stats.mean_b
    arm_a = u_a * u_a * stats.var_a + l_a
    arm_b = u_b * u_b * stats.var_b + l_b
    cross = 2.0 * u_a * u_b * stats.cov
    return (arm_a + arm_b + cross, arm_a + arm_b - cross, arm_a - arm_b), cross


def _matches_written_out(matrix, written_out):
    """Bitwise equality (repr, so NaN and -0.0 count), except where the
    cross term is below twice the least normal float: there the library's
    2 (u cov) rounds u cov to a subnormal step before doubling, where
    (2 u) cov rounds once, so each element may move by one ulp."""
    elements, cross = written_out
    subnormal = 0.0 < abs(cross) < 2.0 * sys.float_info.min
    for got, want in zip(matrix, elements):
        if subnormal:
            assert abs(got - want) <= math.ulp(max(abs(got), abs(want)))
        else:
            assert repr(got) == repr(want)


_REF_MOMENT = st.one_of(st.sampled_from([0.0, 1.0, 1e150]), st.floats(0.0, 1e150))
_REF_J = st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0))
_REF_ETA = st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 1.0))
_REF_GAMMA = st.one_of(st.just(-1.0), st.floats(-1e3, 1e3))


@st.composite
def _ref_statistics(draw):
    var_a, var_b = draw(_REF_MOMENT), draw(_REF_MOMENT)
    cov = draw(_REF_J) * math.sqrt(var_a) * math.sqrt(var_b)
    return ModeStatistics(draw(_REF_MOMENT), draw(_REF_MOMENT), var_a, var_b, cov)


@settings(max_examples=1000, deadline=None)
@given(
    stats=_ref_statistics(),
    eta_a=_REF_ETA,
    eta_b=_REF_ETA,
    gamma_a=_REF_GAMMA,
    gamma_b=_REF_GAMMA,
)
# gamma_a + 1 rounds to 1, so u_a is exactly 0: u = 1 - (gamma + 1)(1 - eta) is 0 or at
# least 2**-53 in size, never a tiny u whose square underflows while u cov does not
@example(ModeStatistics(0.0, 0.0, 5.599104206714004e147, 1e-300, 7.48271622254513e-77),
         0.0, 0.0, 6.682132265195883e-230, -1.0)
def test_c_matrices_match_their_written_out_elements(stats, eta_a, eta_b, gamma_a, gamma_b):
    # one-arm loss is two-arm loss with a lossless arm b
    single = c_matrix_single(stats, SingleArmLoss(eta_a, gamma_a))
    _matches_written_out(single, _written_out_two(stats, TwoArmLoss(eta_a, 1.0, gamma_a, 0.0)))
    two = TwoArmLoss(eta_a, eta_b, gamma_a, gamma_b)
    _matches_written_out(c_matrix_two(stats, two), _written_out_two(stats, two))


_eta = st.floats(min_value=0.0, max_value=1.0)
_gamma = st.floats(min_value=-1.5, max_value=0.5)
_var = st.floats(min_value=1e-3, max_value=1e3)
_mean = st.floats(min_value=1e-3, max_value=1e3)
_jj = st.floats(min_value=-0.999, max_value=0.999)


@settings(max_examples=300, deadline=None)
@given(va=_var, vb=_var, jj=_jj, mean=_mean, eta=_eta, gamma=_gamma)
@example(va=911.0, vb=0.001, jj=0.875, mean=1.0, eta=0.0, gamma=-1.5)
def test_single_arm_determinant_identity(va, vb, jj, mean, eta, gamma):
    cov = jj * math.sqrt(va) * math.sqrt(vb)
    stats = ModeStatistics(mean, mean, va, vb, cov)
    cm = c_matrix_single(stats, SingleArmLoss(eta, gamma))
    u = eta - gamma * (1.0 - eta)
    big_l = (gamma + 1.0) ** 2 * (1.0 - eta) * eta * mean
    det = cm.f_pp * cm.f_mm - cm.f_pm**2
    expected = 4.0 * (u * u * (va * vb - cov * cov) + big_l * vb)
    # det cancels the two products, so its round-off follows their size
    scale = max(abs(cm.f_pp * cm.f_mm), cm.f_pm**2, 1.0)
    assert det == pytest.approx(expected, abs=1e-9 * scale)


# ---------------------------------------------------------------------------
# analytic optimal gamma


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_gamma_opt_poissonian_uncorrelated_is_zero(eta):
    stats = ModeStatistics(2.0, 3.0, 2.0, 3.0, 0.0)
    assert gamma_opt_single(stats, eta, Target.PHASE_DIFFERENCE) == pytest.approx(
        0.0, abs=1e-15
    )


def test_gamma_opt_frozen_values():
    assert gamma_opt_single(SU2_STATS, 0.1, Target.PHASE_DIFFERENCE) == pytest.approx(
        0.06103487277051678, rel=1e-12
    )
    assert gamma_opt_single(SU2_STATS, 0.5, Target.PHASE_DIFFERENCE) == pytest.approx(
        0.40374428912745075, rel=1e-12
    )
    assert gamma_opt_single(SU2_STATS, 0.9, Target.PHASE_DIFFERENCE) == pytest.approx(
        1.073463539288987, rel=1e-12
    )
    assert gamma_opt_single(SU11_STATS, 0.6, Target.PHASE_SUM) == pytest.approx(
        1.9700563658196732, rel=1e-12
    )


def test_gamma_opt_rejects_perfect_correlation():
    stats = ModeStatistics(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateStatistics):
        gamma_opt_single(stats, 0.5, Target.PHASE_DIFFERENCE)


@pytest.mark.parametrize("eta", [0.0, 1.0, 1.5])
def test_gamma_opt_rejects_eta_outside_open_interval(eta):
    with pytest.raises(ValueError):
        gamma_opt_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE)


def test_gamma_opt_is_stationary():
    # central difference of the bound at the analytic optimum
    eta = 0.5
    gamma = gamma_opt_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE)
    step = 1e-6

    def bound(g):
        return two_param_bound(c_matrix_single(SU2_STATS, SingleArmLoss(eta, g)), Target.PHASE_DIFFERENCE)

    deriv = (bound(gamma + step) - bound(gamma - step)) / (2.0 * step)
    assert abs(deriv) <= 1e-4 * bound(gamma)


def test_optimal_bound_near_lossless_approaches_ideal():
    ideal = two_param_bound(qfim_matrix(SU2_STATS), Target.PHASE_DIFFERENCE)
    eta = 1.0 - 1e-9
    gamma = gamma_opt_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE)
    near = two_param_bound(
        c_matrix_single(SU2_STATS, SingleArmLoss(eta, gamma)), Target.PHASE_DIFFERENCE
    )
    assert near == pytest.approx(ideal, rel=1e-6)


def test_optimal_bound_below_every_gamma_sample():
    eta = 0.3
    gamma_opt = gamma_opt_single(SU11_STATS, eta, Target.PHASE_SUM)
    best = two_param_bound(c_matrix_single(SU11_STATS, SingleArmLoss(eta, gamma_opt)), Target.PHASE_SUM)
    for gamma in [-1.4, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0]:
        value = two_param_bound(c_matrix_single(SU11_STATS, SingleArmLoss(eta, gamma)), Target.PHASE_SUM)
        assert best <= value * (1.0 + 1e-12)


# independent transcription of the single-fraction optimal-bound forms;
# denominators share even-J terms, numerators and odd-J terms flip sign


def _optimal_closed_form(stats, eta, target):
    q_a, _, j = derived_correlations(stats)
    va, vb, n_a = stats.var_a, stats.var_b, stats.mean_a
    k = eta / (1.0 - eta)
    kn = k * n_a
    s = math.sqrt(vb / va)
    one_m_j2 = 1.0 - j * j
    sign = 1.0 if target is Target.PHASE_DIFFERENCE else -1.0
    den = (
        kn * kn
        * (
            (1.0 + 5.0 * j * j) / va
            + vb / (va * va)
            + j * j / vb
            + sign * 2.0 * j * (1.0 + j * j) / math.sqrt(va * vb)
            + sign * 4.0 * j * s / va
        )
        + kn * one_m_j2 * (1.0 + 2.0 * vb / va + j * j + sign * 4.0 * j * s)
        + one_m_j2 * one_m_j2 * vb
    )
    num = 4.0 * (
        kn * one_m_j2 * one_m_j2 * vb + kn * kn * (s + sign * j) ** 2 * one_m_j2
    )
    return num / den


@pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
def test_optimal_bound_closed_form_su2(eta):
    closed = _optimal_closed_form(SU2_STATS, eta, Target.PHASE_DIFFERENCE)
    gamma = gamma_opt_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE)
    cm = c_matrix_single(SU2_STATS, SingleArmLoss(eta, gamma))
    assert two_param_bound(cm, Target.PHASE_DIFFERENCE) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
def test_optimal_bound_closed_form_su11(eta):
    closed = _optimal_closed_form(SU11_STATS, eta, Target.PHASE_SUM)
    gamma = gamma_opt_single(SU11_STATS, eta, Target.PHASE_SUM)
    cm = c_matrix_single(SU11_STATS, SingleArmLoss(eta, gamma))
    assert two_param_bound(cm, Target.PHASE_SUM) == pytest.approx(closed, rel=1e-10)


# ---------------------------------------------------------------------------
# limit regimes


class Regime(Enum):
    SMALL_DISSIPATION = "small_dissipation"
    HIGH_DISSIPATION = "high_dissipation"


def limit_bound_single(
    stats: ModeStatistics, eta_a: float, target: Target, regime: Regime
) -> float:
    """Published limit-regime closed forms for the single-arm bound.

    In the small-dissipation regime (variances much larger than
    eta <n_a> / (1-eta)) the bound loses its eta dependence and returns
    to the lossless two-parameter value; in the high-dissipation regime
    it collapses onto the single-parameter loss bound minus a residual
    overestimation correction. Intended for asymptotic cross-checks,
    not production use.
    """
    if not 0.0 < eta_a < 1.0:
        raise ValueError(f"eta_a must be in (0, 1), got {eta_a}")
    q_a, _, j = derived_correlations(stats)
    if abs(j) >= 1.0:
        raise DegenerateStatistics("limit forms are singular at |J| = 1")
    va, vb = stats.var_a, stats.var_b
    s = math.sqrt(vb / va)
    si = math.sqrt(va / vb)
    if regime is Regime.SMALL_DISSIPATION:
        if target is Target.PHASE_DIFFERENCE:
            den = (
                1.0 + j * j * va / vb + vb / va
                + 2.0 * j * (j * j + 1.0) * si + 5.0 * j * j + 4.0 * j * s
            )
            return 4.0 * (1.0 - j * j) * va * (s + j) ** 2 / den
        den = (
            1.0 + j * j * va / vb + vb / va
            - 2.0 * j * (j * j + 1.0) * si + 5.0 * j * j - 4.0 * j * s
        )
        return 4.0 * (1.0 - j * j) * va * (s - j) ** 2 / den
    k = eta_a / (1.0 - eta_a) * stats.mean_a  # eta <n_a> / (1-eta)
    one_m_j2 = 1.0 - j * j
    if target is Target.PHASE_DIFFERENCE:
        lead = k * (1.0 - 2.0 * j * s)
        over_u = (
            k * k * (1.0 - 2.0 * j * s) * (one_m_j2 + 2.0 * (j + s) ** 2)
            - k * one_m_j2 * vb * (2.0 * j * s + 3.0)
        )
        over_d = k * (one_m_j2 + 2.0 * (j + s) ** 2) + one_m_j2 * vb
    else:
        lead = k * (1.0 + 2.0 * j * s)
        over_u = (
            k * k * (1.0 + 2.0 * j * s) * (one_m_j2 + 2.0 * (j - s) ** 2)
            + k * one_m_j2 * vb * (2.0 * j * s - 3.0)
        )
        over_d = k * (one_m_j2 + 2.0 * (j - s) ** 2) + one_m_j2 * vb
    return lead - over_u / over_d



@pytest.mark.parametrize(
    "stats,target",
    [(SU2_STATS, Target.PHASE_DIFFERENCE), (SU11_STATS, Target.PHASE_SUM)],
)
def test_small_dissipation_limit_is_the_ideal_schur(stats, target):
    # the small-dissipation form drops eta entirely and lands on the
    # lossless two-parameter bound
    ideal = two_param_bound(qfim_matrix(stats), target)
    for eta in (0.2, 0.9):
        assert limit_bound_single(stats, eta, target, Regime.SMALL_DISSIPATION) == pytest.approx(
            ideal, rel=1e-12
        )


def test_small_dissipation_balanced_reduction():
    stats = lbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.5)))
    corr = derived_correlations(stats)
    value = limit_bound_single(stats, 0.5, Target.PHASE_DIFFERENCE, Regime.SMALL_DISSIPATION)
    assert value == pytest.approx(
        2.0 * stats.mean_a * (corr.q_a + 1.0) * (1.0 - corr.j), rel=1e-12
    )


@pytest.mark.parametrize(
    "stats,target",
    [(SU2_STATS, Target.PHASE_DIFFERENCE), (SU11_STATS, Target.PHASE_SUM)],
)
def test_high_dissipation_limit_converges(stats, target):
    # ratio against the exact optimum approaches 1 as eta -> 0
    eta = 0.01
    gamma = gamma_opt_single(stats, eta, target)
    exact = two_param_bound(c_matrix_single(stats, SingleArmLoss(eta, gamma)), target)
    ratio = limit_bound_single(stats, eta, target, Regime.HIGH_DISSIPATION) / exact
    assert abs(ratio - 1.0) <= 1e-2


def test_high_dissipation_error_shrinks_with_eta():
    errs = []
    for eta in (0.05, 0.01, 0.001):
        gamma = gamma_opt_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE)
        cm = c_matrix_single(SU2_STATS, SingleArmLoss(eta, gamma))
        exact = two_param_bound(cm, Target.PHASE_DIFFERENCE)
        approx = limit_bound_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE, Regime.HIGH_DISSIPATION)
        errs.append(abs(approx / exact - 1.0))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# symmetric two-arm loss


@pytest.mark.parametrize("gamma", [-1.2, -0.4, 0.5])
def test_two_arm_symmetric_lossless_is_ideal(gamma):
    ideal = two_param_bound(qfim_matrix(SU2_STATS), Target.PHASE_DIFFERENCE)
    cm = c_matrix_two(SU2_STATS, TwoArmLoss(1.0, 1.0, gamma, gamma))
    assert two_param_bound(cm, Target.PHASE_DIFFERENCE) == pytest.approx(ideal, rel=1e-12)


@pytest.mark.parametrize("eta", [0.2, 0.7])
def test_two_arm_gamma_minus_one_collapses_to_ideal(eta):
    # the gamma = -1 endpoint erases the loss from the bound entirely,
    # which is why the minimization never stops there
    ideal = two_param_bound(qfim_matrix(SU11_STATS), Target.PHASE_SUM)
    cm = c_matrix_two(SU11_STATS, TwoArmLoss(eta, eta, -1.0, -1.0))
    assert two_param_bound(cm, Target.PHASE_SUM) == pytest.approx(ideal, rel=1e-12)


def _two_arm_closed_form(stats, eta, gamma, target):
    omega = gamma + 1.0
    u = 1.0 - omega * (1.0 - eta)
    w = omega * omega * (1.0 - eta) * eta
    zeta = stats.var_a * stats.var_b - stats.cov**2
    eps = stats.mean_a + stats.mean_b
    tau = stats.mean_a * stats.mean_b
    lam = stats.mean_b * stats.var_a + stats.mean_a * stats.var_b
    if target is Target.PHASE_DIFFERENCE:
        chi = stats.var_a + stats.var_b + 2.0 * stats.cov
    else:
        chi = stats.var_a + stats.var_b - 2.0 * stats.cov
    return 4.0 * (u**4 * zeta + w * w * tau + u * u * w * lam) / (u * u * chi + w * eps)


@pytest.mark.parametrize("eta,gamma", [(0.7, -0.4), (0.3, 0.2), (0.9, -0.9)])
def test_two_arm_symmetric_closed_form_su2(eta, gamma):
    closed = _two_arm_closed_form(SU2_STATS, eta, gamma, Target.PHASE_DIFFERENCE)
    cm = c_matrix_two(SU2_STATS, TwoArmLoss(eta, eta, gamma, gamma))
    assert two_param_bound(cm, Target.PHASE_DIFFERENCE) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("eta,gamma", [(0.7, -0.4), (0.4, 0.6)])
def test_two_arm_symmetric_closed_form_su11(eta, gamma):
    closed = _two_arm_closed_form(SU11_STATS, eta, gamma, Target.PHASE_SUM)
    cm = c_matrix_two(SU11_STATS, TwoArmLoss(eta, eta, gamma, gamma))
    assert two_param_bound(cm, Target.PHASE_SUM) == pytest.approx(closed, rel=1e-10)


# ---------------------------------------------------------------------------
# high-loss two-arm closed form


def high_loss_two_arm(
    stats: ModeStatistics, eta: float, target: Target
) -> tuple[float, float]:
    """High-loss closed form for the symmetric two-arm optimum.

    Derived for nearly equal variances with J near -1 (phase
    difference) or +1 (phase sum), and for eta < 1. Writing
    tau = <n_a><n_b> and lambda = <n_b> var_a + <n_a> var_b, the
    optimal shifted parameter is

        Omega_H = lambda / (eta tau + (1-eta) lambda)

    and the bound is the symmetric two-arm form evaluated at
    gamma = Omega_H - 1. Returned for comparison against
    ``optimize_gamma`` only.

    Returns
    -------
    (gamma_h, bound_h)
    """
    tau = stats.mean_a * stats.mean_b
    lam = stats.mean_b * stats.var_a + stats.mean_a * stats.var_b
    omega_h = lam / (eta * tau + (1.0 - eta) * lam)
    gamma_h = omega_h - 1.0
    loss = TwoArmLoss(eta_a=eta, eta_b=eta, gamma_a=gamma_h, gamma_b=gamma_h)
    return gamma_h, two_param_bound(c_matrix_two(stats, loss), target)


def _bright_lbs_stats():
    # bright, strongly anticorrelated arms: the regime the closed form
    # was derived for
    return lbs_moments(InterferometerInput(100.0, 2.5, SplitterSpec.lbs(0.5)))


def test_high_loss_two_arm_matches_optimizer():
    from phasebound import TwoArmSymmetric, optimize_gamma

    stats = _bright_lbs_stats()
    # inside the form's regime: variances within 5 %, J within 0.05 of -1
    assert abs(stats.var_a - stats.var_b) <= 0.05 * max(stats.var_a, stats.var_b)
    assert abs(derived_correlations(stats).j + 1.0) <= 0.05
    gamma_h, bound_h = high_loss_two_arm(stats, 0.1, Target.PHASE_DIFFERENCE)
    result = optimize_gamma(stats, TwoArmSymmetric(0.1), Target.PHASE_DIFFERENCE)
    assert bound_h == pytest.approx(result.minimum, rel=0.05)
    assert bound_h >= result.minimum * (1.0 - 1e-9)


def test_high_loss_two_arm_gamma_expression():
    stats = _bright_lbs_stats()
    eta = 0.1
    gamma_h, _ = high_loss_two_arm(stats, eta, Target.PHASE_DIFFERENCE)
    tau = stats.mean_a * stats.mean_b
    lam = stats.mean_b * stats.var_a + stats.mean_a * stats.var_b
    expected = eta * (lam - tau) / (eta * tau + (1.0 - eta) * lam)
    assert gamma_h == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Schur dominance under loss


@settings(max_examples=300, deadline=None)
@given(
    va=_var, vb=_var, jj=_jj, mean=_mean,
    eta=st.floats(min_value=0.01, max_value=0.99), gamma=_gamma,
)
def test_lossy_schur_never_exceeds_diagonal(va, vb, jj, mean, eta, gamma):
    cov = jj * math.sqrt(va) * math.sqrt(vb)
    stats = ModeStatistics(mean, mean, va, vb, cov)
    cm = c_matrix_single(stats, SingleArmLoss(eta, gamma))
    for target in Target:
        diag = cm.f_mm if target is Target.PHASE_DIFFERENCE else cm.f_pp
        bound = two_param_bound(cm, target)
        assert bound <= diag * (1.0 + 1e-12) + 1e-30
        assert bound >= -1e-12 * max(cm.f_pp, cm.f_mm)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SingleArmLoss(1.5, 0.0), "eta_a must be in [0, 1], got 1.5"),
        (lambda: TwoArmLoss(0.5, -0.25, 0.0, 0.0), "eta_b must be in [0, 1], got -0.25"),
        (lambda: SingleArm(2.0), "eta must be in [0, 1], got 2.0"),
        (lambda: TwoArmSymmetric(-1.0), "eta must be in [0, 1], got -1.0"),
        (lambda: TwoArmIndependent(1.25, 0.5), "eta_a must be in [0, 1], got 1.25"),
        # the fields are checked in order
        (lambda: TwoArmLoss(2.0, -1.0, 0.0, 0.0), "eta_a must be in [0, 1], got 2.0"),
    ],
)
def test_every_loss_type_reports_eta_out_of_range_alike(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


# a valid instance of every loss description; gamma is unchecked, so -5 passes
_VALID_LOSS = {
    SingleArmLoss: (0.5, -5.0),
    TwoArmLoss: (0.5, 0.5, -5.0, 0.25),
    SingleArm: (0.5,),
    TwoArmSymmetric: (0.5,),
    TwoArmIndependent: (0.5, 0.5),
}


@pytest.mark.parametrize(
    "cls, field",
    [(cls, name) for cls in _VALID_LOSS for name in cls._fields if name.startswith("eta")],
)
def test_every_eta_field_is_checked(cls, field):
    index = cls._fields.index(field)
    valid = cls(*_VALID_LOSS[cls])

    def fields(value):
        return (*_VALID_LOSS[cls][:index], value, *_VALID_LOSS[cls][index + 1 :])

    def builds(value):
        # by position, by keyword, and the namedtuple's _make and _replace
        return (
            lambda: cls(*fields(value)),
            lambda: cls(**dict(zip(cls._fields, fields(value)))),
            lambda: cls._make(fields(value)),
            lambda: valid._replace(**{field: value}),
        )

    for value in (0.0, 1.0):
        assert [build() for build in builds(value)] == [fields(value)] * 4
    for value in (math.nan, -0.1, 1.1):
        for build in builds(value):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == f"{field} must be in [0, 1], got {value}"


@pytest.mark.parametrize("cls", list(_VALID_LOSS))
def test_loss_descriptions_keep_the_namedtuple_interface(cls):
    plain = namedtuple(cls.__name__, cls._fields)
    valid = _VALID_LOSS[cls]
    assert repr(cls(*valid)) == repr(plain(*valid))
    for args in (valid[:-1], (*valid, 0.5)):
        with pytest.raises(TypeError) as exc:
            cls(*args)
        with pytest.raises(TypeError) as want:
            plain(*args)
        assert str(exc.value) == str(want.value)
