"""Information matrices under photon loss and their optimal bounds.

Loss on an arm is modeled by a family of Kraus decompositions indexed
by a continuous parameter gamma that distributes the loss relative to
the phase shift; every gamma yields a valid upper bound on the
information, so the tightest statement comes from minimizing over
gamma. This module provides the closed-form C matrices for single-arm
and two-arm loss, the Schur-complement bounds, the analytic optimal
gamma where one exists (single-arm), and the published limit-regime
forms used as cross-checks.

Production bounds always go through the matrix path (assemble C, take
the Schur complement); the long closed forms for the optimum are kept
in the test suite as independent oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import AssumptionViolation, DegenerateStatistics
from .moments import ModeStatistics, derived_correlations
from .qfim_ideal import FisherMatrix, Target, two_param_bound


@dataclass(frozen=True)
class SingleArmLoss:
    """Loss on arm a: transmission eta_a and distribution parameter gamma.

    gamma is mathematically unconstrained; the physical endpoints sit at
    gamma = 0 and gamma = -1 (loss entirely on one side of the phase
    shift), and the optimum may legitimately fall outside [-1, 0].
    """

    eta_a: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_a <= 1.0:
            raise ValueError(f"eta_a must be in [0, 1], got {self.eta_a}")


@dataclass(frozen=True)
class TwoArmLoss:
    """Independent loss on both arms."""

    eta_a: float
    eta_b: float
    gamma_a: float
    gamma_b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_a <= 1.0:
            raise ValueError(f"eta_a must be in [0, 1], got {self.eta_a}")
        if not 0.0 <= self.eta_b <= 1.0:
            raise ValueError(f"eta_b must be in [0, 1], got {self.eta_b}")


class Regime(Enum):
    SMALL_DISSIPATION = "small_dissipation"
    HIGH_DISSIPATION = "high_dissipation"


def c_matrix_single(stats: ModeStatistics, loss: SingleArmLoss) -> FisherMatrix:
    """Single-arm-loss information matrix.

    With u = eta_a - gamma*(1 - eta_a) and the loss term
    L = (gamma+1)**2 (1-eta_a) eta_a <n_a>:

        C_pp = u**2 var_a + var_b + 2 u cov + L
        C_mm = u**2 var_a + var_b - 2 u cov + L
        C_pm = u**2 var_a + L - var_b

    At eta_a = 1 this reduces to the ideal matrix for every gamma.
    """
    eta, gamma = loss.eta_a, loss.gamma
    u = eta - gamma * (1.0 - eta)
    big_l = (gamma + 1.0) ** 2 * (1.0 - eta) * eta * stats.mean_a
    ua_va = u * u * stats.var_a + big_l
    return FisherMatrix(
        f_pp=ua_va + stats.var_b + 2.0 * u * stats.cov,
        f_mm=ua_va + stats.var_b - 2.0 * u * stats.cov,
        f_pm=ua_va - stats.var_b,
    )


def c_matrix_two(stats: ModeStatistics, loss: TwoArmLoss) -> FisherMatrix:
    """Two-arm-loss information matrix (independent eta and gamma per arm)."""
    u_a = 1.0 - (loss.gamma_a + 1.0) * (1.0 - loss.eta_a)
    u_b = 1.0 - (loss.gamma_b + 1.0) * (1.0 - loss.eta_b)
    l_a = (loss.gamma_a + 1.0) ** 2 * (1.0 - loss.eta_a) * loss.eta_a * stats.mean_a
    l_b = (loss.gamma_b + 1.0) ** 2 * (1.0 - loss.eta_b) * loss.eta_b * stats.mean_b
    arm_a = u_a * u_a * stats.var_a + l_a
    arm_b = u_b * u_b * stats.var_b + l_b
    cross = 2.0 * u_a * u_b * stats.cov
    return FisherMatrix(
        f_pp=arm_a + arm_b + cross,
        f_mm=arm_a + arm_b - cross,
        f_pm=arm_a - arm_b,
    )


def gamma_opt_single(stats: ModeStatistics, eta_a: float, target: Target) -> float:
    """Analytic stationary point of the single-arm two-parameter bound.

    For the phase difference the optimum is

        1 / [ (1-eta) + eta (1 + J sqrt(var_a/var_b)) / ((Q_a+1)(1-J^2)) ] - 1

    and the phase-sum optimum flips the sign of the J sqrt(var_a/var_b)
    term. It is the global minimum over gamma: ``optimize_gamma`` reaches
    the same gamma through the effective covariance of
    :mod:`phasebound.optimizer`, and the tests check that they agree.

    Raises
    ------
    DegenerateStatistics
        For |J| = 1, zero variances or means (formula singular), or
        when the stationary point escapes to infinity.
    ValueError
        For eta_a outside (0, 1).
    """
    if not 0.0 < eta_a < 1.0:
        raise ValueError(f"eta_a must be in (0, 1), got {eta_a}")
    q_a, _, j = derived_correlations(stats)
    if abs(j) >= 1.0:
        raise DegenerateStatistics("analytic optimum is singular at |J| = 1")
    ratio = math.sqrt(stats.var_a / stats.var_b)
    sign = 1.0 if target is Target.PHASE_DIFFERENCE else -1.0
    den = (1.0 - eta_a) + eta_a * (1.0 + sign * j * ratio) / ((q_a + 1.0) * (1.0 - j * j))
    if den == 0.0:
        raise DegenerateStatistics("optimal gamma diverges for these statistics")
    return 1.0 / den - 1.0


def optimal_bound_single(stats: ModeStatistics, eta_a: float, target: Target) -> float:
    """Single-arm two-parameter bound at the analytic optimal gamma.

    Implemented by substituting :func:`gamma_opt_single` back into the
    matrix path rather than transcribing the long closed forms (those
    live in the tests as cross-checks).
    """
    gamma = gamma_opt_single(stats, eta_a, target)
    return two_param_bound(c_matrix_single(stats, SingleArmLoss(eta_a, gamma)), target)


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


def c_bound_two_symmetric(
    stats: ModeStatistics, eta: float, gamma: float, target: Target
) -> float:
    """Two-parameter bound for equal loss and equal gamma on both arms.

    Pure convenience over the matrix path; the equivalent single-fraction
    closed form is exercised in the tests. Note the gamma = -1 endpoint
    collapses the matrix onto the ideal one for every eta, so the
    gamma family is loose there; the minimizer never selects it when
    loss matters.
    """
    loss = TwoArmLoss(eta_a=eta, eta_b=eta, gamma_a=gamma, gamma_b=gamma)
    return two_param_bound(c_matrix_two(stats, loss), target)


def high_loss_two_arm(
    stats: ModeStatistics, eta: float, target: Target
) -> tuple[float, float]:
    """High-loss closed form for the symmetric two-arm optimum.

    Derived for nearly equal variances with J near -1 (phase
    difference) or +1 (phase sum). Writing tau = <n_a><n_b> and
    lambda = <n_b> var_a + <n_a> var_b, the optimal shifted parameter is

        Omega_H = lambda / (eta tau + (1-eta) lambda)

    and the bound is the symmetric two-arm form evaluated at
    gamma = Omega_H - 1. Returned for comparison against
    ``optimize_gamma`` only.

    Returns
    -------
    (gamma_h, bound_h)

    Raises
    ------
    AssumptionViolation
        For eta = 1 (the derivation assumes loss). A non-fatal
        AssumptionViolation *warning* is emitted when the statistics
        miss the regime gates (|var_a - var_b| > 5% of the larger, or
        J more than 0.05 away from the special-case value).
    """
    if not 0.0 <= eta < 1.0:
        raise AssumptionViolation(f"high-loss form requires eta in [0, 1), got {eta}")
    _, _, j = derived_correlations(stats)
    j_special = -1.0 if target is Target.PHASE_DIFFERENCE else 1.0
    if abs(stats.var_a - stats.var_b) > 0.05 * max(stats.var_a, stats.var_b):
        warnings.warn(
            AssumptionViolation("high-loss form assumes approximately equal variances")
        )
    if abs(j - j_special) > 0.05:
        warnings.warn(
            AssumptionViolation(f"high-loss form assumes J near {j_special}, got {j}")
        )
    tau = stats.mean_a * stats.mean_b
    lam = stats.mean_b * stats.var_a + stats.mean_a * stats.var_b
    omega_h = lam / (eta * tau + (1.0 - eta) * lam)
    gamma_h = omega_h - 1.0
    return gamma_h, c_bound_two_symmetric(stats, eta, gamma_h, target)
