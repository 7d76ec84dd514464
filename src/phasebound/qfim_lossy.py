"""Information matrices under photon loss and their optimal bounds.

Loss on an arm is modeled by a family of Kraus decompositions indexed
by a continuous parameter gamma that distributes the loss relative to
the phase shift; every gamma yields a valid upper bound on the
information, so the tightest statement comes from minimizing over
gamma. This module provides the C matrices for single-arm and two-arm
loss and the analytic optimal gamma where one exists (single-arm).

C is the ideal matrix (``qfim_matrix``) of the moments the arms keep:
each variance becomes u_i**2 var_i + L_i and the covariance u_a u_b cov,
with u_i = 1 - (gamma_i + 1)(1 - eta_i) and the loss term
L_i = (gamma_i + 1)**2 (1 - eta_i) eta_i <n_i>. Production bounds read C
through ``two_param_bound``; the long closed forms for the optimum and its
limits are kept in the test suite as independent oracles.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateStatistics
from .moments import ModeStatistics, _Checked, derived_correlations
from .qfim_ideal import FisherMatrix, Target, qfim_matrix
# perfbench/probes.py wraps phasebound.qfim_lossy.two_param_bound
from .qfim_ideal import two_param_bound  # noqa: F401


class _Loss(_Checked):
    """Base of the loss descriptions, each ``class X(_Loss, namedtuple(...))``:
    the namedtuple builds the tuple, then every field named eta* must lie in
    [0, 1], checked in field order."""

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> "_Loss":
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if name.startswith("eta") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        return self


class SingleArmLoss(_Loss, namedtuple("SingleArmLoss", "eta_a gamma")):
    """Loss on arm a: transmission eta_a and distribution parameter gamma.

    gamma is mathematically unconstrained; the physical endpoints sit at
    gamma = 0 and gamma = -1 (loss entirely on one side of the phase
    shift), and the optimum may legitimately fall outside [-1, 0].
    """

    __slots__ = ()


class TwoArmLoss(_Loss, namedtuple("TwoArmLoss", "eta_a eta_b gamma_a gamma_b")):
    """Independent loss on both arms."""

    __slots__ = ()


def c_matrix_single(stats: ModeStatistics, loss: SingleArmLoss) -> FisherMatrix:
    """Single-arm-loss information matrix: ``c_matrix_two`` at
    (eta_a, 1, gamma, 0), where arm b is exact (u_b = 1, L_b = 0); loss is
    read by position. At eta_a = 1 this is the ideal matrix for every gamma.
    """
    return c_matrix_two(stats, (loss[0], 1.0, loss[1], 0.0))


def c_matrix_two(stats: ModeStatistics, loss: TwoArmLoss) -> FisherMatrix:
    """Two-arm-loss information matrix (independent eta and gamma per arm):
    the ideal matrix of var_i -> u_i**2 var_i + L_i and cov -> u_a u_b cov,
    with u_i = 1 - (gamma_i + 1)(1 - eta_i) and
    L_i = (gamma_i + 1)**2 (1 - eta_i) eta_i <n_i>; loss is read by position."""
    mean_a, mean_b, var_a, var_b, cov = stats
    eta_a, eta_b, gamma_a, gamma_b = loss
    w_a, w_b, k_a, k_b = gamma_a + 1.0, gamma_b + 1.0, 1.0 - eta_a, 1.0 - eta_b
    u_a, u_b = 1.0 - w_a * k_a, 1.0 - w_b * k_b
    arm_a = u_a * u_a * var_a + w_a**2 * k_a * eta_a * mean_a
    arm_b = u_b * u_b * var_b + w_b**2 * k_b * eta_b * mean_b
    return qfim_matrix((mean_a, mean_b, arm_a, arm_b, u_a * u_b * cov))


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
