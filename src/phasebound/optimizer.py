"""Exact minimization over the loss-distribution parameter gamma.

Every gamma gives a valid bound (Escher, de Matos Filho and Davidovich,
Nat. Phys. 7, 406 (2011)), so the reportable number is the global minimum
over gamma. Two minima are reported: the two-parameter (Schur) bound and
the single-parameter one, the bare target diagonal. Each loss family finds
both in closed form from one solve, without a search.

The Schur bound diag - f_pm**2/comp of a PSD 2x2 C is min_t v^T C v with
v = e_target + t e_other. With w = (1 + t, 1 - t) for the phase sum or
(1 + t, t - 1) for the difference, u_i = 1 - (gamma_i + 1)(1 - eta_i) as in
``c_matrix_two`` and z = (w_a u_a, w_b u_b), v^T C(gamma) v is
z^T V z + (w - z)^T D (w - z), V = [[var_a, cov], [cov, var_b]] and
D = diag(eta_i <n_i>/(1 - eta_i)).

Independent arms (one-arm loss is eta_b = 1): each gamma_i moves z_i
freely, so the minimum is w^T M w with M = V (I + K V)^-1, K = D^-1: each
variance combines in parallel with eta <n>/(1 - eta), Escher's single-mode
result for correlated arms. Both bounds are read from M by the ideal
kernel (``qfim_matrix``, ``two_param_bound``): its Schur bound is the least
bound, even where a gamma runs to infinity, and its diagonal the least
single-parameter information. C is built only at the argmin, which follows
from t* = -F_pm/F_comp, z = (I + K V)^-1 w and
gamma_i = (1 - z_i/w_i)/(1 - eta_i) - 1, computed without inverting V or D.
A free gamma_i (eta_i = 1, or w_i = 0) is reported as 0; an arm without
variance takes gamma_i = -1 (u_i = 1).

Symmetric arms: z = u w, so the form is u**2 S + (1 - u)**2 L/(1 - eta)
with S = w^T V w and L = eta (<n_a> w_a**2 + <n_b> w_b**2), least at
u = L/((1 - eta) S + L) in [0, 1] with value g = S L/((1 - eta) S + L).
S and L are quadratics in t with vertices t_S and t_L; dg/dt has the sign
of the quintic (1 - eta) L'' (t - t_L) S**2 + S'' (t - t_S) L**2, negative
below both vertices and positive above, so the minima lie between them,
among the quintic's roots, isolated between those of its derivatives.
Of these candidates the one with the least g gives
gamma = S/((1 - eta) S + L) - 1. The diagonal is the form at t = 0, so its
gamma comes from S and L there, in the same solve; each bound is read from
C at its gamma.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Union

from .errors import NonFiniteObjective
from .moments import ModeStatistics
from .qfim_ideal import FisherMatrix, Target, qfim_matrix, two_param_bound
from .qfim_ideal import _SUM, _split
from .qfim_lossy import _Loss, c_matrix_two
# perfbench/probes.py wraps phasebound.optimizer.c_matrix_single
from .qfim_lossy import c_matrix_single  # noqa: F401

_FREE_GAMMA = 0.0  # gamma reported where the bound does not depend on it
_ULP = 2.0**-52


class SingleArm(_Loss, namedtuple("SingleArm", "eta")):
    """Loss on arm a only."""

    __slots__ = ()


class TwoArmSymmetric(_Loss, namedtuple("TwoArmSymmetric", "eta")):
    """Equal loss on both arms, one shared gamma."""

    __slots__ = ()


class TwoArmIndependent(_Loss, namedtuple("TwoArmIndependent", "eta_a eta_b")):
    """Independent loss on both arms, one gamma per arm."""

    __slots__ = ()


class OptimizationResult(NamedTuple):
    """Outcome of a gamma minimization. argmin, minimum, matrix and converged
    describe the two-parameter bound: argmin is one gamma, or a
    (gamma_a, gamma_b) pair for independent arms; matrix is C at argmin, the
    matrix reported with the bound; converged is False only when the infimum
    is approached as a gamma runs to infinity, where minimum is still that
    infimum. evaluations is always 1 (one solve per call), kept because the
    benchmark reads it. single_minimum is the least target diagonal of C, the
    single-parameter information; it is always attained."""

    argmin: Union[float, tuple[float, float]]
    minimum: float
    evaluations: int
    converged: bool
    matrix: FisherMatrix
    single_minimum: float


def _loss_weights(eta: float, mean: float, var: float) -> tuple[float, float]:
    """(a, b) in proportion to (eta <n>, (1 - eta) var), the loss term in standard
    units, scaled to a maximum of 1; (1, 0) pins z_i = w_i for a lossless arm or
    one without variance. A loss term under an ulp of the variance is dropped."""
    a, b = eta * mean, (1.0 - eta) * var
    if b == 0.0 or a * _ULP > b:
        return 1.0, 0.0
    return (0.0, 1.0) if a <= _ULP * b else (1.0, b / a) if a > b else (a / b, 1.0)


def _pair_argmin(
    stats: ModeStatistics, eta_a: float, eta_b: float, target: Target
) -> tuple[tuple[float, float], bool, FisherMatrix]:
    """The closed-form (gamma_a, gamma_b) at t*, False when the infimum needs a
    gamma_i at infinity (w_i = 0 but z_i != 0), and the ideal matrix of M, from
    which both bounds are read. Works in standard units sd_i z_i, where V is
    the correlation matrix, so arms of any relative size keep precision."""
    sd_a, sd_b = math.sqrt(stats.var_a) or 1.0, math.sqrt(stats.var_b) or 1.0
    r_a, r_b = float(stats.var_a > 0.0), float(stats.var_b > 0.0)
    j = math.copysign(min(abs(stats.cov / sd_a / sd_b), 1.0), stats.cov)
    a_a, b_a = _loss_weights(eta_a, stats.mean_a, stats.var_a)
    a_b, b_b = _loss_weights(eta_b, stats.mean_b, stats.var_b)
    s = max(r_a * r_b - j * j, 0.0)
    # det = 0 only with no loss term on either arm and |J| = 1: then M = 0 and z = 0
    det = b_a * b_b * s + a_a * b_b * r_b + a_b * b_a * r_a + a_a * a_b or math.inf
    m = (  # V bit for bit where neither arm keeps a loss term: then det = 1
        a_a * (b_b * s + a_b * r_a) * stats.var_a / det,
        a_b * (b_a * s + a_a * r_b) * stats.var_b / det,
        a_a * a_b * stats.cov / det,
    )
    fm = qfim_matrix((*stats[:2], *m))
    _, comp, tol = _split(fm, target)
    # 0 where the Schur kernel treats f_pm as zero, as two_param_bound does
    t = -fm.f_pm / comp if comp > 0.0 and abs(fm.f_pm) > tol else 0.0
    w_a, w_b = 1.0 + t, (1.0 - t if target is _SUM else t - 1.0)
    v_a, v_b = sd_a * w_a, sd_b * w_b  # w in standard units
    y_a = ((b_b * r_b + a_b) * a_a * v_a - b_a * j * a_b * v_b) / det
    y_b = ((b_a * r_a + a_a) * a_b * v_b - b_b * j * a_a * v_a) / det
    gammas, attained = [], True
    for y, v, sd, b, eta in ((y_a, v_a, sd_a, b_a, eta_a), (y_b, v_b, sd_b, b_b, eta_b)):
        if b == 0.0:  # pinned at u_i = 1, where gamma_i = -1 unless eta_i = 1
            gammas.append(_FREE_GAMMA if eta == 1.0 else -1.0)
        elif v == 0.0:  # z_i = y/sd is linear in w and dimensionless: compare it with w
            attained = attained and abs(y / sd) <= 1e-9 * (abs(w_a) + abs(w_b))
            gammas.append(_FREE_GAMMA)
        else:
            gammas.append((1.0 - y / v) / (1.0 - eta) - 1.0)
    # the matrix path squares gamma; written so that a NaN is refused too
    if not (abs(gammas[0]) < 1e150 and abs(gammas[1]) < 1e150):
        raise NonFiniteObjective(f"optimal gamma {gammas} is out of float range")
    return (gammas[0], gammas[1]), attained, fm


def _horner(p: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _bisect(p: list[float], lo: float, hi: float) -> float:
    """Root of p where it changes sign strictly inside [lo, hi]."""
    lo_negative = _horner(p, lo) < 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (_horner(p, mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return mid


def _unit_roots(p: list[float]) -> list[float]:
    """Roots in [0, 1] of p and all its derivatives, with 0 and 1: p is
    monotone between roots of p', and a k-fold root of p is a simple root
    of its (k-1)-th derivative."""
    if len(p) < 2:
        return [0.0, 1.0]
    edges = sorted(set(_unit_roots([k * c for k, c in enumerate(p)][1:])))
    roots = []
    for lo, hi in zip(edges, edges[1:]):
        p_lo, p_hi = _horner(p, lo), _horner(p, hi)
        if p_lo != 0.0 and p_hi != 0.0 and (p_lo < 0.0) != (p_hi < 0.0):
            roots.append(_bisect(p, lo, hi))
    return roots + edges


def _least_gamma(pairs: list[tuple[float, float]], b: float) -> float:
    """The gamma of the (S, L) candidate with the least g: u = L/(b S + L)
    gives gamma + 1 = S/(b S + L) and g = L (gamma + 1); where S = L = 0 the
    form vanishes for every gamma."""
    candidates = [(lv, sv / (b * sv + lv) if b * sv + lv > 0.0 else 1.0) for sv, lv in pairs]
    return min(candidates, key=lambda c: c[0] * c[1])[1] - 1.0


def _shared_gamma(stats: ModeStatistics, eta: float, target: Target) -> tuple[float, float]:
    """The gammas at which the symmetric-loss bound and its diagonal (t = 0)
    take their minima."""
    b = 1.0 - eta
    if b == 0.0:
        return _FREE_GAMMA, _FREE_GAMMA  # the matrix does not depend on gamma
    # all below is homogeneous in the moments (the quintic is cubic in them): an exact
    # power of four brings the largest near 1, scales each quantity by an exact power
    # of two and leaves gamma as it is
    shift = -2 * (math.frexp(max(stats))[1] // 2)
    mean_a, mean_b = math.ldexp(stats.mean_a, shift), math.ldexp(stats.mean_b, shift)
    va, vb = math.ldexp(stats.var_a, shift), math.ldexp(stats.var_b, shift)
    cov = math.ldexp(stats.cov, shift)
    a_a, a_b = eta * mean_a, eta * mean_b
    l2 = a_a + a_b
    if l2 == 0.0:
        return eta / b, eta / b  # no loss term: C = u**2 F, least at u = 0
    cov = cov if target is Target.PHASE_SUM else -cov
    # S = (p + q t)**2 + r (1 + e t)**2 (larger variance first) stays accurate at |J| = 1
    big, e = (va, -1.0) if va >= vb else (vb, 1.0)
    root = math.sqrt(big)
    ratio = cov / root if root else 0.0
    p, q = root + ratio, e * (ratio - root)
    r = max(va * vb - cov * cov, 0.0) / big if big else 0.0
    s2, t_l, l0 = q * q + r, (a_b - a_a) / l2, 4.0 * a_a * a_b / l2  # S = s2 (t - t_s)**2 + s0
    # S is constant (g least where L is) where q and r are 0 within the rounding of
    # ratio - root and of va vb - cov**2, as at |J| = 1 and equal variances; in
    # squares, so that s2 > 0 below even where q * q underflows
    tol = 4.0 * _ULP * p
    if q * q <= tol * tol and r <= tol * p:
        pairs = [(p * p, l0)]
    else:
        s0 = r * (p - e * q) ** 2 / s2
        d = -(p * q + r * e) / s2 - t_l  # t_s - t_l
        # the quintic b l2 (t - t_l) S**2 + s2 (t - t_s) L**2 over t = t_l + d sigma is
        # c sigma (alpha (sigma - 1)**2 + s0)**2 + k (sigma - 1)(beta sigma**2 + l0)**2
        alpha, beta, c, k = s2 * d * d, l2 * d * d, b * l2, s2
        e1 = alpha + s0
        quintic = [
            -k * l0 * l0,
            c * e1 * e1 + k * l0 * l0,
            -4.0 * c * alpha * e1 - 2.0 * k * beta * l0,
            c * (4.0 * alpha * alpha + 2.0 * alpha * e1) + 2.0 * k * beta * l0,
            -4.0 * c * alpha * alpha - k * beta * beta,
            c * alpha * alpha + k * beta * beta,
        ]
        sigmas = sorted(set(_unit_roots(quintic)))
        pairs = [(alpha * (sg - 1.0) ** 2 + s0, beta * sg * sg + l0) for sg in sigmas]
    return _least_gamma(pairs, b), _least_gamma([(p * p + r, l2)], b)  # (S, L) at t = 0


def optimize_gamma(
    stats: ModeStatistics,
    loss_family: Union[SingleArm, TwoArmSymmetric, TwoArmIndependent],
    target: Target,
) -> OptimizationResult:
    """Globally minimize both information bounds over the loss distribution gamma.

    One solve gives the two-parameter Schur-complement bound (argmin,
    minimum, matrix, converged) and the bare diagonal that single-parameter
    estimation reports (single_minimum). The Schur kernel's own errors
    propagate; a diagonal that is not finite raises NonFiniteObjective.
    """
    if isinstance(loss_family, TwoArmSymmetric):
        eta, attained = loss_family.eta, True
        argmin, single_gamma = _shared_gamma(stats, eta, target)
        matrix = c_matrix_two(stats, (eta, eta, argmin, argmin))
        minimum = two_param_bound(matrix, target)  # raises where the kernel does
        single = _split(c_matrix_two(stats, (eta, eta, single_gamma, single_gamma)), target)[0]
        if not math.isfinite(single):
            raise NonFiniteObjective(f"diagonal {single} at gamma {single_gamma} is not finite")
    elif isinstance(loss_family, (SingleArm, TwoArmIndependent)):
        one_arm = isinstance(loss_family, SingleArm)
        etas = (loss_family.eta, 1.0) if one_arm else loss_family  # one arm: b is lossless
        pair, attained, fm = _pair_argmin(stats, *etas, target)
        argmin = pair[0] if one_arm else pair
        matrix = c_matrix_two(stats, (*etas, *pair))
        # raises where the kernel does, a diagonal that is not finite included
        minimum, single = two_param_bound(fm, target), _split(fm, target)[0]
    else:
        raise TypeError(f"unknown loss family: {loss_family!r}")
    return OptimizationResult(argmin, minimum, 1, attained, matrix, single)
