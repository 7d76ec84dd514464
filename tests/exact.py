"""Exact per-arm lossy bounds in rational arithmetic, standard library only.

For independent arms (one-arm loss is eta_b = 1) the least bounds over a
gamma per arm are the Schur complement and the target diagonal of the ideal
matrix of M = V (I + K V)^-1, with V the covariance of the arms and
K = diag((1 - eta_i)/(eta_i <n_i>)). Written out, with s = var_a var_b - cov**2
and det = 1 + k_a var_a + k_b var_b + k_a k_b s:
M_aa = (var_a + k_b s)/det, M_bb = (var_b + k_a s)/det, M_ab = cov/det.
Every input float is exact as a Fraction, so the result is the exact value
that a float computation of the same inputs should round to.
"""

import math
from fractions import Fraction

from phasebound import Target


def _arm_k(eta, mean):
    """k_i, or None (k_i -> infinity) for an arm that keeps nothing."""
    kept = Fraction(eta) * Fraction(mean)
    return Fraction(0) if eta == 1.0 else (1 - Fraction(eta)) / kept if kept else None


def _effective(va, vb, cov, k_a, k_b):
    """(M_aa, M_bb, M_ab), with the limits k_i -> infinity taken exactly."""
    s = va * vb - cov * cov
    if k_a is None:  # arm a keeps nothing: only arm b's variance, conditioned on a, is left
        m_bb = 0 if k_b is None else s / (va + k_b * s) if va + k_b * s else vb / (1 + k_b * vb)
        return Fraction(0), Fraction(m_bb), Fraction(0)
    if k_b is None:
        m_bb, m_aa, m_ab = _effective(vb, va, cov, k_b, k_a)
        return m_aa, m_bb, m_ab
    det = 1 + k_a * va + k_b * vb + k_a * k_b * s
    return (va + k_b * s) / det, (vb + k_a * s) / det, cov / det


def exact_bounds(moments, eta_a, eta_b, target):
    """(info_single, info_two) as Fractions: the least target diagonal and
    the least Schur bound over a gamma per arm, from five float moments
    (mean_a, mean_b, var_a, var_b, cov) and two float etas."""
    mean_a, mean_b, va, vb, cov = (Fraction(x) for x in moments)
    m_aa, m_bb, m_ab = _effective(va, vb, cov, _arm_k(eta_a, mean_a), _arm_k(eta_b, mean_b))
    sign = 1 if target is Target.PHASE_SUM else -1
    diag, comp, f_pm = m_aa + m_bb + 2 * sign * m_ab, m_aa + m_bb - 2 * sign * m_ab, m_aa - m_bb
    return diag, diag - f_pm * f_pm / comp if comp else diag


def ulps(value, exact):
    """|value - exact| in units of the last place of the float nearest exact."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))
