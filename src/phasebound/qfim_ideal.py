"""Lossless information matrix in the phase-sum/phase-difference basis.

The 2x2 matrix over (phi_plus, phi_minus) is determined by the five
photon-number moments; its Schur complements are the attainable
two-parameter bounds and the difference to the bare diagonal is the
overestimation picked up by a single-parameter treatment.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import NonFiniteObjective, NonpositiveInformation, SingularComplement
from .moments import ModeStatistics, _Checked

# Positive-semidefiniteness slack for matrices assembled from rounded moments,
# relative to the largest |element| (on the diagonals) and to its square (det)
_PSD_SLACK = 1e-10


class Target(Enum):
    PHASE_SUM = "phase_sum"              # phi_plus, the SU(1,1) estimand
    PHASE_DIFFERENCE = "phase_difference"  # phi_minus, the SU(2) estimand


class FisherMatrix(_Checked, namedtuple("FisherMatrix", "f_pp f_mm f_pm")):
    """Symmetric 2x2 information matrix (ideal F or lossy C).

    Attributes
    ----------
    f_pp, f_mm:
        Diagonal elements for the phase sum and phase difference.
    f_pm:
        The symmetric off-diagonal element.
    """

    __slots__ = ()

    def __new__(cls, f_pp: float, f_mm: float, f_pm: float) -> "FisherMatrix":
        # rounding leaves vanishing diagonals (and det) ulps below 0: both are judged in
        # units of the largest |element|, and no product can overflow (inf gives NaN)
        scale = max(abs(f_pp), abs(f_mm), abs(f_pm))
        if min(f_pp, f_mm) < -_PSD_SLACK * scale:
            raise ValueError("diagonal information elements must be >= 0")
        if scale:
            det = (f_pp / scale * f_mm - f_pm / scale * f_pm) / scale
            if det < -_PSD_SLACK:
                raise ValueError(f"matrix is not positive semidefinite: det={det} * {scale}**2")
        return tuple.__new__(cls, (f_pp, f_mm, f_pm))


def _tol(fm: FisherMatrix) -> float:
    # zero threshold for singular denominators, in the matrix's own units
    return 1e-12 * max(fm.f_pp, fm.f_mm)


def _split(fm: FisherMatrix, target: Target) -> tuple[float, float]:
    """(target diagonal, complementary diagonal) for the given target."""
    if target is Target.PHASE_DIFFERENCE:
        return fm.f_mm, fm.f_pp
    return fm.f_pp, fm.f_mm


def qfim_matrix(stats: ModeStatistics) -> FisherMatrix:
    """Ideal information matrix from the five moments, read by position: a
    ModeStatistics, or a plain tuple in its field order, which is not checked.

    The elements are var_a + var_b + 2 cov (sum-sum), var_a + var_b
    - 2 cov (difference-difference) and var_a - var_b (off-diagonal).
    The one FisherMatrix built without its check: C is PSD by construction,
    but a check at rounding level can refuse it where u**2 var underflows.
    """
    _, _, var_a, var_b, cov = stats
    return tuple.__new__(FisherMatrix, (
        var_a + var_b + 2.0 * cov,
        var_a + var_b - 2.0 * cov,
        var_a - var_b,
    ))


def _schur_terms(fm: FisherMatrix, target: Target) -> tuple[float, float]:
    """(target diagonal, f_pm**2 / complementary diagonal), the Schur rule
    shared by the bound and the overestimation: the second term is 0.0
    when f_pm is zero within tolerance; SingularComplement when only the
    complementary diagonal is; NonFiniteObjective when either term is not
    finite. Where f_pm**2 overflows but the shift need not, the shift is
    taken as f_pm * (f_pm / comp)."""
    diag, comp = _split(fm, target)
    tol = _tol(fm)
    if abs(fm.f_pm) <= tol:
        shift = 0.0
    elif comp <= tol:
        raise SingularComplement(
            f"complementary diagonal {comp} is ~0 while |f_pm|={abs(fm.f_pm)} > tol"
        )
    else:
        shift = fm.f_pm * fm.f_pm / comp
        if shift == math.inf:  # f_pm**2 overflows from |f_pm| ~ 1.3e154
            shift = fm.f_pm * (fm.f_pm / comp)
    if not (math.isfinite(diag) and math.isfinite(shift)):
        raise NonFiniteObjective(
            f"Schur terms diag={diag} and shift={shift} are not finite"
        )
    return diag, shift


def two_param_bound(fm: FisherMatrix, target: Target) -> float:
    """Schur complement of the matrix for the given target phase.

    This is the information actually available when the other phase
    combination is unknown too. When the off-diagonal element is zero
    (within tolerance) the diagonal passes through unchanged, which
    also resolves the 0/0 corner where the complementary diagonal
    vanishes as well.

    Raises
    ------
    SingularComplement
        If the complementary diagonal is numerically zero while the
        off-diagonal element is not.
    NonFiniteObjective
        If the diagonal or the f_pm**2/comp term is not finite.
    """
    diag, shift = _schur_terms(fm, target)
    return diag - shift


def overestimation(fm: FisherMatrix, target: Target) -> float:
    """Gap between the bare diagonal and the Schur complement.

    Zero exactly when the off-diagonal element is zero within
    tolerance; always >= 0.
    """
    return _schur_terms(fm, target)[1]


def qcrb(info: float, repeats: int = 1) -> float:
    """Cramer-Rao bound delta_phi = 1/sqrt(m * info) for m = repeats.

    Raises
    ------
    NonpositiveInformation
        If info is not a positive finite number (0, negative, +inf or NaN).
    ValueError
        If repeats < 1.
    """
    if not 0.0 < info < math.inf:
        raise NonpositiveInformation(f"cannot form a precision bound from info={info}")
    if repeats < 1:
        raise ValueError("repeats must be a positive integer")
    return 1.0 / math.sqrt(repeats * info)
