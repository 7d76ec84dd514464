"""Photon-number statistics behind every bound in the package.

The state after the first splitter is summarized by five numbers: the
two mean photon numbers, the two variances, and the covariance. For the
coherent (x) squeezed-vacuum input the closed forms are implemented here
for both splitter flavors (passive linear splitter with transmissivity
T, active nonlinear splitter with gain G). Arbitrary states enter the
rest of the package by constructing :class:`ModeStatistics` directly.

Phase matching is hard-coded: the linear-splitter forms assume
2*theta_alpha - theta_r = 0 and the nonlinear forms assume
2*theta_g - 2*theta_alpha - theta_r = pi, so no phase angles are stored.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateStatistics

# Relative slack on the Cauchy-Schwarz check |cov| <= sqrt(var_a var_b);
# closed forms can overshoot it by a few ulps at |J| -> 1. One subnormal
# step is allowed on top: a subnormal variance can round to 0 while cov
# rounds to that step.
_CS_SLACK = 5e-10


class _Checked(tuple):
    """First base of each checked namedtuple: _make and _replace build through cls()."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class SplitterKind(Enum):
    LBS = "lbs"  # passive linear beam splitter, parameter T
    NBS = "nbs"  # active nonlinear beam splitter, parameter G


# the members each row compares with, bound once: Python 3.11 finds
# SplitterKind.LBS through EnumType.__getattr__, about 0.1 us a lookup
_LBS, _NBS = SplitterKind.LBS, SplitterKind.NBS


class SplitterSpec(_Checked, namedtuple("SplitterSpec", "kind value")):
    """First-splitter description: LBS transmissivity or NBS gain."""

    __slots__ = ()

    def __new__(cls, kind: SplitterKind, value: float) -> "SplitterSpec":
        if kind is _LBS:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"LBS transmissivity must be in [0, 1], got {value}")
        else:
            if value < 1.0:
                raise ValueError(f"NBS gain must be >= 1, got {value}")
        return tuple.__new__(cls, (kind, value))

    @classmethod
    def lbs(cls, transmissivity: float) -> "SplitterSpec":
        return cls(SplitterKind.LBS, float(transmissivity))

    @classmethod
    def nbs(cls, gain: float) -> "SplitterSpec":
        return cls(SplitterKind.NBS, float(gain))


class InterferometerInput(
    _Checked, namedtuple("InterferometerInput", "alpha_mag squeeze_r splitter")
):
    """Coherent (x) squeezed-vacuum input plus the first splitter."""

    __slots__ = ()

    def __new__(
        cls, alpha_mag: float, squeeze_r: float, splitter: SplitterSpec
    ) -> "InterferometerInput":
        if alpha_mag < 0.0:
            raise ValueError(f"alpha_mag must be >= 0, got {alpha_mag}")
        if squeeze_r < 0.0:
            raise ValueError(f"squeeze_r must be >= 0, got {squeeze_r}")
        return tuple.__new__(cls, (alpha_mag, squeeze_r, splitter))


class ModeStatistics(_Checked, namedtuple("ModeStatistics", "mean_a mean_b var_a var_b cov")):
    """First and second photon-number moments of the two-mode state.

    Attributes
    ----------
    mean_a, mean_b:
        Mean photon numbers of the two arms.
    var_a, var_b:
        Photon-number variances.
    cov:
        Covariance of the two arms' photon numbers.
    """

    __slots__ = ()

    def __new__(
        cls, mean_a: float, mean_b: float, var_a: float, var_b: float, cov: float
    ) -> "ModeStatistics":
        # a NaN fails each "not (... <= ...)", and an infinity its upper bound
        if not (0.0 <= mean_a < math.inf and 0.0 <= mean_b < math.inf):
            raise ValueError(f"mean photon numbers must be >= 0 and finite: {mean_a}, {mean_b}")
        if not (0.0 <= var_a < math.inf and 0.0 <= var_b < math.inf):
            raise ValueError(f"variances must be >= 0 and finite: {var_a}, {var_b}")
        # square roots first, so no product over- or underflows at any scale
        root = math.sqrt(var_a) * math.sqrt(var_b)
        if not abs(cov) <= root * (1.0 + _CS_SLACK) + math.ulp(0.0):
            raise ValueError(f"cov={cov} violates |cov| <= sqrt(var_a*var_b)={root}")
        return tuple.__new__(cls, (mean_a, mean_b, var_a, var_b, cov))


class Correlations(NamedTuple):
    q_a: float
    q_b: float
    j: float


def lbs_moments(inp: InterferometerInput) -> ModeStatistics:
    """Moments of the coherent (x) squeezed-vacuum input after an LBS.

    Parameters
    ----------
    inp:
        Input with an LBS splitter (transmissivity T, reflectivity
        R = 1 - T).

    Returns
    -------
    ModeStatistics
        The five closed-form moments.
    """
    if inp.splitter.kind is not _LBS:
        raise ValueError("lbs_moments requires an LBS splitter")
    t = inp.splitter.value
    rr = 1.0 - t
    a2 = inp.alpha_mag ** 2
    sh2 = math.sinh(inp.squeeze_r) ** 2
    ch2 = math.cosh(inp.squeeze_r) ** 2
    e2r = math.exp(2.0 * inp.squeeze_r)
    c2r = math.cosh(2.0 * inp.squeeze_r)
    # mean_a, mean_b, var_a, var_b, cov, by position: keywords cost a scan row ~0.6 us
    return ModeStatistics(
        t * a2 + rr * sh2,
        rr * a2 + t * sh2,
        t * t * a2 + 2.0 * rr * rr * sh2 * ch2 + t * rr * (a2 * e2r + sh2),
        rr * rr * a2 + 2.0 * t * t * sh2 * ch2 + t * rr * (a2 * e2r + sh2),
        t * rr * (a2 * (1.0 - e2r) + sh2 * c2r),
    )


def nbs_moments(inp: InterferometerInput) -> ModeStatistics:
    """Moments of the coherent (x) squeezed-vacuum input after an NBS.

    Parameters
    ----------
    inp:
        Input with an NBS splitter (gain G, g**2 = G**2 - 1).

    Returns
    -------
    ModeStatistics
        The five closed-form moments; the covariance is positive (the
        amplifier correlates the arms).
    """
    if inp.splitter.kind is not _NBS:
        raise ValueError("nbs_moments requires an NBS splitter")
    big_g2 = inp.splitter.value ** 2
    g2 = big_g2 - 1.0
    a2 = inp.alpha_mag ** 2
    sh2 = math.sinh(inp.squeeze_r) ** 2
    ch2 = math.cosh(inp.squeeze_r) ** 2
    e2r = math.exp(2.0 * inp.squeeze_r)
    c2r = math.cosh(2.0 * inp.squeeze_r)
    return ModeStatistics(  # mean_a, mean_b, var_a, var_b, cov
        big_g2 * a2 + g2 * ch2,
        big_g2 * sh2 + g2 * (a2 + 1.0),
        big_g2 * big_g2 * a2 + 2.0 * g2 * g2 * sh2 * ch2 + big_g2 * g2 * (a2 * e2r + ch2),
        g2 * g2 * a2 + 2.0 * big_g2 * big_g2 * sh2 * ch2 + big_g2 * g2 * (a2 * e2r + ch2),
        big_g2 * g2 * (a2 * (1.0 + e2r) + ch2 * c2r),
    )


def derived_correlations(stats: ModeStatistics) -> Correlations:
    """Mandel Q of each arm and the intermode correlation J.

    Q_i = (var_i - mean_i)/mean_i and J = cov/sqrt(var_a*var_b); J is
    clamped to [-1, 1] only when the overshoot is numerical noise
    (<= 1e-12).

    Raises
    ------
    DegenerateStatistics
        If a mean (for Q) or a variance product (for J) vanishes.
    """
    if stats.mean_a <= 0.0 or stats.mean_b <= 0.0:
        raise DegenerateStatistics("Mandel Q undefined for zero mean photon number")
    # sqrt before multiplying so subnormal variances do not underflow
    denom = math.sqrt(stats.var_a) * math.sqrt(stats.var_b)
    if denom <= 0.0:
        raise DegenerateStatistics("correlation J undefined for zero variance")
    q_a = (stats.var_a - stats.mean_a) / stats.mean_a
    q_b = (stats.var_b - stats.mean_b) / stats.mean_b
    j = stats.cov / denom
    if 1.0 < abs(j) <= 1.0 + 1e-12:
        j = math.copysign(1.0, j)
    return Correlations(q_a, q_b, j)
