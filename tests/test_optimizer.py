"""The exact gamma-family optimizer, checked against independent routes.

The golden-section minimizer below is the heuristic the package used
before the exact minimizers; it stays here as a reference oracle that
knows nothing about the structure of the bound.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import (
    Correlations,
    FisherMatrix,
    InterferometerInput,
    ModeStatistics,
    NonFiniteObjective,
    OptimizationResult,
    SingleArm,
    SingularComplement,
    SplitterKind,
    SplitterSpec,
    Target,
    TwoArmIndependent,
    TwoArmSymmetric,
    lbs_moments,
    nbs_moments,
    optimize_gamma,
    overestimation,
    qfim_matrix,
    two_param_bound,
)
from phasebound.cli import Interferometer, LossKind, ScanSpec
from phasebound.fock_oracle import TruncatedState
from phasebound.optimizer import _pair_argmin, _shared_gamma
from phasebound.qfim_lossy import (
    SingleArmLoss,
    TwoArmLoss,
    c_matrix_single,
    c_matrix_two,
    gamma_opt_single,
)

SU2_STATS = lbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.7)))
SU11_STATS = nbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.nbs(1.2)))


def _single_gamma(stats, family, target):
    """The t = 0 gamma, at which optimize_gamma reads single_minimum."""
    if isinstance(family, TwoArmSymmetric):
        return _shared_gamma(stats, family.eta, target)[1]
    if isinstance(family, SingleArm):
        return _pair_argmin(stats, family.eta, 1.0, target)[0][1][0]
    return _pair_argmin(stats, *family, target)[0][1]


# ---------------------------------------------------------------------------
# reference scalar minimizer (test oracle)

_COARSE_POINTS = 129
_EVAL_BUDGET = 10_000
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class ScalarResult:
    argmin: float
    minimum: float
    evaluations: int
    converged: bool


class _Tracker:
    """Counts evaluations, enforces finiteness, remembers the best point."""

    def __init__(self, objective: Callable[[float], float], budget: int) -> None:
        self.objective = objective
        self.budget = budget
        self.count = 0
        self.best_x = math.nan
        self.best_y = math.inf

    def __call__(self, x: float) -> float:
        self.count += 1
        y = self.objective(x)
        if not math.isfinite(y):
            raise NonFiniteObjective(f"objective returned {y} at gamma={x}")
        if y < self.best_y:
            self.best_x, self.best_y = x, y
        return y

    @property
    def exhausted(self) -> bool:
        return self.count >= self.budget


def minimize_scalar(
    objective: Callable[[float], float], lo: float, hi: float, abs_tol: float = 1e-8
) -> ScalarResult:
    """Grid-bracketed golden-section minimization on [lo, hi].

    A 129-point scan picks the basin (lowest argument wins ties), then
    golden-section refines it until the bracket width drops below
    abs_tol. Flat objectives short-circuit after the scan. The returned
    minimum is the best evaluation seen, so it never exceeds any grid
    value.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not abs_tol > 0.0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol}")
    f = _Tracker(objective, _EVAL_BUDGET)
    step = (hi - lo) / (_COARSE_POINTS - 1)
    ys = []
    best_i = 0
    for i in range(_COARSE_POINTS):
        y = f(lo + i * step)
        ys.append(y)
        if y < ys[best_i]:
            best_i = i
    if max(ys) - min(ys) <= 1e-12 * max(1.0, abs(ys[best_i])):
        # constant on the grid: refinement has nothing to do
        return ScalarResult(f.best_x, f.best_y, f.count, True)
    a = lo + max(best_i - 1, 0) * step
    b = lo + min(best_i + 1, _COARSE_POINTS - 1) * step
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    while h > abs_tol and not f.exhausted:
        if yc <= yd:  # ties move left, keeping the lowest-gamma rule
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = f(d)
    return ScalarResult(f.best_x, f.best_y, f.count, h <= abs_tol)


# ---------------------------------------------------------------------------
# reference scalar minimizer: its own unit tests


def test_minimize_quadratic():
    result = minimize_scalar(lambda g: (g + 0.3) ** 2, -1.5, 0.5)
    assert result.converged
    assert abs(result.argmin - (-0.3)) <= 1e-8
    assert result.minimum == pytest.approx(0.0, abs=1e-15)


def test_minimize_cosine():
    result = minimize_scalar(math.cos, 0.0, 6.0)
    assert abs(result.argmin - math.pi) <= 1e-7
    assert result.minimum == pytest.approx(-1.0, abs=1e-14)


def test_minimum_is_objective_at_argmin():
    fn = lambda g: (g - 0.1) ** 4 + 0.5 * g  # noqa: E731
    result = minimize_scalar(fn, -1.0, 1.0)
    assert result.minimum == fn(result.argmin)
    assert -1.0 <= result.argmin <= 1.0


def test_flat_objective_short_circuits():
    calls = []

    def flat(g):
        calls.append(g)
        return 7.0

    result = minimize_scalar(flat, -1.0, 1.0)
    assert result.converged
    assert result.minimum == 7.0
    assert result.argmin == -1.0  # first scan point wins ties
    assert result.evaluations == len(calls) == 129


def test_non_finite_objective_raises():
    with pytest.raises(NonFiniteObjective):
        minimize_scalar(lambda g: float("nan"), 0.0, 1.0)
    with pytest.raises(NonFiniteObjective):
        minimize_scalar(lambda g: float("inf") if g > 0.5 else 1.0, 0.0, 1.0)


def test_minimize_validates_arguments():
    with pytest.raises(ValueError):
        minimize_scalar(math.cos, 1.0, 1.0)
    with pytest.raises(ValueError):
        minimize_scalar(math.cos, 2.0, 1.0)
    with pytest.raises(ValueError):
        minimize_scalar(math.cos, 0.0, 1.0, abs_tol=0.0)


def test_minimize_is_deterministic():
    fn = lambda g: math.sin(3.0 * g) + 0.1 * g * g  # noqa: E731
    first = minimize_scalar(fn, -2.0, 2.0)
    second = minimize_scalar(fn, -2.0, 2.0)
    assert first.argmin == second.argmin
    assert first.minimum == second.minimum
    assert first.evaluations == second.evaluations


# ---------------------------------------------------------------------------
# gamma optimization: single arm


def test_single_arm_matches_analytic_optimum():
    eta = 0.6
    result = optimize_gamma(SU2_STATS, SingleArm(eta), Target.PHASE_DIFFERENCE)
    analytic = gamma_opt_single(SU2_STATS, eta, Target.PHASE_DIFFERENCE)
    assert result.converged
    assert abs(result.argmin - analytic) <= 1e-6
    analytic_bound = two_param_bound(
        c_matrix_single(SU2_STATS, SingleArmLoss(eta, analytic)), Target.PHASE_DIFFERENCE
    )
    assert result.minimum == pytest.approx(analytic_bound, rel=1e-10)


def test_single_arm_lossless_is_flat_and_ideal():
    result = optimize_gamma(SU2_STATS, SingleArm(1.0), Target.PHASE_DIFFERENCE)
    assert result.converged
    assert result.minimum == pytest.approx(
        two_param_bound(qfim_matrix(SU2_STATS), Target.PHASE_DIFFERENCE), rel=1e-12
    )


def test_single_arm_result_reproduces_matrix_value():
    result = optimize_gamma(SU11_STATS, SingleArm(0.4), Target.PHASE_SUM)
    direct = two_param_bound(
        c_matrix_single(SU11_STATS, SingleArmLoss(0.4, result.argmin)), Target.PHASE_SUM
    )
    assert result.minimum == direct


def test_single_param_mode_minimizes_the_diagonal():
    eta = 0.5
    result = optimize_gamma(SU2_STATS, SingleArm(eta), Target.PHASE_DIFFERENCE)
    rng = np.random.default_rng(7)
    for gamma in rng.uniform(-1.5, 1.5, size=50):
        cm = c_matrix_single(SU2_STATS, SingleArmLoss(eta, gamma))
        assert result.single_minimum <= cm.f_mm * (1.0 + 1e-12)
    # the diagonal dominates the Schur complement pointwise, so the two
    # minima are ordered the same way
    assert result.single_minimum >= result.minimum * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# gamma optimization: two arms


def test_two_arm_symmetric_frozen_point():
    result = optimize_gamma(SU11_STATS, TwoArmSymmetric(0.7), Target.PHASE_SUM)
    assert result.converged
    assert result.argmin == pytest.approx(1.377364827604011, abs=1e-6)
    assert result.minimum == pytest.approx(12.247317176706858, rel=1e-9)


def test_two_arm_symmetric_beats_gamma_samples():
    result = optimize_gamma(SU11_STATS, TwoArmSymmetric(0.7), Target.PHASE_SUM)
    rng = np.random.default_rng(11)
    for gamma in rng.uniform(-1.5, 3.0, size=50):
        value = two_param_bound(
            c_matrix_two(SU11_STATS, TwoArmLoss(0.7, 0.7, gamma, gamma)), Target.PHASE_SUM
        )
        assert result.minimum <= value * (1.0 + 1e-12)


def test_two_arm_independent_refines_symmetric():
    sym = optimize_gamma(SU2_STATS, TwoArmSymmetric(0.7), Target.PHASE_DIFFERENCE)
    indep = optimize_gamma(SU2_STATS, TwoArmIndependent(0.7, 0.7), Target.PHASE_DIFFERENCE)
    assert indep.converged
    assert isinstance(indep.argmin, tuple) and len(indep.argmin) == 2
    # the independent family contains the symmetric diagonal
    assert indep.minimum <= sym.minimum * (1.0 + 1e-9)


def test_two_arm_independent_frozen_point():
    result = optimize_gamma(SU11_STATS, TwoArmIndependent(0.6, 0.8), Target.PHASE_SUM)
    gamma_a, gamma_b = result.argmin
    assert gamma_a == pytest.approx(1.9700564846151851, abs=1e-5)
    assert gamma_b == pytest.approx(1.238969884981463, abs=1e-5)
    assert result.minimum == pytest.approx(13.14621166856805, rel=1e-9)
    direct = two_param_bound(
        c_matrix_two(SU11_STATS, TwoArmLoss(0.6, 0.8, gamma_a, gamma_b)), Target.PHASE_SUM
    )
    assert result.minimum == pytest.approx(direct, rel=1e-12)


def test_unknown_family_raises_type_error():
    with pytest.raises(TypeError):
        optimize_gamma(SU2_STATS, object(), Target.PHASE_DIFFERENCE)


def test_optimizer_reports_evaluation_count():
    # every family picks its gamma in closed form and reads the bound from
    # one matrix, at that gamma
    families = (SingleArm(0.5), TwoArmSymmetric(0.5), TwoArmIndependent(0.5, 0.8))
    for family in families:
        result = optimize_gamma(SU2_STATS, family, Target.PHASE_DIFFERENCE)
        assert result.evaluations == 1
    lossless = optimize_gamma(SU2_STATS, TwoArmSymmetric(1.0), Target.PHASE_DIFFERENCE)
    assert lossless.evaluations == 1 and lossless.argmin == 0.0


@pytest.mark.parametrize(
    "family, matrix_at",
    [
        (SingleArm(0.6), lambda g: c_matrix_single(SU11_STATS, SingleArmLoss(0.6, g))),
        (TwoArmSymmetric(0.6), lambda g: c_matrix_two(SU11_STATS, TwoArmLoss(0.6, 0.6, g, g))),
        (
            TwoArmIndependent(0.6, 0.8),
            lambda g: c_matrix_two(SU11_STATS, TwoArmLoss(0.6, 0.8, *g)),
        ),
    ],
    ids=["single_arm", "two_arm_symmetric", "two_arm_independent"],
)
def test_result_matrix_is_c_at_the_argmin(family, matrix_at):
    # the CLI reports this matrix's elements and overestimation for the row
    result = optimize_gamma(SU11_STATS, family, Target.PHASE_SUM)
    expected = matrix_at(result.argmin)
    for field in ("f_pp", "f_mm", "f_pm"):
        assert getattr(result.matrix, field) == getattr(expected, field), field
    assert result.minimum == two_param_bound(result.matrix, Target.PHASE_SUM)
    single_gamma = _single_gamma(SU11_STATS, family, Target.PHASE_SUM)
    assert result.single_minimum == matrix_at(single_gamma).f_pp


# ---------------------------------------------------------------------------
# the closed form for independent arms, re-derived step by step


def _random_stats(rng):
    va, vb = rng.uniform(0.1, 10.0, size=2)
    cov = rng.uniform(-1.0, 1.0) * math.sqrt(va * vb)
    mean_a, mean_b = rng.uniform(0.1, 10.0, size=2)
    return ModeStatistics(mean_a, mean_b, va, vb, cov)


def _target_and_other(target, t):
    """v = e_target + t e_other in the (phase sum, phase difference) basis."""
    return (1.0, t) if target is Target.PHASE_SUM else (t, 1.0)


def _arm_weights(target, t):
    # w_a = v_plus + v_minus, w_b = v_plus - v_minus
    v_plus, v_minus = _target_and_other(target, t)
    return v_plus + v_minus, v_plus - v_minus


def _quadratic_form(cm, v):
    return v[0] ** 2 * cm.f_pp + v[1] ** 2 * cm.f_mm + 2.0 * v[0] * v[1] * cm.f_pm


def _effective_covariance(stats, eta_a, eta_b):
    """M = S (I + K S)^-1 by plain linear algebra, K = diag((1-eta)/(eta <n>))."""
    s = np.array([[stats.var_a, stats.cov], [stats.cov, stats.var_b]])
    k = np.diag(
        [(1.0 - eta_a) / (eta_a * stats.mean_a), (1.0 - eta_b) / (eta_b * stats.mean_b)]
    )
    return s @ np.linalg.inv(np.eye(2) + k @ s)


def test_schur_bound_is_the_minimum_over_t():
    rng = np.random.default_rng(3)
    for _ in range(200):
        stats = _random_stats(rng)
        eta_a, eta_b = rng.uniform(0.05, 0.95, size=2)
        gamma_a, gamma_b = rng.uniform(-3.0, 3.0, size=2)
        cm = c_matrix_two(stats, TwoArmLoss(eta_a, eta_b, gamma_a, gamma_b))
        for target in Target:
            comp = cm.f_mm if target is Target.PHASE_SUM else cm.f_pp
            t_star = -cm.f_pm / comp
            bound = two_param_bound(cm, target)
            assert _quadratic_form(cm, _target_and_other(target, t_star)) == pytest.approx(
                bound, rel=1e-9, abs=1e-12 * comp
            )
            for t in rng.uniform(-5.0, 5.0, size=5):
                assert _quadratic_form(cm, _target_and_other(target, t)) >= bound * (1 - 1e-12)


def test_quadratic_form_splits_into_covariance_and_loss_terms():
    rng = np.random.default_rng(4)
    for _ in range(200):
        stats = _random_stats(rng)
        eta = rng.uniform(0.05, 0.95, size=2)
        gamma = rng.uniform(-3.0, 3.0, size=2)
        t = rng.uniform(-3.0, 3.0)
        cm = c_matrix_two(stats, TwoArmLoss(eta[0], eta[1], gamma[0], gamma[1]))
        s = np.array([[stats.var_a, stats.cov], [stats.cov, stats.var_b]])
        d = np.diag(eta * np.array([stats.mean_a, stats.mean_b]) / (1.0 - eta))
        for target in Target:
            w = np.array(_arm_weights(target, t))
            z = w * (1.0 - (gamma + 1.0) * (1.0 - eta))  # z_i = w_i u_i
            split = z @ s @ z + (w - z) @ d @ (w - z)
            direct = _quadratic_form(cm, _target_and_other(target, t))
            assert direct == pytest.approx(split, rel=1e-10)


def test_minimum_is_the_ideal_kernel_on_the_effective_covariance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        stats = _random_stats(rng)
        eta_a, eta_b = rng.uniform(0.05, 0.95, size=2)
        m = _effective_covariance(stats, eta_a, eta_b)
        # M is the parallel combination of S and D, so it stays a covariance
        assert m[0, 1] == pytest.approx(m[1, 0], rel=1e-9, abs=1e-12)
        effective = ModeStatistics(stats.mean_a, stats.mean_b, m[0, 0], m[1, 1], m[0, 1])
        fm = qfim_matrix(effective)
        family = TwoArmIndependent(eta_a, eta_b)
        for target in Target:
            result = optimize_gamma(stats, family, target)
            diag = fm.f_pp if target is Target.PHASE_SUM else fm.f_mm
            assert result.converged
            assert result.minimum == pytest.approx(two_param_bound(fm, target), rel=1e-9)
            assert result.single_minimum == pytest.approx(diag, rel=1e-9)


def test_one_arm_closed_form_recovers_the_analytic_gamma():
    rng = np.random.default_rng(6)
    worst = 0.0
    checked = 0
    while checked < 1000:
        if checked % 2:
            stats = lbs_moments(
                InterferometerInput(rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.2),
                                    SplitterSpec.lbs(rng.uniform(0.1, 0.9)))
            )
            target = Target.PHASE_DIFFERENCE
        else:
            stats = nbs_moments(
                InterferometerInput(rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.2),
                                    SplitterSpec.nbs(rng.uniform(1.05, 2.0)))
            )
            target = Target.PHASE_SUM
        eta = rng.uniform(0.05, 0.95)
        analytic = gamma_opt_single(stats, eta, target)
        if abs(analytic) > 10.0:
            continue  # the closed form is well conditioned; the check is not
        result = optimize_gamma(stats, SingleArm(eta), target)
        worst = max(worst, abs(result.argmin - analytic))
        checked += 1
    assert worst <= 1e-11


def test_independent_minimum_never_exceeds_a_dense_lattice():
    rng = np.random.default_rng(7)
    lattice = np.sinh(np.linspace(-math.asinh(50.0), math.asinh(50.0), 61))
    for _ in range(20):
        stats = _random_stats(rng)
        eta_a, eta_b = rng.uniform(0.05, 0.95, size=2)
        for target in Target:
            result = optimize_gamma(stats, TwoArmIndependent(eta_a, eta_b), target)
            for gamma_a in lattice:
                for gamma_b in lattice:
                    cm = c_matrix_two(stats, TwoArmLoss(eta_a, eta_b, gamma_a, gamma_b))
                    assert result.minimum <= two_param_bound(cm, target) * (1 + 1e-9)


def test_reference_minimizer_never_beats_the_exact_minimum():
    rng = np.random.default_rng(8)
    for _ in range(30):
        stats = _random_stats(rng)
        eta_a, eta_b = rng.uniform(0.05, 0.95, size=2)
        for target in Target:
            sym = optimize_gamma(stats, TwoArmSymmetric(eta_a), target)
            ref = minimize_scalar(
                lambda g: two_param_bound(
                    c_matrix_two(stats, TwoArmLoss(eta_a, eta_a, g, g)), target
                ),
                sym.argmin - 3.0,
                sym.argmin + 3.0,
            )
            assert ref.minimum >= sym.minimum * (1 - 1e-12)
            # coordinate refinement from the independent-arm argmin gains nothing
            indep = optimize_gamma(stats, TwoArmIndependent(eta_a, eta_b), target)
            gamma_a, gamma_b = indep.argmin
            ref_a = minimize_scalar(
                lambda g: two_param_bound(
                    c_matrix_two(stats, TwoArmLoss(eta_a, eta_b, g, gamma_b)), target
                ),
                gamma_a - 3.0,
                gamma_a + 3.0,
            )
            assert ref_a.minimum >= indep.minimum * (1 - 1e-12)


# ---------------------------------------------------------------------------
# pinned cases and edge branches


def test_symmetric_second_basin_regression():
    # the scan-and-refine optimizer stopped in the basin near gamma = -0.913
    # at 870.36 and reported converged=True; the global minimum is far away
    stats = nbs_moments(InterferometerInput(0.2412, 1.0364, SplitterSpec.nbs(2.9626)))
    result = optimize_gamma(stats, TwoArmSymmetric(0.9115), Target.PHASE_SUM)
    assert result.converged
    assert result.minimum <= 373.548
    assert result.argmin == pytest.approx(8.8513, abs=1e-4)
    cm = c_matrix_two(stats, TwoArmLoss(0.9115, 0.9115, result.argmin, result.argmin))
    assert result.minimum == two_param_bound(cm, Target.PHASE_SUM)


@pytest.mark.parametrize(
    "moments, splitter, target, alphas",
    [
        (lbs_moments, SplitterSpec.lbs(0.5), Target.PHASE_DIFFERENCE,
         [1e20, 1e50, 1e120, 1e200, 1e300]),
        (nbs_moments, SplitterSpec.nbs(1.5), Target.PHASE_SUM, [1e20, 1e50, 1e120, 1e150]),
    ],
    ids=["SU2", "SU11"],
)
def test_shared_gamma_bound_is_proportional_to_a_huge_input(moments, splitter, target, alphas):
    # once |alpha|^2 swamps sinh(r)^2 the bound grows as <n_a>; the shared-gamma
    # quintic is cubic in the moments, and where it overflowed (SU2 from
    # |alpha|^2 ~ 1e155, SU11 from ~1e105) a candidate above the minimum won
    ratios = []
    for alpha_photons in alphas:
        stats = moments(InterferometerInput(math.sqrt(alpha_photons), 0.5, splitter))
        ratios.append(optimize_gamma(stats, TwoArmSymmetric(0.5), target).minimum / stats.mean_a)
    assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12)


def test_lossless_families_are_the_ideal_bound():
    # at eta = 1, u = 1.0 and L = 0.0 exactly, so C is the ideal matrix bit for bit
    fm = qfim_matrix(SU11_STATS)
    for family in (SingleArm(1.0), TwoArmSymmetric(1.0), TwoArmIndependent(1.0, 1.0)):
        result = optimize_gamma(SU11_STATS, family, Target.PHASE_SUM)
        assert result.converged
        assert result.matrix == fm
        assert result.minimum == two_param_bound(fm, Target.PHASE_SUM)
        assert result.single_minimum == fm.f_pp
        assert result.argmin in (0.0, (0.0, 0.0))  # gamma does not enter
        assert _single_gamma(SU11_STATS, family, Target.PHASE_SUM) in (0.0, (0.0, 0.0))


def test_opaque_arm_leaves_no_phase_sum_information():
    # with arm a fully lost the optimum sits at t* = 1, where w_b = 0 and
    # gamma_b is free
    stats = SU11_STATS
    for family in (SingleArm(0.0), TwoArmIndependent(0.0, 0.6)):
        result = optimize_gamma(stats, family, Target.PHASE_SUM)
        assert result.converged
        assert result.minimum == pytest.approx(0.0, abs=1e-9)
    _, gamma_b = optimize_gamma(stats, TwoArmIndependent(0.0, 0.6), Target.PHASE_SUM).argmin
    assert gamma_b == 0.0
    single = optimize_gamma(stats, SingleArm(0.0), Target.PHASE_SUM).single_minimum
    assert single == pytest.approx(stats.var_b - stats.cov**2 / stats.var_a, rel=1e-12)


@pytest.mark.parametrize("eta", [0.3, 0.7])
def test_vacuum_arm_gives_escher_single_mode_bound(eta):
    # arm b in vacuum: the lossy arm's variance combines in parallel with
    # eta <n>/(1 - eta), Escher's single-mode result
    stats = ModeStatistics(3.0, 0.0, 5.0, 0.0, 0.0)
    want = eta * 3.0 * 5.0 / ((1.0 - eta) * 5.0 + eta * 3.0)
    for family in (SingleArm(eta), TwoArmSymmetric(eta), TwoArmIndependent(eta, 0.5)):
        result = optimize_gamma(stats, family, Target.PHASE_SUM)
        assert result.converged
        assert result.single_minimum == pytest.approx(want, rel=1e-12)
        assert result.minimum == pytest.approx(0.0, abs=1e-12)  # phi_b stays unknown


@pytest.mark.parametrize("target", list(Target))
def test_perfect_correlation_without_loss_terms(target):
    # eta = 0 on both arms at |J| = 1: no loss term, singular covariance,
    # zero information reached at u = 0 (gamma = 0)
    stats = ModeStatistics(2.0, 2.0, 4.0, 1.0, 2.0)
    for family in (TwoArmIndependent(0.0, 0.0), TwoArmSymmetric(0.0)):
        result = optimize_gamma(stats, family, target)
        assert result.converged
        assert result.minimum == pytest.approx(0.0, abs=1e-12)
        assert result.single_minimum == pytest.approx(0.0, abs=1e-12)
        assert result.argmin in (0.0, (0.0, 0.0))
        assert _single_gamma(stats, family, target) in (0.0, (0.0, 0.0))


def test_argmin_out_of_float_range_is_an_error():
    # a perfectly correlated arm with variance 1e-308 needs |gamma| ~ 1e154,
    # whose square the matrix path cannot form
    stats = ModeStatistics(1.0, 1e-308, 4.0, 1e-308, 2e-154)
    with pytest.raises(NonFiniteObjective, match="out of float range"):
        optimize_gamma(stats, TwoArmIndependent(1.0, 0.0), Target.PHASE_DIFFERENCE)


def test_subnormal_variance_reaches_the_range_check():
    # var_a 5.9e-318 keeps few bits, so the effective covariance built from it
    # overshoots Cauchy-Schwarz by rounding; M is not checked, and the solve
    # reaches the real obstacle, a gamma out of float range
    stats = ModeStatistics(
        1.046419e-317, 0.37290017776011286, 5.855305e-318, 1.0, 2.4197738255029106e-159
    )
    for family in (SingleArm(0.3), TwoArmIndependent(0.3, 0.5)):
        for target in Target:
            with pytest.raises(NonFiniteObjective, match="out of float range"):
                optimize_gamma(stats, family, target)


# ---------------------------------------------------------------------------
# property: the reported minimum is global


_GAMMA_SAMPLE = st.floats(min_value=-1e3, max_value=1e3)
_ETA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
_GRID = [float(g) for g in np.sinh(np.linspace(-math.asinh(1e3), math.asinh(1e3), 101))]


@st.composite
def _statistics(draw, interferometer):
    kind = draw(st.sampled_from(["closed", "closed", "vacuum_arm", "extreme_j"]))
    alpha = draw(st.floats(min_value=0.0, max_value=3.0))
    squeeze = draw(st.floats(min_value=0.0, max_value=1.5))
    if interferometer == "SU2":
        splitter = SplitterSpec.lbs(draw(st.floats(min_value=0.0, max_value=1.0)))
        stats = lbs_moments(InterferometerInput(alpha, squeeze, splitter))
    else:
        splitter = SplitterSpec.nbs(draw(st.floats(min_value=1.0, max_value=3.0)))
        stats = nbs_moments(InterferometerInput(alpha, squeeze, splitter))
    if kind == "vacuum_arm":
        return ModeStatistics(stats.mean_a, 0.0, stats.var_a, 0.0, 0.0)
    if kind == "extreme_j":
        j = draw(st.sampled_from([1.0, -1.0, 1.0 - 1e-9, -1.0 + 1e-9]))
        root = math.sqrt(stats.var_a) * math.sqrt(stats.var_b)
        return ModeStatistics(stats.mean_a, stats.mean_b, stats.var_a, stats.var_b, j * root)
    return stats


def _bound_at(stats, family, target, single, gamma):
    """(matrix-path bound, its rounding allowance) at one gamma: the target
    diagonal when single, else the Schur bound.

    The complement's relative rounding is about max(C)/comp ulps and the
    correction f_pm**2/comp it enters is at most the diagonal, so the
    Schur bound is good to about ulps * diag * max(C)/comp.
    """
    if isinstance(family, SingleArm):
        cm = c_matrix_single(stats, SingleArmLoss(family.eta, gamma))
    elif isinstance(family, TwoArmSymmetric):
        cm = c_matrix_two(stats, TwoArmLoss(family.eta, family.eta, gamma, gamma))
    else:
        cm = c_matrix_two(stats, TwoArmLoss(family.eta_a, family.eta_b, *gamma))
    diag, comp = (cm.f_pp, cm.f_mm) if target is Target.PHASE_SUM else (cm.f_mm, cm.f_pp)
    scale = max(1.0, cm.f_pp, cm.f_mm)
    if single:
        return diag, 1e-13 * scale
    rounding = 1e-13 * scale * (1.0 + scale / comp) if comp > 0.0 else math.inf
    return two_param_bound(cm, target), rounding


@settings(max_examples=150, deadline=None)
@given(data=st.data(), interferometer=st.sampled_from(["SU2", "SU11"]))
def test_reported_minimum_is_global(data, interferometer):
    stats = data.draw(_statistics(interferometer))
    target = Target.PHASE_DIFFERENCE if interferometer == "SU2" else Target.PHASE_SUM
    eta_a = data.draw(_ETA)
    eta_b = eta_a if data.draw(st.booleans()) else data.draw(_ETA)
    samples = data.draw(st.lists(_GAMMA_SAMPLE, min_size=1, max_size=8))
    results = {False: {}, True: {}}  # single -> family type -> (minimum, rounding)
    families = (SingleArm(eta_a), TwoArmSymmetric(eta_a), TwoArmIndependent(eta_a, eta_b))
    for family in families:
        try:
            result = optimize_gamma(stats, family, target)
        except SingularComplement:
            # under the kernel's zero threshold already without loss
            with pytest.raises(SingularComplement):
                two_param_bound(qfim_matrix(stats), target)
            continue
        except NonFiniteObjective:
            # only an arm ~1e-300 times quieter than the other pushes the
            # argmin (about sqrt(var_a/var_b)) out of float range
            assert min(stats.var_a, stats.var_b) < 1e-280 * max(stats.var_a, stats.var_b)
            continue
        assert result.converged
        found = {}  # single -> (minimum, rounding)
        for single, minimum, argmin in (
            (False, result.minimum, result.argmin),
            (True, result.single_minimum, _single_gamma(stats, family, target)),
        ):
            value, rounding = _bound_at(stats, family, target, single, argmin)
            assert minimum == value
            found[single] = results[single][type(family)] = (minimum, rounding)
        # the overestimation is never negative at the optimum: where f_pm
        # vanishes the two are equal in exact arithmetic and differ by rounding
        (two, two_rounding), (one, one_rounding) = found[False], found[True]
        assert two <= one * (1 + 1e-9) + two_rounding + one_rounding
        if isinstance(family, TwoArmIndependent):
            gammas = [(a, b) for a in _GRID[::10] for b in _GRID[::10]]
            gammas += [(g, h) for g in samples for h in samples]
        else:
            gammas = [*_GRID, *samples]
        for single, (minimum, rounding) in found.items():
            for gamma in gammas:
                try:
                    value, sampled_rounding = _bound_at(stats, family, target, single, gamma)
                except SingularComplement:
                    continue  # no bound where the complement vanishes
                slack = rounding + sampled_rounding
                assert minimum <= value * (1 + 1e-9) + slack, (family, single, gamma)
    for found in results.values():
        if eta_a == eta_b and len(found) == 3:
            sym, sym_rounding = found[TwoArmSymmetric]
            indep, indep_rounding = found[TwoArmIndependent]
            assert indep <= sym * (1 + 1e-9) + sym_rounding + indep_rounding


_EDGE_ETA = st.one_of(
    st.sampled_from([0.0, 1e-9, 1.0 - 1e-9, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    interferometer=st.sampled_from(["SU2", "SU11"]),
    eta=_EDGE_ETA,
    target=st.sampled_from(list(Target)),
)
def test_one_arm_loss_is_two_arm_loss_with_a_lossless_arm_b(data, interferometer, eta, target):
    # both build C with c_matrix_two at (eta, 1, gamma_a, 0), so they agree bit for bit
    stats = data.draw(_statistics(interferometer))
    try:
        one = optimize_gamma(stats, SingleArm(eta), target)
    except (SingularComplement, NonFiniteObjective) as exc:
        with pytest.raises(type(exc)):
            optimize_gamma(stats, TwoArmIndependent(eta, 1.0), target)
        return
    two = optimize_gamma(stats, TwoArmIndependent(eta, 1.0), target)
    assert one.argmin == two.argmin[0] and two.argmin[1] == 0.0
    assert repr((one.minimum, one.single_minimum, one.matrix, one.converged)) == repr(
        (two.minimum, two.single_minimum, two.matrix, two.converged)
    )


def test_near_singular_one_arm_bound_is_the_ideal_schur_value():
    # |J| = 1 to 1 ulp and a loss of 1e-12: the infimum, 6.0e-16, lies at
    # gamma = -1, where C is the ideal F; an absolute zero threshold on f_pm
    # of 1e-12 reported 1.866e-12 at gamma 1.732
    mp = pytest.importorskip("mpmath")
    stats = ModeStatistics(0.25, 0.75, 0.25, 0.75, -0.4330127018922193)
    result = optimize_gamma(stats, SingleArm(1e-12), Target.PHASE_DIFFERENCE)
    with mp.workdps(60):
        var_a, var_b, cov = mp.mpf(stats.var_a), mp.mpf(stats.var_b), mp.mpf(stats.cov)
        f_pp, f_mm = var_a + var_b + 2 * cov, var_a + var_b - 2 * cov
        least = f_mm - (var_a - var_b) ** 2 / f_pp
    # the rest is the cancellation of f_mm - f_pm**2/f_pp, ulps of the diagonal
    assert result.argmin == -1.0
    assert abs(result.minimum - float(least)) <= 4 * math.ulp(result.matrix.f_mm)


_SCALED_MOMENT = st.floats(min_value=0.1, max_value=50.0)
# loss terms eta <n> under ~1e-150 have squares out of the normal range, where no
# scaling is exact; at the least scale, 0.1 * 4**-200, that bounds eta from below
_SCALED_ETA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=1e-12, max_value=1.0))


@settings(max_examples=200, deadline=None)
@given(
    moments=st.tuples(*[_SCALED_MOMENT] * 4),
    j=st.one_of(st.sampled_from([1.0, -1.0, 0.0]), st.floats(-1.0, 1.0)),
    equal_variances=st.booleans(),
    etas=st.tuples(_SCALED_ETA, _SCALED_ETA),
    target=st.sampled_from(list(Target)),
    k=st.integers(-200, 200),
)
def test_bounds_scale_with_the_moments(moments, j, equal_variances, etas, target, k):
    # every bound is homogeneous of degree 1 in the five moments and gamma of
    # degree 0: scaling them by 4**k scales each bound by exactly 4**k
    mean_a, mean_b, var_a, var_b = moments
    var_b = var_a if equal_variances else var_b
    stats = ModeStatistics(mean_a, mean_b, var_a, var_b, j * math.sqrt(var_a) * math.sqrt(var_b))
    scaled = ModeStatistics(*(math.ldexp(x, 2 * k) for x in stats))
    families = (SingleArm(etas[0]), TwoArmSymmetric(etas[0]), TwoArmIndependent(*etas))

    def outputs(s, shift):
        """(dimensionless outputs, outputs of degree 1 scaled by 2**shift)."""
        fm = qfim_matrix(s)
        try:
            kernel = [two_param_bound(fm, target), overestimation(fm, target)]
        except SingularComplement:
            kernel = []
        fixed, scaling = [len(kernel)], [*fm, *kernel]
        for family in families:
            try:
                result = optimize_gamma(s, family, target)
            except SingularComplement:
                fixed.append(type(family))
                continue
            fixed += [result.argmin, result.converged]
            scaling += [result.minimum, result.single_minimum, *result.matrix]
        return fixed, [repr(math.ldexp(x, shift)) for x in scaling]

    assert outputs(scaled, 0) == outputs(stats, 2 * k)


def test_off_diagonal_under_the_kernel_threshold_is_not_divided():
    # |J| = 1 leaves M with f_pm = comp = 6.9e-18, both under the kernel's zero
    # threshold; the bound is flat in t there, and dividing them gave t = -1,
    # w_a = 0 and converged=False
    stats = ModeStatistics(
        0.343343083156295,
        0.3433430831562949,
        0.46122755590756553,
        0.46122755590756537,
        0.4612275559075655,
    )
    result = optimize_gamma(stats, SingleArm(0.0625), Target.PHASE_SUM)
    assert result.converged
    assert result.argmin == _single_gamma(stats, SingleArm(0.0625), Target.PHASE_SUM)
    assert result.minimum <= result.single_minimum


def _run_without_install(code: str) -> None:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "module, unwanted",
    [("phasebound.cli", {"numpy", "dataclasses"}), ("phasebound.fock_oracle", {"dataclasses"})],
)
def test_importing_the_package_does_not_load_dataclasses(module, unwanted):
    # against the modules present before the import, whatever site loads
    _run_without_install(
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        f"loaded = {unwanted!r} & (set(sys.modules) - before)\n"
        "assert not loaded, loaded\n"
    )


# every module `import phasebound.cli` may add to those `site` loads: 19 at
# the time of writing; a new one fails until it is listed here and named in
# CHANGES.md, because each one lands in the start-up of every point and scan
_CLI_IMPORTS = {
    "__future__", "_csv", "_datetime", "_json", "argparse", "csv", "datetime", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner",
    "phasebound", "phasebound.cli", "phasebound.errors", "phasebound.moments",
    "phasebound.optimizer", "phasebound.qfim_ideal", "phasebound.qfim_lossy",
}


def test_importing_the_cli_loads_only_the_allowed_modules():
    _run_without_install(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import phasebound.cli\n"
        f"extra = sorted(set(sys.modules) - before - {_CLI_IMPORTS!r})\n"
        "assert not extra, extra\n"
    )


def test_point_and_scan_run_without_numpy_or_scipy(tmp_path):
    # one lossless, one-arm and two-arm spec each, so the optimizer runs too
    fixed = {"alpha_photons": 4.0, "squeeze_r": 0.5, "gain": 1.2, "eta": 0.6}
    argvs = []
    for loss in ("None", "OneArm", "TwoArm"):
        document = {"interferometer": "SU11", "estimation": "TwoParameter", "loss": loss}
        point = tmp_path / f"point-{loss}.json"
        point.write_text(json.dumps({**document, "fixed": fixed}))
        argvs.append(["point", "--config", str(point), "--output", str(point) + ".out"])
        sweep = {**document, "swept_variable": "gain", "range": [1.1, 1.5, 3]}
        scan = tmp_path / f"scan-{loss}.json"
        scan.write_text(json.dumps({**sweep, "fixed": fixed}))
        argvs.append(["scan", "--config", str(scan), "--output", str(scan) + ".csv"])
    _run_without_install(
        "import sys\n"
        "from phasebound import cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    assert len(list(tmp_path.glob("*.csv"))) == 3


def test_oracle_check_runs_without_scipy(tmp_path):
    # two lossy arms, so the splitter, the moments and the Kraus sums all run
    fixed = {"alpha_photons": 1.0, "squeeze_r": 0.3, "eta": 0.6, "eta_b": 0.8}
    argvs = []
    for interferometer, splitter in (("SU2", {"splitter_ratio": 0.5}), ("SU11", {"gain": 1.1})):
        config = tmp_path / f"oracle-{interferometer}.json"
        document = {
            "interferometer": interferometer,
            "estimation": "TwoParameter",
            "loss": "TwoArm",
            "cutoff": 24,
            "fixed": {**fixed, **splitter},
        }
        config.write_text(json.dumps(document))
        argvs.append(["oracle-check", "--config", str(config)])
    _run_without_install(
        "import contextlib, io, sys\n"
        "from phasebound import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
    )


@pytest.mark.parametrize(
    "name",
    [
        "prepare_input",
        "apply_splitter",
        "measure_moments",
        "derivative_qfim",
        "kraus_completeness",
        "kraus_sum_cij",
    ],
)
def test_cli_oracle_names_are_the_fock_engine_functions(name):
    # the benchmark's probes patch these names in the CLI namespace
    from phasebound import cli, fock_oracle

    assert getattr(cli, name) is getattr(fock_oracle, name)


PUBLIC_NAMES = {
    "Correlations", "CutoffTooSmall", "DegenerateStatistics",
    "FisherMatrix", "InterferometerInput", "ModeStatistics",
    "NonFiniteObjective", "NonpositiveInformation", "OptimizationResult",
    "PhaseboundError", "SingleArm",
    "SingularComplement", "SplitterKind", "SplitterSpec", "Target",
    "TwoArmIndependent", "TwoArmSymmetric", "derived_correlations", "lbs_moments",
    "nbs_moments", "optimize_gamma", "overestimation", "qcrb", "qfim_matrix",
    "two_param_bound", "__version__",
}


def test_public_surface_is_pinned():
    # forms used only as test references live in the tests, not the package
    import phasebound

    assert len(PUBLIC_NAMES) == 26
    assert set(phasebound.__all__) == PUBLIC_NAMES
    assert len(phasebound.__all__) == len(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(phasebound, name) is not None, name



# every public value type with one value per field, in field order
_VALUE_TYPES = [
    (SplitterSpec, {"kind": SplitterKind.NBS, "value": 1.2}),
    (InterferometerInput, {"alpha_mag": 1.0, "squeeze_r": 0.3, "splitter": SplitterSpec.lbs(0.5)}),
    (ModeStatistics, {"mean_a": 1.0, "mean_b": 2.0, "var_a": 3.0, "var_b": 4.0, "cov": 0.5}),
    (Correlations, {"q_a": 0.1, "q_b": -0.2, "j": 0.3}),
    (FisherMatrix, {"f_pp": 2.0, "f_mm": 1.0, "f_pm": 0.5}),
    (SingleArmLoss, {"eta_a": 0.5, "gamma": -0.5}),
    (TwoArmLoss, {"eta_a": 0.5, "eta_b": 0.7, "gamma_a": -0.5, "gamma_b": 0.0}),
    (SingleArm, {"eta": 0.5}),
    (TwoArmSymmetric, {"eta": 0.5}),
    (TwoArmIndependent, {"eta_a": 0.5, "eta_b": 0.7}),
    (
        OptimizationResult,
        {
            "argmin": (-0.5, 0.0),
            "minimum": 1.5,
            "evaluations": 1,
            "converged": True,
            "matrix": FisherMatrix(2.0, 1.0, 0.5),
            "single_minimum": 2.0,
        },
    ),
    (
        ScanSpec,
        {
            "interferometer": Interferometer.SU2,
            "estimation": "TwoParameter",
            "loss": LossKind.NONE,
            "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, "splitter_ratio": 1.0},
            "swept_variable": "alpha_photons",
            "start": 1.0,
            "stop": 2.0,
            "steps": 3,
            "repeats": 2,
        },
    ),
    (TruncatedState, {"amplitudes": np.zeros((2, 2))}),
]


@pytest.mark.parametrize(
    "kind, fields", _VALUE_TYPES, ids=[kind.__name__ for kind, _ in _VALUE_TYPES]
)
def test_value_types_are_immutable_and_print_their_fields(kind, fields):
    by_keyword, by_position = kind(**fields), kind(*fields.values())
    shown = ", ".join(f"{field}={value!r}" for field, value in fields.items())
    assert repr(by_keyword) == repr(by_position) == f"{kind.__name__}({shown})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, 0.0)
    with pytest.raises(AttributeError):
        by_keyword.extra = 0.0


# the checked value types besides the loss descriptions, each with a field, a
# value its constructor refuses and the start of the refusal
_SPOILED = [
    (ModeStatistics, "mean_a", -1.0, "mean photon numbers must be >= 0"),
    (ModeStatistics, "cov", 5.0, "cov=5.0 violates |cov| <= sqrt(var_a*var_b)"),
    (SplitterSpec, "value", 0.5, "NBS gain must be >= 1, got 0.5"),
    (InterferometerInput, "squeeze_r", -1.0, "squeeze_r must be >= 0 and finite, got -1.0"),
    (FisherMatrix, "f_pm", 5.0, "matrix is not positive semidefinite"),
    (ScanSpec, "repeats", 0, "repeats must be a positive integer, got 0"),
    (TruncatedState, "amplitudes", np.zeros((2, 3)), "amplitudes must be square, got shape"),
]


@pytest.mark.parametrize(
    "kind, field, bad, message",
    _SPOILED,
    ids=[f"{kind.__name__}-{field}" for kind, field, *_ in _SPOILED],
)
def test_make_and_replace_run_the_constructor_checks(kind, field, bad, message):
    fields = dict(_VALUE_TYPES)[kind]
    made = kind._make(fields.values())
    assert type(made) is kind and tuple(made) == tuple(kind(*fields.values()))
    with pytest.raises(Exception) as want:
        kind(*{**fields, field: bad}.values())
    assert str(want.value).startswith(message)
    for build in (
        lambda: kind._make({**fields, field: bad}.values()),
        lambda: made._replace(**{field: bad}),
    ):
        with pytest.raises(type(want.value)) as exc:
            build()
        assert str(exc.value) == str(want.value)


def test_scan_spec_defaults_describe_one_point():
    fixed = {"alpha_photons": 1.0, "squeeze_r": 0.3, "splitter_ratio": 1.0}
    spec = ScanSpec(Interferometer.SU2, "TwoParameter", LossKind.NONE, fixed)
    sweep = (spec.swept_variable, spec.start, spec.stop, spec.steps, spec.repeats)
    assert sweep == (None, 0.0, 0.0, 0, 1)


def test_unknown_family_message_shows_the_value():
    with pytest.raises(TypeError) as info:
        optimize_gamma(SU2_STATS, TwoArmLoss(0.5, 0.7, -0.5, 0.0), Target.PHASE_DIFFERENCE)
    message = "unknown loss family: TwoArmLoss(eta_a=0.5, eta_b=0.7, gamma_a=-0.5, gamma_b=0.0)"
    assert str(info.value) == message
