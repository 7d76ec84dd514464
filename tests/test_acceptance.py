"""Acceptance gate: one test per published behavior guarantee.

Each test prints exactly one `ACCEPTANCE <n> PASS/FAIL: <detail>` line
before asserting, so the test report carries a human-readable verdict
per criterion. Criteria with runtime budgets measure and enforce them.
"""

import math
import time

import numpy as np

from phasebound import (
    DegenerateStatistics,
    InterferometerInput,
    ModeStatistics,
    SingleArm,
    SplitterKind,
    SplitterSpec,
    Target,
    derived_correlations,
    lbs_moments,
    nbs_moments,
    optimize_gamma,
    overestimation,
    qfim_matrix,
    two_param_bound,
)
from phasebound.fock_oracle import (
    apply_splitter,
    kraus_sum_cij,
    measure_moments,
    prepare_input,
)
from phasebound.qfim_lossy import (
    SingleArmLoss,
    TwoArmLoss,
    c_matrix_single,
    c_matrix_two,
    gamma_opt_single,
)

ALPHAS = (0.5, 1.0, 2.0)
SQUEEZES = (0.2, 0.5, 0.8)
SPLITTERS = (SplitterSpec.lbs(0.3), SplitterSpec.lbs(0.5), SplitterSpec.nbs(1.2))


def _report(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {flag}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _stats_for(inp):
    if inp.splitter.kind is SplitterKind.LBS:
        return lbs_moments(inp)
    return nbs_moments(inp)


def _grid_inputs():
    for alpha in ALPHAS:
        for r in SQUEEZES:
            for splitter in SPLITTERS:
                yield InterferometerInput(alpha, r, splitter)


def _oracle_state(inp, cutoff=64):
    return apply_splitter(prepare_input(inp.alpha_mag, inp.squeeze_r, cutoff), inp.splitter)


def _matrix_rel(found, expected):
    scale = max(abs(expected.f_pp), abs(expected.f_mm), 1e-300)
    return max(
        abs(found.f_pp - expected.f_pp),
        abs(found.f_mm - expected.f_mm),
        abs(found.f_pm - expected.f_pm),
    ) / scale


# ---------------------------------------------------------------------------


def test_criterion_1_lossless_reduction():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for inp in _grid_inputs():
        stats = _stats_for(inp)
        fm = qfim_matrix(stats)
        for gamma in (-1.0, -0.3, 0.0, 0.7):
            single = c_matrix_single(stats, SingleArmLoss(1.0, gamma))
            two = c_matrix_two(stats, TwoArmLoss(1.0, 1.0, gamma, gamma))
            worst = max(worst, _matrix_rel(single, fm), _matrix_rel(two, fm))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        1,
        ok,
        f"{count} lossless matrices reduce to the ideal one, worst rel "
        f"{worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_oracle_moments():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for inp in _grid_inputs():
        closed = _stats_for(inp)
        oracle = measure_moments(_oracle_state(inp))
        for field in ("mean_a", "mean_b", "var_a", "var_b", "cov"):
            a, b = getattr(closed, field), getattr(oracle, field)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
        corr_closed = derived_correlations(closed)
        corr_oracle = derived_correlations(oracle)
        for field in ("q_a", "q_b", "j"):
            a, b = getattr(corr_closed, field), getattr(corr_oracle, field)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        2,
        ok,
        f"closed moments, Q and J match the Fock engine on {count} grid "
        f"points, worst rel {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_oracle_kraus():
    start = time.perf_counter()
    su2 = InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.7))
    su11 = InterferometerInput(2.0, 0.5, SplitterSpec.nbs(1.2))
    state2, state11 = _oracle_state(su2), _oracle_state(su11)
    stats2, stats11 = measure_moments(state2), measure_moments(state11)

    worst_single = 0.0
    singles = [(state2, stats2, eta, gamma) for eta in (0.2, 0.6, 0.9) for gamma in (-1.0, -0.5, 0.0)]
    singles += [(state11, stats11, eta, gamma) for eta, gamma in ((0.2, -1.0), (0.6, -0.5), (0.9, 0.0))]
    for state, stats, eta, gamma in singles:
        loss = SingleArmLoss(eta, gamma)
        rel = _matrix_rel(kraus_sum_cij(state, loss), c_matrix_single(stats, loss))
        worst_single = max(worst_single, rel)

    worst_two = 0.0
    twos = [
        (state2, stats2, TwoArmLoss(0.2, 0.6, -1.0, -0.5)),
        (state2, stats2, TwoArmLoss(0.6, 0.9, -0.5, 0.0)),
        (state2, stats2, TwoArmLoss(0.9, 0.2, 0.0, -1.0)),
        (state2, stats2, TwoArmLoss(0.6, 0.6, -0.5, -0.5)),
        (state11, stats11, TwoArmLoss(0.6, 0.9, -0.5, 0.0)),
        (state11, stats11, TwoArmLoss(0.2, 0.6, 0.0, -1.0)),
    ]
    for state, stats, loss in twos:
        rel = _matrix_rel(kraus_sum_cij(state, loss), c_matrix_two(stats, loss))
        worst_two = max(worst_two, rel)

    elapsed = time.perf_counter() - start
    ok = worst_single <= 1e-8 and worst_two <= 1e-8 and elapsed < 120.0
    _report(
        3,
        ok,
        f"Kraus branch sums match closed matrices: {len(singles)} single-arm "
        f"(worst rel {worst_single:.2e}), {len(twos)} two-arm (worst rel "
        f"{worst_two:.2e}), tol 1e-8, {elapsed:.1f}s (budget 120s)",
    )


def _optimum_grid():
    """(stats, target) pairs for the analytic-vs-numeric sweeps."""
    pairs = []
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for r in SQUEEZES:
            for t in (0.3, 0.5, 0.7, 0.9):
                stats = lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(t)))
                pairs.append((stats, Target.PHASE_DIFFERENCE, "SU2"))
    for alpha in ALPHAS:
        for r in SQUEEZES:
            for g in (1.05, 1.1, 1.2):
                stats = nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(g)))
                pairs.append((stats, Target.PHASE_SUM, "SU11"))
    return pairs


ETAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _filtered_optimum_points():
    """Grid points where the analytic optimum is the comparable one.

    Statistics with cov/var_b > 1 push the stationary point through a
    pole at finite eta (the bound's true minimum migrates to the other
    branch), and ultra-flat objectives make the argmin comparison
    meaningless; restricting to |gamma_opt| <= 2 keeps the well-posed
    regime while retaining far more than the required 200 points.
    """
    points = []
    for stats, target, family in _optimum_grid():
        for eta in ETAS:
            try:
                gamma = gamma_opt_single(stats, eta, target)
            except DegenerateStatistics:
                continue
            if abs(gamma) > 2.0:
                continue
            points.append((stats, target, family, eta, gamma))
    return points


def test_criterion_4_analytic_vs_numeric_optimum():
    start = time.perf_counter()
    points = _filtered_optimum_points()
    families_per_eta = {eta: set() for eta in ETAS}
    worst_dg = worst_rel = 0.0
    for stats, target, family, eta, gamma in points:
        result = optimize_gamma(stats, SingleArm(eta), target)
        bound = two_param_bound(c_matrix_single(stats, SingleArmLoss(eta, gamma)), target)
        worst_dg = max(worst_dg, abs(result.argmin - gamma))
        worst_rel = max(worst_rel, abs(result.minimum - bound) / abs(bound))
        families_per_eta[eta].add(family)
    elapsed = time.perf_counter() - start
    coverage = all(families_per_eta[eta] == {"SU2", "SU11"} for eta in ETAS)
    ok = (
        len(points) >= 200
        and coverage
        and worst_dg <= 1e-6
        and worst_rel <= 1e-10
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"{len(points)} grid points (both families at every eta: {coverage}), "
        f"worst |dgamma| {worst_dg:.2e} (tol 1e-6), worst bound rel "
        f"{worst_rel:.2e} (tol 1e-10), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_balanced_closed_forms():
    worst = 0.0
    count = 0
    cases = [
        ModeStatistics(mu, mu, mu * (1.0 + q), mu * (1.0 + q), jj * mu * (1.0 + q))
        for mu in (0.5, 2.0, 10.0)
        for q in (-0.5, 0.0, 1.0, 4.0)
        for jj in (-0.9, -0.3, 0.0, 0.4, 0.8)
    ]
    cases.append(lbs_moments(InterferometerInput(2.0, 0.5, SplitterSpec.lbs(0.5))))
    for stats in cases:
        corr = derived_correlations(stats)
        total_mean = stats.mean_a + stats.mean_b
        fm = qfim_matrix(stats)
        for target, sign in ((Target.PHASE_DIFFERENCE, -1.0), (Target.PHASE_SUM, 1.0)):
            expected = total_mean * (corr.q_a + 1.0) * (1.0 + sign * corr.j)
            found = two_param_bound(fm, target)
            worst = max(worst, abs(found - expected) / abs(expected))
            count += 1
    ok = worst <= 1e-12
    _report(
        5,
        ok,
        f"balanced-input bound equals n(Q+1)(1-/+J) on {count} cases, "
        f"worst rel {worst:.2e} (tol 1e-12)",
    )


def test_criterion_6_schur_dominance_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    n_configs = 10_000
    psd_slack = 1e-10
    violations = 0
    for i in range(n_configs):
        mean_a, mean_b = 10.0 ** rng.uniform(-3, 3, size=2)
        q_a, q_b = rng.uniform(-0.99, 9.0, size=2)
        va, vb = mean_a * (1.0 + q_a), mean_b * (1.0 + q_b)
        jj = rng.uniform(-0.999, 0.999)
        stats = ModeStatistics(mean_a, mean_b, va, vb, jj * math.sqrt(va * vb))
        fm = qfim_matrix(stats)
        if i % 2 == 0:
            cm = c_matrix_single(
                stats, SingleArmLoss(rng.uniform(0.0, 1.0), rng.uniform(-1.5, 0.5))
            )
        else:
            cm = c_matrix_two(
                stats,
                TwoArmLoss(
                    rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                    rng.uniform(-1.5, 0.5),
                    rng.uniform(-1.5, 0.5),
                ),
            )
        for matrix in (fm, cm):
            det = matrix.f_pp * matrix.f_mm - matrix.f_pm**2
            if det < -psd_slack * max(matrix.f_pp, matrix.f_mm):
                violations += 1
            for target in Target:
                info_single = (
                    matrix.f_mm if target is Target.PHASE_DIFFERENCE else matrix.f_pp
                )
                info_two = two_param_bound(matrix, target)
                delta = overestimation(matrix, target)
                scale = max(matrix.f_pp, matrix.f_mm, 1.0)
                if info_two > info_single + 1e-12 * scale or delta < 0.0:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(
        6,
        ok,
        f"{n_configs} fuzzed configurations: {violations} dominance/PSD "
        f"violations, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_7_brightness_scan():
    worst_monotone = -math.inf
    best_gap = 0.0
    all_dominated = True
    photon_numbers = np.arange(1.0, 101.0)
    for splitter, target in (
        (SplitterSpec.lbs(0.7), Target.PHASE_DIFFERENCE),
        (SplitterSpec.nbs(1.2), Target.PHASE_SUM),
    ):
        dphi_single, dphi_two = [], []
        for n_alpha in photon_numbers:
            stats = _stats_for(InterferometerInput(math.sqrt(n_alpha), 1.5, splitter))
            fm = qfim_matrix(stats)
            diag = fm.f_mm if target is Target.PHASE_DIFFERENCE else fm.f_pp
            dphi_single.append(1.0 / math.sqrt(diag))
            dphi_two.append(1.0 / math.sqrt(two_param_bound(fm, target)))
        for curve in (dphi_single, dphi_two):
            steps = np.diff(curve)
            worst_monotone = max(worst_monotone, float(steps.max()))
        gaps = np.array(dphi_two) - np.array(dphi_single)
        if gaps.min() < -1e-15:
            all_dominated = False
        best_gap = max(best_gap, float((gaps / np.array(dphi_single)).max()))
    ok = worst_monotone < 0.0 and all_dominated and best_gap > 1e-9
    _report(
        7,
        ok,
        "all four precision curves decrease monotonically over N_alpha in "
        f"[1, 100] (worst step {worst_monotone:.2e}), matrix bound dominates "
        f"everywhere, largest relative gap {best_gap:.3f}",
    )


def _lossy_precision_pair(stats, eta, target):
    result = optimize_gamma(stats, SingleArm(eta), target)
    return 1.0 / math.sqrt(result.single_minimum), 1.0 / math.sqrt(result.minimum)


def test_criterion_8_moderate_loss_convergence():
    details = []
    ok = True
    for stats, target in (
        (lbs_moments(InterferometerInput(10.0, 0.5, SplitterSpec.lbs(0.8))), Target.PHASE_DIFFERENCE),
        (nbs_moments(InterferometerInput(10.0, 0.5, SplitterSpec.nbs(1.2))), Target.PHASE_SUM),
    ):
        fm = qfim_matrix(stats)
        diag = fm.f_mm if target is Target.PHASE_DIFFERENCE else fm.f_pp
        dphi_s0 = 1.0 / math.sqrt(diag)
        dphi_t0 = 1.0 / math.sqrt(two_param_bound(fm, target))
        lossless_rel = (dphi_t0 - dphi_s0) / dphi_s0
        best_rel = math.inf
        for eta in np.linspace(0.05, 0.95, 19):
            dphi_s, dphi_t = _lossy_precision_pair(stats, float(eta), target)
            best_rel = min(best_rel, (dphi_t - dphi_s) / dphi_s)
        family = "SU2" if target is Target.PHASE_DIFFERENCE else "SU11"
        details.append(
            f"{family}: closest lossy gap {best_rel:.2%}, lossless gap {lossless_rel:.2%}"
        )
        ok = ok and best_rel < 0.02 and lossless_rel > best_rel
    _report(8, ok, "; ".join(details))


_REVIVAL_ALPHA, _REVIVAL_R = 2.0, 0.5


def _revival_gap(stats, eta, target):
    """(precision gap, off-diagonal, diagonal reference) at this point.

    The off-diagonal is C_pm at the two-parameter argmin gamma*. By the
    effective-covariance closed form in the ``optimizer`` module docstring,
    t* = -C_pm(gamma*)/C_comp(gamma*) = -F_pm(M)/F_comp(M), so
    sign C_pm(gamma*) = sign N (``_revival_numerator``), and the gap and
    C_pm vanish together, exactly where N does.
    """
    two = optimize_gamma(stats, SingleArm(eta), target)
    cm = c_matrix_single(stats, SingleArmLoss(eta, two.argmin))
    gap = 1.0 / math.sqrt(two.minimum) - 1.0 / math.sqrt(two.single_minimum)
    return gap, cm.f_pm, cm.f_pp


def _revival_numerator(stats, eta):
    """N = (var_a - var_b) - k det V with k = (1 - eta)/(eta <n_a>).

    One-arm loss gives M = V (I + K V)^-1, K = diag(k, 0) (``optimizer``
    module docstring), whose off-diagonal F_pm(M) = N/(1 + k var_a) has
    the sign of N. N vanishes where ``_revival_ratio`` equals eta/(1 - eta).
    """
    k = (1.0 - eta) / (eta * stats.mean_a)
    return stats.var_a - stats.var_b - k * (stats.var_a * stats.var_b - stats.cov**2)


def _revival_ratio(stats):
    """R = det V/(<n_a> (var_a - var_b))."""
    det = stats.var_a * stats.var_b - stats.cov**2
    return det / (stats.mean_a * (stats.var_a - stats.var_b))


def _su2_revival_stats(x):
    return lbs_moments(
        InterferometerInput(_REVIVAL_ALPHA, _REVIVAL_R, SplitterSpec.lbs(1.0 / (1.0 + x)))
    )


def _su11_revival_stats(g):
    return nbs_moments(InterferometerInput(_REVIVAL_ALPHA, _REVIVAL_R, SplitterSpec.nbs(g)))


def _su11_ratio_limit(gains):
    """(R_inf, worst closed-form mismatch over the gains) for the SU(1,1) input.

    With x = G**2, A = |alpha|**2, s = sinh(r)**2, c = 1 + s, e = exp(2r):
    var_a - var_b = (2x - 1)(A - 2sc) and det V = D x (x - 1) + 2Asc (the
    x**4 and x**3 terms cancel), D = A**2 e + 2Aesc + A(8s**2 + 9s + 1)
    + 2sc**2. R tends to R_inf = D/(2(A + c)(A - 2sc)) as G grows, and
    R_inf - R = L(x)/(2(A + c)(x(A + c) - c)(2x - 1)(A - 2sc)) with
    L(x) = D(A - c)x + Dc - 4Asc(A + c). So R < R_inf at every finite gain
    when A > 2sc, A >= c and L(1) > 0; R_inf is None where that does not
    hold. The mismatch compares both closed forms with ``nbs_moments``.
    """
    a, s = _REVIVAL_ALPHA**2, math.sinh(_REVIVAL_R) ** 2
    c, e = 1.0 + s, math.exp(2.0 * _REVIVAL_R)
    d = a * a * e + 2.0 * a * e * s * c + a * (8.0 * s * s + 9.0 * s + 1.0) + 2.0 * s * c * c
    mismatch = 0.0
    for g in gains:
        x, stats = g * g, _su11_revival_stats(g)
        det = stats.var_a * stats.var_b - stats.cov**2
        mismatch = max(
            mismatch,
            abs(det - (d * x * (x - 1.0) + 2.0 * a * s * c)) / det,
            abs(stats.var_a - stats.var_b - (2.0 * x - 1.0) * (a - 2.0 * s * c)) / stats.var_a,
        )
    bounded = a > 2.0 * s * c and a >= c and d > 4.0 * s * c * (a + c)
    return (d / (2.0 * (a + c) * (a - 2.0 * s * c)) if bounded else None), mismatch


def _bisect_offdiag_zero(build_stats, lo, hi, eta, target):
    def offdiag(x):
        return _revival_gap(build_stats(x), eta, target)[1]

    f_lo = offdiag(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * max(1.0, abs(mid)):
            break
        f_mid = offdiag(mid)
        if (f_lo <= 0.0) == (f_mid <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _revival_analysis(build_stats, sweep_values, eta, target):
    """Locate the interior gap minimum and the off-diagonal zero.

    By the effective-covariance closed form in the ``optimizer`` module
    docstring, sign C_pm(gamma*) = sign N (``_revival_gap``), so C_pm
    changes sign only where R crosses eta/(1 - eta). For SU(1,1) R stays
    below its limit R_inf (``_su11_ratio_limit``), so no crossing exists
    for eta >= R_inf/(1 + R_inf).
    """
    gaps, offdiags = [], []
    for value in sweep_values:
        gap, f_pm, _ = _revival_gap(build_stats(value), eta, target)
        gaps.append(gap)
        offdiags.append(f_pm)
    k = int(np.argmin(gaps))
    interior = 0 < k < len(sweep_values) - 1
    crossing = None
    for i in range(len(sweep_values) - 1):
        if offdiags[i] == 0.0 or (offdiags[i] < 0.0) != (offdiags[i + 1] < 0.0):
            crossing = _bisect_offdiag_zero(
                build_stats, sweep_values[i], sweep_values[i + 1], eta, target
            )
            break
    return interior, crossing, gaps, offdiags


def test_criterion_9_revival_points():
    """The gap vanishes and revives where the closed form puts it, and only there.

    Under one-arm loss sign C_pm(gamma*) = sign N (``_revival_gap``), so the
    gap closes exactly where R = eta/(1 - eta). Where N changes sign over
    the sweep the gap must reach an interior minimum with a located zero of
    C_pm, at which R = eta/(1 - eta). Where R stays below R_inf at every
    finite setting and eta >= eta* = R_inf/(1 + R_inf), no zero exists
    (for SU(1,1) at this input eta* = 0.661), and C_pm(gamma*) must keep
    the sign of N at every swept point with no crossing found. The source
    is the effective-covariance closed form in the ``optimizer`` module
    docstring.
    """
    etas = (0.2, 0.4, 0.6, 0.8)
    su2_values = np.geomspace(0.003, 1.2, 33)
    su11_values = 1.0 + np.geomspace(1e-3, 2.0, 33)
    failures = []
    minimizers = {"SU2": [], "SU11": []}
    absences = []
    eta_star = {}

    for family, build_stats, sweep_values, target, ratio_limit in (
        ("SU2", _su2_revival_stats, su2_values, Target.PHASE_DIFFERENCE, None),
        ("SU11", _su11_revival_stats, su11_values, Target.PHASE_SUM, _su11_ratio_limit),
    ):
        if ratio_limit is not None:
            r_inf, mismatch = ratio_limit(sweep_values)
            if mismatch > 1e-9:
                failures.append(f"{family}: closed-form moments off by {mismatch:.1e}")
            elif r_inf is not None:
                eta_star[family] = r_inf / (1.0 + r_inf)
        for eta in etas:
            numerators = [_revival_numerator(build_stats(v), eta) for v in sweep_values]
            interior, crossing, gaps, offdiags = _revival_analysis(
                build_stats, sweep_values, eta, target
            )
            wrong = sum((n > 0.0) != (f > 0.0) for n, f in zip(numerators, offdiags))
            if wrong:
                failures.append(
                    f"{family} eta={eta}: C_pm(gamma*) against the sign of N at "
                    f"{wrong} of {len(sweep_values)} points"
                )
                continue
            if any((a < 0.0) != (b < 0.0) for a, b in zip(numerators, numerators[1:])):
                if not interior or crossing is None:
                    reasons = []
                    if not interior:
                        reasons.append(
                            f"gap minimum sits at the sweep edge (min gap {min(gaps):.3e})"
                        )
                    if crossing is None:
                        reasons.append(
                            "off-diagonal keeps one sign "
                            f"(|C_pm| min {min(abs(v) for v in offdiags):.3e})"
                        )
                    failures.append(
                        f"{family} eta={eta}: " + " and ".join(reasons)
                        + "; N changes sign, but no revival was found"
                    )
                    continue
                stats = build_stats(crossing)
                _, f_pm, f_pp = _revival_gap(stats, eta, target)
                if abs(f_pm) > 1e-6 * f_pp:
                    failures.append(
                        f"{family} eta={eta}: off-diagonal {f_pm:.3e} exceeds "
                        f"1e-6 x C_pp at the located minimum"
                    )
                    continue
                rho = eta / (1.0 - eta)
                ratio = _revival_ratio(stats)
                if abs(ratio - rho) > 1e-8 * rho:
                    failures.append(
                        f"{family} eta={eta}: R = {ratio:.10g} at the crossing, "
                        f"not eta/(1 - eta) = {rho:.10g}"
                    )
                    continue
                minimizers[family].append((eta, crossing))
            elif family in eta_star and eta >= eta_star[family]:
                if crossing is not None or min(gaps) <= 0.0:
                    failures.append(
                        f"{family} eta={eta}: a revival (crossing {crossing}, min gap "
                        f"{min(gaps):.3e}) where eta* {eta_star[family]:.5f} forbids one"
                    )
                    continue
                absences.append(
                    f"{family} eta={eta} >= eta* {eta_star[family]:.5f}: no revival, "
                    f"C_pm(gamma*) keeps the sign of N (nearest zero "
                    f"{min(offdiags, key=abs):+.3e})"
                )
            else:
                failures.append(
                    f"{family} eta={eta}: N keeps one sign over the sweep, but the "
                    "closed form does not rule out a revival beyond it"
                )

    for family, found in minimizers.items():
        values = [value for _, value in found]
        if any(b < a for a, b in zip(values, values[1:])):
            failures.append(f"{family}: minimizer sequence {values} decreases in eta")

    detail = "; ".join(
        f"{family} minimizers "
        + ", ".join(f"{v:.4f}@{e}" for e, v in minimizers[family])
        + (f" (eta* {eta_star[family]:.5f})" if family in eta_star else "")
        for family in ("SU2", "SU11")
    )
    for line in absences + failures:
        detail += "; " + line
    _report(9, not failures, detail)


def test_criterion_10_stationarity():
    step = 1e-6
    worst = 0.0
    points = _filtered_optimum_points()
    for stats, target, _family, eta, gamma in points:
        def bound_at(g):
            return two_param_bound(c_matrix_single(stats, SingleArmLoss(eta, g)), target)

        deriv = (bound_at(gamma + step) - bound_at(gamma - step)) / (2.0 * step)
        worst = max(worst, abs(deriv) / bound_at(gamma))
    ok = worst <= 1e-4
    _report(
        10,
        ok,
        f"central-difference slope at the analytic optimum across "
        f"{len(points)} grid points, worst |d/dgamma|/bound {worst:.2e} "
        f"(tol 1e-4)",
    )
