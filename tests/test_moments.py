"""Input statistics: splitter closed forms and derived correlations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import (
    DegenerateStatistics,
    InterferometerInput,
    ModeStatistics,
    SplitterKind,
    SplitterSpec,
    derived_correlations,
    lbs_moments,
    nbs_moments,
)

# reference values computed once with the truncated-Fock engine at
# cutoff 64 and frozen here (relative agreement was ~1e-15)
SU2_STATS = ModeStatistics(
    mean_a=2.8814620952222865,
    mean_b=1.3900782221853354,
    var_a=4.362529605610581,
    var_b=3.0387491747189435,
    cov=-1.355364928779308,
)
SU11_STATS = ModeStatistics(
    mean_a=6.319477739659353,
    mean_b=2.591018057066975,
    var_a=16.12295168260452,
    var_b=9.901183657413826,
    cov=10.66679320862372,
)


def su2_input(alpha=2.0, r=0.5, t=0.7):
    return InterferometerInput(alpha, r, SplitterSpec.lbs(t))


def su11_input(alpha=2.0, r=0.5, g=1.2):
    return InterferometerInput(alpha, r, SplitterSpec.nbs(g))


# ---------------------------------------------------------------------------
# type validation


def test_splitter_spec_lbs_fields():
    spec = SplitterSpec.lbs(0.7)
    assert spec.kind is SplitterKind.LBS
    assert spec.value == 0.7


def test_splitter_spec_nbs_fields():
    spec = SplitterSpec.nbs(1.2)
    assert spec.kind is SplitterKind.NBS
    assert spec.value == 1.2


@pytest.mark.parametrize("bad_t", [-0.1, 1.1])
def test_splitter_spec_rejects_bad_transmissivity(bad_t):
    with pytest.raises(ValueError, match="transmissivity"):
        SplitterSpec.lbs(bad_t)


def test_splitter_spec_rejects_gain_below_one():
    with pytest.raises(ValueError, match="gain"):
        SplitterSpec.nbs(0.9)


def test_input_rejects_negative_amplitudes():
    with pytest.raises(ValueError):
        InterferometerInput(-1.0, 0.5, SplitterSpec.lbs(0.5))
    with pytest.raises(ValueError):
        InterferometerInput(1.0, -0.5, SplitterSpec.lbs(0.5))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha_mag", "squeeze_r"])
def test_input_rejects_non_finite_amplitudes(field, value):
    fields = {"alpha_mag": 1.0, "squeeze_r": 0.5, field: value}
    with pytest.raises(ValueError) as exc:
        InterferometerInput(**fields, splitter=SplitterSpec.lbs(0.5))
    assert str(exc.value) == f"{field} must be >= 0 and finite, got {value}"


@pytest.mark.parametrize("gain", [math.nan, math.inf])
def test_splitter_spec_rejects_non_finite_gain(gain):
    with pytest.raises(ValueError) as exc:
        SplitterSpec.nbs(gain)
    assert str(exc.value) == f"NBS gain must be finite, got {gain}"


def test_mode_statistics_rejects_negative_variance():
    with pytest.raises(ValueError):
        ModeStatistics(1.0, 1.0, -1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "moments, message",
    [
        ((math.inf, 1.0, 1.0, 1.0, 0.0), "mean photon numbers must be >= 0 and finite"),
        ((1.0, math.nan, 1.0, 1.0, 0.0), "mean photon numbers must be >= 0 and finite"),
        ((1.0, 1.0, math.inf, math.inf, 0.0), "variances must be >= 0 and finite"),
        ((1.0, 1.0, 1.0, math.nan, 0.0), "variances must be >= 0 and finite"),
        ((1.0, 1.0, 1.0, 1.0, math.nan), "violates"),
    ],
)
def test_mode_statistics_rejects_non_finite_moments(moments, message):
    with pytest.raises(ValueError, match=message):
        ModeStatistics(*moments)


def test_mode_statistics_rejects_cauchy_schwarz_violation():
    # |J| = 3, and at small scale |J| = 1.5 and |J| = inf, which an absolute
    # slack of 1e-30 on cov**2 let through
    for moments in [(1.0, 1.0, 1.0, 1.0, 3.0), (1, 1, 1e-16, 1e-16, 1.5e-16), (0, 0, 0, 0, 1e-16)]:
        with pytest.raises(ValueError, match="violates"):
            ModeStatistics(*moments)


def test_mode_statistics_rejects_cauchy_schwarz_violation_past_overflow():
    # cov**2 and var_a*var_b both overflow to inf here
    with pytest.raises(ValueError, match=r"violates \|cov\| <= sqrt\(var_a\*var_b\)=1e\+200"):
        ModeStatistics(1e200, 1e200, 1e200, 1e200, 1e250)


@pytest.mark.parametrize("squeeze_r", [0.0, 1e-150, 0.5])
@pytest.mark.parametrize(
    "moments, splitter",
    [(lbs_moments, SplitterSpec.lbs(0.3)), (nbs_moments, SplitterSpec.nbs(1.5))],
)
def test_faint_closed_form_states_pass_cauchy_schwarz(moments, splitter, squeeze_r):
    # alpha_photons 1e-300, the counterpart of the huge states below
    moments(InterferometerInput(1e-150, squeeze_r, splitter))


@pytest.mark.parametrize(
    "squeeze_r, transmissivity", [(0.625, 5e-324), (0.45, 1e-323), (0.33, 2e-323)]
)
def test_subnormal_transmissivity_passes_cauchy_schwarz(squeeze_r, transmissivity):
    # var_b (about T sinh(r)**2) rounds to 0 while cov rounds to one subnormal
    # step, which the check allows
    stats = lbs_moments(InterferometerInput(0.0, squeeze_r, SplitterSpec.lbs(transmissivity)))
    assert stats.var_b == 0.0 and stats.cov == math.ulp(0.0)


@pytest.mark.parametrize("gain", [1.5, 1e3, 1e6])
@pytest.mark.parametrize("alpha, squeeze_r", [(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)])
def test_closed_forms_at_unit_correlation_pass_cauchy_schwarz_at_every_scale(
    alpha, squeeze_r, gain
):
    # an NBS drives J to 1 (exactly for vacuum, to an ulp at gain 1e6), and
    # the check is relative, so scaling the moments by 4**k keeps them valid
    stats = nbs_moments(InterferometerInput(alpha, squeeze_r, SplitterSpec.nbs(gain)))
    assert abs(derived_correlations(stats).j) > 0.95
    for k in range(-200, 201, 20):
        ModeStatistics(*(math.ldexp(x, 2 * k) for x in stats))


@pytest.mark.parametrize("squeeze_r", [0.0, 0.5, 2.0])
@pytest.mark.parametrize(
    "moments, splitter",
    [(lbs_moments, SplitterSpec.lbs(0.3)), (nbs_moments, SplitterSpec.nbs(1.5))],
)
def test_huge_closed_form_states_pass_cauchy_schwarz(moments, splitter, squeeze_r):
    # alpha_photons 1e300: the variance product overflows, and the state
    # still constructs
    stats = moments(InterferometerInput(1e150, squeeze_r, splitter))
    assert stats.var_a * stats.var_b == math.inf


# ---------------------------------------------------------------------------
# closed-form moments


def test_lbs_transparent_splitter_is_poissonian():
    stats = lbs_moments(InterferometerInput(2.0, 0.0, SplitterSpec.lbs(1.0)))
    assert stats == ModeStatistics(4.0, 0.0, 4.0, 0.0, 0.0)


def test_lbs_vacuum_input_is_zero():
    stats = lbs_moments(InterferometerInput(0.0, 0.0, SplitterSpec.lbs(0.3)))
    assert stats == ModeStatistics(0.0, 0.0, 0.0, 0.0, 0.0)


def test_lbs_frozen_reference_point():
    stats = lbs_moments(su2_input())
    for field in ("mean_a", "mean_b", "var_a", "var_b", "cov"):
        assert getattr(stats, field) == pytest.approx(
            getattr(SU2_STATS, field), rel=1e-12
        )


def test_nbs_identity_gain_leaves_modes_unmixed():
    alpha, r = 1.3, 0.6
    stats = nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(1.0)))
    sh2 = math.sinh(r) ** 2
    assert stats.mean_a == pytest.approx(alpha**2, rel=1e-12)
    assert stats.mean_b == pytest.approx(sh2, rel=1e-12)
    assert stats.var_a == pytest.approx(alpha**2, rel=1e-12)
    assert stats.var_b == pytest.approx(2 * sh2 * (1 + sh2), rel=1e-12)
    assert stats.cov == 0.0


def test_nbs_spontaneous_means_coincide():
    stats = nbs_moments(InterferometerInput(0.0, 0.0, SplitterSpec.nbs(1.2)))
    assert stats.mean_a == pytest.approx(0.44, rel=1e-12)
    assert stats.mean_b == pytest.approx(0.44, rel=1e-12)


def test_nbs_frozen_reference_point():
    stats = nbs_moments(su11_input())
    for field in ("mean_a", "mean_b", "var_a", "var_b", "cov"):
        assert getattr(stats, field) == pytest.approx(
            getattr(SU11_STATS, field), rel=1e-12
        )


def test_lbs_moments_rejects_nbs_splitter():
    with pytest.raises(ValueError):
        lbs_moments(su11_input())
    with pytest.raises(ValueError):
        nbs_moments(su2_input())


# ---------------------------------------------------------------------------
# derived correlations


def test_correlations_poissonian_uncorrelated():
    corr = derived_correlations(ModeStatistics(4.0, 1.0, 4.0, 1.0, 0.0))
    assert corr == (0.0, 0.0, 0.0)


def test_correlations_super_poissonian_q():
    corr = derived_correlations(ModeStatistics(2.0, 1.0, 4.0, 1.0, 0.0))
    assert corr.q_a == pytest.approx(1.0, rel=1e-15)


def test_correlations_require_positive_means():
    with pytest.raises(DegenerateStatistics):
        derived_correlations(ModeStatistics(0.0, 1.0, 1.0, 1.0, 0.0))


def test_correlations_require_positive_variances():
    with pytest.raises(DegenerateStatistics):
        derived_correlations(ModeStatistics(1.0, 1.0, 1.0, 0.0, 0.0))


def test_correlation_clamps_numerical_overshoot():
    cov = math.sqrt(2.0 * 3.0) * (1.0 + 1e-13)
    corr = derived_correlations(ModeStatistics(1.0, 1.0, 2.0, 3.0, cov))
    assert corr.j == 1.0


def test_frozen_j_values():
    assert derived_correlations(SU2_STATS).j == pytest.approx(
        -0.37225421431996264, rel=1e-12
    )
    assert derived_correlations(SU11_STATS).j == pytest.approx(
        0.8442441137600823, rel=1e-12
    )


# independent transcriptions of the printed Q closed forms for the two
# worked examples; the moment route must reproduce them exactly


def _q_lbs(alpha, r, t):
    rr = 1.0 - t
    a2, sh2 = alpha**2, math.sinh(r) ** 2
    e2r, c2r = math.exp(2 * r), math.cosh(2 * r)
    q_a = rr * (t * a2 * (e2r - 1) + rr * sh2 * c2r) / (t * a2 + rr * sh2)
    q_b = t * (rr * a2 * (e2r - 1) + t * sh2 * c2r) / (rr * a2 + t * sh2)
    return q_a, q_b


def _q_nbs(alpha, r, g):
    g2 = g * g
    gg = g2 - 1.0
    a2, sh2, ch2 = alpha**2, math.sinh(r) ** 2, math.cosh(r) ** 2
    e2r, c2r = math.exp(2 * r), math.cosh(2 * r)
    q_a = gg * (g2 * a2 * (1 + e2r) + gg * ch2 * c2r) / (g2 * a2 + gg * ch2)
    q_b = (
        g2 * sh2 * (2 * g2 * ch2 + gg - 1) + gg * (gg * (a2 + 1) + a2 * (g2 * e2r - 1))
    ) / (g2 * sh2 + gg * (a2 + 1))
    return q_a, q_b


@pytest.mark.parametrize("alpha,r,t", [(2.0, 0.5, 0.7), (1.0, 0.8, 0.3), (0.5, 0.2, 0.5)])
def test_lbs_q_closed_forms(alpha, r, t):
    corr = derived_correlations(lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(t))))
    q_a, q_b = _q_lbs(alpha, r, t)
    assert corr.q_a == pytest.approx(q_a, rel=1e-12)
    assert corr.q_b == pytest.approx(q_b, rel=1e-12)


@pytest.mark.parametrize("alpha,r,g", [(2.0, 0.5, 1.2), (1.0, 0.8, 1.2), (0.5, 0.2, 1.05)])
def test_nbs_q_closed_forms(alpha, r, g):
    corr = derived_correlations(nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(g))))
    q_a, q_b = _q_nbs(alpha, r, g)
    assert corr.q_a == pytest.approx(q_a, rel=1e-12)
    assert corr.q_b == pytest.approx(q_b, rel=1e-12)


# ---------------------------------------------------------------------------
# structural properties

_alpha = st.floats(min_value=0.0, max_value=4.0)
_r = st.floats(min_value=0.0, max_value=1.2)
_t = st.floats(min_value=0.0, max_value=1.0)
_g = st.floats(min_value=1.0, max_value=1.6)


@settings(max_examples=200, deadline=None)
@given(alpha=_alpha, r=_r, t=_t)
def test_lbs_swap_symmetry(alpha, r, t):
    fwd = lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(t)))
    rev = lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(1.0 - t)))
    assert fwd.mean_a == pytest.approx(rev.mean_b, abs=1e-12)
    assert fwd.var_a == pytest.approx(rev.var_b, abs=1e-12)
    assert fwd.cov == pytest.approx(rev.cov, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(alpha=_alpha, r=_r, t=_t)
def test_lbs_energy_bookkeeping(alpha, r, t):
    stats = lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(t)))
    assert stats.mean_a + stats.mean_b == pytest.approx(
        alpha**2 + math.sinh(r) ** 2, rel=1e-12, abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(alpha=_alpha, r=_r, g=_g)
def test_nbs_energy_gain(alpha, r, g):
    stats = nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(g)))
    g2 = g * g
    gg = g2 - 1.0
    total = alpha**2 + math.sinh(r) ** 2
    assert stats.mean_a + stats.mean_b == pytest.approx(
        g2 * total + gg * total + 2 * gg, rel=1e-12, abs=1e-12
    )


@settings(max_examples=300, deadline=None)
@given(alpha=_alpha, r=_r, t=_t, g=_g)
def test_correlation_magnitude_bounded(alpha, r, t, g):
    for stats in (
        lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(t))),
        nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(g))),
    ):
        try:
            corr = derived_correlations(stats)
        except DegenerateStatistics:
            continue  # vacuum-like corners have no defined J
        assert abs(corr.j) <= 1.0
        assert stats.var_a >= 0.0 and stats.var_b >= 0.0
