"""Truncated-Fock verification engine against the closed forms."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from phasebound import (
    CutoffTooSmall,
    FisherMatrix,
    InterferometerInput,
    ModeStatistics,
    SplitterKind,
    SplitterSpec,
    lbs_moments,
    nbs_moments,
    qfim_matrix,
)
from phasebound import fock_oracle
from phasebound.fock_oracle import (
    TruncatedState,
    _bessel_series,
    _evolve,
    apply_splitter,
    derivative_qfim,
    kraus_completeness,
    kraus_sum_cij,
    measure_moments,
    prepare_input,
)
from phasebound.qfim_lossy import SingleArmLoss, TwoArmLoss, c_matrix_single, c_matrix_two


def _rel(found, expected, scale):
    return abs(found - expected) / scale


def _matrix_close(found, expected, tol):
    scale = max(abs(expected.f_pp), abs(expected.f_mm), 1.0)
    assert _rel(found.f_pp, expected.f_pp, scale) <= tol
    assert _rel(found.f_mm, expected.f_mm, scale) <= tol
    assert _rel(found.f_pm, expected.f_pm, scale) <= tol


# ---------------------------------------------------------------------------
# state preparation


def test_truncated_state_validates_shape():
    with pytest.raises(ValueError, match="square"):
        TruncatedState(np.zeros((3, 4), dtype=complex))
    assert TruncatedState(np.zeros((3, 3), dtype=complex)).cutoff == 2


def test_truncated_state_equals_only_itself():
    # comparing the arrays inside would be ambiguous; states compare by identity
    state, twin = (TruncatedState(np.zeros((3, 3), dtype=complex)) for _ in range(2))
    assert state == state and not state != state
    assert state != twin and not state == twin
    assert len({state, twin}) == 2


def test_prepare_vacuum():
    state = prepare_input(0.0, 0.0, 8)
    assert state.amplitudes[0, 0] == 1.0
    assert state.norm_deficit == pytest.approx(0.0, abs=1e-15)


def test_prepare_coherent_mean():
    state = prepare_input(1.0, 0.0, 32)
    stats = measure_moments(state)
    assert stats.mean_a == pytest.approx(1.0, abs=1e-10)
    assert stats.var_a == pytest.approx(1.0, abs=1e-10)


def test_prepare_squeezed_occupies_even_levels_only():
    state = prepare_input(0.0, 0.5, 48)
    prob_b = np.abs(state.amplitudes[0, :]) ** 2
    assert prob_b[1::2].sum() == 0.0
    assert measure_moments(state).mean_b == pytest.approx(math.sinh(0.5) ** 2, abs=1e-12)


def test_prepare_norm_deficit_within_budget():
    state = prepare_input(2.0, 0.8, 64)
    assert state.norm_deficit <= 1e-10


def test_prepare_refuses_undersized_cutoff():
    with pytest.raises(CutoffTooSmall, match="deficit"):
        prepare_input(5.0, 2.0, 64)


def test_prepare_validates_arguments():
    with pytest.raises(ValueError):
        prepare_input(-1.0, 0.0, 16)
    with pytest.raises(ValueError):
        prepare_input(1.0, 0.0, 0)


@pytest.mark.parametrize(
    "alpha_mag, squeeze_r, field",
    [
        # NaN fails "alpha_mag > 0", which would prepare the vacuum on mode a
        (math.nan, 0.5, "alpha_mag"),
        (math.inf, 0.5, "alpha_mag"),
        # NaN squeezing gives a NaN state, whose NaN norm deficit fails the cutoff check
        (1.0, math.nan, "squeeze_r"),
        (1.0, math.inf, "squeeze_r"),
    ],
)
def test_prepare_refuses_non_finite_amplitudes(alpha_mag, squeeze_r, field):
    with pytest.raises(ValueError) as exc:
        prepare_input(alpha_mag, squeeze_r, 64)
    value = alpha_mag if field == "alpha_mag" else squeeze_r
    assert str(exc.value) == f"{field} must be >= 0 and finite, got {value}"


# ---------------------------------------------------------------------------
# splitters


def test_transparent_lbs_is_identity():
    state = prepare_input(1.5, 0.4, 48)
    out = apply_splitter(state, SplitterSpec.lbs(1.0))
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_unit_gain_nbs_is_identity():
    state = prepare_input(1.0, 0.3, 32)
    out = apply_splitter(state, SplitterSpec.nbs(1.0))
    # returned on the enlarged working grid; content must be unchanged
    assert out.cutoff >= state.cutoff
    inner = out.amplitudes[: state.cutoff + 1, : state.cutoff + 1]
    assert np.allclose(inner, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7])
def test_lbs_moments_match_closed_forms(t):
    alpha, r = 2.0, 0.5
    state = apply_splitter(prepare_input(alpha, r, 64), SplitterSpec.lbs(t))
    found = measure_moments(state)
    expected = lbs_moments(InterferometerInput(alpha, r, SplitterSpec.lbs(t)))
    scale = max(expected.var_a, expected.var_b, 1.0)
    for field in ("mean_a", "mean_b", "var_a", "var_b", "cov"):
        assert _rel(getattr(found, field), getattr(expected, field), scale) <= 1e-6


def test_nbs_moments_match_closed_forms():
    alpha, r, g = 2.0, 0.5, 1.2
    state = apply_splitter(prepare_input(alpha, r, 64), SplitterSpec.nbs(g))
    found = measure_moments(state)
    expected = nbs_moments(InterferometerInput(alpha, r, SplitterSpec.nbs(g)))
    scale = max(expected.var_a, expected.var_b, 1.0)
    for field in ("mean_a", "mean_b", "var_a", "var_b", "cov"):
        assert _rel(getattr(found, field), getattr(expected, field), scale) <= 1e-6


# input cutoff 120 tries the working grids 240 and then the cap 320; 170
# starts above the cap, at 340, and that grid is the only one it tries
@pytest.mark.parametrize("cutoff, last", [(120, 320), (170, 340)])
def test_nbs_refuses_when_grid_tops_out(cutoff, last):
    # bright input plus strong gain outgrows the last working grid tried
    state = prepare_input(5.0, 1.2, cutoff)
    with pytest.raises(CutoffTooSmall) as exc:
        apply_splitter(state, SplitterSpec.nbs(2.5))
    assert str(exc.value) == (
        f"amplifier outgrew the working grid {last}, the last one tried "
        f"(gain 2.5, input cutoff {cutoff})"
    )


def test_nbs_first_grid_is_twice_the_cutoff_even_above_the_cap():
    out = apply_splitter(prepare_input(1.0, 0.3, 170), SplitterSpec.nbs(1.2))
    assert out.cutoff == 340


def test_amplifier_peak_memory_is_a_few_grids():
    # the 257-wide working grid's complex result is 1.06 MB; evolving the
    # whole grid at once (six float grids and a padded copy) peaked at 6.5 MB
    state = prepare_input(1.7, 0.4, 128)
    tracemalloc.start()
    try:
        out = apply_splitter(state, SplitterSpec.nbs(1.22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.cutoff == 256
    assert peak <= 3.0e6


# ---------------------------------------------------------------------------
# reference: the sparse generator and expm_multiply the propagator replaced


def _reference_evolve(amplitudes, kind, angle):
    sparse_linalg = pytest.importorskip("scipy.sparse.linalg")
    from scipy.sparse import coo_matrix

    d = amplitudes.shape[0]
    cutoff = d - 1
    na, nb = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    if kind is SplitterKind.LBS:
        mask = (na < cutoff) & (nb > 0)  # a†b reaches (n_a+1, n_b-1)
        rows = (na[mask] + 1) * d + (nb[mask] - 1)
        vals = np.sqrt((na[mask] + 1.0) * nb[mask])
    else:
        mask = (na < cutoff) & (nb < cutoff)  # a†b† reaches (n_a+1, n_b+1)
        rows = (na[mask] + 1) * d + (nb[mask] + 1)
        vals = np.sqrt((na[mask] + 1.0) * (nb[mask] + 1.0))
    cols = na[mask] * d + nb[mask]
    gen = coo_matrix(
        (
            np.concatenate([vals, vals]),
            (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
        ),
        shape=(d * d, d * d),
    ).tocsr()
    return sparse_linalg.expm_multiply(1j * angle * gen, amplitudes.reshape(-1)).reshape(d, d)


def _dense_generator(d, kind):
    """K on the flattened grid, entry by entry. Both triangles are set in
    place, so a 65² grid (4225² entries) touches only its nonzero pages."""
    gen = np.zeros((d * d, d * d))
    for i, j in itertools.product(range(d - 1), range(d)):
        src = i * d + j
        if kind is SplitterKind.LBS and j > 0:  # a†b: (i, j) -> (i+1, j-1)
            dst = (i + 1) * d + j - 1
            gen[dst, src] = gen[src, dst] = math.sqrt((i + 1) * j)
        if kind is SplitterKind.NBS and j < d - 1:  # a†b†: (i, j) -> (i+1, j+1)
            dst = (i + 1) * d + j + 1
            gen[dst, src] = gen[src, dst] = math.sqrt((i + 1) * (j + 1))
    return gen


def _dense_evolve(amplitudes, kind, angle):
    """exp(i*angle*K) by eigendecomposing `_dense_generator` one conserved
    sector at a time (n_a + n_b for a†b, n_a - n_b for a†b†), so that grids
    of 65² stay cheap."""
    d = amplitudes.shape[0]
    gen = _dense_generator(d, kind)
    na, nb = np.divmod(np.arange(d * d), d)
    label = na + nb if kind is SplitterKind.LBS else na - nb
    psi = amplitudes.reshape(-1)
    out = np.zeros(d * d, dtype=complex)
    for sector in np.unique(label):
        idx = np.flatnonzero(label == sector)
        values, vectors = np.linalg.eigh(gen[np.ix_(idx, idx)])
        out[idx] = vectors @ (np.exp(1j * angle * values) * (vectors.T @ psi[idx]))
    return out.reshape(d, d)


def _random_grid(d, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize(
    "kind, d, angle",
    [
        (SplitterKind.LBS, 9, 0.3),
        (SplitterKind.LBS, 33, math.acos(math.sqrt(0.7))),
        (SplitterKind.LBS, 65, 1.4),
        (SplitterKind.NBS, 33, 0.05),
        (SplitterKind.NBS, 65, math.acosh(1.2)),
        (SplitterKind.NBS, 97, math.acosh(1.5)),
    ],
)
def test_evolve_matches_expm_multiply_reference(kind, d, angle):
    amp = _random_grid(d, seed=d)
    expected = _reference_evolve(amp, kind, angle)
    assert np.max(np.abs(_evolve(amp, kind, angle) - expected)) <= 1e-13


@pytest.mark.parametrize("kind", [SplitterKind.LBS, SplitterKind.NBS])
@pytest.mark.parametrize("d", [2, 5, 12])
@pytest.mark.parametrize("angle", [1e-6, 0.4, 2.3])
def test_evolve_matches_dense_eigendecomposition(kind, d, angle):
    values, vectors = np.linalg.eigh(_dense_generator(d, kind))
    amp = _random_grid(d, seed=7 * d)
    expected = vectors @ (np.exp(1j * angle * values) * (vectors.T @ amp.reshape(-1)))
    found = _evolve(amp, kind, angle).reshape(-1)
    assert np.max(np.abs(found - expected)) <= 1e-13


@pytest.mark.parametrize("kind", [SplitterKind.LBS, SplitterKind.NBS])
def test_evolve_group_law(kind):
    amp = _random_grid(33, seed=3)
    a, b = 0.37, 0.81
    twice = _evolve(_evolve(amp, kind, a), kind, b)
    assert np.max(np.abs(twice - _evolve(amp, kind, a + b))) <= 1e-13


def _styled_grid(d, style, seed):
    """A random grid as a real, imaginary or general complex input."""
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, d, d)) / d
    return {
        "complex_real": re.astype(complex),  # the dtype prepare_input gives
        "float": re,
        "imaginary": 1j * im,
        "mixed": re + 1j * im,
    }[style]


_STYLES = ["complex_real", "float", "imaginary", "mixed"]


@pytest.mark.parametrize("style", _STYLES)
@pytest.mark.parametrize("kind", [SplitterKind.LBS, SplitterKind.NBS])
@pytest.mark.parametrize("d", [2, 5, 12])
@pytest.mark.parametrize("angle", [0.4, 2.3])
def test_evolve_real_and_imaginary_inputs_match_dense_generator(style, kind, d, angle):
    amp = _styled_grid(d, style, seed=11 * d)
    found = _evolve(amp, kind, angle)
    assert found.dtype == complex
    assert np.max(np.abs(found - _dense_evolve(amp, kind, angle))) <= 1e-13


@pytest.mark.parametrize("style", _STYLES)
@pytest.mark.parametrize(
    "kind, d, angle",
    [(SplitterKind.LBS, 65, 1.4), (SplitterKind.NBS, 97, math.acosh(1.5))],
)
def test_evolve_real_and_imaginary_inputs_match_expm_multiply(style, kind, d, angle):
    amp = _styled_grid(d, style, seed=d)
    expected = _reference_evolve(amp, kind, angle)
    assert np.max(np.abs(_evolve(amp, kind, angle) - expected)) <= 1e-13


@pytest.mark.parametrize("kind", [SplitterKind.LBS, SplitterKind.NBS])
@pytest.mark.parametrize("angle", [0.0, 0.4])
def test_evolve_returns_complex_at_every_angle(kind, angle):
    amp = _styled_grid(5, "float", seed=5)
    found = _evolve(amp, kind, angle)
    assert found.dtype == complex
    if angle == 0.0:
        assert np.array_equal(found, amp)


@pytest.mark.parametrize(
    "kind, d, angle",
    [(SplitterKind.LBS, 33, math.acos(math.sqrt(0.7))), (SplitterKind.NBS, 65, math.acosh(1.2))],
)
def test_evolve_prepared_state_on_production_grids(kind, d, angle):
    # the input oracle-check evolves: real amplitudes in a complex array, on
    # the LBS grid of cutoff 32 and the NBS working grid it is padded into
    amp = np.zeros((d, d), dtype=complex)
    amp[:33, :33] = prepare_input(1.5, 0.4, 32).amplitudes
    found = _evolve(amp, kind, angle)
    assert np.max(np.abs(found - _dense_evolve(amp, kind, angle))) <= 1e-13
    # the odd-k terms carry the imaginary part
    assert np.linalg.norm(found.imag) > 0.1


# ---------------------------------------------------------------------------
# reference: the propagator on the whole flattened grid at once, before it ran
# one block of column chains at a time; the blocked kernel must match it bitwise


def _whole_grid_evolve(amplitudes, kind, angle):
    d = amplitudes.shape[0]
    if angle == 0.0:
        return amplitudes.astype(complex)
    radius = 2.0 * (d - 1)
    coeffs = _bessel_series(angle * radius)
    lbs = kind is SplitterKind.LBS
    shift = d - 1 if lbs else d + 1
    i, j = np.divmod(np.arange(d * d - shift), d)
    weight = (2.0 / radius) * np.sqrt((i + 1.0) * (j if lbs else (j + 1.0) * (j < d - 1)))
    rows = [amplitudes.real, amplitudes.imag][: 2 if amplitudes.imag.any() else 1]
    cur = np.array(rows, dtype=float).reshape(len(rows), -1)  # T_0
    prev, tmp = np.zeros_like(cur), np.empty_like(cur)
    head = tmp[:, :-shift]
    sums = [coeffs[0] * cur, np.zeros_like(cur)]  # even k, odd k
    for k in range(1, len(coeffs)):
        # prev <- 2X cur - prev, negating prev within the first add
        np.negative(prev[:, :shift], out=prev[:, :shift])
        np.multiply(weight, cur[:, :-shift], out=head)
        np.subtract(head, prev[:, shift:], out=prev[:, shift:])
        np.multiply(weight, cur[:, shift:], out=head)
        prev[:, :-shift] += head
        prev, cur = cur, prev
        if k == 1:
            cur *= 0.5  # T_1 = X T_0
        np.multiply((2.0, -2.0)[k % 4 // 2] * coeffs[k], cur, out=tmp)
        sums[k % 2] += tmp
    out = sums[0] + 1j * sums[1]  # exp(itX) applied to each row
    return (out[0] + 1j * out[1] if len(out) == 2 else out[0]).reshape(d, d)


def _blocks(d, kind):
    """How many blocks of chains _evolve splits a d x d grid into."""
    shift = d - 1 if kind is SplitterKind.LBS else d + 1
    cells = -(-d * d // shift) * shift
    return -(-cells // fock_oracle._BLOCK_CELLS)


# (grid side, blocks of chains, angle): well below one block, one block
# nearly full, just over one block, and the amplifier's working grid at cutoff 128
_BLOCK_CASES = [
    *((d, blocks, angle) for d, blocks in [(12, 1), (127, 1), (129, 2)]
      for angle in (1e-7, 0.3, 1.1)),
    (257, 5, math.acosh(1.22)),
]


@pytest.mark.parametrize("style", ["complex_real", "float", "mixed"])
@pytest.mark.parametrize("kind", [SplitterKind.LBS, SplitterKind.NBS])
@pytest.mark.parametrize("d, blocks, angle", _BLOCK_CASES)
def test_blocked_evolve_is_bitwise_the_whole_grid_evolve(style, kind, d, blocks, angle):
    assert _blocks(d, kind) == blocks
    amp = _styled_grid(d, style, seed=d)
    assert np.array_equal(_evolve(amp, kind, angle), _whole_grid_evolve(amp, kind, angle))


@pytest.mark.parametrize("style", _STYLES)
@pytest.mark.parametrize("kind", [SplitterKind.LBS, SplitterKind.NBS])
@pytest.mark.parametrize("d", [2, 3, 9, 12])
def test_blocked_evolve_is_bitwise_with_many_small_blocks(monkeypatch, style, kind, d):
    # blocks of a few chains, some of unequal width, on grids the tests above keep whole
    monkeypatch.setattr(fock_oracle, "_BLOCK_CELLS", 7)
    amp = _styled_grid(d, style, seed=3 * d)
    assert np.array_equal(_evolve(amp, kind, 0.9), _whole_grid_evolve(amp, kind, 0.9))


@pytest.mark.parametrize("style", ["complex_real", "mixed"])
@pytest.mark.parametrize("cutoff, work", [(32, 64), (64, 128), (128, 256)])
def test_padded_amplifier_evolve_is_bitwise_the_whole_grid_evolve(style, cutoff, work):
    # the amplifier gathers its input into the working grid block by block
    # instead of evolving a zero-padded copy
    amp = _styled_grid(cutoff + 1, style, seed=cutoff)
    padded = np.zeros((work + 1, work + 1), dtype=complex)
    padded[: cutoff + 1, : cutoff + 1] = amp
    angle = math.acosh(1.22)
    found = _evolve(amp, SplitterKind.NBS, angle, work + 1)
    assert np.array_equal(found, _whole_grid_evolve(padded, SplitterKind.NBS, angle))


_BESSEL_ARGUMENTS = [1e-8, 0.3, 2.0, 17.3, 150.0, 640.0]


@pytest.mark.parametrize("t", _BESSEL_ARGUMENTS)
def test_bessel_series_matches_scipy(t):
    special = pytest.importorskip("scipy.special")
    series = np.array(_bessel_series(t))
    k = np.arange(len(series))
    # scipy's own error grows to ~1e-14 at t ~ 1e3
    assert np.max(np.abs(series - special.jv(k, t))) <= 1e-13
    # the series ends just before the first order past t below 1e-18
    stop = next(k for k in itertools.count() if k > t and abs(special.jv(k, t)) < 1e-18)
    assert len(series) == stop


@pytest.mark.parametrize("t", _BESSEL_ARGUMENTS)
def test_bessel_series_sum_rules(t):
    j = np.array(_bessel_series(t))
    signs = (-1.0) ** np.arange(len(j[0::2]))
    assert j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2) == pytest.approx(1.0, abs=1e-13)
    # exp(it) = J_0 + 2 sum i^k J_k (Jacobi-Anger at phi = 0)
    assert j[0] + 2.0 * np.sum(signs[1:] * j[2::2]) == pytest.approx(math.cos(t), abs=1e-13)
    assert 2.0 * np.sum(signs[: len(j[1::2])] * j[1::2]) == pytest.approx(
        math.sin(t), abs=1e-13
    )


# ---------------------------------------------------------------------------
# measurement and ideal information


def test_measure_vacuum_is_all_zero():
    stats = measure_moments(prepare_input(0.0, 0.0, 8))
    assert stats == ModeStatistics(0.0, 0.0, 0.0, 0.0, 0.0)


def test_derivative_qfim_vacuum_is_zero():
    fm = derivative_qfim(prepare_input(0.0, 0.0, 8))
    assert fm.f_pp == fm.f_mm == fm.f_pm == 0.0


def test_derivative_qfim_fock_superposition():
    # (|0> + |2>)/sqrt(2) on mode a, vacuum on mode b
    amp = np.zeros((5, 5), dtype=complex)
    amp[0, 0] = amp[2, 0] = 1.0 / math.sqrt(2.0)
    fm = derivative_qfim(TruncatedState(amp))
    assert fm.f_pp == pytest.approx(1.0, rel=1e-15)
    assert fm.f_mm == pytest.approx(1.0, rel=1e-15)
    assert fm.f_pm == pytest.approx(1.0, rel=1e-15)


def test_derivative_qfim_agrees_with_moment_route():
    state = apply_splitter(prepare_input(2.0, 0.5, 64), SplitterSpec.lbs(0.7))
    direct = derivative_qfim(state)
    via_moments = qfim_matrix(measure_moments(state))
    _matrix_close(direct, via_moments, 1e-12)


# ---------------------------------------------------------------------------
# Kraus branch sums


def _lossy_test_state():
    return apply_splitter(prepare_input(2.0, 0.5, 64), SplitterSpec.lbs(0.7))


def test_kraus_completeness_sums_to_norm():
    state = _lossy_test_state()
    norm_sq = 1.0 - state.norm_deficit
    for eta in (0.0, 0.3, 1.0):
        total = kraus_completeness(state, SingleArmLoss(eta, -0.5))
        assert total == pytest.approx(norm_sq, abs=1e-10)
    total = kraus_completeness(state, TwoArmLoss(0.4, 0.7, 0.0, 0.0))
    assert total == pytest.approx(norm_sq, abs=1e-10)
    for eta_a, eta_b in itertools.product((0.0, 1.0, 0.4), repeat=2):
        total = kraus_completeness(state, TwoArmLoss(eta_a, eta_b, -0.5, 1.5))
        assert total == pytest.approx(norm_sq, abs=1e-10)


def test_kraus_lossless_reproduces_derivative_qfim():
    state = _lossy_test_state()
    found = kraus_sum_cij(state, SingleArmLoss(1.0, -0.3))
    _matrix_close(found, derivative_qfim(state), 1e-12)


def test_kraus_opaque_arm_keeps_only_arm_b():
    state = _lossy_test_state()
    found = kraus_sum_cij(state, SingleArmLoss(0.0, 0.0))
    vb = measure_moments(state).var_b
    scale = max(vb, 1.0)
    assert _rel(found.f_pp, vb, scale) <= 1e-10
    assert _rel(found.f_mm, vb, scale) <= 1e-10
    assert _rel(found.f_pm, -vb, scale) <= 1e-10


def test_kraus_single_arm_matches_closed_matrix():
    state = _lossy_test_state()
    stats = measure_moments(state)
    loss = SingleArmLoss(0.6, -0.3)
    _matrix_close(kraus_sum_cij(state, loss), c_matrix_single(stats, loss), 1e-8)


def test_kraus_two_arm_matches_closed_matrix():
    state = _lossy_test_state()
    stats = measure_moments(state)
    loss = TwoArmLoss(0.6, 0.9, -0.3, -0.8)
    _matrix_close(kraus_sum_cij(state, loss), c_matrix_two(stats, loss), 1e-8)


# ---------------------------------------------------------------------------
# reference: the branch-by-branch loop the factorised engine replaced


def _reference_loss_weights(cutoff, eta):
    """W[l, k] = C(k+l, l) (1-eta)^l eta^k, one lgamma per entry."""
    d = cutoff + 1
    w = np.zeros((d, d))
    if eta == 0.0:
        w[:, 0] = 1.0
        return w
    if eta == 1.0:
        w[0, :] = 1.0
        return w
    for l in range(d):
        for k in range(d - l):
            log_comb = math.lgamma(k + l + 1) - math.lgamma(l + 1) - math.lgamma(k + 1)
            w[l, k] = math.exp(log_comb + l * math.log1p(-eta) + k * math.log(eta))
    return w


def _reference_kraus_sum_cij(state, loss):
    """Slow reference: loops over every loss branch (l_a, or l_a and l_b)
    and sums D_± and their products on the kept grid."""
    prob = np.abs(state.amplitudes) ** 2
    n = np.arange(state.cutoff + 1.0)
    e_p = e_m = e_pp = e_mm = e_pm = 0.0
    if isinstance(loss, SingleArmLoss):
        w = _reference_loss_weights(state.cutoff, loss.eta_a)
        for l_a in range(state.cutoff + 1):
            kept = state.cutoff + 1 - l_a
            branch = prob[l_a:, :] * w[l_a, :kept][:, None]
            n_kept = n[:kept][:, None]
            m = n[None, :]
            d_m = 0.5 * (n_kept - m - loss.gamma * l_a)
            d_p = 0.5 * (n_kept + m - loss.gamma * l_a)
            e_p += float((branch * d_p).sum())
            e_m += float((branch * d_m).sum())
            e_pp += float((branch * d_p * d_p).sum())
            e_mm += float((branch * d_m * d_m).sum())
            e_pm += float((branch * d_p * d_m).sum())
    else:
        w_a = _reference_loss_weights(state.cutoff, loss.eta_a)
        w_b = _reference_loss_weights(state.cutoff, loss.eta_b)
        for l_a in range(state.cutoff + 1):
            kept_a = state.cutoff + 1 - l_a
            n_kept = n[:kept_a][:, None]
            row = prob[l_a:, :] * w_a[l_a, :kept_a][:, None]
            for l_b in range(state.cutoff + 1):
                kept_b = state.cutoff + 1 - l_b
                branch = row[:, l_b:] * w_b[l_b, :kept_b][None, :]
                m_kept = n[:kept_b][None, :]
                d_m = 0.5 * (n_kept - m_kept - loss.gamma_a * l_a + loss.gamma_b * l_b)
                d_p = 0.5 * (n_kept + m_kept - loss.gamma_a * l_a - loss.gamma_b * l_b)
                e_p += float((branch * d_p).sum())
                e_m += float((branch * d_m).sum())
                e_pp += float((branch * d_p * d_p).sum())
                e_mm += float((branch * d_m * d_m).sum())
                e_pm += float((branch * d_p * d_m).sum())
    return FisherMatrix(
        f_pp=4.0 * (e_pp - e_p * e_p),
        f_mm=4.0 * (e_mm - e_m * e_m),
        f_pm=4.0 * (e_pm - e_p * e_m),
    )


_REFERENCE_LOSSES = [
    SingleArmLoss(0.6, -0.3),
    SingleArmLoss(0.0, 0.4),  # opaque arm a
    SingleArmLoss(0.5, -1.0),  # gamma = -1
    TwoArmLoss(1.0, 0.6, -0.3, -0.5),  # mirror: loss on arm b only
    TwoArmLoss(0.0, 0.7, 0.2, -0.4),  # opaque arm a
    TwoArmLoss(0.7, 0.0, -0.6, 0.3),  # opaque arm b
    TwoArmLoss(0.5, 0.8, -1.0, -1.0),  # gamma = -1 on both arms
    TwoArmLoss(0.6, 0.9, -0.3, 1.7),  # unequal gammas
]


@pytest.fixture(scope="module", params=["lbs", "nbs"])
def small_state(request):
    if request.param == "lbs":
        return apply_splitter(prepare_input(1.5, 0.4, 24), SplitterSpec.lbs(0.7))
    return apply_splitter(prepare_input(1.0, 0.3, 16), SplitterSpec.nbs(1.1))


@pytest.mark.parametrize("loss", _REFERENCE_LOSSES, ids=repr)
def test_kraus_sum_matches_branch_loop_reference(small_state, loss):
    expected = _reference_kraus_sum_cij(small_state, loss)
    _matrix_close(kraus_sum_cij(small_state, loss), expected, 1e-12)


@pytest.mark.parametrize("gamma_b", [-1.0, 0.0, 2.5, -40.0])
def test_single_arm_loss_is_two_arm_loss_with_lossless_arm_b(small_state, gamma_b):
    single = SingleArmLoss(0.6, -0.3)
    two = TwoArmLoss(0.6, 1.0, -0.3, gamma_b)
    assert kraus_sum_cij(small_state, single) == kraus_sum_cij(small_state, two)
    assert kraus_completeness(small_state, single) == kraus_completeness(small_state, two)
