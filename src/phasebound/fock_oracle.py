"""Brute-force verification engine on a truncated two-mode Fock grid.

Everything here recomputes what the closed-form modules predict, by a
deliberately different route: states are concrete amplitude arrays,
splitters are numerically exponentiated generators, loss is an explicit
sum over Kraus branches. A splitter generator K (a†b + ab†, or a†b† + ab
for the amplifier) is a real shift on the grid, and exp(iθK) is applied
by its Chebyshev expansion in Bessel coefficients (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)), with the spectrum of the truncated K
bounded by Gershgorin's theorem; only numpy is needed. K is real, so the
recurrence runs in float64. On the flattened d x d grid K links a cell
only to the cells s away (s = d - 1 for a†b, d + 1 for a†b†), so the grid
cut into rows of length s is s independent column chains, evolved one
cache-sized block at a time. Each arm's branches (l of n photons lost, with
binomial weight) are summed per initial photon number, and the two arms'
sums are contracted with the photon-number distribution; single-arm loss
is the same sum with arm b lossless. No closed-form binomial moment is
used. Kept out of production paths; the test suite and the
`oracle-check` CLI subcommand are the only consumers.

A truncation subtlety drives the cutoff policy: the truncated splitter
generators are exactly Hermitian, so their exponentials conserve norm
even when the physical state has outgrown the grid (population
reflects off the cutoff instead of leaking). Norm deficit therefore
cannot detect an inadequate grid for the amplifying splitter; instead
the amplifier is applied on an enlarged working grid and accepted only
when the outermost shell of that grid carries negligible mass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Union

import numpy as np

from .errors import CutoffTooSmall
from .moments import ModeStatistics, SplitterKind, SplitterSpec, _Checked
from .qfim_ideal import FisherMatrix
from .qfim_lossy import SingleArmLoss, TwoArmLoss

_PREPARE_DEFICIT = 1e-10
_LBS_NORM_DRIFT = 1e-12
_NBS_DEFICIT = 1e-8
_SHELL_MASS = 1e-9
_SHELL_WIDTH = 4
_MAX_WORK = 320
_BLOCK_CELLS = 1 << 14  # cells per block of chains in _evolve: 128 kB per float array
_BESSEL_TAIL = 1e-18


class TruncatedState(_Checked, namedtuple("TruncatedState", "amplitudes")):
    """Two-mode pure state on the grid 0 <= n_a, n_b <= cutoff; it holds an
    array, so it equals only itself."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, amplitudes: np.ndarray) -> "TruncatedState":
        shape = amplitudes.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"amplitudes must be square, got shape {shape}")
        return tuple.__new__(cls, (amplitudes,))

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def norm_deficit(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.amplitudes) ** 2))


def prepare_input(alpha_mag: float, squeeze_r: float, cutoff: int) -> TruncatedState:
    """Coherent state on mode a, squeezed vacuum on mode b.

    Raises
    ------
    CutoffTooSmall
        If the truncated product state misses more than 1e-10 of its
        norm; retry with a larger cutoff.
    """
    for name, value in (("alpha_mag", alpha_mag), ("squeeze_r", squeeze_r)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff}")
    n = np.arange(cutoff + 1)
    lg = np.array([math.lgamma(k + 1) for k in n])
    if alpha_mag > 0.0:
        coh = np.exp(-alpha_mag**2 / 2.0 + n * math.log(alpha_mag) - lg / 2.0)
    else:
        coh = np.zeros(cutoff + 1)
        coh[0] = 1.0
    sq = np.zeros(cutoff + 1)
    th = math.tanh(squeeze_r)
    for k in range((cutoff // 2) + 1):
        sq[2 * k] = (-th) ** k * math.exp(
            0.5 * math.lgamma(2 * k + 1) - math.lgamma(k + 1) - k * math.log(2.0)
        ) / math.sqrt(math.cosh(squeeze_r))
    state = TruncatedState(np.outer(coh, sq).astype(complex))
    if state.norm_deficit > _PREPARE_DEFICIT:
        raise CutoffTooSmall(
            f"input state norm deficit {state.norm_deficit:.3e} at cutoff {cutoff}"
        )
    return state


def _bessel_series(t: float) -> list:
    """J_0(t), J_1(t), ... up to, not including, the first order k > t
    with |J_k| < 1e-18.

    Miller's backward recurrence J_{k-1} = (2k/t) J_k - J_{k+1}, started
    far enough past t that the seed's error has died out, normalised by
    the sum rule J_0 + 2(J_2 + J_4 + ...) = 1.
    """
    top = int(t + 20.0 * t ** (1.0 / 3.0)) + 30
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / t * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e100:  # rescale long before the recurrence overflows
            j[k - 1 :] = [v * 1e-100 for v in j[k - 1 :]]
    norm = j[0] + 2.0 * sum(j[2::2])
    series = [v / norm for v in j]
    stop = next(k for k, v in enumerate(series) if k > t and abs(v) < _BESSEL_TAIL)
    return series[:stop]


def _evolve(amplitudes: np.ndarray, kind: SplitterKind, angle: float, d: int = 0) -> np.ndarray:
    """exp(i*angle*K) applied to the amplitudes zero-padded to a d x d grid
    (by default their own), angle >= 0, K = a†b + ab† for the passive
    splitter and a†b† + ab for the amplifier, truncated to that grid.

    Chebyshev expansion exp(itX) = J_0(t) + 2 sum_k i^k J_k(t) T_k(X) with
    X = K/R and t = angle*R. R = 2(d - 1) bounds every row sum of the
    truncated K (Gershgorin), so the spectrum of X lies in [-1, 1] and
    |T_k(X) psi| <= |psi|. K is real, so the recurrence runs in float64 on
    a real psi: the terms 2 i^k J_k T_k psi of even k (i^k = 1, -1 for k =
    0, 2 mod 4) sum into the real part of the result, those of odd k
    (i^k = i, -i for k = 1, 3 mod 4) into the imaginary part, and a complex
    input is evolved as its real and imaginary parts. On the flattened
    grid K links cell p only to p - s and p + s, with s = d - 1 for a†b and
    d + 1 for a†b†, so the grid cut into rows of length s is s independent
    column chains; a link that wraps a row or leaves the grid has weight 0.
    The recurrence runs on one block of chains (about _BLOCK_CELLS cells)
    at a time, so the complex result is the only full-grid array, and each
    cell gets the same operations in the same order as on the whole grid.
    The result is complex at every angle.
    """
    n = amplitudes.shape[0]
    d = d or n
    radius = 2.0 * (d - 1)
    coeffs = _bessel_series(angle * radius) if angle else [1.0]
    lbs = kind is SplitterKind.LBS
    shift = d - 1 if lbs else d + 1
    chain = -(-d * d // shift)  # cells per chain; the last row is partly padding
    parts = 2 if amplitudes.imag.any() else 1
    result = np.empty((chain, shift), dtype=complex)
    for cols in np.array_split(np.arange(shift), min(-(-chain * shift // _BLOCK_CELLS), shift)):
        flat = cols + np.arange(0, chain * shift, shift)[:, None]  # each cell's p
        i, j = np.divmod(flat, d)
        inside = (i < n) & (j < n)
        cur = np.zeros((parts,) + flat.shape)  # T_0
        values = amplitudes[i[inside], j[inside]]
        cur[:, inside] = (values.real, values.imag)[:parts]
        # 2X moves (i, j) to (i+1, j-1) with weight 2 sqrt((i+1)j)/R for a†b, to
        # (i+1, j+1) with 2 sqrt((i+1)(j+1))/R for a†b†, and back; 0 off the grid
        i, j = i[:-1], j[:-1]
        weight = (2.0 / radius) * np.sqrt((i + 1.0) * (j if lbs else (j + 1.0) * (j < d - 1)))
        weight[flat[:-1] >= d * d - shift] = 0.0
        prev, tmp = np.zeros_like(cur), np.empty_like(cur)
        head = tmp[:, :-1]
        sums = [coeffs[0] * cur, np.zeros_like(cur)]  # even k, odd k
        for k in range(1, len(coeffs)):
            # prev <- 2X cur - prev, negating prev within the first add
            np.negative(prev[:, 0], out=prev[:, 0])
            np.multiply(weight, cur[:, :-1], out=head)
            np.subtract(head, prev[:, 1:], out=prev[:, 1:])
            np.multiply(weight, cur[:, 1:], out=head)
            prev[:, :-1] += head
            prev, cur = cur, prev
            if k == 1:
                cur *= 0.5  # T_1 = X T_0
            np.multiply((2.0, -2.0)[k % 4 // 2] * coeffs[k], cur, out=tmp)
            sums[k % 2] += tmp
        even, odd = sums
        block = result[:, cols[0] : cols[-1] + 1]
        if parts == 1:
            block.real, block.imag = even[0], odd[0]
        else:  # exp(itX) of the real part, plus i times that of the imaginary part
            block.real, block.imag = even[0] - odd[1], odd[0] + even[1]
    return result.reshape(-1)[: d * d].reshape(d, d)


def apply_splitter(state: TruncatedState, splitter: SplitterSpec) -> TruncatedState:
    """Mix the two modes with the numerically exponentiated generator.

    exp(iθK) of the truncated generator is summed as a Chebyshev series
    in K/R, with R = 2 x the grid's cutoff the Gershgorin bound on its
    spectrum and Bessel coefficients J_k(θR) up to the first order past
    θR below 1e-18.

    The passive splitter acts on the state's own grid and must conserve
    norm to 1e-12. The amplifier acts on an enlarged working grid, of
    cutoff max(2 x cutoff, 64) and then 1.5x + 8 at a time up to 320, and
    is accepted only when the outer 4-row/4-column shell holds at most
    1e-9 of the probability and the norm deficit stays within 1e-8; the
    returned state lives on the working grid so no amplified population
    is discarded. A first grid above 320 is the only one tried.

    Raises
    ------
    CutoffTooSmall
        If norm drifts on the passive path, or on the amplifying path the
        last working grid tried (320, or the first if larger) fails.
    """
    if splitter.kind is SplitterKind.LBS:
        angle = math.acos(math.sqrt(splitter.value))
        before = 1.0 - state.norm_deficit
        out = _evolve(state.amplitudes, SplitterKind.LBS, angle)
        after = float(np.sum(np.abs(out) ** 2))
        if abs(after - before) > _LBS_NORM_DRIFT:
            raise CutoffTooSmall(
                f"passive splitter norm drift {abs(after - before):.3e}"
            )
        return TruncatedState(out)
    angle = float(np.arccosh(splitter.value))
    work = max(2 * state.cutoff, 64)
    while True:
        out = _evolve(state.amplitudes, SplitterKind.NBS, angle, work + 1)
        prob = np.abs(out)
        prob **= 2  # |psi|^2, once for the deficit and the shell
        deficit = 1.0 - float(np.sum(prob))
        shell = float(prob[-_SHELL_WIDTH:, :].sum() + prob[:, -_SHELL_WIDTH:].sum())
        if shell <= _SHELL_MASS and abs(deficit) <= _NBS_DEFICIT:
            return TruncatedState(out)
        if work >= _MAX_WORK:
            raise CutoffTooSmall(
                f"amplifier outgrew the working grid {work}, the last one tried "
                f"(gain {splitter.value}, input cutoff {state.cutoff})"
            )
        work = min(int(work * 1.5) + 8, _MAX_WORK)


def measure_moments(state: TruncatedState) -> ModeStatistics:
    """Photon-number means, variances and covariance by direct summation."""
    prob = np.abs(state.amplitudes) ** 2
    n = np.arange(state.cutoff + 1.0)
    pa = prob.sum(axis=1)
    pb = prob.sum(axis=0)
    mean_a = float(n @ pa)
    mean_b = float(n @ pb)
    var_a = float(n**2 @ pa) - mean_a**2
    var_b = float(n**2 @ pb) - mean_b**2
    cov = float(n @ prob @ n) - mean_a * mean_b
    return ModeStatistics(mean_a, mean_b, max(var_a, 0.0), max(var_b, 0.0), cov)


def derivative_qfim(state: TruncatedState) -> FisherMatrix:
    """Ideal information matrix 4(<g_i g_j> - <g_i><g_j>) with
    g_± = (n_a ± n_b)/2 applied as diagonal operators on the grid."""
    prob = np.abs(state.amplitudes) ** 2
    n = np.arange(state.cutoff + 1.0)
    g_p = 0.5 * (n[:, None] + n[None, :])
    g_m = 0.5 * (n[:, None] - n[None, :])
    e_p = float((prob * g_p).sum())
    e_m = float((prob * g_m).sum())
    return FisherMatrix(
        f_pp=4.0 * (float((prob * g_p * g_p).sum()) - e_p * e_p),
        f_mm=4.0 * (float((prob * g_m * g_m).sum()) - e_m * e_m),
        f_pm=4.0 * (float((prob * g_p * g_m).sum()) - e_p * e_m),
    )


def _loss_weights(cutoff: int, eta: float) -> np.ndarray:
    """W[n, l] = C(n, l) (1-eta)^l eta^(n-l): probability of losing l of
    n initial photons (zero for l > n)."""
    d = cutoff + 1
    if eta == 0.0:
        return np.eye(d)
    if eta == 1.0:
        return np.eye(1, d).repeat(d, axis=0)
    n = np.arange(d)
    log_fact = np.array([math.lgamma(j + 1) for j in n])
    l = n[None, :]
    k = np.maximum(n[:, None] - l, 0)  # photons kept; the l > n half is masked
    log_comb = log_fact[:, None] - log_fact[l] - log_fact[k]
    return np.tril(np.exp(log_comb + l * math.log1p(-eta) + k * math.log(eta)))


def _branch_sums(cutoff: int, eta: float, gamma: float) -> np.ndarray:
    """Rows 0, 1, 2: sum over lost quanta l of W[n, l] x^p per initial
    photon number n, where x = (n - l) - gamma*l is the arm's share of
    the derivative exponents D_± = (x_a ± x_b)/2."""
    w = _loss_weights(cutoff, eta)
    n = np.arange(cutoff + 1.0)
    x = (n[:, None] - n[None, :]) - gamma * n[None, :]
    return np.stack([w.sum(axis=1), (w * x).sum(axis=1), (w * x * x).sum(axis=1)])


def _branch_moments(state: TruncatedState, loss: Union[SingleArmLoss, TwoArmLoss]) -> np.ndarray:
    """E[p, q] = sum over every loss branch of <x_a^p x_b^q>, p, q <= 2.

    Single-arm loss is two-arm loss with arm b lossless."""
    if isinstance(loss, SingleArmLoss):
        loss = TwoArmLoss(loss.eta_a, 1.0, loss.gamma, 0.0)
    prob = np.abs(state.amplitudes) ** 2
    s_a = _branch_sums(state.cutoff, loss.eta_a, loss.gamma_a)
    s_b = _branch_sums(state.cutoff, loss.eta_b, loss.gamma_b)
    return s_a @ prob @ s_b.T


def kraus_completeness(state: TruncatedState, loss: Union[SingleArmLoss, TwoArmLoss]) -> float:
    """Sum over loss branches of <Π†Π>; equals the squared norm when the
    truncated series is complete."""
    return float(_branch_moments(state, loss)[0, 0])


def kraus_sum_cij(
    state: TruncatedState, loss: Union[SingleArmLoss, TwoArmLoss]
) -> FisherMatrix:
    """Information matrix from the explicit sum over loss branches.

    Each branch (l_a, l_b lost quanta) contributes expectation values of
    the derivative exponents D_± = (x_a ± x_b)/2 with x = (n - l) - gamma*l
    per arm. The branches of one arm do not depend on the other's, so the
    sum factorises into per-arm sums of 1, x and x^2 over l, contracted
    with the photon-number distribution; it is still the exact series on
    the truncated grid, with no closed-form binomial moment.
    """
    (_, x_b, x_bb), (x_a, x_ab, _), (x_aa, _, _) = _branch_moments(state, loss).tolist()
    e_p = 0.5 * (x_a + x_b)
    e_m = 0.5 * (x_a - x_b)
    return FisherMatrix(
        f_pp=(x_aa + 2.0 * x_ab + x_bb) - 4.0 * e_p * e_p,
        f_mm=(x_aa - 2.0 * x_ab + x_bb) - 4.0 * e_m * e_m,
        f_pm=(x_aa - x_bb) - 4.0 * e_p * e_m,
    )
