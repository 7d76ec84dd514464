"""Brute-force verification engine on a truncated two-mode Fock grid.

Everything here recomputes what the closed-form modules predict, by a
deliberately different route: states are concrete amplitude arrays,
splitters are numerically exponentiated generators, loss is an explicit
sum over Kraus branches. A splitter generator K (a†b + ab†, or a†b† + ab
for the amplifier) is a real shift on the grid, and exp(iθK) is applied
by its Chebyshev expansion in Bessel coefficients (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)), with the spectrum of the truncated K
bounded by Gershgorin's theorem; only numpy is needed. K is real, so the
recurrence runs in float64. K changes n_b by one, so each step moves an
input on one parity of n_b (a prepared input: real, even n_b) wholly onto
the other parity, and only the occupied parity class is stored and
updated. The grid is flattened with an even row stride (a zero pad column
when d is odd), on which K links a cell only to the cells s away, with
s = stride - 1 for a†b and stride + 1 for a†b†; the grid cut into rows of
length s is s independent column chains, along which the parity
alternates, evolved one cache-sized block at a time. Each arm's branches
(l of n photons lost, with binomial weight) are summed per initial photon
number, and the two arms' sums are contracted with the photon-number
distribution; single-arm loss is the same sum with arm b lossless. No
closed-form binomial moment is used. Kept out of production paths; the
test suite and the `oracle-check` CLI subcommand are the only consumers.

A truncation subtlety drives the cutoff policy: the truncated splitter
generators are exactly Hermitian, so their exponentials conserve norm
even when the physical state has outgrown the grid (population
reflects off the cutoff instead of leaking). Norm therefore cannot detect
an inadequate grid for either splitter; instead each is applied on a
working grid, first the input's own and then larger ones, and accepted
only when the outermost shell of that grid carries negligible mass.
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
_NORM_DRIFT = 1e-12
_SHELL_MASS = 1e-9
_SHELL_WIDTH = 4
_MAX_WORK = 600
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
    (i^k = i, -i for k = 1, 3 mod 4) into the imaginary part.

    K changes n_b by one, so T_k psi of an input on one parity of n_b lives
    on the parity k steps away: the input is split into its components, the
    real or imaginary part on even or odd n_b (a prepared input has one),
    and each is evolved on the cells of the parity class it occupies at
    each step. The grid is flattened with an even row stride (a zero pad
    column when d is odd, linked with weight 0), so n_b has the parity of
    the flat index. There K links cell p only to p - s and p + s, with the
    odd s = stride - 1 for a†b and stride + 1 for a†b†, so the grid cut
    into rows of length s is s independent column chains, along which the
    parity alternates; a link that wraps a row, leaves the grid or touches
    the pad has weight 0. Each odd chain is shifted down one row, so that
    the even rows of every chain are the even class and the odd rows the
    odd class. The recurrence runs on one block of chains (about
    _BLOCK_CELLS grid cells) at a time, on its two class arrays, T_k
    overwriting T_{k-2} in its own class; so the complex result is the
    only full-grid array, and each nonzero cell gets the same operations
    in the same order as on the whole grid. The result is complex at every
    angle.
    """
    n = amplitudes.shape[0]
    d = d or n
    radius = 2.0 * (d - 1)
    coeffs = _bessel_series(angle * radius) if angle else [1.0]
    lbs = kind is SplitterKind.LBS
    stride = d + d % 2  # even, so that n_b has the parity of the flat index
    shift = stride - 1 if lbs else stride + 1
    chain = -(-d * stride // shift)  # cells per chain; the last row is partly padding
    half = chain // 2 + 1  # rows of a class: half of the chain + 1 shifted rows, rounded up
    parts = (amplitudes.real, amplitudes.imag)
    # (part, parity of n_b) of each nonzero component, real parts first
    components = [(p, q) for p in (0, 1) for q in (0, 1) if parts[p][:, q::2].any()]
    result = np.zeros((chain, shift), dtype=complex)
    out = (result.real, result.imag)
    rows = 2 * np.arange(half)[:, None]

    def cells(cols, e):
        # grid (n_a, n_b) of the block's class-e cells, shifted rows e, e + 2, ...;
        # n_a < 0 is the row under an odd chain
        return np.divmod((rows + e - (cols & 1)) * shift + cols, stride)

    def place(target, cols, e, values, op):
        # the class-e values into their cells of the (unshifted) result
        for g in (0, 1):  # chains of even, then odd index
            lo = (g ^ cols[0]) & 1
            first = e ^ g  # first result row of the class in these chains
            count = (chain - first + 1) // 2
            view = target[first::2, cols[0] + lo : cols[-1] + 1 : 2]
            op(view, values[g > e : (g > e) + count, lo::2], out=view)

    for cols in np.array_split(np.arange(shift), min(-(-chain * shift // _BLOCK_CELLS), shift)):
        # 2X moves (i, j) to (i+1, j-1) with weight 2 sqrt((i+1)j)/R for a†b, to
        # (i+1, j+1) with 2 sqrt((i+1)(j+1))/R for a†b†, and back; 0 off the grid
        # or on the pad. low links shifted row 2m to 2m + 1, high 2m + 1 to 2m + 2
        low, high = (
            (2.0 / radius) * np.sqrt((i + 1.0) * (j if lbs else (j + 1.0) * (j < d - 1)))
            * ((i < d - 1) & (j < d))
            for i, j in (cells(cols, e) for e in (0, 1))
        )
        cls = np.empty((2, half, len(cols)))  # T_k in one class, T_{k-1} in the other
        tmp, sums = np.empty_like(cls[0]), np.empty_like(cls)  # sums of even k, odd k
        for p, q in components:
            i, j = cells(cols, q)
            inside = (i >= 0) & (i < n) & (j < n)
            cls[:] = 0.0  # T_0, and T_{-1} = 0 in the other class
            cls[q][inside] = parts[p][i[inside], j[inside]]
            del i, j, inside
            np.multiply(coeffs[0], cls[q], out=sums[0])
            sums[1] = 0.0
            for k in range(1, len(coeffs)):
                # T_k <- 2X T_{k-1} - T_{k-2}, over T_{k-2} in T_k's class, negating
                # it within the first add
                new, cur = cls[(q + k) % 2], cls[(q + k + 1) % 2]
                if (q + k) % 2:  # row 2m + 1: down to 2m by low[m], up to 2m + 2 by high[m]
                    np.multiply(low, cur, out=tmp)
                    np.subtract(tmp, new, out=new)
                    np.multiply(high[:-1], cur[1:], out=tmp[:-1])
                    new[:-1] += tmp[:-1]
                else:  # row 2m: down to 2m - 1 by high[m - 1], up to 2m + 1 by low[m]
                    np.negative(new[0], out=new[0])
                    np.multiply(high[:-1], cur[:-1], out=tmp[1:])
                    np.subtract(tmp[1:], new[1:], out=new[1:])
                    np.multiply(low, cur, out=tmp)
                    new += tmp
                if k == 1:
                    new *= 0.5  # T_1 = X T_0
                np.multiply((2.0, -2.0)[k % 4 // 2] * coeffs[k], new, out=tmp)
                sums[k % 2] += tmp
            # exp(itX) of a real part is even + i odd, of an imaginary part i even - odd
            place(out[p], cols, q, sums[0], np.add)
            place(out[1 - p], cols, 1 - q, sums[1], np.subtract if p else np.add)
    return result.reshape(-1)[: d * stride].reshape(d, stride)[:, :d]


def apply_splitter(state: TruncatedState, splitter: SplitterSpec) -> TruncatedState:
    """Mix the two modes with the numerically exponentiated generator.

    exp(iθK) of the truncated generator is summed as a Chebyshev series
    in K/R, with R = 2 x the grid's cutoff the Gershgorin bound on its
    spectrum and Bessel coefficients J_k(θR) up to the first order past
    θR below 1e-18.

    Both splitters act on a working grid that starts at the input's own
    cutoff (at least 1) and grows 1.5x + 8 at a time up to 600, and are
    accepted only when the outer 4-row/4-column shell holds at most 1e-9
    of the probability and the squared norm moves by at most 1e-12; the
    returned state lives on the working grid so no population is
    discarded. An input above 600 is tried on its own grid only. So the
    golden base input (4 photons, r 0.5) at cutoff 32 is amplified at gain
    3 on the seventh grid tried, 531 wide, and an input that outgrows
    every grid is refused only after the 601-wide one, the costliest.

    Raises
    ------
    CutoffTooSmall
        If the last working grid tried (600, or the input's own if
        larger) fails.
    """
    lbs = splitter.kind is SplitterKind.LBS
    angle = math.acos(math.sqrt(splitter.value)) if lbs else float(np.arccosh(splitter.value))
    before = 1.0 - state.norm_deficit
    work = max(state.cutoff, 1)  # a 1 x 1 grid has R = 0 and no series
    while True:
        out = _evolve(state.amplitudes, splitter.kind, angle, work + 1)
        prob = np.abs(out)
        prob **= 2  # |psi|^2, once for the norm and the shell
        drift = abs(float(np.sum(prob)) - before)
        shell = float(prob[-_SHELL_WIDTH:, :].sum() + prob[:, -_SHELL_WIDTH:].sum())
        if shell <= _SHELL_MASS and drift <= _NORM_DRIFT:
            return TruncatedState(out)
        if work >= _MAX_WORK:
            raise CutoffTooSmall(
                f"splitter outgrew the working grid {work}, the last one tried "
                f"({splitter.kind.name} {splitter.value}, input cutoff {state.cutoff})"
            )
        del out, prob  # the refused grid is not kept while the next one evolves
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
