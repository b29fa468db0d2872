"""Achievable rates over an intermittent channel, where k codeword symbols
are spread over an output block of expected length alpha*k and the receiver
does not know the transmission instants.

Three schemes: exhaustive decoding over all instant patterns (rate penalty
alpha*h(1/alpha)), pattern decoding whose penalty is the intermittency
overhead f(P, W, alpha) (in closed form, alpha times the gap between
h(1/alpha) and a weighted Jensen-Shannon divergence of PW and the noise
row), and its specialization to the noiseless binary channel.  The best
pattern-decoding rate is a capacity under a constraint on the noise-input
mass (Blahut-Arimoto, certified gap).  Rates are in bits per codeword symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import entr

from .blahut import blahut_capacity
from .errors import ConvergenceError
from .partialdiv import _tilt_root
from .prob import Dmc, Pmf, binary_entropy, kl_divergence, output_dist
# pairwise_descent is not called here; it stays importable as
# intermit.rates.pairwise_descent, where perfbench/layers.py wraps it.
from .search import grid_golden_max, pairwise_descent  # noqa: F401


def _check_alpha(alpha: float) -> None:
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def _star_row(w: Dmc) -> np.ndarray:
    if w.star is None:
        raise ValueError("channel must designate a noise input (star)")
    return w.star_row()


def exhaustive_decoding_rate(w: Dmc, alpha: float, *, capacity: float | None = None) -> float:
    """Rate achieved by decoding over every transmission-instant pattern:
    (C_W - alpha*h(1/alpha))^+ bits per codeword symbol."""
    _check_alpha(alpha)
    if capacity is None:
        capacity = blahut_capacity(w).capacity
    return max(capacity - alpha * float(binary_entropy(1.0 / alpha)), 0.0)


@dataclass(frozen=True)
class OverheadResult:
    """Intermittency overhead f (bits) with its maximizing split fraction
    beta_star; `stationarity_residual` is the first-order condition value at
    beta_star (NaN when the maximizer sits on the boundary or alpha = 1)."""

    value: float
    beta_star: float
    stationarity_residual: float


def overhead_stationarity(p, w: Dmc, alpha: float, beta: float) -> float:
    """First-order condition of the overhead objective at an interior beta:

        log((1-b)/b) + log((1-r)/r) - log(c1 (1-r)/r) - log(c2 (1-b)/b)

    in bits, with r = (alpha-1)*beta and c1, c2 the tilting constants of the
    two partial-divergence terms.  Zero at the maximizing beta; its sign
    matches the objective slope."""
    _check_alpha(alpha)
    if alpha == 1.0:
        raise ValueError("stationarity is undefined at alpha = 1 (no noise symbols)")
    rho = (alpha - 1.0) * beta
    if not (0.0 < beta < 1.0 / alpha and 0.0 < rho < 1.0):
        raise ValueError("beta must be strictly interior to (0, 1/alpha)")
    star = _star_row(w)
    pw = output_dist(p, w).probs
    c1 = _tilt_root(pw, star, rho)
    c2 = _tilt_root(star, pw, beta)
    return (
        math.log2((1.0 - beta) / beta)
        + math.log2((1.0 - rho) / rho)
        - math.log2(c1 * (1.0 - rho) / rho)
        - math.log2(c2 * (1.0 - beta) / beta)
    )


def intermittency_overhead(p, w: Dmc, alpha: float) -> OverheadResult:
    """The rate penalty f(P, W, alpha) of pattern decoding.

    The paper defines f as a maximum over the split fraction beta in
    [0, 1/alpha]:

        (alpha-1) h(beta) + h((alpha-1) beta)
          - d_{(alpha-1) beta}(PW || W*) - (alpha-1) d_beta(W* || PW),

    with W* the noise row.  The maximum has a closed form.  The first-order
    condition (`overhead_stationarity`) reduces to c1 * c2 = 1, where c1 and
    c2 are the two tilting constants.  Putting c1 = c and c2 = 1/c into the
    two tilt equations and imposing rho = (alpha-1) beta gives

        (c - (alpha-1)) * sum_y PW W* / (c W* + PW) = 0,

    so c1 = alpha - 1 and

        beta* = sum_y W*(y) PW(y) / (PW(y) + (alpha-1) W*(y)),

    which is at most 1/alpha because xy/(x + ay) is concave and
    1-homogeneous.  With M = (PW + (alpha-1) W*)/alpha the overhead is

        f = alpha h(1/alpha) - D(PW || M) - (alpha-1) D(W* || M),

    that is alpha * (h(1/alpha) - JS), with JS the Jensen-Shannon divergence
    of PW and W* under weights (1/alpha, 1 - 1/alpha) (Lin, "Divergence
    measures based on the Shannon entropy", IEEE T-IT 1991).  It is
    evaluated as the sum of nonnegative terms s_y h(PW(y)/s_y) with
    s = PW + (alpha-1) W*, so 0 <= f <= alpha h(1/alpha); terms outside the
    common support of PW and W* vanish, so zeros in either need no special
    path.

    `stationarity_residual` is `overhead_stationarity` at beta*, computed
    from independent tilt-root solves, as a certificate of the closed form.
    """
    _check_alpha(alpha)
    star = _star_row(w)
    if alpha == 1.0:
        return OverheadResult(0.0, 0.0, math.nan)
    pw = output_dist(p, w).probs
    s = pw + (alpha - 1.0) * star
    on = s > 0.0
    share = pw[on] / s[on]
    beta_star = float((star[on] * share).sum())
    value = float((s[on] * binary_entropy(share)).sum())
    residual = math.nan
    if 1e-8 < beta_star < 1.0 / alpha - 1e-8:
        try:
            residual = overhead_stationarity(p, w, alpha, beta_star)
        except (ConvergenceError, ValueError):
            residual = math.nan
    return OverheadResult(value, beta_star, residual)


@dataclass(frozen=True)
class PatternRateResult:
    """Pattern-decoding rate with its maximizing input distribution.

    `rate` is (I(P, W) - f)^+ at P = `input_dist`, so it is achievable, and
    `gap` is certified: rate <= R2 <= rate + gap."""

    rate: float
    input_dist: Pmf
    gap: float


def pattern_decoding_rate(w: Dmc, alpha: float) -> PatternRateResult:
    """Rate of pattern decoding: R2 = max over input pmfs P of (I(P, W) - f)^+.

    As I(P, W) - f = alpha I(P', W) - alpha h(1/alpha), P' = P/alpha +
    (1 - 1/alpha) delta_*, R2 = (alpha C* - alpha h(1/alpha))^+ with
    C* = max {I(P', W) : P'(*) >= 1 - 1/alpha}, a capacity under an input
    constraint (Blahut, IEEE T-IT 1972): one Blahut-Arimoto run per KKT case.
    Slack: the capacity-achieving Q has Q(*) >= 1 - 1/alpha, so C* = C_W at
    P = alpha Q - (alpha - 1) delta_*.  Binding: P(*) = 0, and over the other
    inputs I(P', W) = I(P~, W') + sum_x P~(x) b(x), W'_x = W_x/alpha +
    (1 - 1/alpha) W*, b(x) = H(W'_x) - H(W_x)/alpha - (1 - 1/alpha) H(W*) >= 0;
    the run's sandwich bounds those inputs and D(W* || P~W') the noise input.
    The gap exceeds 1e-9 bits only when a run exhausts its iterations.
    """
    _check_alpha(alpha)
    star = _star_row(w)
    tol = 1e-9 / alpha  # so that alpha C* is certified to 1e-9 bits
    ba = blahut_capacity(w, tol=tol)
    p = alpha * ba.input_dist.probs - (alpha - 1.0) * np.eye(w.input_size)[w.star]
    if p[w.star] >= 0.0:
        res, upper = ba, ba.capacity + ba.gap
    else:
        others = np.arange(w.input_size) != w.star
        rows = w.rows[others] / alpha + (1.0 - 1.0 / alpha) * star
        offset = (entr(rows).sum(axis=1) - entr(w.rows[others]).sum(axis=1) / alpha
                  - (1.0 - 1.0 / alpha) * entr(star).sum()) / math.log(2.0)
        res = blahut_capacity(rows, tol=tol, offset=offset)
        upper = max(res.capacity + res.gap,
                    kl_divergence(star, res.input_dist.probs @ rows))
        p = np.zeros(w.input_size)
        p[others] = res.input_dist.probs
    rate = alpha * res.capacity - alpha * float(binary_entropy(1.0 / alpha))
    # rounding can put the sandwich's two sides an ulp out of order
    return PatternRateResult(max(rate, 0.0), Pmf(p), alpha * max(upper - res.capacity, 0.0))


@dataclass(frozen=True)
class NoiselessRateResult:
    """Best rate for the noiseless binary intermittent channel, with the
    maximizing probability of the all-noise symbol and the inner split
    fraction at the optimum."""

    rate: float
    p_zero: float
    beta: float


def _noiseless_objective(p0, am1: float):
    """Pattern-decoding rate h(p0) - f of the noiseless binary channel at the
    input law with noise-symbol mass p0 (vectorized over p0).

    At beta*(p0) = p0/(am1 + p0) the overhead is s h(p0/s) with s = p0 + am1
    (`intermittency_overhead` with PW = (p0, 1-p0) and W* = (1, 0))."""
    p0 = np.asarray(p0, dtype=float)
    s = p0 + am1
    share = np.divide(p0, s, out=np.zeros_like(s), where=s > 0.0)
    return binary_entropy(p0) - s * binary_entropy(share)


def noiseless_binary_rate(alpha: float, *, outer_coarse: int = 257) -> NoiselessRateResult:
    """Pattern-decoding rate of the noiseless binary channel whose noise
    symbol is 0, optimized over the input law:

        max_{p0} 2 h(p0) - max_beta [ (alpha-1) h(beta) + h(r)
                                       + (1-r) h((p0 - r)/(1 - r)) ],

    with r = (alpha-1)*beta constrained to r <= min(1, p0).  The inner
    maximum is reached at beta*(p0) = p0/(alpha-1+p0), where it equals
    h(p0) + s h(p0/s) with s = alpha-1+p0, so the outer objective is
    h(p0) - s h(p0/s).  Its slope is log2((1-p0)/s), so the maximizer is
    p0* = max(0, 1 - alpha/2), found here by a grid of `outer_coarse` points
    and a golden-section polish.  Equals 1 bit at alpha = 1 and reaches 0 at
    alpha = 2.
    """
    _check_alpha(alpha)
    am1 = alpha - 1.0
    p0s = np.linspace(0.0, 1.0, outer_coarse)
    vals = _noiseless_objective(p0s, am1)
    k = int(vals.argmax())
    lo, hi = p0s[max(k - 1, 0)], p0s[min(k + 1, outer_coarse - 1)]
    p0_star, val = grid_golden_max(lambda p0: _noiseless_objective(p0, am1), lo, hi,
                                   coarse=9, tol=1e-10)
    if vals[k] > val:
        p0_star, val = float(p0s[k]), float(vals[k])
    beta_star = p0_star / (am1 + p0_star) if am1 > 0.0 else 0.0
    return NoiselessRateResult(max(float(val), 0.0), float(p0_star), float(beta_star))
