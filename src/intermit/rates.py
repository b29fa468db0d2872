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

from .blahut import blahut_capacity
from .prob import Dmc, Pmf, binary_entropy, kl_divergence, output_dist
# grid_golden_max and pairwise_descent are not called here; they stay
# importable as intermit.rates attributes, where perfbench/layers.py wraps them.
from .search import grid_golden_max, pairwise_descent  # noqa: F401


def _check_alpha(alpha: float) -> None:
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")


def _entr(x: np.ndarray) -> np.ndarray:
    """-x ln x elementwise, 0 where x = 0 (nats)."""
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


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
    beta_star."""

    value: float
    beta_star: float


def intermittency_overhead(p, w: Dmc, alpha: float) -> OverheadResult:
    """The rate penalty f(P, W, alpha) of pattern decoding.

    The paper defines f as a maximum over the split fraction beta in
    [0, 1/alpha]:

        (alpha-1) h(beta) + h((alpha-1) beta)
          - d_{(alpha-1) beta}(PW || W*) - (alpha-1) d_beta(W* || PW),

    with W* the noise row.  The maximum has a closed form.  The first-order
    condition in beta reduces to c1 * c2 = 1, where c1 and c2 are the tilting
    constants of the two partial divergences.  Putting c1 = c and c2 = 1/c
    into the two tilt equations and imposing rho = (alpha-1) beta gives

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
    """
    _check_alpha(alpha)
    star = w.star_row()
    if alpha == 1.0:
        return OverheadResult(0.0, 0.0)
    pw = output_dist(p, w).probs
    s = pw + (alpha - 1.0) * star
    on = s > 0.0
    share = pw[on] / s[on]
    beta_star = float((star[on] * share).sum())
    value = float((s[on] * binary_entropy(share)).sum())
    return OverheadResult(value, beta_star)


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
    Each run certifies 1e-9/alpha bits or raises ConvergenceError, so `gap` is
    at most 1e-9 bits unless D(W* || P~W') tops the binding run's upper bound.
    """
    _check_alpha(alpha)
    star = w.star_row()
    tol = 1e-9 / alpha  # so that alpha C* is certified to 1e-9 bits
    ba = blahut_capacity(w, tol=tol)
    p = alpha * ba.input_dist.probs - (alpha - 1.0) * np.eye(w.input_size)[w.star]
    if p[w.star] >= 0.0:
        res, upper = ba, ba.capacity + ba.gap
    else:
        others = np.arange(w.input_size) != w.star
        rows = w.rows[others] / alpha + (1.0 - 1.0 / alpha) * star
        offset = (_entr(rows).sum(axis=1) - _entr(w.rows[others]).sum(axis=1) / alpha
                  - (1.0 - 1.0 / alpha) * _entr(star).sum()) / math.log(2.0)
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


def noiseless_binary_rate(alpha: float, *, outer_coarse: int = 257) -> NoiselessRateResult:
    """Pattern-decoding rate of the noiseless binary channel whose noise
    symbol is 0, optimized over the input law:

        max_{p0} 2 h(p0) - max_beta [ (alpha-1) h(beta) + h(r)
                                       + (1-r) h((p0 - r)/(1 - r)) ],

    with r = (alpha-1)*beta constrained to r <= min(1, p0).  The inner
    maximum is reached at beta*(p0) = p0/(alpha-1+p0), where it equals
    h(p0) + s h(p0/s) with s = alpha-1+p0, so the outer objective is
    h(p0) - s h(p0/s).  Its slope is log2((1-p0)/s), so the maximizer is
    p0* = max(0, 1 - alpha/2).  There s = alpha/2 for alpha <= 2, and the
    rate is alpha (1 - h(1/alpha)): the slack case of `pattern_decoding_rate`
    with C_W = 1, as the uniform input puts 1/2 >= 1 - 1/alpha on the noise
    symbol.  Beyond alpha = 2, p0* = 0 and the rate is 0.  Equals 1 bit at
    alpha = 1 and reaches 0 at alpha = 2.

    Nothing is searched: `outer_coarse` is accepted and changes nothing.
    """
    _check_alpha(alpha)
    p_zero = max(0.0, 1.0 - alpha / 2.0)
    rate = alpha * (1.0 - float(binary_entropy(1.0 / alpha))) if alpha <= 2.0 else 0.0
    beta = p_zero / (alpha - 1.0 + p_zero) if alpha > 1.0 else 0.0
    return NoiselessRateResult(rate, p_zero, beta)
