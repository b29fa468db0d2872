"""Converse bounds for intermittent communication: genie-aided upper bounds
built from the insertion-channel capacity loss, and capacity per unit cost
with its pulse-position lower bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .insertion import insertion_loss
from .prob import Dmc, kl_divergence
from .sim import negbinom_pmf


def z_pmf(z: int, s: int, p_t: float) -> float:
    """P(genie block span = z): the span covering s+1 codeword symbols equals
    z = b+1 with probability C(b, s) p_t^{s+1} (1-p_t)^{b-s}, for z >= s+1.

    This is the received-length law of s+1 codeword symbols,
    `negbinom_pmf(z, s + 1, p_t)`.  Mean (s+1)/p_t."""
    if s < 1:
        raise ValueError("genie span s must be >= 1")
    if z < s + 1:
        raise ValueError(f"block span z={z} is below its minimum {s + 1}")
    return negbinom_pmf(z, s + 1, p_t)


def _span_survival(z: int, s: int, p_t: float) -> float:
    """P(span > z): fewer than s+1 codeword symbols land in z slots, so

        P(Bin(z, p_t) <= s) = sum_{i<=s} C(z,i) p_t^i (1-p_t)^{z-i},

    summed in logs so that large z cannot underflow a term."""
    lp, lq = math.log(p_t), math.log1p(-p_t)
    logs = [math.lgamma(z + 1) - math.lgamma(i + 1) - math.lgamma(z - i + 1)
            + i * lp + (z - i) * lq for i in range(s + 1)]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def z_quantile(s: int, p_t: float, tail: float = 1e-12) -> int:
    """Smallest z >= s+1 with P(span > z) <= tail (negative-binomial tail),
    found by doubling and then bisection on the binomial survival sum."""
    if s < 1:
        raise ValueError("genie span s must be >= 1")
    if not 0.0 < p_t <= 1.0:
        raise ValueError("p_t must lie in (0, 1]")
    if not tail > 0.0:
        raise ValueError("tail must be positive")
    if p_t == 1.0:
        return s + 1
    lo, hi = s, s + 1  # the answer lies in (lo, hi] once P(span > hi) <= tail
    while _span_survival(hi, s, p_t) > tail:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _span_survival(mid, s, p_t) > tail:
            lo = mid
        else:
            hi = mid
    return hi


def c1_upper(s: int, b_max: int, alpha: float, *, allow_large: bool = False) -> float:
    """Genie-aided upper bound on the rate (bits per codeword symbol) from
    revealing the output block boundaries of every s+1 codeword symbols,
    with spans longer than b_max truncated into the closing term:

        1 - phi(s, b_max)/(s+1)
          + (1/(s+1)) sum_{b=s}^{b_max} C(b,s) p^{s+1} (1-p)^{b-s}
                                        (phi(s, b_max) - phi(s, b)),

    where phi is the insertion-channel capacity loss and p = 1/alpha.  Every
    term of the sum vanishes as alpha -> infinity, so alpha = inf gives the
    limit 1 - phi(s, b_max)/(s+1) without evaluating it."""
    if s < 1:
        raise ValueError("genie span s must be >= 1")
    if b_max < s:
        raise ValueError("b_max must be >= s")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    p = 1.0 / alpha
    phi_max = insertion_loss(s, b_max, allow_large=allow_large)
    if p == 0.0:
        return 1.0 - phi_max / (s + 1)
    acc = 0.0
    for b in range(s, b_max + 1):
        w = math.comb(b, s) * p ** (s + 1) * (1.0 - p) ** (b - s)
        acc += w * (phi_max - insertion_loss(s, b, allow_large=allow_large))
    return 1.0 - phi_max / (s + 1) + acc / (s + 1)


def c1_limit(s: int, b_max: int, *, allow_large: bool = False) -> float:
    """alpha -> infinity limit of `c1_upper`: 1 - phi(s, b_max)/(s+1)."""
    return c1_upper(s, b_max, math.inf, allow_large=allow_large)


def c2_upper(s: int, alpha: float, *, allow_large: bool = False) -> float:
    """Genie-aided upper bound from revealing per-block codeword-symbol
    counts:

        1 - (1/(s p)) sum_{a=0}^{s} C(s,a) p^a (1-p)^{s-a} phi(a, s),

    with p = 1/alpha.  As alpha -> infinity only the a = 1 term survives,
    so alpha = inf gives the limit 1 - phi(1, s)."""
    if s < 1:
        raise ValueError("genie span s must be >= 1")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    p = 1.0 / alpha
    if p == 0.0:
        return 1.0 - insertion_loss(1, s, allow_large=allow_large)
    acc = 0.0
    # the a = 0 term carries no loss: an empty block reveals nothing to lose
    for a in range(1, s + 1):
        w = math.comb(s, a) * p ** a * (1.0 - p) ** (s - a)
        acc += w * insertion_loss(a, s, allow_large=allow_large)
    return 1.0 - acc / (s * p)


@dataclass(frozen=True)
class CostModel:
    """Per-symbol transmission costs; the designated noise symbol is free."""

    gamma: np.ndarray
    star: int

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("cost vector must be a nonempty 1-D vector")
        if not g.min() >= 0.0:  # NaN fails it
            raise ValueError("costs must be nonnegative numbers")
        if not 0 <= self.star < g.size:
            raise ValueError(f"star index {self.star} out of range")
        if g[self.star] != 0.0:
            raise ValueError("the noise symbol must have zero cost")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class CostCapacityBound:
    """A capacity-per-unit-cost bound (bits per unit cost) with the symbol
    attaining it.  Symbols that carry information at zero cost make the bound
    infinite; they are listed in `degenerate_symbols` rather than silently
    absorbed into the max."""

    value: float
    best_symbol: int | None
    per_symbol: tuple
    degenerate_symbols: tuple


def _ratio_bound(w: Dmc, cost: CostModel, numerator) -> CostCapacityBound:
    if w.input_size != cost.gamma.size:
        raise ValueError("cost vector does not match channel input size")
    if cost.star != w.star:
        raise ValueError("cost model and channel disagree on the noise symbol")
    ratios = []
    degenerate = []
    for x in range(w.input_size):
        if x == cost.star:
            ratios.append(0.0)
            continue
        d = numerator(x)
        if cost.gamma[x] == 0.0:
            if d > 0.0:
                degenerate.append(x)
                ratios.append(math.inf)
            else:
                ratios.append(0.0)
        else:
            ratios.append(d / cost.gamma[x])
    best = int(np.argmax(ratios))
    return CostCapacityBound(
        value=float(ratios[best]),
        best_symbol=best if ratios[best] > 0.0 else None,
        per_symbol=tuple(ratios),
        degenerate_symbols=tuple(degenerate),
    )


def cpuc_upper(w: Dmc, cost: CostModel) -> CostCapacityBound:
    """Capacity per unit cost of the intermittent channel is at most
    max_{x != star} D(W_x || W_star) / gamma(x)  (bits per unit cost)."""
    star_row = w.star_row()
    return _ratio_bound(w, cost, lambda x: kl_divergence(w.rows[x], star_row))


def cpuc_lower(w: Dmc, cost: CostModel, alpha: float) -> CostCapacityBound:
    """Achievable capacity per unit cost via bursty pulse-position modulation:

        (alpha/2) max_{x != star} D( W_x/alpha + (1-1/alpha) W_star || W_star )
                                   / gamma(x).

    Equals half the upper bound at alpha = 1."""
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    star_row = w.star_row()

    def num(x: int) -> float:
        mix = w.rows[x] / alpha + (1.0 - 1.0 / alpha) * star_row
        return (alpha / 2.0) * kl_divergence(mix, star_row)

    return _ratio_bound(w, cost, num)


def ppm_burst_length(w: Dmc, cost: CostModel, alpha: float, n_messages: int) -> float:
    """Burst length (symbols) of the pulse-position scheme behind
    `cpuc_lower`: 2 log2(M) / (alpha * D(mix || W_star)) at the maximizing
    symbol.  Infinite when the channel cannot distinguish any paid symbol
    from noise."""
    if n_messages < 2:
        raise ValueError("need at least two messages")
    lower = cpuc_lower(w, cost, alpha)
    if lower.best_symbol is None:
        return math.inf
    x = lower.best_symbol
    mix = w.rows[x] / alpha + (1.0 - 1.0 / alpha) * w.star_row()
    d = kl_divergence(mix, w.star_row())
    if d <= 0.0:
        return math.inf
    return 2.0 * math.log2(n_messages) / (alpha * d)
