"""Achievable rates over an intermittent channel, where k codeword symbols
are spread over an output block of expected length alpha*k and the receiver
does not know the transmission instants.

Three schemes: exhaustive decoding over all instant patterns (rate penalty
alpha*h(1/alpha)), pattern decoding whose penalty is the intermittency
overhead f(P, W, alpha), and the closed-form optimization for the noiseless
binary channel.  Rates are in bits per codeword symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blahut import blahut_capacity
from .partialdiv import _tilt_root, _value as _pd
from .prob import Dmc, Pmf, _vec, binary_entropy, mutual_information, output_dist
from .search import grid_golden_max, pairwise_descent


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


def intermittency_overhead(p, w: Dmc, alpha: float, *, coarse: int = 33,
                           tol: float = 1e-10) -> OverheadResult:
    """The rate penalty f(P, W, alpha) of pattern decoding.

    Maximizes over the split fraction beta in [0, 1/alpha]:

        (alpha-1) h(beta) + h((alpha-1) beta)
          - d_{(alpha-1) beta}(PW || W_star) - (alpha-1) d_beta(W_star || PW)

    The objective is concave in beta (value 0 at beta = 0), searched by a
    coarse grid plus golden-section polish.
    """
    _check_alpha(alpha)
    star = _star_row(w)
    if alpha == 1.0:
        return OverheadResult(0.0, 0.0, math.nan)
    pw = output_dist(p, w).probs
    am1 = alpha - 1.0

    def objective(beta: float) -> float:
        rho = am1 * beta
        if beta < 0.0 or rho > 1.0:
            return -math.inf
        base = am1 * float(binary_entropy(beta)) + float(binary_entropy(rho))
        d1 = _pd(pw, star, rho)[0]
        if math.isinf(d1):
            return -math.inf
        d2 = _pd(star, pw, beta)[0]
        if math.isinf(d2):
            return -math.inf
        return base - d1 - am1 * d2

    beta_star, value = grid_golden_max(objective, 0.0, 1.0 / alpha, coarse=coarse, tol=tol)
    residual = math.nan
    if 1e-8 < beta_star < 1.0 / alpha - 1e-8:
        try:
            residual = overhead_stationarity(p, w, alpha, beta_star)
        except Exception:
            residual = math.nan
    return OverheadResult(float(value), float(beta_star), residual)


@dataclass(frozen=True)
class PatternRateResult:
    """Pattern-decoding rate with its maximizing input distribution.

    `spread` is the gap between the best and worst multistart optima (0 for
    the single-start binary search); a large spread flags a possibly
    multimodal landscape."""

    rate: float
    input_dist: Pmf
    spread: float


def pattern_decoding_rate(w: Dmc, alpha: float, *, starts: int = 20, seed: int = 0,
                          tol: float = 1e-8) -> PatternRateResult:
    """Rate of pattern decoding: max over input pmfs of (I(P, W) - f)^+.

    Binary-input channels use a 1-D bracketed golden-section search over the
    non-noise symbol mass; larger alphabets run pairwise-transfer ascent from
    `starts` random starts plus the uniform and unconstrained-capacity inputs,
    once per distinct start.
    The capacity-achieving input is always evaluated, so the result never
    falls below C_W minus the overhead at that input.
    """
    _check_alpha(alpha)
    star = _star_row(w)  # validates the star designation up front
    del star
    ba = blahut_capacity(w)
    if alpha == 1.0:
        return PatternRateResult(max(ba.capacity, 0.0), ba.input_dist, 0.0)
    n = w.input_size

    def objective(pvec: np.ndarray) -> float:
        return mutual_information(pvec, w) - intermittency_overhead(pvec, w, alpha).value

    if n == 2:
        other = 1 - w.star

        def on_segment(t: float) -> float:
            pvec = np.zeros(2)
            pvec[w.star] = 1.0 - t
            pvec[other] = t
            return objective(pvec)

        t_star, val = grid_golden_max(on_segment, 0.0, 1.0, coarse=33, tol=tol)
        t_ba = float(ba.input_dist.probs[other])
        val_ba = on_segment(t_ba)
        if val_ba > val:
            t_star, val = t_ba, val_ba
        best = np.zeros(2)
        best[w.star] = 1.0 - t_star
        best[other] = t_star
        return PatternRateResult(max(val, 0.0), Pmf(best), 0.0)

    rng = np.random.default_rng(seed)
    start_points = [np.full(n, 1.0 / n), ba.input_dist.probs.copy()]
    start_points += [rng.dirichlet(np.ones(n)) for _ in range(starts)]
    results = []
    for i, p0 in enumerate(start_points):
        if any(np.array_equal(p0, q) for q in start_points[:i]):
            continue  # the same start descends to the same point
        x, neg = pairwise_descent(lambda v: -objective(v), p0, 0.25, tol=1e-6)
        results.append((-neg, x))
    vals = [v for v, _ in results]
    best_val, best_p = max(results, key=lambda t: t[0])
    return PatternRateResult(
        max(best_val, 0.0), Pmf(best_p), float(max(vals) - min(vals))
    )


@dataclass(frozen=True)
class NoiselessRateResult:
    """Best rate for the noiseless binary intermittent channel, with the
    maximizing probability of the all-noise symbol and the inner split
    fraction at the optimum."""

    rate: float
    p_zero: float
    beta: float


def noiseless_binary_rate(alpha: float, *, outer_coarse: int = 257,
                          inner_coarse: int = 65) -> NoiselessRateResult:
    """Pattern-decoding rate of the noiseless binary channel whose noise
    symbol is 0, optimized in closed form over the input law:

        max_{p0} 2 h(p0) - max_beta [ (alpha-1) h(beta) + h(r)
                                       + (1-r) h((p0 - r)/(1 - r)) ],

    with r = (alpha-1)*beta constrained to r <= min(1, p0).  Equals 1 bit at
    alpha = 1 and reaches 0 at alpha = 2.
    """
    _check_alpha(alpha)
    am1 = alpha - 1.0

    def inner_best(p0: float):
        if am1 == 0.0:
            return 0.0, float(binary_entropy(p0))
        beta_max = min(1.0, p0) / am1

        def inner(beta: float) -> float:
            r = am1 * beta
            tail = 1.0 - r
            if tail <= 0.0:
                leftover = 0.0
            else:
                leftover = tail * float(binary_entropy((p0 - r) / tail))
            return am1 * float(binary_entropy(beta)) + float(binary_entropy(r)) + leftover

        return grid_golden_max(inner, 0.0, beta_max, coarse=inner_coarse)

    def outer(p0: float) -> float:
        return 2.0 * float(binary_entropy(p0)) - inner_best(p0)[1]

    p0s = np.linspace(0.0, 1.0, outer_coarse)
    vals = np.array([outer(v) for v in p0s])
    k = int(vals.argmax())
    lo, hi = p0s[max(k - 1, 0)], p0s[min(k + 1, outer_coarse - 1)]
    p0_star, val = grid_golden_max(outer, lo, hi, coarse=9, tol=1e-10)
    if vals[k] > val:
        p0_star, val = float(p0s[k]), float(vals[k])
    beta_star = inner_best(p0_star)[0] if am1 > 0.0 else 0.0
    return NoiselessRateResult(max(float(val), 0.0), float(p0_star), float(beta_star))
