"""Search-based intermittency overhead, pattern-decoding rate and
noiseless-binary rate, and the first-order condition of the overhead: the
cross-checks for `intermit.rates`.

`overhead_search` maximizes the paper's objective over the split fraction
beta with a 33-point grid plus golden-section polish.  It evaluates both
partial divergences with `partial_div_value`: the closed form of
`intermit.partialdiv` for a strictly positive reference law, the grid-search
oracle `partialdiv_oracle.split_search` wherever it has a zero.
`overhead_stationarity` is the first-order condition in beta from the tilting
constants of the two partial divergences; it vanishes at the closed-form
beta*.
`pattern_rate_search` maximizes I(P, W) - f over the input law directly: a
grid-and-golden search along the segment of binary inputs, pairwise descent
for larger alphabets.  `noiseless_search` runs the 257 x 65 nested
grid-and-golden search over (p0, beta)."""

import math

import numpy as np

from intermit.blahut import blahut_capacity
from intermit.partialdiv import partial_divergence
from intermit.prob import Dmc, binary_entropy, mutual_information, output_dist
from intermit.rates import intermittency_overhead
from intermit.search import grid_golden_max, pairwise_descent
from partialdiv_oracle import split_search


def partial_div_value(p: np.ndarray, q: np.ndarray, rho: float) -> float:
    """d_rho(P||Q): the closed form for strictly positive Q, the grid-search
    oracle otherwise."""
    if q.min() > 0.0:
        return partial_divergence(p, q, rho).value
    return split_search(p, q, p, rho)


def overhead_stationarity(p, w: Dmc, alpha: float, beta: float) -> float:
    """First-order condition of the overhead objective at an interior beta:

        log((1-b)/b) + log((1-r)/r) - log(c1 (1-r)/r) - log(c2 (1-b)/b)

    in bits, with r = (alpha-1)*beta and c1, c2 the tilting constants of the
    two partial-divergence terms.  Zero at the maximizing beta; its sign
    matches the objective slope."""
    rho = (alpha - 1.0) * beta
    if not (alpha > 1.0 and 0.0 < beta < 1.0 / alpha and 0.0 < rho < 1.0):
        raise ValueError("beta must be strictly interior to (0, 1/alpha), with alpha > 1")
    star = w.star_row()
    pw = output_dist(p, w).probs
    c1 = partial_divergence(pw, star, rho).tilt
    c2 = partial_divergence(star, pw, beta).tilt
    return (
        math.log2((1.0 - beta) / beta)
        + math.log2((1.0 - rho) / rho)
        - math.log2(c1 * (1.0 - rho) / rho)
        - math.log2(c2 * (1.0 - beta) / beta)
    )


def overhead_search(p, w: Dmc, alpha: float, *, coarse: int = 33, tol: float = 1e-10):
    """(f, beta*) by searching beta in [0, 1/alpha]; (0, 0) at alpha = 1."""
    if alpha == 1.0:
        return 0.0, 0.0
    star = w.star_row()
    pw = output_dist(p, w).probs
    am1 = alpha - 1.0

    def objective(beta: float) -> float:
        rho = am1 * beta
        if beta < 0.0 or rho > 1.0:
            return -math.inf
        base = am1 * float(binary_entropy(beta)) + float(binary_entropy(rho))
        d1 = partial_div_value(pw, star, rho)
        if math.isinf(d1):
            return -math.inf
        d2 = partial_div_value(star, pw, beta)
        if math.isinf(d2):
            return -math.inf
        return base - d1 - am1 * d2

    beta_star, value = grid_golden_max(objective, 0.0, 1.0 / alpha, coarse=coarse, tol=tol)
    return float(value), float(beta_star)


def pattern_rate_search(w: Dmc, alpha: float):
    """(max(I - f, 0), argmax P) by direct search over the input law.

    Binary inputs: grid-and-golden search over the non-noise mass, plus the
    capacity-achieving input.  Larger alphabets: pairwise descent from the
    uniform and the capacity-achieving inputs, once per distinct start (the
    objective is concave, so more starts find the same maximum)."""
    ba = blahut_capacity(w)
    if alpha == 1.0:
        return max(ba.capacity, 0.0), ba.input_dist.probs

    def objective(pvec: np.ndarray) -> float:
        return mutual_information(pvec, w) - intermittency_overhead(pvec, w, alpha).value

    n = w.input_size
    if n == 2:
        other = 1 - w.star

        def segment(t: float) -> np.ndarray:
            pvec = np.zeros(2)
            pvec[w.star] = 1.0 - t
            pvec[other] = t
            return pvec

        t_star, val = grid_golden_max(lambda t: objective(segment(t)), 0.0, 1.0,
                                      coarse=33, tol=1e-8)
        t_ba = float(ba.input_dist.probs[other])
        val_ba = objective(segment(t_ba))
        if val_ba > val:
            t_star, val = t_ba, val_ba
        return max(val, 0.0), segment(t_star)

    starts = [np.full(n, 1.0 / n)]
    if not np.array_equal(starts[0], ba.input_dist.probs):
        starts.append(ba.input_dist.probs)
    best_val, best_p = -math.inf, None
    for p0 in starts:
        x, neg = pairwise_descent(lambda v: -objective(v), p0, 0.25, tol=1e-6)
        if -neg > best_val:
            best_val, best_p = -neg, x
    return max(best_val, 0.0), best_p


def noiseless_search(alpha: float, *, outer_coarse: int = 257, inner_coarse: int = 65):
    """(rate, p0*, beta*) of the noiseless binary channel by nested search."""
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
    return max(float(val), 0.0), float(p0_star), float(beta_star)
