"""Search-based intermittency overhead and noiseless-binary rate: the
cross-checks for the closed forms in `intermit.rates`.

`overhead_search` maximizes the paper's objective over the split fraction
beta with a 33-point grid plus golden-section polish, evaluating both partial
divergences through `intermit.partialdiv` (the `mismatch_exponent` grid
oracle wherever the reference law has a zero).  `noiseless_search` runs the
257 x 65 nested grid-and-golden search over (p0, beta)."""

import math

import numpy as np

from intermit.partialdiv import _value as partial_div_value
from intermit.prob import Dmc, binary_entropy, output_dist
from intermit.search import grid_golden_max


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
        d1 = partial_div_value(pw, star, rho)[0]
        if math.isinf(d1):
            return -math.inf
        d2 = partial_div_value(star, pw, beta)[0]
        if math.isinf(d2):
            return -math.inf
        return base - d1 - am1 * d2

    beta_star, value = grid_golden_max(objective, 0.0, 1.0 / alpha, coarse=coarse, tol=tol)
    return float(value), float(beta_star)


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
