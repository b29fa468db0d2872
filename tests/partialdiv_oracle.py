"""The two-source split exponent by direct search: the cross-check for the
closed form in `intermit.partialdiv`.

`split_search(p, q, a, rho)` minimizes rho*D(P1||Q) + (1-rho)*D(P2||A) over
the splits rho*P1 + (1-rho)*P2 = P: a dense simplex grid over P1 (restricted
to supp(Q)) plus one proportional split, then pairwise-transfer descent from
the best of them with a halving step.  The objective is convex, so the
descent reaches the global minimum.  The grid alone misses a feasible region
that is thin in some direction (a zero of A on supp(P) pins P1 there to
P/rho; 1 - rho near 0 pins P1 near P); the proportional split lies in any
such region.  Where 1 - rho is within rounding of 0, P2 = (P - rho*P1)/(1-rho)
is lost to rounding and the search can return +inf although a split exists,
so only its finite values are a reference.
"""

import math
from functools import lru_cache

import numpy as np

from intermit.prob import kl_divergence

_FEAS_TOL = 1e-12


@lru_cache(maxsize=64)
def simplex_grid(steps: int, dims: int) -> np.ndarray:
    """All points of the simplex grid {k/steps : k integer} in `dims` parts.

    Returns an array of shape (C(steps+dims-1, dims-1), dims) whose rows sum
    to 1 exactly (up to float rounding of k/steps).
    """
    if dims == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], steps, dims)
    return np.asarray(out, dtype=float) / steps


def rows_kl_bits(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Row-wise D(row||ref) in bits, +inf where a row escapes supp(ref)."""
    pos_ref = ref > 0.0
    bad = (rows[:, ~pos_ref] > 0.0).any(axis=1)
    safe_rows = rows[:, pos_ref]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(safe_rows > 0.0, safe_rows * np.log2(safe_rows / ref[pos_ref]), 0.0)
    out = terms.sum(axis=1)
    out[bad] = np.inf
    return out


def split_search(p, q, a, rho: float, *, steps: int | None = None,
                 refine_tol: float = 1e-8) -> float:
    """min rho*D(P1||Q) + (1-rho)*D(P2||A) over rho*P1 + (1-rho)*P2 = P by
    grid search and pairwise descent; +inf when no start is a feasible
    split.  Exact endpoints D(P||A) at rho = 0 and D(P||Q) at rho = 1."""
    pv, qv, av = (np.asarray(v, dtype=float) for v in (p, q, a))
    if rho == 0.0:
        return kl_divergence(pv, av)
    if rho == 1.0:
        return kl_divergence(pv, qv)
    sup = np.flatnonzero(qv > 0.0)
    if pv[sup].sum() + _FEAS_TOL < rho:
        return math.inf
    if steps is None:
        steps = 200 if pv.size <= 3 else 50
    rbar = 1.0 - rho

    def objective(p1_sup: np.ndarray) -> np.ndarray:
        """The split objective of each row of P1 on supp(Q); +inf where P1 or
        P2 has an entry below -_FEAS_TOL.  Entries of P2 within _FEAS_TOL of
        zero count as zero: P - rho*P1 rounds on the symbols P1 takes whole."""
        p1 = np.zeros((p1_sup.shape[0], pv.size))
        p1[:, sup] = p1_sup
        rest = (pv - rho * p1) / rbar
        feasible = (p1.min(axis=1) >= -_FEAS_TOL) & (rest.min(axis=1) >= -_FEAS_TOL)
        p1 = np.clip(p1, 0.0, None)
        rest = np.where(rest > _FEAS_TOL, rest, 0.0)
        return np.where(feasible,
                        rho * rows_kl_bits(p1, qv) + rbar * rows_kl_bits(rest, av), np.inf)

    # the grid, and one split that is feasible whenever any is: each symbol
    # of P where A = 0 goes wholly to P1, and the rest of rho is spread in
    # proportion to P over the symbols where Q and A are positive
    forced = (pv > 0.0) & (av == 0.0)
    free = (pv > 0.0) & (qv > 0.0) & (av > 0.0)
    seed = np.where(forced, pv, 0.0)
    if free.any():
        seed += np.where(free, pv, 0.0) * ((rho - seed.sum()) / pv[free].sum())
    seed = seed[sup] / rho
    starts = simplex_grid(steps, sup.size)
    if abs(seed.sum() - 1.0) <= _FEAS_TOL:
        starts = np.vstack([starts, seed])
    vals = objective(starts)
    best = int(vals.argmin())
    if not math.isfinite(vals[best]):
        return math.inf
    x, fx = starts[best], float(vals[best])

    # every transfer of one step of mass from coordinate j to coordinate i
    n = sup.size
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    moves = np.zeros((i.size, n))
    moves[np.arange(i.size), i] = 1.0
    moves[np.arange(i.size), j] = -1.0
    step = 1.0 / steps
    while i.size and step > refine_tol:
        while True:
            cands = x + step * moves
            vals = objective(cands)
            vals[x[j] < step] = np.inf
            k = int(vals.argmin())
            if not vals[k] < fx - 1e-15:
                break
            x, fx = cands[k], float(vals[k])
        step /= 2.0
    return fx
