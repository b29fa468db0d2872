"""Small search utilities: golden-section on an interval (optionally
bracketed by a coarse grid first) and pairwise-transfer descent over the
simplex.  No module of the package calls them; the tests' oracles do."""

from __future__ import annotations

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_max(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (argmax, max).  Tolerates -inf values (they just lose every
    comparison), so a concave objective with an infeasible tail is fine.
    """
    a, b = float(lo), float(hi)
    if b < a:
        raise ValueError("empty interval")
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def grid_golden_max(f, lo: float, hi: float, coarse: int = 33, tol: float = 1e-10):
    """Maximize f on [lo, hi]: coarse grid to bracket, golden-section to polish.

    Sound for unimodal f; the grid stage also makes it robust in practice when
    unimodality is only conjectured.  Returns (argmax, max).
    """
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([f(x) for x in xs])
    k = int(vals.argmax())
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    x, fx = golden_max(f, a, b, tol)
    if vals[k] > fx:
        return float(xs[k]), float(vals[k])
    return float(x), float(fx)


def pairwise_descent(f, x0: np.ndarray, step0: float, tol: float = 1e-8):
    """Minimize f over the simplex by pairwise mass transfers with a shrinking
    step, starting from x0.  f may return +inf for infeasible points.

    Returns (argmin, min).  Greedy and derivative-free; adequate for convex
    objectives from a start near the optimum.
    """
    x = np.array(x0, dtype=float)
    fx = f(x)
    n = x.size
    step = float(step0)
    while step > tol:
        improved = True
        while improved:
            improved = False
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    if x[j] < step:
                        continue
                    cand = x.copy()
                    cand[i] += step
                    cand[j] -= step
                    fc = f(cand)
                    if fc < fx - 1e-15:
                        x, fx = cand, fc
                        improved = True
        step /= 2.0
    return x, fx
