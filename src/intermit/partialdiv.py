"""Partial divergence: the exponent governing how likely an i.i.d. Q-sample
is to *contain* a subsample of type P, rather than to *be* of type P.

For a mixing fraction rho in [0, 1], the partial divergence d_rho(P||Q)
interpolates between 0 (rho = 0) and the full divergence D(P||Q) (rho = 1).
It has a closed form driven by a scalar tilting constant c*, solved on the
common support of P and Q; it is finite up to rho = P(supp Q) and +inf
beyond.  `mismatch_exponent` evaluates the general two-source exponent by
constrained minimization over the split.  All values are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .prob import _is_pmf_vector, _vec, binary_entropy, kl_divergence
from .search import pairwise_descent, simplex_grid

_FEAS_TOL = 1e-12


def _tilt_equation(c: float, p: np.ndarray, q: np.ndarray) -> float:
    return float(c * (p * q / (c * q + p)).sum())


def _tilt_root(p: np.ndarray, q: np.ndarray, rho: float) -> float:
    """Root of c * sum_j p_j q_j / (c q_j + p_j) = rho on the support of Q.

    The left side increases from 0 to the P-mass of supp(Q), so a root exists
    iff rho is below that mass.
    """
    # imported here: scipy.optimize is slow to import, and no other code in
    # the package needs it
    from scipy.optimize import brentq

    mask = (q > 0.0) & (p > 0.0)
    ps, qs = p[mask], q[mask]
    mass = ps.sum()
    if rho >= mass:
        raise ConvergenceError(
            f"no tilting constant: rho={rho} is not below the P-mass {mass} of supp(Q)"
        )
    hi = 1.0
    while _tilt_equation(hi, ps, qs) < rho:
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceError("tilting-constant bracket exceeded float range")
    c = brentq(lambda c: _tilt_equation(c, ps, qs) - rho, 0.0, hi, xtol=1e-300, rtol=1e-15)
    if abs(_tilt_equation(c, ps, qs) - rho) > 1e-10:
        raise ConvergenceError("tilting-constant solve did not meet residual tolerance")
    return float(c)


def tilting_constant(p, q, rho: float) -> float:
    """The constant c* in the closed form of d_rho(P||Q).

    Requires a strictly positive Q and rho in (0, 1).  Unique because the
    defining equation is monotone in c; equals rho/(1-rho) iff P = Q.
    """
    pv, qv = _pmf_vectors(p, q)
    if qv.min() <= 0.0:
        raise ValueError("tilting constant requires a strictly positive Q")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1)")
    return _tilt_root(pv, qv, rho)


def _pmf_vectors(*dists) -> list:
    """Float vectors of `dists`, which must be pmfs on one alphabet.  They are
    not renormalized, so a value is that of the vectors as given."""
    vs = [_vec(d) for d in dists]
    if any(v.shape != vs[0].shape for v in vs):
        raise ValueError("distributions live on different alphabet sizes")
    for v in vs:
        if not _is_pmf_vector(v):
            raise ValueError(f"not a pmf: {v.tolist()}")
    return vs


def _check_pair(p, q, rho: float):
    pv, qv = _pmf_vectors(p, q)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return pv, qv


@dataclass(frozen=True)
class PartialDivergence:
    """Value of d_rho(P||Q) plus its tilting constant: +inf at the boundary
    rho = P(supp Q), None where rho exceeds it and no split exists."""

    value: float
    rho: float
    tilt: float | None


def partial_divergence(p, q, rho: float) -> PartialDivergence:
    """Partial divergence d_rho(P||Q) in bits.

    Exact endpoints: d_0 = 0 and d_1 = D(P||Q).  Inside, the closed form

        sum_x p log2(p / (c q + p)) + rho log2 c + h(rho)

    with c the tilting constant solved on supp(P) and supp(Q); this needs
    rho below the P-mass of supp(Q).  At rho = P(supp Q) the value is the
    c -> inf limit sum_{supp Q} p log2(p/q) + h(rho), the split that draws
    exactly the symbols in supp(Q) from Q; above it no split exists and the
    value is +inf.
    """
    pv, qv = _check_pair(p, q, rho)
    if rho == 0.0:
        return PartialDivergence(0.0, rho, 0.0)
    if rho == 1.0:
        return PartialDivergence(kl_divergence(pv, qv), rho, math.inf)
    on = (qv > 0.0) & (pv > 0.0)
    ps = pv[on]
    mass = ps.sum()
    if rho > mass:
        return PartialDivergence(math.inf, rho, None)
    h = float(binary_entropy(rho))
    if rho == mass:
        return PartialDivergence(float((ps * np.log2(ps / qv[on])).sum()) + h, rho, math.inf)
    c = _tilt_root(pv, qv, rho)
    mask = pv > 0.0
    pm = pv[mask]
    body = float((pm * np.log2(pm / (c * qv[mask] + pm))).sum())
    return PartialDivergence(body + rho * math.log2(c) + h, rho, c)


def partial_divergence_deriv(p, q, rho: float) -> float:
    """d/drho of d_rho(P||Q) in bits: log2(c* (1-rho)/rho).

    Needs rho inside (0, 1) and below the P-mass of supp(Q), where the
    tilting constant c* is finite.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1)")
    c = partial_divergence(p, q, rho).tilt
    if c is None or math.isinf(c):
        raise ValueError(f"no finite tilting constant: rho={rho} is not below P(supp Q)")
    return math.log2(c * (1.0 - rho) / rho)


def convexity_lower_bound(p, q, rho: float) -> float:
    """The pointwise lower bound D(P || rho*Q + (1-rho)*P) <= d_rho(P||Q)."""
    pv, qv = _check_pair(p, q, rho)
    return kl_divergence(pv, rho * qv + (1.0 - rho) * pv)


def _rows_kl_bits(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Row-wise D(row||ref) in bits, +inf where a row escapes supp(ref)."""
    out = np.zeros(rows.shape[0])
    pos_ref = ref > 0.0
    bad = (rows[:, ~pos_ref] > 0.0).any(axis=1) if (~pos_ref).any() else np.zeros(
        rows.shape[0], dtype=bool
    )
    safe_rows = rows[:, pos_ref]
    safe_ref = ref[pos_ref]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(safe_rows > 0.0, safe_rows * np.log2(safe_rows / safe_ref), 0.0)
    out = terms.sum(axis=1)
    out[bad] = np.inf
    return out


def mismatch_exponent(p, q, q_alt, rho: float, *, steps: int | None = None,
                      refine_tol: float = 1e-8) -> float:
    """Exponent of drawing a length-n type P when a rho-fraction of symbols
    comes i.i.d. from Q and the rest from Q_alt:

        min over  rho*P1 + (1-rho)*P2 = P  of  rho*D(P1||Q) + (1-rho)*D(P2||Q_alt).

    Evaluated by dense simplex-grid search over P1 (restricted to supp(Q))
    followed by pairwise-transfer refinement; the objective is convex, so the
    greedy refinement converges to the global minimum.  Returns +inf when no
    feasible split exists (e.g. rho exceeds the P-mass of supp(Q)).

    With q_alt = P this is an independent route to d_rho(P||Q), used to
    cross-check the closed form.
    """
    pv, qv, av = _pmf_vectors(p, q, q_alt)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if rho == 0.0:
        return kl_divergence(pv, av)
    if rho == 1.0:
        return kl_divergence(pv, qv)

    sup = np.flatnonzero(qv > 0.0)
    if pv[sup].sum() + _FEAS_TOL < rho:
        return float("inf")
    if steps is None:
        steps = 200 if pv.size <= 3 else 50
    rbar = 1.0 - rho

    grid = simplex_grid(steps, sup.size)
    cands = np.zeros((grid.shape[0], pv.size))
    cands[:, sup] = grid
    p2 = (pv[None, :] - rho * cands) / rbar
    feasible = p2.min(axis=1) >= -_FEAS_TOL
    if not feasible.any():
        return float("inf")
    cands = cands[feasible]
    p2 = np.clip(p2[feasible], 0.0, None)
    obj = rho * _rows_kl_bits(cands, qv) + rbar * _rows_kl_bits(p2, av)
    best = int(obj.argmin())
    best_val = float(obj[best])
    if not math.isfinite(best_val):
        return float("inf")

    def objective(p1_sup: np.ndarray) -> float:
        if p1_sup.min() < -_FEAS_TOL:
            return float("inf")
        p1 = np.zeros(pv.size)
        p1[sup] = np.clip(p1_sup, 0.0, None)
        rest = (pv - rho * p1) / rbar
        if rest.min() < -_FEAS_TOL:
            return float("inf")
        rest = np.clip(rest, 0.0, None)
        t1 = _rows_kl_bits(p1[None, :], qv)[0]
        t2 = _rows_kl_bits(rest[None, :], av)[0]
        return rho * t1 + rbar * t2

    x, val = pairwise_descent(objective, cands[best][sup], 1.0 / steps, tol=refine_tol)
    return float(min(best_val, val))
