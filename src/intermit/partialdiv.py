"""Partial divergence: the exponent governing how likely an i.i.d. Q-sample
is to *contain* a subsample of type P, rather than to *be* of type P.

For a mixing fraction rho in [0, 1], the partial divergence d_rho(P||Q)
interpolates between 0 (rho = 0) and the full divergence D(P||Q) (rho = 1).
It is the general two-source exponent `mismatch_exponent`,

    min over  rho*P1 + (1-rho)*P2 = P  of  rho*D(P1||Q) + (1-rho)*D(P2||A),

at A = P.  Both come from one closed form driven by a scalar tilting
constant c: the optimal split is rho*P1 = P*c*Q/(c*Q + A).  All values are in
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .prob import _is_pmf_vector, _vec, binary_entropy, kl_divergence
# pairwise_descent is not called here; it stays importable as
# intermit.partialdiv.pairwise_descent, where perfbench/layers.py wraps it.
from .search import pairwise_descent  # noqa: F401


def _tilt_equation(c: float, p: np.ndarray, q: np.ndarray, a: np.ndarray) -> float:
    return float(c * (p * q / (c * q + a)).sum())


def _tilt_root(p: np.ndarray, q: np.ndarray, a: np.ndarray, target: float) -> float:
    """Root of c * sum_j p_j q_j / (c q_j + a_j) = target for positive p, q, a.

    The left side increases from 0 to sum p, so the root exists for target
    strictly inside that range.
    """
    # imported here: scipy.optimize is slow to import, and no other code in
    # the package needs it
    from scipy.optimize import brentq

    hi = 1.0
    while _tilt_equation(hi, p, q, a) < target:
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceError("tilting-constant bracket exceeded float range")
    c = brentq(lambda c: _tilt_equation(c, p, q, a) - target, 0.0, hi, xtol=1e-300, rtol=1e-15)
    if abs(_tilt_equation(c, p, q, a) - target) > 1e-10:
        raise ConvergenceError("tilting-constant solve did not meet residual tolerance")
    return float(c)


def _split(pv: np.ndarray, qv: np.ndarray, av: np.ndarray, rho: float):
    """(value, c) of min rho*D(P1||Q) + (1-rho)*D(P2||A) over the splits
    rho*P1 + (1-rho)*P2 = P, in bits; c is None where no split exists.

    A symbol of P with A = 0 goes wholly to P1 (forced mass m0), one with
    Q = 0 wholly to P2.  A split exists iff no symbol of P has Q = A = 0 and
    m0 <= rho <= P(supp Q).  Inside, with c the tilt root on the symbols
    where P, Q and A are all positive,

        sum_x p log2(p / (c q + a)) + rho log2 c + h(rho);

    at rho = P(supp Q) (c -> inf) and at rho = m0 (c -> 0) every symbol goes
    wholly to one side, to P1 iff Q > 0, respectively iff A = 0.
    """
    if rho == 0.0:
        return kl_divergence(pv, av), 0.0
    if rho == 1.0:
        return kl_divergence(pv, qv), math.inf
    on = pv > 0.0
    p, q, a = pv[on], qv[on], av[on]
    if ((q <= 0.0) & (a <= 0.0)).any():
        return math.inf, None
    forced = a <= 0.0
    free = (q > 0.0) & ~forced
    target = rho - p[forced].sum()
    if target < 0.0 or rho > p[q > 0.0].sum():
        return math.inf, None
    # rho - m0 can round above the free mass although rho <= P(supp Q)
    mass = p[free].sum()
    target = min(target, mass)
    h = float(binary_entropy(rho))
    if target == mass or target == 0.0:
        c = math.inf if target == mass else 0.0
        to_q = q > 0.0 if target == mass else forced
        pq, pa = p[to_q], p[~to_q]
        value = float((pq * np.log2(pq / q[to_q])).sum())
        return value + float((pa * np.log2(pa / a[~to_q])).sum()) + h, c
    c = _tilt_root(p[free], q[free], a[free], target)
    return float((p * np.log2(p / (c * q + a))).sum()) + rho * math.log2(c) + h, c


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
    c = _split(pv, qv, pv, rho)[1]
    if c is None or math.isinf(c):
        raise ConvergenceError(
            f"no tilting constant: rho={rho} is not below the P-mass of supp(Q)")
    return c


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
    value, c = _split(pv, qv, pv, rho)
    return PartialDivergence(value, rho, c)


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


def mismatch_exponent(p, q, q_alt, rho: float) -> float:
    """Exponent of drawing a length-n type P when a rho-fraction of symbols
    comes i.i.d. from Q and the rest from A = Q_alt:

        min over  rho*P1 + (1-rho)*P2 = P  of  rho*D(P1||Q) + (1-rho)*D(P2||A).

    The closed form of `partial_divergence` with A in place of P (see
    `_split`); +inf where no split exists.  Exact endpoints D(P||A) at
    rho = 0 and D(P||Q) at rho = 1.
    """
    pv, qv, av = _pmf_vectors(p, q, q_alt)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return _split(pv, qv, av, rho)[0]
