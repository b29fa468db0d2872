"""Partial divergence: the exponent governing how likely an i.i.d. Q-sample
is to *contain* a subsample of type P, rather than to *be* of type P.

For a mixing fraction rho in [0, 1], the partial divergence d_rho(P||Q)
interpolates between 0 (rho = 0) and the full divergence D(P||Q) (rho = 1).
It is the general two-source exponent `mismatch_exponent`,

    min over  rho*P1 + (1-rho)*P2 = P  of  rho*D(P1||Q) + (1-rho)*D(P2||A),

at A = P.  Both come from one closed form driven by a scalar tilting
constant c: the optimal split is rho*P1 = P*c*Q/(c*Q + A).  The tilt
equation is increasing and concave in c, so Newton's method from c = 0 finds
c without a bracket (see `_tilt_root`).  All values are in bits.
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


def _tilt_root(p: np.ndarray, q: np.ndarray, a: np.ndarray, target: float) -> tuple:
    """Root of g(c) = c * sum p q / (c q + a) = target for positive p, q, a
    and 0 < target < sum p, as (c', e) with c = c' * 2**-e.  On c >= 0, g
    rises from 0 toward sum p and is concave (each term has second
    derivative -2 p q^2 a / (c q + a)^3), so Newton's iterates from c = 0
    rise monotonically to the root and never pass it.  The step is a
    quotient of sums of u = p q / s and u a / s, s = c q + a, never of
    p q a / s^2, which over- or underflows first; the loop ends once a step
    no longer raises c.

    u <= p q / a, so a subnormal a could overflow it.  The loop therefore
    solves g(c'; a * 2**e) = target, the same equation scaled exactly by the
    least power of two 2**e that makes every a normal; e = 0 unless some a
    is subnormal.  The root is left in those units, where it keeps its
    precision even when c itself would be subnormal or below float range."""
    shift = max(0, -1021 - math.frexp(a.min())[1])
    pq, c, a = p * q, 0.0, np.ldexp(a, shift)
    with np.errstate(all="ignore"):  # a root past float range ends in inf or NaN
        for _ in range(2000):  # doubling from c = 1 passes 1e300 in about 1 000
            s = c * q + a
            u = pq / s
            step = (target - c * u.sum()) / (u * (a / s)).sum()
            if not c + step > c:
                break
            c += step
        else:
            raise ConvergenceError("tilting-constant solve still rising after 2000 steps")
        residual = c * (pq / (c * q + a)).sum() - target
    if not abs(residual) <= 1e-10:  # NaN fails too
        raise ConvergenceError(f"tilting-constant solve failed: c = {math.ldexp(c, -shift)}, "
                               f"residual {residual}")
    return float(c), shift


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
    # with the root c * 2**-shift, every s below is 2**shift (c q + a), and
    # the value gains shift * (sum p - rho)
    c, shift = _tilt_root(p[free], q[free], a[free], target)
    s = c * q + np.ldexp(a, shift)
    with np.errstate(divide="ignore"):  # p/s underflows to 0 where c q is huge
        logs = np.where(p / s > 0.0, np.log2(p / s), np.log2(p) - np.log2(s))
    value = float((p * logs).sum()) + rho * math.log2(c) + shift * (float(p.sum()) - rho)
    return value + h, math.ldexp(c, -shift)


def tilting_constant(p, q, rho: float) -> float:
    """The constant c* in the closed form of d_rho(P||Q).

    Requires a strictly positive Q and rho in (0, 1).  Unique because the
    defining equation is monotone in c; equals rho/(1-rho) iff P = Q.
    """
    pv, qv = _checked(rho, p, q)
    if qv.min() <= 0.0:
        raise ValueError("tilting constant requires a strictly positive Q")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1)")
    c = _split(pv, qv, pv, rho)[1]
    if c is None or math.isinf(c):
        raise ConvergenceError(
            f"no tilting constant: rho={rho} is not below the P-mass of supp(Q)")
    return c


def _checked(rho: float, *dists) -> list:
    """Float vectors of `dists`, which must be pmfs on one alphabet, for a rho
    in [0, 1].  They are not renormalized, so a value is that of the vectors
    as given."""
    vs = [_vec(d) for d in dists]
    if any(v.shape != vs[0].shape for v in vs):
        raise ValueError("distributions live on different alphabet sizes")
    for v in vs:
        if not _is_pmf_vector(v):
            raise ValueError(f"not a pmf: {v.tolist()}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return vs


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
    pv, qv = _checked(rho, p, q)
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
    pv, qv = _checked(rho, p, q)
    return kl_divergence(pv, rho * qv + (1.0 - rho) * pv)


def mismatch_exponent(p, q, q_alt, rho: float) -> float:
    """Exponent of drawing a length-n type P when a rho-fraction of symbols
    comes i.i.d. from Q and the rest from A = Q_alt:

        min over  rho*P1 + (1-rho)*P2 = P  of  rho*D(P1||Q) + (1-rho)*D(P2||A).

    The closed form of `partial_divergence` with A in place of P (see
    `_split`); +inf where no split exists.  Exact endpoints D(P||A) at
    rho = 0 and D(P||Q) at rho = 1.
    """
    pv, qv, av = _checked(rho, p, q, q_alt)
    return _split(pv, qv, av, rho)[0]
