"""Channel capacity by the Blahut-Arimoto iteration, accelerated near the
optimum by safeguarded Newton steps, with a certified optimality gap; plus
the capacity of a disjoint union of channels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .prob import RENORM_TOL, Dmc, Pmf

_LN2 = math.log(2.0)
# The Newton step is tried once the sandwich is below this many nats (1e-3
# bits), on the inputs with r(x) > _SUPPORT_REL * max r, and only while there
# are at most _NEWTON_MAX_SUPPORT of them: its KKT system is dense.
_NEWTON_GAP = 1e-3 * _LN2
_SUPPORT_REL = 1e-12
_NEWTON_MAX_SUPPORT = 2048
# Ridge on the scaled Hessian, whose entries lie in [-1, 0]: it keeps the KKT
# system regular when the support holds more inputs than independent rows.
_RIDGE = 1e-10
# Entries of one column chunk of a dense channel in the Hessian build.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class CapacityResult:
    """Certified capacity estimate in bits.

    `capacity` is the mutual information of `input_dist` (plus its mean
    offset, if one was given), hence always a valid lower bound; `gap` bounds
    its distance to the true capacity.
    `lb_history` is the nondecreasing sequence of per-iteration lower bounds.
    """

    capacity: float
    input_dist: Pmf
    iterations: int
    gap: float
    converged: bool
    lb_history: tuple


def _as_matrix(w):
    if isinstance(w, Dmc):
        return w.rows
    if sparse.issparse(w):
        return w.tocsr().astype(float)
    m = np.asarray(w, dtype=float)
    if m.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    if np.abs(m.sum(axis=1) - 1.0).max() > RENORM_TOL:
        raise ValueError("channel rows must each sum to 1")
    return m


def _newton_step(m, r, t, d):
    """One Newton step for max I(r, W) + sum_x r(x) b(x) subject to
    sum r = 1, on the support of r, or None when it cannot be taken.

    `t` = rW and `d` = D(W_x || t) + b(x) in nats are taken at r.  The
    gradient is d - 1 and the Hessian H = -sum_y W(y|x) W(y|x') / t(y).  The
    KKT system is solved for u = delta / sqrt(r), where the Hessian becomes
    sqrt(r) H sqrt(r) (less _RIDGE on its diagonal) and the constraint
    sqrt(r).u = 0; the step is cut to 0.99 of the way to the first r(x) = 0.
    """
    supp = np.flatnonzero(r > _SUPPORT_REL * r.max())
    k = supp.size
    if k < 2 or k > _NEWTON_MAX_SUPPORT:
        return None
    if sparse.issparse(m):
        rows = m[supp]
        neg_hess = (rows.multiply(1.0 / t).tocsr() @ rows.T).toarray()
    else:
        neg_hess = np.zeros((k, k))
        step = max(1, _CHUNK_ENTRIES // k)
        for c0 in range(0, t.size, step):
            block = m[supp, c0:c0 + step]
            neg_hess += (block / t[c0:c0 + step]) @ block.T
    root = np.sqrt(r[supp])
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = -neg_hess * root[:, None] * root
    kkt[np.arange(k), np.arange(k)] -= _RIDGE
    kkt[:k, k] = kkt[k, :k] = root
    rhs = np.append(root * (1.0 - d[supp]), 0.0)  # minus the scaled gradient
    try:
        delta = root * np.linalg.solve(kkt, rhs)[:k]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(delta).all():
        return None
    down = delta < 0.0
    tau = min(1.0, 0.99 * float((r[supp][down] / -delta[down]).min())) if down.any() else 1.0
    cand = r.copy()
    cand[supp] += tau * delta
    return cand / cand.sum()


def blahut_capacity(w, tol: float = 1e-9, max_iter: int = 100_000, *,
                    offset=None, start=None) -> CapacityResult:
    """Capacity of a DMC in bits, to within `tol` bits.

    Alternates the Blahut-Arimoto update on the input distribution and stops
    when the certified sandwich max_x D(W_x || rW) - I(r, W) drops below
    `tol`.  Accepts a Dmc, a dense row-stochastic matrix, or a scipy sparse
    matrix (rows are trusted to be stochastic in the sparse case).  All-zero
    output columns are dropped; they cannot carry probability.

    Once the sandwich is below _NEWTON_GAP, each iteration first tries a
    Newton step on the support of r (see `_newton_step`) and keeps it only if
    it strictly raises the lower bound I; otherwise, or when the step cannot
    be taken, it makes the Blahut-Arimoto update.  So the lower bounds never
    decrease, and convergence near the optimum is fast even where the plain
    update slows down to 1/n.

    With a per-input `offset` b (bits) it maximizes I(r, W) + sum_x r(x) b(x),
    Blahut's input-cost form: D(W_x || rW) + b(x) replaces D(W_x || rW) in the
    update, the Newton step and the sandwich, and `capacity` and `gap` refer
    to that objective.

    The iteration starts from the uniform input law, or from `start`:
    positive per-input weights, normalized here.

    If `max_iter` is exhausted first, the partial result is returned with
    converged=False and the achieved gap.
    """
    m = _as_matrix(w)
    nin = m.shape[0]
    is_sparse = sparse.issparse(m)
    if is_sparse:
        col_mass = np.asarray(m.sum(axis=0)).ravel()
        m = m[:, col_mass > 0.0].tocsr()
        logm = m.copy()
        logm.data = np.log(logm.data)
        row_ent = np.asarray(m.multiply(logm).sum(axis=1)).ravel()  # sum w ln w
    else:
        m = m[:, m.sum(axis=0) > 0.0]
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = np.where(m > 0.0, np.log(m), 0.0)
        row_ent = (m * lw).sum(axis=1)
    offset = None if offset is None else np.asarray(offset, dtype=float) * _LN2

    def bounds(r):
        """rW, D(W_x || rW) + b(x) in nats for every input x, and I + r.b."""
        t = m.T.dot(r) if is_sparse else r @ m
        logt = np.log(t)
        if is_sparse:
            d = row_ent - np.asarray(m.dot(logt)).ravel()
        else:
            d = row_ent - m @ logt
        if offset is not None:
            d = d + offset
        return t, d, float(r @ d)

    if start is None:
        r = np.full(nin, 1.0 / nin)
    else:
        r = np.asarray(start, dtype=float)
        if r.shape != (nin,) or not (np.isfinite(r).all() and (r > 0.0).all()):
            raise ValueError(f"start must hold {nin} positive finite weights")
        r = r / r.sum()
    tol_nats = tol * _LN2
    t, d, lb = bounds(r)
    history = []
    gap = math.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        ub = float(d.max())
        history.append(lb / _LN2)
        gap = ub - lb
        if gap < tol_nats or iters == max_iter:
            break  # so that `input_dist` is the law the bounds were taken at
        if gap < _NEWTON_GAP:
            cand = _newton_step(m, r, t, d)
            if cand is not None:
                ct, cd, clb = bounds(cand)
                if clb > lb:
                    r, t, d, lb = cand, ct, cd, clb
                    continue
        r = r * np.exp(d - ub)
        r /= r.sum()
        t, d, lb = bounds(r)
    return CapacityResult(
        capacity=lb / _LN2,
        input_dist=Pmf(r),
        iterations=iters,
        gap=gap / _LN2,
        converged=gap < tol_nats,
        lb_history=tuple(history),
    )


def union_capacity(capacities) -> float:
    """Capacity in bits of a channel formed as the disjoint union of channels
    with the given capacities: log2 sum_i 2^{C_i}."""
    caps = np.asarray(list(capacities), dtype=float)
    if caps.size == 0:
        raise ValueError("union of zero channels is undefined")
    return float(np.logaddexp2.reduce(caps))
