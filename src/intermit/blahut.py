"""Channel capacity by the Blahut-Arimoto iteration, with a certified
optimality gap, plus the capacity of a disjoint union of channels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .prob import RENORM_TOL, Dmc, Pmf

_LN2 = math.log(2.0)


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


def blahut_capacity(w, tol: float = 1e-9, max_iter: int = 100_000, *,
                    offset=None) -> CapacityResult:
    """Capacity of a DMC in bits, to within `tol` bits.

    Alternates the Blahut-Arimoto update on the input distribution and stops
    when the certified sandwich max_x D(W_x || rW) - I(r, W) drops below
    `tol`.  Accepts a Dmc, a dense row-stochastic matrix, or a scipy sparse
    matrix (rows are trusted to be stochastic in the sparse case).  All-zero
    output columns are dropped; they cannot carry probability.

    With a per-input `offset` b (bits) it maximizes I(r, W) + sum_x r(x) b(x),
    Blahut's input-cost form: D(W_x || rW) + b(x) replaces D(W_x || rW) in the
    update and the sandwich, and `capacity` and `gap` refer to that objective.

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

    tol_nats = tol * _LN2
    offset = None if offset is None else np.asarray(offset, dtype=float) * _LN2
    r = np.full(nin, 1.0 / nin)
    history = []
    lb = -math.inf
    gap = math.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        t = m.T.dot(r) if is_sparse else r @ m
        logt = np.log(t)
        # D(W_x || rW) in nats for every input x
        if is_sparse:
            d = row_ent - np.asarray(m.dot(logt)).ravel()
        else:
            d = row_ent - m @ logt
        if offset is not None:
            d = d + offset
        lb = float(r @ d)
        ub = float(d.max())
        history.append(lb / _LN2)
        gap = ub - lb
        if gap < tol_nats or iters == max_iter:
            break  # so that `input_dist` is the law the bounds were taken at
        r = r * np.exp(d - ub)
        r /= r.sum()
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
