"""The plain Blahut-Arimoto iteration, with the same sandwich certificate as
`intermit.blahut.blahut_capacity` but no Newton steps: the cross-check for
the accelerated loop.  It converges only linearly, and like 1/n when an input
with no optimal mass is nearly optimal or two rows nearly coincide."""

import math

import numpy as np
from scipy import sparse

from intermit.blahut import CapacityResult, _as_matrix
from intermit.prob import Pmf

_LN2 = math.log(2.0)


def plain_blahut_capacity(w, tol: float = 1e-9, max_iter: int = 100_000, *,
                          offset=None) -> CapacityResult:
    """Capacity of a DMC in bits (plus the mean `offset`, if given) by the
    multiplicative update r <- r exp(D(W_x || rW) + b(x)) alone; stops when
    max_x D - I drops below `tol` or after `max_iter` iterations."""
    m = _as_matrix(w)
    nin = m.shape[0]
    is_sparse = sparse.issparse(m)
    if is_sparse:
        col_mass = np.asarray(m.sum(axis=0)).ravel()
        m = m[:, col_mass > 0.0].tocsr()
        logm = m.copy()
        logm.data = np.log(logm.data)
        row_ent = np.asarray(m.multiply(logm).sum(axis=1)).ravel()
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
            break
        r = r * np.exp(d - ub)
        r /= r.sum()
    return CapacityResult(
        capacity=lb / _LN2,
        input_dist=Pmf(r),
        iterations=iters,
        gap=gap / _LN2,
        lb_history=tuple(history),
    )
