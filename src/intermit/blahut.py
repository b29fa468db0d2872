"""Channel capacity by the Blahut-Arimoto iteration, over-relaxed far from
the optimum and accelerated near it by safeguarded Newton steps, with a
certified optimality gap; plus the capacity of a disjoint union of channels."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .prob import RENORM_TOL, Dmc, Pmf

_LN2 = math.log(2.0)
# Iterations a run may take before it is refused.
_MAX_ITER = 100_000
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
# Cap on the over-relaxation factor mu of the update r <- r exp(mu (d - max d)):
# mu doubles after each accepted update, up to this cap, and falls back to 1
# when a relaxed update is rejected.
_RELAX_MAX = 16.0


@dataclass(frozen=True)
class CapacityResult:
    """Certified capacity estimate in bits.

    `capacity` is the mutual information of `input_dist` (plus its mean
    offset, if one was given), hence always a valid lower bound; `gap`, below
    the run's tolerance, bounds its distance to the true capacity.
    `lb_history` is the nondecreasing sequence of per-iteration lower bounds.
    """

    capacity: float
    input_dist: Pmf
    iterations: int
    gap: float
    lb_history: tuple


def _issparse(m) -> bool:
    """Whether `m` is a scipy sparse matrix.  A caller that holds one has
    imported scipy.sparse already, so it is looked up, never imported, here."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(m)


def _as_matrix(w):
    if isinstance(w, Dmc):
        return w.rows
    if _issparse(w):
        m = w.tocsr().astype(float)
        entries = m.data
    else:
        m = entries = np.asarray(w, dtype=float)
        if m.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
    # the comparisons are written so that NaN fails them
    if not np.abs(np.asarray(m.sum(axis=1)).ravel() - 1.0).max() <= RENORM_TOL:
        raise ValueError("channel rows must each sum to 1")
    if not entries.min() >= 0.0:
        raise ValueError(f"channel matrix has negative or NaN entry {entries.min()}")
    return m


def _newton_step(m, r, t, d, work):
    """One Newton step for max I(r, W) + sum_x r(x) b(x) subject to
    sum r = 1, on the support of r, or None when it cannot be taken.

    `t` = rW and `d` = D(W_x || t) + b(x) in nats are taken at r.  The
    gradient is d - 1 and the Hessian H = -sum_y W(y|x) W(y|x') / t(y).  The
    KKT system is solved for u = delta / sqrt(r), where the Hessian becomes
    sqrt(r) H sqrt(r) (less _RIDGE on its diagonal) and the constraint
    sqrt(r).u = 0; the step is cut to 0.99 of the way to the first r(x) = 0.

    A dense `m` is column-major, and `work` holds two buffers of at least
    k x chunk entries each, reused across the run's Newton steps.
    """
    supp = np.flatnonzero(r > _SUPPORT_REL * r.max())
    k = supp.size
    if k < 2 or k > _NEWTON_MAX_SUPPORT:
        return None
    if _issparse(m):
        rows = m[supp]
        neg_hess = (rows.multiply(1.0 / t).tocsr() @ rows.T).toarray()
    else:
        neg_hess = np.zeros((k, k))
        step = max(1, _CHUNK_ENTRIES // k)
        for c0 in range(0, t.size, step):
            cols = m.T[c0:c0 + step]  # the chunk's columns as rows, contiguous
            n = cols.shape[0]
            # the chunk's support rows, row-major k x n like a fresh
            # m[supp, c0:c0 + step]: GEMM rounds by its operands' layout.
            # take writes `out` directly in the modes other than "raise"
            gathered = work[1][:k * n].reshape(n, k)
            np.take(cols, supp, axis=1, out=gathered, mode="clip")
            block = work[0][:k * n].reshape(k, n)
            block[...] = gathered.T
            scaled = np.divide(block, t[c0:c0 + step], out=work[1][:k * n].reshape(k, n))
            neg_hess += scaled @ block.T
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


def blahut_capacity(w, tol: float = 1e-9, *, offset=None, start=None) -> CapacityResult:
    """Capacity of a DMC in bits, to within `tol` bits.

    Alternates the Blahut-Arimoto update on the input distribution and stops
    when the certified sandwich max_x D(W_x || rW) - I(r, W) drops below
    `tol`.  Accepts a Dmc, a dense matrix or a scipy sparse matrix; a
    matrix, sparse or dense, whose rows do not each sum to 1 within
    RENORM_TOL, or with a negative or NaN entry, is refused (ValueError).
    All-zero output columns are dropped; they cannot carry probability.

    A dense channel is iterated on column-major.  BLAS rounds the products
    rW and W log(rW) by the operand layout, so one layout for every input
    makes the result independent of the input's.  A column-major matrix
    without an all-zero column is used as it is; any other is copied.  The
    weight classes of `intermit.insertion` are built column-major for this.

    The update is over-relaxed, r <- r exp(mu (D(W_x || rW) - max)),
    normalized: the natural-gradient step of Matz and Duhamel (IEEE ITW 2004)
    with its step size mu enlarged.  mu starts at 1 and doubles after each
    accepted update, up to _RELAX_MAX.  A relaxed update (mu > 1) is kept
    only if it strictly raises the lower bound I and leaves every input with
    r(x) > 0 positive; otherwise mu returns to 1 and the plain update is
    made in the same iteration, at the cost of one more evaluation of the
    bounds, and again in the next.

    Once the sandwich is below _NEWTON_GAP, each iteration first tries a
    Newton step on the support of r (see `_newton_step`) and keeps it only if
    it strictly raises the lower bound I; otherwise, or when the step cannot
    be taken, it makes the update above.  So the lower bounds never
    decrease, and convergence near the optimum is fast even where the plain
    update slows down to 1/n.

    With a per-input `offset` b (bits) it maximizes I(r, W) + sum_x r(x) b(x),
    Blahut's input-cost form: D(W_x || rW) + b(x) replaces D(W_x || rW) in the
    update, the Newton step and the sandwich, and `capacity` and `gap` refer
    to that objective.

    The iteration starts from the uniform input law, or from `start`:
    positive per-input weights, normalized here.

    Raises ConvergenceError if _MAX_ITER iterations pass without certifying
    `tol`: no uncertified capacity leaves this function.
    """
    m = _as_matrix(w)
    shape = m.shape
    nin = m.shape[0]
    offset = None if offset is None else np.asarray(offset, dtype=float) * _LN2

    def bounds(r):
        """rW, D(W_x || rW) + b(x) in nats for every input x, and I + r.b."""
        t = r @ m
        d = row_ent - m @ np.log(t)
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
    history = []
    gap = math.inf
    iters = 0
    mu = 1.0
    # log 0 is masked out of the row entropies, and an output whose
    # probability under rW underflows to 0 makes the bounds NaN, which is
    # refused below: neither may warn
    with np.errstate(divide="ignore", invalid="ignore"):
        if _issparse(m):
            col_mass = np.asarray(m.sum(axis=0)).ravel()
            m = m[:, col_mass > 0.0].tocsr()
            logm = m.copy()
            logm.data = np.log(logm.data)
            row_ent = np.asarray(m.multiply(logm).sum(axis=1)).ravel()  # sum w ln w
            work = None
        else:
            # the iteration runs on a column-major matrix, copied only when
            # the input is not column-major or has an empty column
            keep = m.sum(axis=0) > 0.0
            if not (m.flags.f_contiguous and keep.all()):
                m = np.asfortranarray(m[:, keep])
            ent = np.zeros(m.shape, order="F")  # w ln w, laid out like m
            np.log(m, out=ent, where=m > 0.0)
            ent *= m
            row_ent = ent.sum(axis=1)
            del ent
            # the Newton step's two chunk buffers, made once per run
            size = min(m.size, max(nin, _CHUNK_ENTRIES))
            work = (np.empty(size), np.empty(size))
        t, d, lb = bounds(r)
        for iters in range(1, _MAX_ITER + 1):
            ub = float(d.max())
            history.append(lb / _LN2)
            gap = ub - lb
            if not gap >= tol_nats:
                break  # certified (or NaN), with `input_dist` the law the bounds were taken at
            if gap < _NEWTON_GAP:
                cand = _newton_step(m, r, t, d, work)
                if cand is not None:
                    ct, cd, clb = bounds(cand)
                    if clb > lb:
                        r, t, d, lb = cand, ct, cd, clb
                        continue
            if mu > 1.0:
                cand = r * np.exp(mu * (d - ub))
                cand /= cand.sum()
                if np.count_nonzero(cand) == np.count_nonzero(r):  # nothing underflowed
                    ct, cd, clb = bounds(cand)
                    if clb > lb:
                        r, t, d, lb = cand, ct, cd, clb
                        mu = min(2.0 * mu, _RELAX_MAX)
                        continue
            # a rejected relaxed update leaves mu at 1 for the next iteration
            mu = 1.0 if mu > 1.0 else min(2.0, _RELAX_MAX)
            r = r * np.exp(d - ub)
            r /= r.sum()
            t, d, lb = bounds(r)
    if math.isnan(gap):
        raise ConvergenceError(
            f"Blahut-Arimoto on a {shape[0]} x {shape[1]} channel broke down at iteration "
            f"{iters}: its gap is NaN (an output probability under rW underflowed to 0)")
    if not gap < tol_nats:
        raise ConvergenceError(
            f"Blahut-Arimoto on a {shape[0]} x {shape[1]} channel stopped after {iters} "
            f"iterations with gap {gap / _LN2:.3g} bits, above the tolerance {tol:g}")
    return CapacityResult(
        capacity=lb / _LN2,
        input_dist=Pmf(r),
        iterations=iters,
        gap=gap / _LN2,
        lb_history=tuple(history),
    )


def union_capacity(capacities) -> float:
    """Capacity in bits of a channel formed as the disjoint union of channels
    with the given capacities: log2 sum_i 2^{C_i}."""
    caps = np.asarray(list(capacities), dtype=float)
    if caps.size == 0:
        raise ValueError("union of zero channels is undefined")
    return float(np.logaddexp2.reduce(caps))
