"""Probability primitives: pmfs, discrete memoryless channels, divergences
and (conditional) typicality tests.

All information quantities are returned in bits.  Functions accept either the
wrapper types defined here (`Pmf`, `Dmc`) or plain array-likes; the wrappers
validate on construction, raw arrays are taken as given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# A Pmf must sum to 1 within SUM_TOL after construction.  Construction accepts
# (and renormalizes) inputs whose sum drifts by up to RENORM_TOL and rejects
# anything worse; entries more negative than -SUM_TOL are rejected, tinier
# negatives are clipped to zero.
SUM_TOL = 1e-12
RENORM_TOL = 1e-9


def _vec(p) -> np.ndarray:
    """Extract a float vector from a Pmf or array-like."""
    if isinstance(p, Pmf):
        return p.probs
    return np.asarray(p, dtype=float)


def _is_pmf_vector(p: np.ndarray) -> bool:
    return p.ndim == 1 and p.size > 0 and p.min() >= -SUM_TOL and abs(p.sum() - 1.0) <= RENORM_TOL


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability mass function over the alphabet {0, ..., n-1}."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("pmf must be a nonempty 1-D vector")
        # the comparisons are written so that NaN fails them
        if not p.min() >= -SUM_TOL:
            raise ValueError(f"pmf has negative or NaN entry {p.min()}")
        np.clip(p, 0.0, None, out=p)
        s = p.sum()
        if not abs(s - 1.0) <= RENORM_TOL:
            raise ValueError(f"pmf sums to {s}, outside renormalization tolerance")
        p /= s
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class Dmc:
    """A discrete memoryless channel: a row-stochastic |X| x |Y| matrix.

    `star` optionally marks the designated noise input (the symbol the
    transmitter is forced to when idle).
    """

    rows: np.ndarray
    star: int | None = None

    def __post_init__(self):
        w = np.array(self.rows, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise ValueError("channel matrix must be 2-D and nonempty")
        # the comparisons are written so that NaN fails them
        if not w.min() >= -SUM_TOL:
            raise ValueError(f"channel matrix has negative or NaN entry {w.min()}")
        np.clip(w, 0.0, None, out=w)
        sums = w.sum(axis=1)
        if not np.abs(sums - 1.0).max() <= RENORM_TOL:
            bad = int(np.abs(sums - 1.0).argmax())
            raise ValueError(f"channel row {bad} sums to {sums[bad]}")
        w /= sums[:, None]
        w.setflags(write=False)
        object.__setattr__(self, "rows", w)
        if self.star is not None and not 0 <= self.star < w.shape[0]:
            raise ValueError(f"star index {self.star} out of range")

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    def star_row(self) -> np.ndarray:
        if self.star is None:
            raise ValueError("channel has no designated noise input")
        return self.rows[self.star]

    @classmethod
    def bsc(cls, p: float, star: int = 0) -> "Dmc":
        """Binary symmetric channel with crossover probability p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("crossover probability must lie in [0, 1]")
        return cls(np.array([[1.0 - p, p], [p, 1.0 - p]]), star=star)

    @classmethod
    def identity(cls, n: int, star: int | None = 0) -> "Dmc":
        """Noiseless channel on n symbols."""
        return cls(np.eye(n), star=star)

    @classmethod
    def from_json(cls, obj) -> "Dmc":
        """Load from a dict {"rows": [[...], ...], "star": i} (star optional)."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        star = obj.get("star")
        return cls(np.asarray(obj["rows"], dtype=float), star=star)


def entropy(p) -> float:
    """Shannon entropy in bits of a pmf; raises ValueError on anything else."""
    v = _vec(p)
    if not _is_pmf_vector(v):
        raise ValueError(f"not a pmf: {v.tolist()}")
    nz = v[v > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def binary_entropy(p):
    """Entropy in bits of a Bernoulli(p); -inf outside [0, 1].  Vectorized."""
    arr = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 - arr
        h = -np.where(arr > 0.0, arr * np.log2(arr), 0.0) - np.where(
            q > 0.0, q * np.log2(q), 0.0
        )
    h = np.where((arr >= 0.0) & (arr <= 1.0), h, -np.inf)
    if np.ndim(p) == 0:
        return float(h)
    return h


def kl_divergence(p, q) -> float:
    """Relative entropy D(P||Q) in bits; +inf if supp(P) is not in supp(Q)."""
    pv, qv = _vec(p), _vec(q)
    if pv.shape != qv.shape:
        raise ValueError("distributions live on different alphabet sizes")
    mask = pv > 0.0
    if np.any(qv[mask] <= 0.0):
        return float("inf")
    pm = pv[mask]
    return float((pm * np.log2(pm / qv[mask])).sum())


def output_dist(p, w) -> Pmf:
    """Output distribution PW of input pmf P pushed through channel W."""
    pv = _vec(p)
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    if pv.size != wr.shape[0]:
        raise ValueError("input distribution does not match channel input size")
    return Pmf(pv @ wr)


def mutual_information(p, w) -> float:
    """Mutual information I(P, W) in bits."""
    pv = _vec(p)
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    if pv.size != wr.shape[0]:
        raise ValueError("input distribution does not match channel input size")
    t = pv @ wr
    total = 0.0
    for x in np.flatnonzero(pv > 0.0):
        row = wr[x]
        mask = row > 0.0
        # a difference of logs: the ratio overflows when t is subnormal
        total += pv[x] * float((row[mask] * (np.log2(row[mask]) - np.log2(t[mask]))).sum())
    return total


def _typical(counts, length, expected, mu: float, axis) -> np.ndarray:
    """The typicality rule on counts held symbols first: max over `axis` of
    |counts/L - expected| <= mu, or L = 0, for sequences of `length` L (an
    empty sequence is typical for every law).  `length` and `expected`
    broadcast against `counts`; a caller whose lengths and expected
    frequencies are the same for many count arrays computes them once."""
    dev = counts / np.maximum(length, 1)
    dev -= expected
    return (np.abs(dev, out=dev).max(axis=axis) <= mu) | (length == 0)


def typical_rows(counts, p, mu: float) -> np.ndarray:
    """Strong typicality of each row of symbol counts: max_x |Phat(x) - P(x)|
    <= mu, where Phat is the row divided by its total.

    `counts` has shape (..., |X|) and holds integers; the result has the
    leading shape.  A row of total zero (an empty sequence) is typical for
    every distribution; this matters when a decoder tests an empty noise
    segment.  The counts are taken symbols first, so each step runs over
    all rows at once: a caller that holds them that way passes a transposed
    view, and no copy is made.
    """
    if not mu > 0.0:  # NaN included
        raise ValueError(f"typicality slack mu must be positive, got {mu}")
    pv = _vec(p)
    c = np.asarray(counts)
    if c.shape[-1] != pv.size:
        raise ValueError("counts do not match the alphabet size")
    c = np.ascontiguousarray(c.transpose(c.ndim - 1, *range(c.ndim - 1)))
    length = c.sum(axis=0)  # integers: exact in any order
    return _typical(c, length, pv.reshape(pv.shape + (1,) * (c.ndim - 1)), mu, 0)


def cond_typical_rows(joint_counts, w, mu: float) -> np.ndarray:
    """Conditional typicality under channel W of each block of joint counts:
    max_{a,b} |Phat_{x,y}(a,b) - Phat_x(a) W(b|a)| <= mu, where
    Phat_{x,y}(a,b) = N(a,b)/L and Phat_x(a) = (sum_b N(a,b))/L for a block
    of L = sum_{a,b} N(a,b) pairs.

    `joint_counts` has shape (..., |X|, |Y|), indexed [x, y], and holds
    integers; the result has the leading shape.  An empty block is typical.
    As in `typical_rows`, the counts are taken (|X|, |Y|) first, from a
    transposed view without a copy.  Every sum is of integers, so exact, and
    each deviation takes the definition's own steps, N(a,b)/L less
    (N(a)/L) W(b|a): a decision on a tie with mu is the definition's, on any
    numpy.
    """
    if not mu > 0.0:  # NaN included
        raise ValueError(f"typicality slack mu must be positive, got {mu}")
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    c = np.asarray(joint_counts)
    if c.shape[-2:] != wr.shape:
        raise ValueError("joint counts do not match the channel shape")
    c = np.ascontiguousarray(c.transpose(c.ndim - 2, c.ndim - 1, *range(c.ndim - 2)))
    row_totals = c.sum(axis=1)  # integers: exact in any order
    length = row_totals.sum(axis=0)
    expected = (row_totals / np.maximum(length, 1))[:, None] * wr.reshape(
        wr.shape + (1,) * (c.ndim - 2))
    return _typical(c, length, expected, mu, (0, 1))


def _check_symbols(a: np.ndarray, size: int) -> None:
    """Refuse a symbol array with an entry outside {0, ..., size-1}."""
    if a.size and (a.min() < 0 or a.max() >= size):
        raise ValueError("sequence contains out-of-alphabet symbols")


def is_typical(seq, p, mu: float) -> bool:
    """Strong typicality of one sequence: `typical_rows` of its symbol
    counts."""
    pv = _vec(p)
    s = np.asarray(seq, dtype=np.int64)
    _check_symbols(s, pv.size)
    return bool(typical_rows(np.bincount(s, minlength=pv.size), pv, mu))


def is_cond_typical(y, x, w, mu: float) -> bool:
    """Conditional typicality of y given x under channel W:
    `cond_typical_rows` of the joint (x, y) counts."""
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    xs = np.asarray(x, dtype=np.int64)
    ys = np.asarray(y, dtype=np.int64)
    if xs.shape != ys.shape:
        raise ValueError("x and y sequences must have equal length")
    nin, nout = wr.shape
    _check_symbols(xs, nin)
    _check_symbols(ys, nout)
    joint = np.bincount((xs * nout + ys).ravel(), minlength=nin * nout).reshape(nin, nout)
    return bool(cond_typical_rows(joint, wr, mu))
