"""Probability primitives: pmfs, discrete memoryless channels, divergences,
empirical types and (conditional) typicality tests.

All information quantities are returned in bits.  Functions accept either the
wrapper types defined here (`Pmf`, `Dmc`) or plain array-likes; the wrappers
validate on construction, raw arrays are taken as given.
"""

from __future__ import annotations

import json
import math
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
        if p.min() < -SUM_TOL:
            raise ValueError(f"pmf has negative entry {p.min()}")
        np.clip(p, 0.0, None, out=p)
        s = p.sum()
        if abs(s - 1.0) > RENORM_TOL:
            raise ValueError(f"pmf sums to {s}, outside renormalization tolerance")
        p /= s
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0.0)

    @classmethod
    def uniform(cls, n: int) -> "Pmf":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, n: int) -> "Pmf":
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def from_json(cls, obj) -> "Pmf":
        """Load from a dict {"probs": [...]} or its JSON string form."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(np.asarray(obj["probs"], dtype=float))

    def to_json(self) -> dict:
        return {"probs": self.probs.tolist()}


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
        if w.min() < -SUM_TOL:
            raise ValueError(f"channel matrix has negative entry {w.min()}")
        np.clip(w, 0.0, None, out=w)
        sums = w.sum(axis=1)
        if np.abs(sums - 1.0).max() > RENORM_TOL:
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

    def row(self, x: int) -> np.ndarray:
        return self.rows[x]

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

    def to_json(self) -> dict:
        d = {"rows": self.rows.tolist()}
        if self.star is not None:
            d["star"] = self.star
        return d


@dataclass(frozen=True, eq=False)
class EmpiricalType:
    """Symbol counts of an observed sequence, with the sequence length."""

    counts: np.ndarray
    length: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.min() < 0 or c.sum() != self.length or self.length <= 0:
            raise ValueError("counts must be nonnegative and sum to the length")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def freqs(self) -> Pmf:
        return Pmf(self.counts / self.length)


def empirical_type(seq, alphabet_size: int) -> EmpiricalType:
    """Count symbol occurrences of `seq` over {0, ..., alphabet_size-1}."""
    s = np.asarray(seq, dtype=np.int64)
    if s.size == 0:
        raise ValueError("sequence must be nonempty")
    if s.min() < 0 or s.max() >= alphabet_size:
        raise ValueError("sequence contains out-of-alphabet symbols")
    return EmpiricalType(np.bincount(s, minlength=alphabet_size), length=s.size)


def entropy(p) -> float:
    """Shannon entropy in bits; -inf if the argument is not a valid pmf.

    The -inf sentinel makes entropy terms act as a domain exclusion when an
    optimizer wanders outside the simplex.
    """
    v = _vec(p)
    if not _is_pmf_vector(v):
        return float("-inf")
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


def cond_divergence(w, wp, p) -> float:
    """Conditional divergence D(W||W' | P) = sum_x P(x) D(W_x||W'_x) in bits.

    Rows with P(x) = 0 contribute nothing even when their row divergence is
    infinite.
    """
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    wpr = wp.rows if isinstance(wp, Dmc) else np.asarray(wp, dtype=float)
    if wr.shape != wpr.shape:
        raise ValueError("channel matrices have different shapes")
    pv = _vec(p)
    if pv.size != wr.shape[0]:
        raise ValueError("input distribution does not match channel input size")
    total = 0.0
    for x in np.flatnonzero(pv > 0.0):
        d = kl_divergence(wr[x], wpr[x])
        if math.isinf(d):
            return float("inf")
        total += pv[x] * d
    return total


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


def typical_rows(counts, p, mu: float) -> np.ndarray:
    """Strong typicality of each row of symbol counts: max_x |Phat(x) - P(x)|
    <= mu, where Phat is the row divided by its total.

    `counts` has shape (..., |X|); the result has the leading shape.  A row
    of total zero (an empty sequence) is typical for every distribution; this
    matters when a decoder tests an empty noise segment.
    """
    if mu <= 0.0:
        raise ValueError("typicality slack mu must be positive")
    pv = _vec(p)
    c = np.asarray(counts)
    if c.shape[-1] != pv.size:
        raise ValueError("counts do not match the alphabet size")
    length = c.sum(axis=-1, keepdims=True)
    freq = c / np.maximum(length, 1)
    return (np.abs(freq - pv).max(axis=-1) <= mu) | (length[..., 0] == 0)


def cond_typical_rows(joint_counts, w, mu: float) -> np.ndarray:
    """Conditional typicality under channel W of each block of joint counts:
    max_{a,b} |Phat_{x,y}(a,b) - Phat_x(a) W(b|a)| <= mu, where the hatted
    frequencies are the block divided by its total.

    `joint_counts` has shape (..., |X|, |Y|), indexed [x, y]; the result has
    the leading shape.  An empty block is typical.
    """
    if mu <= 0.0:
        raise ValueError("typicality slack mu must be positive")
    wr = w.rows if isinstance(w, Dmc) else np.asarray(w, dtype=float)
    c = np.asarray(joint_counts)
    if c.shape[-2:] != wr.shape:
        raise ValueError("joint counts do not match the channel shape")
    length = c.sum(axis=(-2, -1), keepdims=True)
    joint = c / np.maximum(length, 1)
    marg = joint.sum(axis=-1)
    dev = np.abs(joint - marg[..., None] * wr).max(axis=(-2, -1))
    return (dev <= mu) | (length[..., 0, 0] == 0)


def is_typical(seq, p, mu: float) -> bool:
    """Strong typicality of one sequence: `typical_rows` of its symbol
    counts."""
    pv = _vec(p)
    s = np.asarray(seq, dtype=np.int64)
    if s.size and (s.min() < 0 or s.max() >= pv.size):
        raise ValueError("sequence contains out-of-alphabet symbols")
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
    if xs.size and (xs.min() < 0 or xs.max() >= nin or ys.min() < 0 or ys.max() >= nout):
        raise ValueError("sequence contains out-of-alphabet symbols")
    joint = np.bincount((xs * nout + ys).ravel(), minlength=nin * nout).reshape(nin, nout)
    return bool(cond_typical_rows(joint, wr, mu))
