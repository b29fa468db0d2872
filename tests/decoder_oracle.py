"""The enumeration decoders one instant pattern and one message at a time,
with the typicality tests written out as their definitions read: the
cross-check for the chunked decoder in `intermit.sim`, and for the batched
tests of `intermit.prob`.  `enumerate_exact_error` drives the
package decoders through every instant pattern of a tiny instance and
returns their exact error probabilities."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from intermit.sim import decode_exhaustive, decode_pattern


def deviation(seq, p) -> float:
    """max_x |Phat(x) - P(x)| of a nonempty sequence, Phat(x) = N(x)/L."""
    s = np.asarray(seq, dtype=np.int64)
    return float(np.abs(np.bincount(s, minlength=p.size) / s.size - p).max())


def cond_deviation(y, x, rows) -> float:
    """max_{a,b} |Phat(a,b) - Phat(a) W(b|a)| over the nonempty pairs
    (x_i, y_i), with Phat(a,b) = N(a,b)/L and the marginal taken from the
    counts, Phat(a) = (sum_b N(a,b))/L."""
    counts = np.zeros(rows.shape, dtype=np.int64)
    np.add.at(counts, (np.asarray(x), np.asarray(y)), 1)
    size = len(x)
    return float(np.abs(counts / size - (counts.sum(axis=1) / size)[:, None] * rows).max())


def typical(seq, p, mu: float) -> bool:
    """max_x |Phat(x) - P(x)| <= mu; an empty sequence is typical."""
    return len(seq) == 0 or deviation(seq, p) <= mu


def cond_typical(y, x, rows, mu: float) -> bool:
    """max_{a,b} |Phat(a,b) - Phat(a) W(b|a)| <= mu; no pairs are typical."""
    return len(x) == 0 or cond_deviation(y, x, rows) <= mu


def output_law(input_probs, rows) -> np.ndarray:
    """PW = sum_x P(x) W_x, added in input order."""
    return sum(p * row for p, row in zip(np.asarray(input_probs, dtype=float), rows))


def decode(y, k: int, codebook, w, mu: float, input_probs=None):
    """(message, choices_examined, second_stage_checks, typicality_checks)
    of the exhaustive decoder, or of the two-stage pattern decoder when
    `input_probs` is given."""
    ys = np.asarray(y, dtype=np.int64)
    cb = np.asarray(codebook, dtype=np.int64)
    if input_probs is not None:
        pw = output_law(input_probs, w.rows)
        star_row = w.star_row()
    examined = second = checks = 0
    witnessed = []
    mask = np.ones(ys.size, dtype=bool)
    for pattern in combinations(range(ys.size), k):
        examined += 1
        idx = list(pattern)
        ysub = ys[idx]
        if input_probs is not None:
            mask[:] = True
            mask[idx] = False
            if not (typical(ysub, pw, mu) and typical(ys[mask], star_row, mu)):
                continue
            second += 1
        for m in range(cb.shape[0]):
            if m in witnessed:
                continue
            checks += 1
            if cond_typical(ysub, cb[m], w.rows, mu):
                witnessed.append(m)
                if len(witnessed) > 1:
                    return None, examined, second, checks
    message = witnessed[0] if len(witnessed) == 1 else None
    return message, examined, second, checks


def enumerate_exact_error(k: int, n: int, codebook, w, mu: float) -> dict:
    """Exact decoder error probabilities on a deterministic channel,
    conditioned on received length n, by enumerating all C(n-1, k-1) equally
    likely instant patterns (the block always ends with the last codeword
    symbol); the pattern decoder uses the uniform input law.  Returns exact
    Fractions keyed by decoder name."""
    if w.star is None:
        raise ValueError("channel must designate a noise input (star)")
    rows = w.rows
    if not np.all(rows.max(axis=1) == 1.0):
        raise ValueError("exact enumeration requires a deterministic channel")
    outmap = rows.argmax(axis=1)
    cb = np.asarray(codebook, dtype=np.int64)
    if cb.shape[1] != k:
        raise ValueError("codebook width must equal the codeword length k")
    if n < k:
        raise ValueError("received length n must be at least k")
    pvec = np.full(w.input_size, 1.0 / w.input_size)
    n_msg = cb.shape[0]
    total = math.comb(n - 1, k - 1)
    err = {"exhaustive": 0, "pattern": 0}
    for m in range(n_msg):
        for front in combinations(range(n - 1), k - 1):
            idx = list(front) + [n - 1]
            x = np.full(n, w.star, dtype=np.int64)
            x[idx] = cb[m]
            y = outmap[x]
            if decode_exhaustive(y, k, cb, w, mu).message != m:
                err["exhaustive"] += 1
            if decode_pattern(y, k, cb, w, mu, pvec).message != m:
                err["pattern"] += 1
    return {name: Fraction(e, n_msg * total) for name, e in err.items()}
