"""Quantities the benchmark computes on its own, without intermit, to check
the program's outputs: entropies, the received-length law, and decoders
written from the definition of unique (conditional) typicality."""

from __future__ import annotations

import math
from itertools import combinations


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def r1(capacity: float, alpha: float) -> float:
    """Exhaustive-decoding rate (C - alpha h(1/alpha))^+."""
    return max(capacity - alpha * h2(1.0 / alpha), 0.0)


def length_pmf(n: int, k: int, alpha: float) -> float:
    """P(N = n) for the received length of k codeword symbols, each preceded
    by a Geometric0(1/alpha) run of noise symbols."""
    p = 1.0 / alpha
    return math.comb(n - 1, k - 1) * p ** k * (1.0 - p) ** (n - k)


def length_quantile(q: float, k: int, alpha: float) -> int:
    """Smallest n with P(N <= n) >= q."""
    n, cdf = k, 0.0
    while True:
        cdf += length_pmf(n, k, alpha)
        if cdf >= q:
            return n
        n += 1


def _typical(seq, probs, mu: float) -> bool:
    if not seq:
        return True
    counts = [0] * len(probs)
    for s in seq:
        counts[s] += 1
    return max(abs(c / len(seq) - p) for c, p in zip(counts, probs)) <= mu


def _cond_typical(ys, xs, rows, mu: float) -> bool:
    nin, nout = len(rows), len(rows[0])
    joint = [[0] * nout for _ in range(nin)]
    for x, y in zip(xs, ys):
        joint[x][y] += 1
    size = len(xs)
    for a in range(nin):
        marg = sum(joint[a]) / size
        for b in range(nout):
            if abs(joint[a][b] / size - marg * rows[a][b]) > mu:
                return False
    return True


def decode(y, k: int, codebook, rows, star: int, mu: float, input_probs=None):
    """Unique-typicality decoding by brute force over every k-subset of the
    output instants.  A message is witnessed when some subset's symbols are
    conditionally typical with its codeword; with `input_probs` (two-stage
    decoding) the subset must also be typical for the output marginal and
    the remaining symbols typical for the noise row.  Returns the message
    when exactly one is witnessed, else None."""
    y = [int(v) for v in y]
    cbs = [[int(v) for v in row] for row in codebook]
    nout = len(rows[0])
    if input_probs is not None:
        out_marg = [sum(p * rows[x][b] for x, p in enumerate(input_probs)) for b in range(nout)]
    witnessed = set()
    for subset in combinations(range(len(y)), k):
        ysub = [y[i] for i in subset]
        if input_probs is not None:
            chosen = set(subset)
            rest = [v for i, v in enumerate(y) if i not in chosen]
            if not (_typical(ysub, out_marg, mu) and _typical(rest, rows[star], mu)):
                continue
        for m, cw in enumerate(cbs):
            if m not in witnessed and _cond_typical(ysub, cw, rows, mu):
                witnessed.add(m)
    return witnessed.pop() if len(witnessed) == 1 else None
