"""Brute-force zero-insertion counts, one output tuple at a time: the
cross-check for the array builder in `intermit.insertion`; and the dense
full insertion channel, for cross-checks against the weight-class route."""

import math
from collections import Counter
from itertools import combinations

import numpy as np

from intermit import Dmc, insertion_counts


def all_blocks(n: int):
    """Every binary n-tuple, in increasing big-endian value."""
    return [tuple((i >> (n - 1 - k)) & 1 for k in range(n)) for i in range(1 << n)]


def insertion_table(inputs, a: int, b: int):
    """Map each input block to a Counter of output blocks over all C(b, b-a)
    insertion position sets (integer counts, exact)."""
    keeps = [
        tuple(pos for pos in range(b) if pos not in set(s))
        for s in combinations(range(b), b - a)
    ]
    table = {}
    for x in inputs:
        ctr = Counter()
        for keep in keeps:
            out = [0] * b
            for pos, bit in zip(keep, x):
                out[pos] = bit
            ctr[tuple(out)] += 1
        table[x] = ctr
    return table


def count_matrix(inputs, outputs, a: int, b: int) -> np.ndarray:
    """Integer counts from the input tuples (rows) to the output tuples
    (columns), in the order given."""
    col = {y: j for j, y in enumerate(outputs)}
    table = insertion_table(inputs, a, b)
    mat = np.zeros((len(inputs), len(outputs)), dtype=np.int64)
    for i, x in enumerate(inputs):
        for y, c in table[x].items():
            mat[i, col[y]] = c
    return mat


def uniform_insertion_channel(a: int, b: int) -> Dmc:
    """The full 2^a x 2^b insertion channel as a Dmc, from the exact integer
    counts.  Row/column indices read the blocks as big-endian binary
    integers, so row int('01', 2) is input (0, 1)."""
    return Dmc(insertion_counts(a, b).toarray() / math.comb(b, a))
