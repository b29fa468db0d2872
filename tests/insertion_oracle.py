"""Brute-force zero-insertion counts, one output tuple per kept-position set:
the cross-check for the run-composition builder in `intermit.insertion`; the
dense full insertion channel and its weight classes without the reversal
fold, for cross-checks against the folded weight-class route; and the
run-length formula for the insertion-position entropy, the cross-check for
the count-based `insertion_capacity_upper`."""

import math
from collections import Counter
from dataclasses import dataclass
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


def weight_blocks(n: int, weight: int):
    """Every weight-`weight` binary n-tuple, in increasing big-endian value."""
    return [x for x in all_blocks(n) if sum(x) == weight]


def unfolded_class_channel(a: int, b: int, weight: int):
    """The insertion channel restricted to weight-`weight` inputs, without
    the reversal fold, sliced from `insertion_counts`: (dense matrix, inputs,
    outputs), rows and columns in increasing big-endian value."""
    rows = [i for i in range(1 << a) if i.bit_count() == weight]
    cols = [j for j in range(1 << b) if j.bit_count() == weight]
    counts = insertion_counts(a, b)[rows][:, cols].toarray()
    return counts / math.comb(b, a), weight_blocks(a, weight), weight_blocks(b, weight)


@dataclass(frozen=True)
class RunProfile:
    """Run-length summary of a binary block.

    `zero_runs` lists the zero-run lengths in order, including a length-0 run
    at the front/back when the block starts/ends with a one; `one_runs` lists
    only the one-runs of length >= 2 (isolated ones create no insertion
    ambiguity of their own).
    """

    weight: int
    zero_runs: tuple
    one_runs: tuple
    length: int

    @property
    def n_zero_slots(self) -> int:
        return len(self.zero_runs)


def run_profile(x) -> RunProfile:
    """Run-length profile of a nonempty binary sequence."""
    bits = [int(v) for v in x]
    if not bits:
        raise ValueError("sequence must be nonempty")
    if any(v not in (0, 1) for v in bits):
        raise ValueError("sequence must be binary")
    runs = []
    for v in bits:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    zero_runs = [r for v, r in runs if v == 0]
    if bits[0] == 1:
        zero_runs.insert(0, 0)
    if bits[-1] == 1:
        zero_runs.append(0)
    one_runs = [r for v, r in runs if v == 1 and r >= 2]
    return RunProfile(
        weight=sum(bits),
        zero_runs=tuple(zero_runs),
        one_runs=tuple(one_runs),
        length=len(bits),
    )


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def position_entropy_terms(x, b: int):
    """Insertion-count split distribution for input x stretched to length b.

    Returns (weights, entropies, total): integer multiplicities per split of
    the b-a insertions across the runs of x, the conditional position entropy
    (bits) of each split, and the total count (= C(b, a) exactly).
    """
    prof = run_profile(x)
    a = prof.length
    if b < a:
        raise ValueError(f"target length b={b} shorter than input length {a}")
    ins = b - a
    slot_sizes = list(prof.zero_runs) + [m - 2 for m in prof.one_runs]
    l0 = prof.n_zero_slots
    weights = []
    entropies = []
    total = 0
    for split in compositions(ins, len(slot_sizes)):
        mult = 1
        h = 0.0
        for j, (size, i) in enumerate(zip(slot_sizes, split)):
            c = math.comb(size + i, i)
            mult *= c
            if j < l0 and c > 1:
                h += math.log2(c)
        weights.append(mult)
        entropies.append(h)
        total += mult
    if total != math.comb(b, a):
        raise RuntimeError(
            f"insertion split counts sum to {total}, expected C({b},{a})={math.comb(b, a)}"
        )
    return weights, entropies, total


def position_entropy(x, b: int) -> float:
    """Expected conditional entropy (bits) of the insertion positions given
    input x and the channel output, for x stretched to length b."""
    weights, entropies, total = position_entropy_terms(x, b)
    return float(sum(w * h for w, h in zip(weights, entropies)) / total)


def run_length_upper(a: int, b: int) -> float:
    """`insertion_capacity_upper` with the position entropy of every input
    from the run-length formula (`position_entropy`)."""
    terms = []
    for j in range(a + 1):
        fmax = max(position_entropy(x, b) for x in weight_blocks(a, j))
        terms.append(math.log2(math.comb(b, j)) + fmax)
    return float(np.logaddexp2.reduce(terms) - math.log2(math.comb(b, a)))
