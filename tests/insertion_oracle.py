"""Brute-force zero-insertion counts, one output tuple per kept-position set:
the cross-check for the run-composition builder in `intermit.insertion`; the
dense full insertion channel and its weight classes without any fold, for
cross-checks against the folded weight-class route; the weight classes
folded over block reversal only, the paper-scale cross-check for the
run-permutation fold; the run-permutation fold built from every composition
of every input orbit, the cross-check for the build from composition orbits;
and the run-length formula for the insertion-position entropy, the
cross-check for the orbit-based `insertion_capacity_upper`."""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from intermit import Dmc, WeightClass, insertion_counts
from intermit.insertion import (_BINOM, B_HARD, _check_block_sizes, _count_chunks, _ones,
                                _partitions, _run_codes, _runs, _weight_codes, _xlog2x)


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
    any fold, sliced from `insertion_counts`: (dense matrix, inputs,
    outputs), rows and columns in increasing big-endian value."""
    rows = [i for i in range(1 << a) if i.bit_count() == weight]
    cols = [j for j in range(1 << b) if j.bit_count() == weight]
    counts = insertion_counts(a, b)[rows][:, cols].toarray()
    return counts / math.comb(b, a), weight_blocks(a, weight), weight_blocks(b, weight)


@lru_cache(maxsize=1)
def _reversals():
    """Reversal of every B_HARD-bit block code; an n-bit block x reverses to
    rev[x] >> (B_HARD - n)."""
    rev = np.zeros(1 << B_HARD, dtype=np.int32)
    for k in range(B_HARD):  # the codes with bit k set follow those below 2^k
        np.bitwise_or(rev[:1 << k], 1 << (B_HARD - 1 - k), out=rev[1 << k:2 << k])
    rev.flags.writeable = False  # shared through the cache
    return rev


@lru_cache(maxsize=None)
def _orbits(n: int, weight: int):
    """Reversal orbits of the weight-`weight` n-bit blocks: the codes of their
    representatives (the blocks whose code is at most that of their reversal),
    in increasing order, the orbit sizes (1 for palindromes, else 2) and the
    codes of the representatives' reversals."""
    codes = _weight_codes(n, weight)
    rev = _reversals()[codes] >> (B_HARD - n)
    rep = codes <= rev
    codes, rev = codes[rep], rev[rep]
    sizes = np.where(rev == codes, 1, 2)
    codes.flags.writeable = sizes.flags.writeable = rev.flags.writeable = False
    return codes, sizes, rev


def reversal_class_channel(a: int, b: int, weight: int, *,
                           allow_large: bool = False) -> WeightClass:
    """The insertion channel restricted to inputs of one Hamming weight,
    folded over block reversal only: row O of `matrix` sums W(y|x) over the
    output orbits {y, reversed y} for the representative x of input orbit O,
    with the offset H(V_O) + sum_Yo V(Yo|O) log2 |Yo| - H(W_x) of
    `intermit.WeightClass`.  The matrix is dense and column-major; `inputs`
    and `outputs` hold the codes of the blocks whose code is at most that of
    their reversal."""
    _check_block_sizes(a, b, allow_large)
    if not 0 <= weight <= a:
        raise ValueError(f"weight {weight} out of range for block length {a}")
    inputs, sizes, _ = _orbits(a, weight)
    outputs, out_sizes, out_rev = _orbits(b, weight)
    nin, nout = inputs.size, outputs.size
    # the two blocks of output orbit k count in columns 2k and 2k + 1, so the
    # entries of one orbit are adjacent in each row sorted by column; each
    # entry sorts as one key, its column above its count (at most
    # C(b, a) <= 2^b) in the low b + 1 bits
    low = b + 1
    key_of = np.empty(1 << b, dtype=np.int64)
    column = np.arange(nout) << (low + 1)
    key_of[out_rev] = column + (1 << low)
    key_of[outputs] = column
    denom = math.comb(b, a)
    offset = np.empty(nin)
    matrix = np.zeros((nin, nout), order="F")  # the layout blahut_capacity iterates on
    for r0, codes, counts in _count_chunks(inputs, a, b, weight):
        n, m = codes.shape
        key = np.ascontiguousarray(key_of[codes] | counts)
        key.sort(axis=1)  # each row in column order
        orbit, cnt = key >> (low + 1), key & ((1 << low) - 1)
        start = np.ones((n, m), dtype=bool)
        np.not_equal(orbit[:, 1:], orbit[:, :-1], out=start[:, 1:])
        first = np.flatnonzero(start)
        folded = np.add.reduceat(cnt.ravel(), first)
        fr, fc = first // m, orbit.ravel()[first]
        # denom * offset = sum n log2 n - sum f log2 f + sum_{|Yo| = 2} f, each
        # sum taken in column order
        offset[r0:r0 + n] = (
            np.cumsum(_xlog2x(cnt), axis=1)[:, -1]
            - np.bincount(fr, weights=_xlog2x(folded) - folded * (out_sizes[fc] - 1),
                          minlength=n)
        ) / denom
        # each (row, output orbit) pair occurs once, so assignment places it
        matrix[fr + r0, fc] = folded / denom
    return WeightClass(matrix=matrix, offset=offset, sizes=sizes, inputs=inputs,
                       outputs=outputs)


def composition_class_channel(a: int, b: int, weight: int, *,
                              allow_large: bool = False) -> WeightClass:
    """The insertion channel restricted to inputs of one Hamming weight,
    folded over permutations of the zero runs (see `WeightClass`)."""
    _check_block_sizes(a, b, allow_large)
    if not 0 <= weight <= a:
        raise ValueError(f"weight {weight} out of range for block length {a}")
    runs, sizes, inputs = _partitions(a - weight, weight + 1)
    _, out_sizes, outputs = _partitions(b - weight, weight + 1)
    n = b - a + weight
    # input x and composition c give output y = x + c (one row per input, one
    # column per composition), counted by prod_i C(y_i, x_i)
    y = runs[:, None] + _runs(_ones(_weight_codes(n, weight), n, weight), n)
    counts = _BINOM[y, runs[:, None]].prod(axis=2)
    y.sort(axis=2)  # y's orbit is the block with y's runs in non-increasing order
    orbit = np.searchsorted(outputs, _run_codes(y[..., ::-1], b))
    nin, nout = len(runs), len(outputs)
    folded = np.bincount((orbit + nout * np.arange(nin)[:, None]).ravel(),
                         weights=counts.ravel(), minlength=nin * nout).reshape(nin, nout)
    # denom * offset = sum n log2 n - sum (f log2 f - f log2 |Yo|) over the
    # counts n and folded counts f, each sum taken in column order; f is an
    # integer, so max(f, 1) log2 max(f, 1) is f log2 f, and 0 at f = 0
    counts = np.take_along_axis(counts, np.argsort(orbit, axis=1, kind="stable"), axis=1)
    denom = math.comb(b, a)
    offset = (np.cumsum(_xlog2x(counts), axis=1)[:, -1]
              - np.cumsum(_xlog2x(np.maximum(folded, 1.0)) - folded * np.log2(out_sizes),
                          axis=1)[:, -1]) / denom
    return WeightClass(matrix=np.asfortranarray(folded / denom), offset=offset, sizes=sizes,
                       inputs=inputs, outputs=outputs)


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
