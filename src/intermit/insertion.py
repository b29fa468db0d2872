"""The uniform zero-insertion block channel: a binary input block of length a
is stretched to length b by inserting b-a zeros at a uniformly random one of
the C(b, b-a) position sets.

Provides exact (rational-count) channel construction, capacity via per-weight
decomposition + Blahut-Arimoto, and a combinatorial upper bound from the
entropy of the insertion positions.
Hamming weight is preserved by zero insertion, so the channel splits into
independent weight classes and the capacity is the union capacity of the
class capacities.

The counts come from the zero runs.  A weight-w block has w + 1 zero runs,
the first before its first one and the last after its last one, and
inserting zeros only lengthens them.  So the distinct outputs of an input
with runs x are the blocks with runs x + c, one for each composition c of
b - a into w + 1 nonnegative parts, and output y = x + c arises from
prod_i C(y_i, x_i) of the position sets: the choice, in each run, of which
of its zeros are the inserted ones.  That product is unchanged when one
permutation is applied to the runs of x and of y, so each class is solved on
the orbits of its blocks under permutations of their zero runs: the
partitions of a - w and of b - w into w + 1 parts (see `WeightClass`).  For
the same reason a class is built, and the upper bound summed, from the
orbits of the compositions under the permutations of x's equal runs, not
from every composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blahut import blahut_capacity, union_capacity
from .errors import ConvergenceError, SizeGuardError

# Desk-scale guard on the output block length; larger b (up to B_HARD) is an
# explicit opt-in.  The full count table `insertion_counts` grows as 2^a x 2^b,
# while every folded weight class up to B_HARD is at most 47 x 57.
B_DESK = 12
B_HARD = 17
# Bits by which each class's certified upper bound is widened for the
# rounding of its offsets, sums of n log2 n in an order of their own.  The
# Blahut gap certifies the class's objective as computed, not the exact one.
# At the uniform law, this fold and the block-reversal fold of
# `tests/insertion_oracle.py` give each block of every class with
# b <= B_HARD the same D(W_x || rW) + offset to within 3.1e-13 bits.
_OFFSET_ERR = 1e-12
# (input, composition) entries in one chunk of a full count build.  Larger
# chunks build a little faster but raise the peak memory.
_CHUNK_ENTRIES = 1 << 14
# C(n, k) for 0 <= k <= n <= B_HARD (0 above the diagonal)
_BINOM = np.array([[math.comb(n, k) for k in range(B_HARD + 1)] for n in range(B_HARD + 1)],
                  dtype=np.int32)
# code weights of the B_HARD bit positions; an n-bit block uses the last n
_PLACES = np.left_shift(1, np.arange(B_HARD - 1, -1, -1), dtype=np.int32)


def _check_block_sizes(a: int, b: int, allow_large: bool) -> None:
    if a < 0 or b < a:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    limit = B_HARD if allow_large else B_DESK
    if b > limit:
        raise SizeGuardError(
            f"output length b={b} exceeds the guarded limit {limit}"
            + ("" if allow_large else " (pass allow_large=True for b up to 17)")
        )


@lru_cache(maxsize=1)
def _block_weights():
    """Hamming weight of every B_HARD-bit block code."""
    weight = np.zeros(1 << B_HARD, dtype=np.uint8)
    for k in range(B_HARD):  # the codes with bit k set follow those below 2^k
        np.add(weight[:1 << k], 1, out=weight[1 << k:2 << k])
    weight.flags.writeable = False  # shared through the cache
    return weight


def _weight_codes(n: int, weight: int):
    """Big-endian codes of the weight-`weight` n-bit blocks, in increasing
    order."""
    return np.flatnonzero(_block_weights()[:1 << n] == weight)


def _descending(total: int, parts: int, cap: int):
    """The partitions of `total` into `parts` nonnegative parts of at most
    `cap`, each in non-increasing order, in decreasing lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(min(total, cap), -(-total // parts) - 1, -1):
        for rest in _descending(total - first, parts - 1, first):
            yield (first,) + rest


def _run_codes(runs, n: int):
    """Big-endian codes of the n-bit blocks with zero runs `runs` (last axis)."""
    ones = np.cumsum(runs[..., :-1], axis=-1) + np.arange(runs.shape[-1] - 1)
    return np.left_shift(1, n - 1 - ones).sum(axis=-1)


def _ranks(starts):
    """1 + the number of places since the last True of `starts` (last axis),
    whose first place must be True."""
    place = np.arange(starts.shape[-1])
    return place - np.maximum.accumulate(np.where(starts, place, 0), axis=-1) + 1


def _orbit_sizes(blocks, runs):
    """Sizes of the orbits of the rows of `runs` under the permutations that
    keep the rows of `blocks`: prod_B m_B! / prod_G m_G! over the blocks B of
    equal entries of `blocks` and the groups G of equal (block, run) pairs,
    whose places must each be adjacent (last axis, int64)."""
    block_starts = np.ones(blocks.shape, dtype=bool)
    block_starts[..., 1:] = blocks[..., 1:] != blocks[..., :-1]
    group_starts = block_starts.copy()
    group_starts[..., 1:] |= runs[..., 1:] != runs[..., :-1]
    return _ranks(block_starts).prod(axis=-1) // _ranks(group_starts).prod(axis=-1)


@lru_cache(maxsize=None)
def _partitions(total: int, parts: int):
    """Run-permutation orbits of the blocks with `parts` zero runs summing to
    `total`: the runs of their representatives, the blocks whose runs do not
    increase, which have the smallest code in their orbit (int8, one per
    row); the orbit sizes, the multinomials parts! / prod_j m_j! over the
    multiplicities m_j of the run lengths; and the representatives' codes, in
    increasing order."""
    runs = np.array(list(_descending(total, parts, total)), dtype=np.int8)
    sizes = _orbit_sizes(np.zeros_like(runs), runs)
    codes = _run_codes(runs, total + parts - 1)
    runs.flags.writeable = sizes.flags.writeable = codes.flags.writeable = False
    return runs, sizes, codes


def _ones(codes, n: int, weight: int):
    """Positions of the ones of the weight-`weight` n-bit blocks `codes`, in
    increasing order, one block per row, as int8 (n <= B_HARD)."""
    bits = (codes.astype(np.int32)[:, None] & _PLACES[B_HARD - n:]) != 0
    ones = np.flatnonzero(bits)
    ones %= n
    return ones.astype(np.int8).reshape(codes.size, weight)


def _runs(ones, n: int):
    """Zero-run lengths of n-bit blocks from the positions of their ones, one
    block per row: the run before each one, then the run after the last; in
    the ones' dtype, which must hold -1 and n."""
    ends = np.empty((len(ones), ones.shape[1] + 2), dtype=ones.dtype)
    ends[:, 0], ends[:, 1:-1], ends[:, -1] = -1, ones, n
    return ends[:, 1:] - ends[:, :-1] - 1


def _count_chunks(inputs, a: int, b: int, weight: int):
    """Distinct outputs and insertion counts of the weight-`weight` a-bit
    inputs `inputs`, one entry per input and composition: the full count
    table of `insertion_counts`, which the folded classes and the upper bound
    do not need.

    The compositions c of b - a into weight + 1 parts are the zero runs of
    the weight-`weight` (b - a + weight)-bit blocks, taken in increasing code
    order.  Output k of input x adds the k-th to x's zero runs, which moves
    x's j-th one right by c_0 + ... + c_j, and arises from
    prod_i C(x_i + c_i, c_i) position sets.  Each later composition moves the
    ones lexicographically less far right, so each row's output codes
    increase.

    Yields (r0, codes, counts) per chunk of inputs from inputs[r0], with one
    row per input and one column per composition.  They are views of
    composition-major arrays, so the inner loops here run along the inputs.
    A chunk holds at most _CHUNK_ENTRIES entries (at least one input), so
    the memory beyond the result stays bounded."""
    n = b - a + weight
    # the tables hold one row per composition, so each is kept in the
    # smallest integer dtype that holds its values (b <= B_HARD): int8 for
    # positions, runs and table rows (below 90), int32 for codes below 2^b
    ones = _ones(_weight_codes(n, weight), n, weight)
    # moving the j-th one right by s_j scales its code weight by 2^-s_j, so
    # the output codes are the products of 2^(b - a - s_j) with the input's
    # one weights 2^(a - 1 - q_j)
    scale = np.left_shift(1, b - a - (ones - np.arange(weight, dtype=np.int8)), dtype=np.int32)
    # the count factor of part j at c_j, as a row of the per-input table below
    pick = _runs(ones, n) + (b - a + 1) * np.arange(weight + 1, dtype=np.int8)
    span = np.arange(b - a + 1)[:, None]
    step = max(1, _CHUNK_ENTRIES // len(ones))
    for r0 in range(0, inputs.size, step):
        q = _ones(inputs[r0:r0 + step], a, weight)
        codes = scale @ np.left_shift(1, a - 1 - q.T, dtype=np.int32)
        # C(x_j + c, c) for every part j and every c, one column per input
        table = _BINOM[_runs(q, a).T[:, None] + span, span].reshape(-1, len(q))
        counts = table[pick[:, 0]]
        for rows in pick[:, 1:].T:
            counts *= table[rows]
        yield r0, codes.T, counts.T


def insertion_counts(a: int, b: int, *, allow_large: bool = False):
    """Integer counts of the full 2^a x 2^b insertion channel as scipy CSR.

    Row/column indices read the blocks as big-endian binary integers; each
    row sums to C(b, a) and lists its outputs in increasing order."""
    _check_block_sizes(a, b, allow_large)
    rows, cols, vals = [], [], []
    for w in range(a + 1):
        inputs = _weight_codes(a, w)
        for r0, codes, counts in _count_chunks(inputs, a, b, w):
            rows.append(np.repeat(inputs[r0:r0 + len(codes)], codes.shape[1]))
            cols.append(codes.ravel())
            vals.append(counts.ravel())
    from scipy import sparse  # imported here: nothing else in intermit needs it

    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # keeps each row's outputs in order
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=1 << a))))
    return sparse.csr_matrix((np.concatenate(vals)[order].astype(np.int64),
                              np.concatenate(cols)[order], indptr), shape=(1 << a, 1 << b))


@dataclass(frozen=True)
class WeightClass:
    """One weight class of the insertion channel, folded over permutations of
    the zero runs.

    The counts are unchanged when one permutation is applied to the runs of
    the input and of the output, so the class commutes with the symmetric
    group on its w + 1 runs, its capacity is reached by an invariant input
    law (Gallager 1968, sec. 4.5), and the class can be solved on orbits, the
    partitions of a - w and of b - w into w + 1 parts.  Row O of `matrix` is
    V(Yo|O) = sum_{y in Yo} W(y|x) for the representative x of input orbit O,
    over the output orbits Yo.  For an invariant law with orbit masses rho,

        D(W_x || rW) = D(V_O || rho V) + offset(O),
        offset(O) = H(V_O) + sum_Yo V(Yo|O) log2 |Yo| - H(W_x) >= 0,

    so the class capacity is `blahut_capacity(matrix, offset=offset)`, whose
    sandwich equals the unfolded one at the same law.  A permutation of the
    equal runs of x keeps x and maps output x + c to an output of the same
    orbit with the same count, so both V_O and the sum of n log2 n in H(W_x)
    are taken over the orbits of the compositions c under those
    permutations, each weighted by its size (`_composition_orbits`).

    `matrix` is dense and column-major, the layout `blahut_capacity` iterates
    on, so it runs on the class itself rather than on a copy.  `offset` is in
    bits; `sizes` holds the input orbit sizes; `inputs` and `outputs` the
    big-endian codes of the input and output orbit representatives (the
    blocks whose zero runs do not increase, which have the smallest code in
    their orbit), in increasing order.
    """

    matrix: np.ndarray
    offset: np.ndarray
    sizes: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray


def _xlog2x(v):
    return v * np.log2(v)


def _composition_orbits(a: int, b: int, weight: int):
    """The (input orbit, composition) pairs of the weight-`weight` class, one
    per orbit of the compositions under the permutations that keep the input
    representative x.

    A permutation of equal runs of x maps output x + c to x + c', in the same
    output orbit and with the same count, so only the compositions that do
    not increase within any block of equal x_i are kept, each standing for
    its orbit.  Returns, one entry per kept pair, sorted by input orbit and
    then stably by output orbit, the input orbit's row and the output
    orbit's column; the pair's mass, its orbit size times the count
    prod_i C(y_i, x_i) of y = x + c; and, per input orbit, sum_c n log2 n over
    every composition c and its count n, summed from the kept pairs as
    sum size * n log2 n in that order."""
    runs = _partitions(a - weight, weight + 1)[0]
    outputs = _partitions(b - weight, weight + 1)[2]
    n = b - a + weight
    comps = _runs(_ones(_weight_codes(n, weight), n, weight), n)
    keep = ((runs[:, None, 1:] != runs[:, None, :-1]) | (comps[:, :-1] >= comps[:, 1:])).all(axis=2)
    row, col = np.nonzero(keep)
    x, c = runs[row], comps[col]
    y = x + c
    counts = _BINOM[y, x].prod(axis=1)
    sizes = _orbit_sizes(x, c)
    y.sort(axis=1)  # y's orbit is the block with y's runs in non-increasing order
    orbit = np.searchsorted(outputs, _run_codes(y[:, ::-1], b))
    order = np.lexsort((orbit, row))
    row, orbit, counts, sizes = row[order], orbit[order], counts[order], sizes[order]
    nlogn = np.bincount(row, weights=sizes * _xlog2x(counts), minlength=len(runs))
    return row, orbit, sizes * counts, nlogn


def weight_class_channel(a: int, b: int, weight: int, *,
                         allow_large: bool = False) -> WeightClass:
    """The insertion channel restricted to inputs of one Hamming weight,
    folded over permutations of the zero runs (see `WeightClass`)."""
    _check_block_sizes(a, b, allow_large)
    if not 0 <= weight <= a:
        raise ValueError(f"weight {weight} out of range for block length {a}")
    _, sizes, inputs = _partitions(a - weight, weight + 1)
    _, out_sizes, outputs = _partitions(b - weight, weight + 1)
    row, orbit, mass, nlogn = _composition_orbits(a, b, weight)
    nin, nout = len(inputs), len(outputs)
    folded = np.bincount(row * nout + orbit, weights=mass,
                         minlength=nin * nout).reshape(nin, nout)
    # denom * offset = sum n log2 n - sum (f log2 f - f log2 |Yo|) over the
    # counts n and folded counts f, the second sum taken in column order; f
    # is an integer, so max(f, 1) log2 max(f, 1) is f log2 f, and 0 at f = 0
    denom = math.comb(b, a)
    offset = (nlogn - np.cumsum(_xlog2x(np.maximum(folded, 1.0)) - folded * np.log2(out_sizes),
                                axis=1)[:, -1]) / denom
    return WeightClass(matrix=np.asfortranarray(folded / denom), offset=offset, sizes=sizes,
                       inputs=inputs, outputs=outputs)


@dataclass(frozen=True)
class InsertionCapacity:
    """Capacity (bits) of the length-a-to-b insertion channel, decomposed by
    input Hamming weight, as a certified bracket: `capacity` is achievable
    (the union of the class lower bounds) and `capacity_upper` is at least
    the true capacity (the union of the class upper bounds, each widened by
    `_OFFSET_ERR` for the rounding of the class's offsets).  `loss` is a
    minus `capacity_upper`, so it never exceeds the true loss, as the genie
    bounds, which decrease in the loss, need.  Per weight w, the class's
    Blahut-Arimoto run took `class_iterations[w]` iterations and certified
    `class_gaps[w]` bits; classes solved without a run (the single-input
    weights 0 and a, and every class when a == b) read 0 and 0.0."""

    a: int
    b: int
    capacity: float
    capacity_upper: float
    class_capacities: tuple
    loss: float
    class_iterations: tuple
    class_gaps: tuple


def insertion_capacity(a: int, b: int, *, allow_large: bool = False) -> InsertionCapacity:
    """Exact-construction capacity of the insertion channel via weight-class
    decomposition: per-class Blahut-Arimoto, then the union capacity.

    Raises ConvergenceError, naming (a, b) and the weight class, when a
    class's run cannot certify its capacity to 1e-9 bits."""
    if a < 1:
        raise ValueError(f"need at least one codeword symbol, got a={a}")
    _check_block_sizes(a, b, allow_large)
    if a == b:
        # nothing is inserted: class w is noiseless on its C(a, w) inputs,
        # and the classes together carry exactly a bits
        return InsertionCapacity(
            a=a, b=b, capacity=float(a), capacity_upper=float(a),
            class_capacities=tuple(math.log2(math.comb(a, w)) for w in range(a + 1)),
            loss=0.0, class_iterations=(0,) * (a + 1), class_gaps=(0.0,) * (a + 1))
    # weights 0 and a have a single input each: capacity 0
    caps, iterations, gaps = [0.0] * (a + 1), [0] * (a + 1), [0.0] * (a + 1)
    for w in range(1, a):
        cls = weight_class_channel(a, b, w, allow_large=allow_large)
        # orbit sizes as the start: the uniform law of the unfolded class
        try:
            res = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
        except ConvergenceError as e:
            raise ConvergenceError(
                f"insertion channel a={a}, b={b}, weight class {w}: {e}") from e
        caps[w], iterations[w], gaps[w] = res.capacity, res.iterations, res.gap
        del cls  # before the next class is built
    # neither union can really exceed a bits (the input alphabet), but the
    # exp2/log2 round trip may overshoot the ceiling by a couple of ulps
    cap = min(union_capacity(caps), float(a))
    upper = min(union_capacity(np.add(caps, gaps) + _OFFSET_ERR), float(a))
    return InsertionCapacity(
        a=a,
        b=b,
        capacity=cap,
        capacity_upper=upper,
        class_capacities=tuple(caps),
        loss=a - upper,
        class_iterations=tuple(iterations),
        class_gaps=tuple(gaps),
    )


_loss_cache: dict = {}


def insertion_loss(a: int, b: int, *, allow_large: bool = False) -> float:
    """a minus the certified upper bound on the insertion-channel capacity
    (bits), a lower bound on the loss; cached since the genie bounds
    reevaluate the same (a, b) pairs across their sums.  (a, b) alone
    determines the value: `allow_large` only lifts the size guard.  A run
    that raises ConvergenceError leaves nothing in the cache."""
    key = (a, b)
    if key not in _loss_cache:
        _loss_cache[key] = insertion_capacity(a, b, allow_large=allow_large).loss
    return _loss_cache[key]


def insertion_capacity_upper(a: int, b: int, *, allow_large: bool = False) -> float:
    """Combinatorial upper bound on the insertion-channel capacity:

        log2( sum_j C(b, j) 2^{Fmax_j} ) - log2 C(b, a),

    where Fmax_j maximizes over weight-j inputs x the expected entropy of the
    insertion positions given x and the output,

        F(x) = sum_y n(x, y) log2 n(x, y) / C(b, a),

    over the distinct outputs y of x, the blocks whose zero runs are x's runs
    plus a composition c of b - a, each with n(x, y) = prod_i C(y_i, c_i).
    F is unchanged when x's runs are permuted, so the max runs over the input
    orbits of `weight_class_channel`, and F is the first term of its offset."""
    _check_block_sizes(a, b, allow_large)
    if a < 1:
        raise ValueError("upper bound needs input length a >= 1")
    denom = math.comb(b, a)
    fmax = [_composition_orbits(a, b, w)[3].max() / denom for w in range(a + 1)]
    terms = np.array([math.log2(math.comb(b, j)) for j in range(a + 1)]) + fmax
    return float(np.logaddexp2.reduce(terms) - math.log2(denom))
