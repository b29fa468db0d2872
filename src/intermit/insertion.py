"""The uniform zero-insertion block channel: a binary input block of length a
is stretched to length b by inserting b-a zeros at a uniformly random one of
the C(b, b-a) position sets.

Provides exact (rational-count) channel construction, capacity via per-weight
decomposition + Blahut-Arimoto, and a combinatorial upper bound from the
entropy of the insertion positions.
Hamming weight is preserved by zero insertion, so the channel splits into
independent weight classes and the capacity is the union capacity of the
class capacities.  Zero insertion also commutes with reversing the block, so
each class is solved on its reversal orbits (see `WeightClass`).

The counts come from the zero runs.  A weight-w block has w + 1 zero runs,
the first before its first one and the last after its last one, and
inserting zeros only lengthens them.  So the distinct outputs of an input
with runs x are the blocks with runs x + c, one for each composition c of
b - a into w + 1 nonnegative parts, and output x + c arises from
prod_i C(x_i + c_i, c_i) of the position sets: the choice, in each run, of
which of its zeros are the inserted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blahut import blahut_capacity, union_capacity
from .errors import ConvergenceError, SizeGuardError

# Desk-scale guard on the output block length; larger b (up to B_HARD) is an
# explicit opt-in because the weight-class matrices and their Blahut-Arimoto
# runs grow combinatorially.
B_DESK = 12
B_HARD = 17
_DENSE_LIMIT = 1 << 22  # max entries for a dense class/full matrix
# (input, composition) entries in one chunk of a count build.  Larger chunks
# build a little faster but raise the peak memory: over every class of the
# benchmark's genie windows, 2^16 built 4 % faster than 2^14 (71 against
# 75 ms on 2 vCPUs), while insertion_capacity(9, 17) peaked at 9.4 against
# 6.6 MB (tracemalloc); below 2^14 the peak stays at 6.6 MB, which the
# largest class's Blahut-Arimoto run sets.
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
def _block_tables():
    """Hamming weight and reversal of every B_HARD-bit block code; an n-bit
    block x reverses to rev[x] >> (B_HARD - n)."""
    weight = np.zeros(1 << B_HARD, dtype=np.uint8)
    rev = np.zeros(1 << B_HARD, dtype=np.int32)
    for k in range(B_HARD):  # the codes with bit k set follow those below 2^k
        np.add(weight[:1 << k], 1, out=weight[1 << k:2 << k])
        np.bitwise_or(rev[:1 << k], 1 << (B_HARD - 1 - k), out=rev[1 << k:2 << k])
    weight.flags.writeable = rev.flags.writeable = False  # shared through the cache
    return weight, rev


def _weight_codes(n: int, weight: int):
    """Big-endian codes of the weight-`weight` n-bit blocks, in increasing
    order."""
    return np.flatnonzero(_block_tables()[0][:1 << n] == weight)


@lru_cache(maxsize=None)  # 20 bytes per orbit: 2.6 MB for every n <= B_HARD
def _orbits(n: int, weight: int):
    """Reversal orbits of the weight-`weight` n-bit blocks: the codes of their
    representatives (the blocks whose code is at most that of their reversal),
    in increasing order, the orbit sizes (1 for palindromes, else 2) and the
    codes of the representatives' reversals."""
    codes = _weight_codes(n, weight)
    rev = _block_tables()[1][codes] >> (B_HARD - n)
    rep = codes <= rev
    codes, rev = codes[rep], rev[rep]
    sizes = np.where(rev == codes, 1, 2)
    codes.flags.writeable = sizes.flags.writeable = rev.flags.writeable = False
    return codes, sizes, rev


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
    inputs `inputs`.

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


def _csr(rows, cols, vals, shape):
    """scipy CSR from entries in row-major order."""
    from scipy import sparse  # imported here: no class below _DENSE_LIMIT needs it

    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sparse.csr_matrix((vals, cols, indptr), shape=shape)


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
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # keeps each row's outputs in order
    return _csr(rows[order], np.concatenate(cols)[order],
                np.concatenate(vals)[order].astype(np.int64), (1 << a, 1 << b))


@dataclass(frozen=True)
class WeightClass:
    """One weight class of the insertion channel, folded over block reversal.

    Zero insertion commutes with reversing the block, so the class capacity
    is reached by a reversal-invariant input law and the class can be solved
    on orbits.  Row O of `matrix` is V(Yo|O) = sum_{y in Yo} W(y|x) for the
    representative x of input orbit O, over the output orbits Yo.  For an
    invariant law with orbit masses rho,

        D(W_x || rW) = D(V_O || rho V) + offset(O),
        offset(O) = H(V_O) + sum_Yo V(Yo|O) log2 |Yo| - H(W_x) >= 0,

    so the class capacity is `blahut_capacity(matrix, offset=offset)`, whose
    sandwich equals the unfolded one at the same law.

    `matrix` is dense and column-major, or scipy CSR above _DENSE_LIMIT
    entries.  Column-major is the layout `blahut_capacity` iterates on, so it
    runs on the dense class itself rather than on a copy.  `offset` is in
    bits; `sizes` holds the input orbit sizes; `inputs` and `outputs` the
    big-endian codes of the input and output orbit representatives (the
    blocks whose code is at most that of their reversal), in increasing order.
    """

    matrix: object
    offset: np.ndarray
    sizes: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray


def _xlog2x(v):
    return v * np.log2(v)


def weight_class_channel(a: int, b: int, weight: int, *,
                         allow_large: bool = False) -> WeightClass:
    """The insertion channel restricted to inputs of one Hamming weight,
    folded over block reversal (see `WeightClass`)."""
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
    dense = nin * nout <= _DENSE_LIMIT
    if dense:  # column-major, the layout blahut_capacity iterates on
        matrix = np.zeros((nin, nout), order="F")
    else:
        rows, cols, vals = [], [], []
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
        if dense:  # each (row, output orbit) pair occurs once, so assignment places it
            matrix[fr + r0, fc] = folded / denom
        else:
            rows.append(fr + r0)
            cols.append(fc)
            vals.append(folded / denom)
    if not dense:
        matrix = _csr(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                      (nin, nout))
    return WeightClass(matrix=matrix, offset=offset, sizes=sizes, inputs=inputs,
                       outputs=outputs)


@dataclass(frozen=True)
class InsertionCapacity:
    """Capacity (bits) of the length-a-to-b insertion channel, decomposed by
    input Hamming weight, as a certified bracket: `capacity` is achievable
    (the union of the class lower bounds) and `capacity_upper` is at least
    the true capacity (the union of the class upper bounds).  `loss` is a
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
    upper = min(union_capacity(np.add(caps, gaps)), float(a))
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
    plus a composition c of b - a, each with n(x, y) = prod_i C(y_i, c_i)."""
    _check_block_sizes(a, b, allow_large)
    if a < 1:
        raise ValueError("upper bound needs input length a >= 1")
    denom = math.comb(b, a)
    fmax = np.full(a + 1, -np.inf)
    for w in range(a + 1):
        for _, _, counts in _count_chunks(_weight_codes(a, w), a, b, w):
            # each row's terms summed in increasing output order
            fmax[w] = max(fmax[w], np.cumsum(_xlog2x(counts), axis=1)[:, -1].max() / denom)
    terms = [math.log2(math.comb(b, j)) for j in range(a + 1)] + fmax
    return float(np.logaddexp2.reduce(terms) - math.log2(denom))
