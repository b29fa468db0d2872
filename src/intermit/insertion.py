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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .blahut import blahut_capacity, union_capacity
from .errors import ConvergenceError, SizeGuardError

# Desk-scale guard on the output block length; larger b (up to B_HARD) is an
# explicit opt-in because the weight-class matrices and their Blahut-Arimoto
# runs grow combinatorially.
B_DESK = 12
B_HARD = 17
_DENSE_LIMIT = 1 << 22  # max entries for a dense class/full matrix
# Output codes in one chunk of a count build; larger chunks build faster but
# raise the peak memory.
_CHUNK_ENTRIES = 1 << 18


def _check_block_sizes(a: int, b: int, allow_large: bool) -> None:
    if a < 0 or b < a:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    limit = B_HARD if allow_large else B_DESK
    if b > limit:
        raise SizeGuardError(
            f"output length b={b} exceeds the guarded limit {limit}"
            + ("" if allow_large else " (pass allow_large=True for b up to 17)")
        )


@lru_cache(maxsize=2)
def _block_tables(n: int):
    """Hamming weight and big-endian code of the reversal, for every n-bit
    block code."""
    codes = np.arange(1 << n, dtype=np.int64)
    weight = np.zeros(1 << n, dtype=np.int64)
    rev = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        bit = (codes >> k) & 1
        weight += bit
        rev |= bit << (n - 1 - k)
    weight.flags.writeable = rev.flags.writeable = False  # shared through the cache
    return weight, rev


def _orbits(n: int, weight: int):
    """Reversal orbits of the weight-`weight` n-bit blocks: the codes of their
    representatives (the blocks whose code is at most that of their reversal),
    in increasing order, and the orbit sizes (1 for palindromes, else 2)."""
    wt, rev = _block_tables(n)
    codes = np.flatnonzero((wt == weight) & (np.arange(1 << n) <= rev))
    return codes, np.where(rev[codes] == codes, 1, 2)


@lru_cache(maxsize=1)
def _keep_codes(a: int, b: int):
    """Output codes of every a-bit input over the C(b, a) kept-position sets,
    as two tables: the outputs of input x are high[x >> shift] + low[x &
    (2^shift - 1)], one column per kept-position set.  Each table sums the
    code weights 2^(b-1-pos) of one half of the input bits."""
    keep = np.array(list(combinations(range(b), a)), dtype=np.int64).reshape(math.comb(b, a), a)
    place = (1 << (b - 1 - keep)).T.astype(np.int32)  # b <= 30: codes fit

    def table(rows):
        out = np.zeros((1, place.shape[1]), dtype=np.int32)
        for row in rows:  # the next bit is the new least significant one
            out = np.stack((out, out + row), axis=1).reshape(-1, place.shape[1])
        return out

    shift = (a + 1) // 2
    high, low = table(place[:a - shift]), table(place[a - shift:])
    high.flags.writeable = low.flags.writeable = False  # shared through the cache
    return high, low, shift


def _count_chunks(in_codes, a: int, b: int, col):
    """Nonzero insertion counts from the a-bit inputs `in_codes`, with output
    code y counted in column col[y], over all C(b, a) kept-position sets.

    Yields (r0, n, rows, cols, counts) per chunk of n inputs from in_codes[r0],
    with rows relative to r0 and entries in row-major order.  Each row's
    columns are sorted and counted by runs, so the work follows the C(b, a)
    outputs of a row, not the width of the class.  A chunk holds at most
    _CHUNK_ENTRIES output codes, so the memory beyond the result stays
    bounded."""
    high, low, shift = _keep_codes(a, b)
    nkeep = high.shape[1]
    step = max(1, _CHUNK_ENTRIES // nkeep)
    for r0 in range(0, in_codes.size, step):
        x = in_codes[r0:r0 + step]
        cols = col[high[x >> shift] + low[x & ((1 << shift) - 1)]]
        cols.sort(axis=1)
        starts = np.ones(cols.shape, dtype=bool)
        np.not_equal(cols[:, 1:], cols[:, :-1], out=starts[:, 1:])
        first = np.flatnonzero(starts)
        yield r0, x.size, first // nkeep, cols.ravel()[first], np.diff(first, append=cols.size)


def _csr(rows, cols, vals, shape):
    """scipy CSR from per-chunk entries in row-major order."""
    from scipy import sparse  # imported here: no class below _DENSE_LIMIT needs it

    indptr = np.concatenate(([0], np.cumsum(np.bincount(np.concatenate(rows), minlength=shape[0]))))
    return sparse.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=shape)


def insertion_counts(a: int, b: int, *, allow_large: bool = False):
    """Integer counts of the full 2^a x 2^b insertion channel as scipy CSR.

    Row/column indices read the blocks as big-endian binary integers; each
    row sums to C(b, a) and lists its outputs in increasing order."""
    _check_block_sizes(a, b, allow_large)
    nin = 1 << a
    rows, cols, vals = [], [], []
    for r0, _, r, c, cnt in _count_chunks(np.arange(nin), a, b, np.arange(1 << b, dtype=np.int32)):
        rows.append(r + r0)
        cols.append(c)
        vals.append(cnt)
    return _csr(rows, cols, vals, (nin, 1 << b))


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

    `matrix` is dense, or scipy CSR above _DENSE_LIMIT entries; `offset` is
    in bits; `sizes` holds the input orbit sizes; `inputs` and `outputs` the
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
    inputs, sizes = _orbits(a, weight)
    outputs, out_sizes = _orbits(b, weight)
    nin, nout = inputs.size, outputs.size
    # the two blocks of output orbit k count in columns 2k and 2k + 1, so the
    # entries of one orbit are adjacent in every chunk
    col = np.empty(1 << b, dtype=np.int32)
    col[_block_tables(b)[1][outputs]] = 2 * np.arange(nout) + 1
    col[outputs] = 2 * np.arange(nout)
    denom = math.comb(b, a)
    offset = np.empty(nin)
    rows, cols, vals = [], [], []
    for r0, n, r, c, cnt in _count_chunks(inputs, a, b, col):
        key = r * nout + (c >> 1)
        first = np.flatnonzero(np.diff(key, prepend=-1))
        folded = np.add.reduceat(cnt, first)
        fr, fc = r[first], c[first] >> 1
        # denom * offset = sum n log2 n - sum f log2 f + sum_{|Yo| = 2} f
        offset[r0:r0 + n] = (
            np.bincount(r, weights=_xlog2x(cnt), minlength=n)
            - np.bincount(fr, weights=_xlog2x(folded) - folded * (out_sizes[fc] - 1),
                          minlength=n)
        ) / denom
        rows.append(fr + r0)
        cols.append(fc)
        vals.append(folded / denom)
    if nin * nout > _DENSE_LIMIT:
        matrix = _csr(rows, cols, vals, (nin, nout))
    else:  # each (row, output orbit) pair occurs once, so assignment places it
        matrix = np.zeros((nin, nout))
        matrix[np.concatenate(rows), np.concatenate(cols)] = np.concatenate(vals)
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

    with n(x, y) the integer insertion counts, read chunk by chunk."""
    _check_block_sizes(a, b, allow_large)
    if a < 1:
        raise ValueError("upper bound needs input length a >= 1")
    wt, _ = _block_tables(a)
    fmax = np.full(a + 1, -np.inf)
    for r0, n, r, _, cnt in _count_chunks(np.arange(1 << a), a, b,
                                          np.arange(1 << b, dtype=np.int32)):
        f = np.bincount(r, weights=_xlog2x(cnt), minlength=n) / math.comb(b, a)
        np.maximum.at(fmax, wt[r0:r0 + n], f)
    terms = [math.log2(math.comb(b, j)) for j in range(a + 1)] + fmax
    return float(np.logaddexp2.reduce(terms) - math.log2(math.comb(b, a)))
