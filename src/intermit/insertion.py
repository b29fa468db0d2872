"""The uniform zero-insertion block channel: a binary input block of length a
is stretched to length b by inserting b-a zeros at a uniformly random one of
the C(b, b-a) position sets.

Provides exact (rational-count) channel construction, capacity via per-weight
decomposition + Blahut-Arimoto, and a run-length combinatorial upper bound.
Hamming weight is preserved by zero insertion, so the channel splits into
independent weight classes and the capacity is the union capacity of the
class capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import sparse

from .blahut import blahut_capacity, union_capacity
from .errors import ConvergenceError, SizeGuardError

# Desk-scale guard on the output block length; larger b (up to B_HARD) is an
# explicit opt-in because the weight-class matrices and their Blahut-Arimoto
# runs grow combinatorially.
B_DESK = 12
B_HARD = 17
# The combinatorial upper bound enumerates all 2^a inputs.
UPPER_A_MAX = 20
_DENSE_LIMIT = 1 << 22  # max entries for a dense class/full matrix
# Entries of one chunk of a count build (its output codes, and its block of
# counts); larger chunks build faster but raise the peak memory.
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

    @property
    def n_slots(self) -> int:
        return len(self.zero_runs) + len(self.one_runs)


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


def _compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
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
    for split in _compositions(ins, len(slot_sizes)):
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


def _class_inputs(a: int, weight: int):
    """All weight-`weight` binary a-tuples, in lexicographic order."""
    if a == 0:
        return [()]
    out = []
    for ones in combinations(range(a), weight):
        bits = [0] * a
        for pos in ones:
            bits[pos] = 1
        out.append(tuple(bits))
    return out


def _count_matrix(in_bits, out_codes, b: int, as_sparse: bool):
    """Integer insertion counts from the input blocks `in_bits` (one row of
    `a` big-endian bits per input) to the outputs with big-endian codes
    `out_codes`, over all C(b, a) kept-position sets.

    Every output an input reaches must be listed in `out_codes`.  Rows are
    built in chunks of at most _CHUNK_ENTRIES output codes and counts, so
    the memory beyond the result stays bounded; the result is a dense int64
    array, or scipy CSR with sorted indices when `as_sparse`.
    """
    nin, a = in_bits.shape
    nout = out_codes.size
    keep = np.array(list(combinations(range(b), a)), dtype=np.int64).reshape(math.comb(b, a), a)
    place = (1 << (b - 1 - keep)).T  # code weight of each input bit, per keep set
    order = np.argsort(out_codes)
    sorted_codes = out_codes[order]
    step = max(1, _CHUNK_ENTRIES // max(place.shape[1], nout))
    dense = None if as_sparse else np.empty((nin, nout), dtype=np.int64)
    rows, cols, vals = [], [], []
    for r0 in range(0, nin, step):
        codes = in_bits[r0:r0 + step] @ place
        n = codes.shape[0]
        flat = order[np.searchsorted(sorted_codes, codes)] + nout * np.arange(n)[:, None]
        block = np.bincount(flat.ravel(), minlength=n * nout).reshape(n, nout)
        if as_sparse:
            r, c = np.nonzero(block)
            rows.append(r + r0)
            cols.append(c)
            vals.append(block[r, c])
        else:
            dense[r0:r0 + n] = block
    if not as_sparse:
        return dense
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nin, nout),
    )


def insertion_counts(a: int, b: int, *, allow_large: bool = False):
    """Integer counts of the full 2^a x 2^b insertion channel as scipy CSR.

    Row/column indices read the blocks as big-endian binary integers; each
    row sums to C(b, a) and lists its outputs in increasing order."""
    _check_block_sizes(a, b, allow_large)
    in_bits = (np.arange(1 << a)[:, None] >> np.arange(a - 1, -1, -1)) & 1
    return _count_matrix(in_bits, np.arange(1 << b), b, as_sparse=True)


def weight_class_channel(a: int, b: int, weight: int, *, allow_large: bool = False):
    """The insertion channel restricted to inputs of one Hamming weight.

    Returns (matrix, inputs, outputs) with the matrix dense or scipy-sparse
    depending on size; rows are in the lexicographic order of `inputs`.
    """
    _check_block_sizes(a, b, allow_large)
    if not 0 <= weight <= a:
        raise ValueError(f"weight {weight} out of range for block length {a}")
    inputs = _class_inputs(a, weight)
    outputs = _class_inputs(b, weight)
    as_sparse = len(inputs) * len(outputs) > _DENSE_LIMIT
    in_bits = np.array(inputs, dtype=np.int64).reshape(len(inputs), a)
    out_bits = np.array(outputs, dtype=np.int64).reshape(len(outputs), b)
    counts = _count_matrix(in_bits, out_bits @ (1 << np.arange(b - 1, -1, -1)), b,
                           as_sparse=as_sparse)
    denom = math.comb(b, a)
    if as_sparse:
        mat = counts.astype(np.float64)
        mat.data /= denom  # scipy's `/` multiplies by 1/denom, which rounds differently
    else:
        mat = counts / denom
    return mat, inputs, outputs


@dataclass(frozen=True)
class InsertionCapacity:
    """Capacity (bits) of the length-a-to-b insertion channel, decomposed by
    input Hamming weight; `loss` is a minus the capacity."""

    a: int
    b: int
    capacity: float
    class_capacities: tuple
    loss: float
    converged: bool


def insertion_capacity(a: int, b: int, *, tol: float = 1e-9,
                       max_iter: int = 100_000,
                       allow_large: bool = False) -> InsertionCapacity:
    """Exact-construction capacity of the insertion channel via weight-class
    decomposition: per-class Blahut-Arimoto, then the union capacity."""
    if a < 1:
        raise ValueError(f"need at least one codeword symbol, got a={a}")
    _check_block_sizes(a, b, allow_large)
    caps = []
    converged = True
    for w in range(a + 1):
        inputs = _class_inputs(a, w)
        if len(inputs) == 1:
            caps.append(0.0)
            continue
        mat, _, _ = weight_class_channel(a, b, w, allow_large=allow_large)
        res = blahut_capacity(mat, tol=tol, max_iter=max_iter)
        converged = converged and res.converged
        caps.append(res.capacity)
    # the union of the class lower bounds cannot really exceed a bits, but
    # the exp2/log2 round trip may overshoot the ceiling by a couple of ulps
    cap = min(union_capacity(caps), float(a))
    return InsertionCapacity(
        a=a,
        b=b,
        capacity=cap,
        class_capacities=tuple(caps),
        loss=a - cap,
        converged=converged,
    )


_loss_cache: dict = {}


def insertion_loss(a: int, b: int, *, allow_large: bool = False) -> float:
    """a minus the insertion-channel capacity (bits); cached since the genie
    bounds reevaluate the same (a, b) pairs across their sums.

    Raises ConvergenceError, and caches nothing, when a weight class's
    Blahut-Arimoto run stops short of its tolerance."""
    key = (a, b)
    if key not in _loss_cache:
        res = insertion_capacity(a, b, allow_large=allow_large)
        if not res.converged:
            raise ConvergenceError(
                f"Blahut-Arimoto did not converge on the ({a}, {b}) insertion channel"
            )
        _loss_cache[key] = res.loss
    return _loss_cache[key]


def insertion_capacity_upper(a: int, b: int, *, allow_large: bool = False) -> float:
    """Run-length combinatorial upper bound on the insertion-channel capacity:

        log2( sum_j C(b, j) 2^{Fmax_j} ) - log2 C(b, a),

    where Fmax_j maximizes the expected insertion-position entropy over
    weight-j inputs.  Enumerates all inputs, so a is capped at 20."""
    _check_block_sizes(a, b, allow_large)
    if a < 1:
        raise ValueError("upper bound needs input length a >= 1")
    if a > UPPER_A_MAX:
        raise SizeGuardError(f"upper bound enumerates 2^a inputs; a={a} exceeds {UPPER_A_MAX}")
    terms = []
    for j in range(a + 1):
        fmax = max(position_entropy(x, b) for x in _class_inputs(a, j))
        terms.append(math.log2(math.comb(b, j)) + fmax)
    return float(np.logaddexp2.reduce(terms) - math.log2(math.comb(b, a)))
