"""Monte-Carlo simulation of the intermittent channel.

The transmitter sends k codeword symbols, each preceded by an independent
Geometric0(1/alpha) run of noise symbols (the designated `star` input), so
the received length N is negative-binomial with mean alpha*k and the block
ends with the last codeword symbol.  Decoders: a two-message zero-rate
typicality test, exhaustive unique-typicality over all transmission-instant
patterns, and the two-stage pattern decoder.

Every trial draws from its own np.random.default_rng([seed, trial]) stream,
in a fixed order: the codebook (sequence decoders), the noise gaps, the
trailing run and one uniform per received symbol.  The stream is exactly
that generator's, but its PCG64 state is derived from SeedSequence([seed,
trial]) for a block of _SEED_BLOCK = 1024 trials at once and loaded into one
reused generator, a fraction of the cost of building a generator per trial.
`monte_carlo_error` then takes the drawn trials in batches of at most
_BATCH_SYMBOLS = 8192 received symbols; results do not depend on the
batching.  Sequence-decoder batches are placed and passed through the
channel.  Zero-rate batches are counted, not built: message 0 is all
`star`, so each output is the noise row's inverse-CDF output of its
uniform, except at a message-1 trial's codeword positions, where it is the
signal symbol's; each trial's output counts come from the uniforms and
those positions, and the batch is decided at once.

The sequence decoders keep the table of instant patterns of each (n, k)
whose enumeration fits in one decoder chunk for the life of the process,
and test a chunk of patterns at once with the patterns on the last,
contiguous axis of every count array, so each typicality step runs over
long vectors rather than over blocks of 2-4 numbers.  The lengths and
expected frequencies of the typicality tests are the same for every
pattern, so a decoder call forms them once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import SizeGuardError
# is_typical and is_cond_typical are not called here; they stay importable
# as intermit.sim.is_typical and .is_cond_typical, where perfbench/layers.py
# wraps them.
from .prob import (Dmc, _check_symbols, _typical, _vec, is_cond_typical,  # noqa: F401
                   is_typical, kl_divergence, typical_rows)

ENUM_GUARD = 1_000_000  # max number of instant patterns a decoder may scan
# entries a decoder chunk holds at most: its patterns' one-hot outputs and
# joint counts together
_CHUNK_ENTRIES = 1 << 18
# Pattern tables of the enumerations that fit in one decoder chunk, by
# (n, k), least recently used first.  Such a table holds at most
# _CHUNK_ENTRIES entries (for k <= _CHUNK_ENTRIES) of at most 4 bytes: 1 MB,
# or 256 KB while n <= 256.  The least recently used tables go once the memo
# would exceed _TABLE_BYTES, so it never holds more than 4 MB.
_TABLE_BYTES = 1 << 22
_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()  # decoders on several threads share the memo
# received symbols monte_carlo_error passes through the channel at once (a
# longer trial goes alone); kept small because the batch's arrays add to peak
# memory: over the simulate benchmark's zero-rate jobs, peak RSS was 0.2 MB
# above that of one-trial batches at 2**13 and 1.5 MB above at 2**15
_BATCH_SYMBOLS = 1 << 13
# trials whose stream states _trial_streams derives at once
_SEED_BLOCK = 1 << 10

# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """n's 32-bit words, least significant first, as SeedSequence splits an
    int (0 is one word)."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: each call xors in the running
    constant, steps it by `mult` and multiplies by the new one."""
    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_state(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64) for a block of
    entropies at once, as four uint64 arrays: entropy[i] is the i-th 32-bit
    word of every entropy in the block, as a uint32 array."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    w = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [w[i] | w[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _trial_streams(seed: int, start: int, stop: int):
    """The streams np.random.default_rng([seed, t]) of trials t = start ..
    stop-1, in order, as one reused Generator set to each trial's state in
    turn: a trial must make its draws before the next one is taken.

    SeedSequence([seed, t]) is evaluated _SEED_BLOCK trials at a time in
    uint32 arithmetic, and its four 64-bit words seed PCG64 as numpy does:
    inc = 2*initseq + 1, state = (inc + initstate)*MULT + inc mod 2**128.
    The first trial of each block is checked against numpy's own
    SeedSequence, so a numpy that mixes differently raises RuntimeError
    rather than drawing other streams.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    head = _words(int(seed))
    lo = start
    while lo < stop:
        # a block stays below the next multiple of 2**32, so its indices
        # share every word but the lowest
        hi = min(lo + _SEED_BLOCK, stop, (lo | _MASK32) + 1)
        low = np.arange(lo & _MASK32, (lo & _MASK32) + hi - lo, dtype=np.uint32)
        entropy = [np.full(low.size, w, dtype=np.uint32) for w in head]
        entropy += [low] + [np.full(low.size, w, dtype=np.uint32) for w in _words(lo)[1:]]
        words = [v.tolist() for v in _seed_state(entropy)]
        if [v[0] for v in words] != np.random.SeedSequence([seed, lo]).generate_state(
                4, np.uint64).tolist():
            raise RuntimeError(f"SeedSequence([{seed}, {lo}]) derived here differs from "
                               f"numpy {np.__version__}'s own")
        for s_hi, s_lo, i_hi, i_lo in zip(*words):
            inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            rng.bit_generator.state = state
            yield rng
        lo = hi


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SimConfig:
    k: int
    alpha: float
    trials: int
    seed: int
    mu: float = 0.05
    epsilon: float = 0.2

    def __post_init__(self):
        # the comparisons are written so that NaN fails them; a bool is an
        # int to Python, but True is no count
        if not _is_integer(self.k) or self.k < 1:
            raise ValueError(f"codeword length k must be an integer >= 1, got {self.k!r}")
        if not 1.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not self.mu > 0.0:
            raise ValueError(f"typicality slack mu must be positive, got {self.mu}")
        if not self.epsilon > 0.0:
            raise ValueError(f"length-gate slack epsilon must be positive, got {self.epsilon}")

    @property
    def p_t(self) -> float:
        return 1.0 / self.alpha


@dataclass(frozen=True)
class TrialOutcome:
    n_received: int
    decoded: int | None  # None = no message declared
    choices_examined: int


@dataclass(frozen=True)
class SimResult:
    """Aggregate Monte-Carlo outcome with a Wilson 95% interval on the error
    rate."""

    error_rate: float
    ci_low: float
    ci_high: float
    errors: int
    trials: int
    mean_n: float
    outcomes: tuple


@dataclass(frozen=True)
class DecodeResult:
    message: int | None
    choices_examined: int
    second_stage_checks: int
    typicality_checks: int


def _place(codewords: np.ndarray, steps: np.ndarray, lengths: np.ndarray, star: int) -> np.ndarray:
    """The channel inputs of a batch of blocks, end to end: block i has
    lengths[i] symbols, all `star` but codewords[i, j], which comes
    steps[i, j] >= 1 symbols after the previous codeword symbol (the first
    at position steps[i, 0] - 1)."""
    starts = np.cumsum(lengths) - lengths
    out = np.full(int(lengths.sum()), star, dtype=np.int64)
    out[starts[:, None] + np.cumsum(steps, axis=1) - 1] = codewords
    return out


def _channel(x: np.ndarray, u: np.ndarray, w: Dmc) -> np.ndarray:
    """Channel outputs of the inputs x, by inverse-CDF lookup of one uniform
    per symbol."""
    _check_symbols(x, w.input_size)
    y = np.zeros(x.size, dtype=np.int64)
    # an output is the number of CDF steps below its uniform; the last step
    # is 1 up to rounding and would only count past the last output
    for step in np.cumsum(w.rows, axis=1).T[:-1]:
        y += u > step[x]
    return y


def transmit_intermittent(codeword, alpha: float, star: int, rng,
                          *, leading_and_trailing: bool = False) -> np.ndarray:
    """Spread a codeword over a noise-padded block.

    Draws an independent Geometric0(1/alpha) number of `star` symbols before
    each codeword symbol (and after the last one too when
    `leading_and_trailing` is set, which models a trailing listening window).
    The codeword always appears as a subsequence, in order; at alpha = 1 the
    output is the codeword itself.
    """
    cw = np.asarray(codeword, dtype=np.int64)
    if cw.size == 0:
        raise ValueError("codeword must be nonempty")
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    # a Geometric1 step is one more than the noise run before the symbol
    steps = rng.geometric(1.0 / alpha, size=cw.size)
    n = int(steps.sum())
    if leading_and_trailing:
        n += int(rng.geometric(1.0 / alpha)) - 1
    return _place(cw[None], steps[None], np.array([n]), star)


def sample_receive_lengths(k: int, alpha: float, trials: int, rng) -> np.ndarray:
    """Received lengths N for `trials` independent transmissions, drawn
    through the same per-symbol geometric-gap mechanism as the transmitter."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    gaps = rng.geometric(1.0 / alpha, size=(trials, k)) - 1
    return k + gaps.sum(axis=1)


def negbinom_pmf(n: int, k: int, p_t: float) -> float:
    """P(N = n) for the received length: C(n-1, k-1) p_t^k (1-p_t)^{n-k},
    n >= k.  Mean k/p_t = alpha*k.  With p_t = num/den exactly, the value is
    one exact integer quotient, rounded once, so no factor can overflow."""
    if k < 1:
        raise ValueError("codeword length k must be >= 1")
    if not 0.0 < p_t <= 1.0:
        raise ValueError("p_t must lie in (0, 1]")
    if n < k:
        raise ValueError(f"received length n={n} is below the codeword length {k}")
    num, den = float(p_t).as_integer_ratio()
    return math.comb(n - 1, k - 1) * num ** k * (den - num) ** (n - k) / den ** n


def apply_dmc(x, w: Dmc, rng) -> np.ndarray:
    """Push a symbol sequence through the channel, one output draw per input
    symbol."""
    xs = np.asarray(x, dtype=np.int64)
    if xs.size == 0:
        return xs.copy()
    return _channel(xs, rng.random(xs.size), w)


def wilson_interval(errors: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must lie in [0, trials], got {errors} errors in {trials} trials")
    z = 1.96
    phat = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def best_distinguishing_symbol(w: Dmc) -> int:
    """The input maximizing D(W_star || W_x): the symbol whose absence is
    easiest to detect against noise.  Errors out when no input differs from
    the noise row (a channel on which signalling is hopeless)."""
    star_row = w.star_row()
    best, best_d = None, 0.0
    for x in range(w.input_size):
        if x == w.star:
            continue
        d = kl_divergence(star_row, w.rows[x])
        if d > best_d:
            best, best_d = x, d
    if best is None:
        raise ValueError("degenerate channel: every input looks like the noise symbol")
    return best


def zero_rate_codebook(w: Dmc, k: int) -> np.ndarray:
    """Two-message codebook: message 0 stays silent (all star), message 1
    repeats the best distinguishing symbol."""
    x = best_distinguishing_symbol(w)
    return np.vstack([np.full(k, w.star, dtype=np.int64), np.full(k, x, dtype=np.int64)])


def _zero_rate_decisions(lengths: np.ndarray, counts: np.ndarray, w: Dmc,
                         cfg: SimConfig) -> np.ndarray:
    """Zero-rate decisions of received blocks given their lengths and their
    (blocks x outputs) symbol counts: -1 (no message) when N/k leaves the
    [alpha-eps, alpha+eps] band, otherwise 0 iff the block is typical for
    the noise output, else 1."""
    outside = np.abs(lengths / cfg.k - cfg.alpha) > cfg.epsilon
    return np.where(outside, -1, np.where(typical_rows(counts, w.star_row(), cfg.mu), 0, 1))


def decode_zero_rate(y, w: Dmc, cfg: SimConfig) -> int | None:
    """Two-message zero-rate decision: declare an error when the received
    length leaves the [alpha-eps, alpha+eps] band, otherwise answer 0 iff the
    whole block is typical for the noise output."""
    ys = np.asarray(y, dtype=np.int64)
    _check_symbols(ys, w.output_size)
    d = int(_zero_rate_decisions(np.array([ys.size]),
                                 np.bincount(ys, minlength=w.output_size)[None], w, cfg)[0])
    return None if d < 0 else d


def _pattern_chunks(n: int, k: int, rows: int):
    """The k-subsets of range(n) in lexicographic order (the order of
    itertools.combinations), as arrays of at most `rows` rows each, of the
    smallest integer dtype that holds n - 1."""
    total = math.comb(n, k)
    dtype = np.min_scalar_type(max(n - 1, 0))
    flat = chain.from_iterable(combinations(range(n), k))
    for start in range(0, total, rows):
        size = min(rows, total - start)
        yield np.fromiter(flat, dtype=dtype, count=size * k).reshape(size, k)


def _pattern_table(n: int, k: int) -> np.ndarray:
    """The C(n, k) >= 1 k-subsets of range(n) as one read-only table, in
    the order and dtype of `_pattern_chunks`, built once and kept in
    _TABLES until the memo's budget evicts it."""
    key = (n, k)
    with _TABLES_LOCK:
        table = _TABLES.pop(key, None)
        if table is None:
            table = next(_pattern_chunks(n, k, math.comb(n, k)))
            table.flags.writeable = False
            held = sum(t.nbytes for t in _TABLES.values())
            while _TABLES and held + table.nbytes > _TABLE_BYTES:
                held -= _TABLES.pop(next(iter(_TABLES))).nbytes
        _TABLES[key] = table  # most recently used last
    return table


def _decode(y, k: int, codebook, w: Dmc, mu: float, gate=None) -> DecodeResult:
    """Unique-typicality decoding over every k-subset of output instants.

    Scans the subsets in lexicographic order; a message is witnessed when
    some subset's symbols are conditionally typical with its codeword, and
    the scan stops at the second distinct witnessed message (ambiguity, an
    error).  With `gate` = (output law, noise row), a subset reaches the
    codeword checks only if its symbols are typical for the output law and
    the remaining symbols for the noise row.

    The subsets are evaluated in chunks of at most _CHUNK_ENTRIES index
    entries, every test of a chunk at once; the counters are rebuilt from
    the chunk's table, so they read as those of the one-subset-at-a-time
    scan with its early exit.  An enumeration that fits in one chunk takes
    its table from the per-process memo (`_pattern_table`); a larger one is
    built chunk by chunk as the scan goes.  A chunk's counts keep the
    subsets on their last, contiguous axis: one comparison gives the one-hot
    outputs onehot[b, j, s] (output b at instant j of subset s), their sum
    over j the gate's counts, and one batched 0/1 product with the
    codebook's per-input position masks, summed over j, the joint counts
    joint[a, b, m, s] of every message m.

    Every subset holds k symbols, one per instant, so its length, the rest's
    length n - k and each codeword's input counts N_m(a) are the same for
    all subsets.  The expected frequencies (PW, the noise row and
    (N_m(a)/k) W(b|a)) are therefore formed once per call, and each chunk
    only takes its counts through `prob._typical`, the typicality tests'
    own arithmetic, so a tie with mu is decided as the definition decides it.
    """
    ys = np.asarray(y, dtype=np.int64)
    cb = np.asarray(codebook, dtype=np.int64)
    nin, nout = w.rows.shape
    if k < 1:
        raise ValueError("codeword length k must be >= 1")
    if cb.ndim != 2 or cb.shape[0] < 1 or cb.shape[1] != k:
        raise ValueError("codebook must hold at least one codeword of length k")
    _check_symbols(ys, nout)
    _check_symbols(cb, nin)
    count = math.comb(ys.size, k)
    if count > ENUM_GUARD:
        raise SizeGuardError(
            f"C({ys.size},{k}) = {count} instant patterns exceed the enumeration guard {ENUM_GUARD}"
        )
    if not mu > 0.0:  # NaN included
        raise ValueError(f"typicality slack mu must be positive, got {mu}")
    n_msg = cb.shape[0]
    symbols = np.arange(nout)[:, None, None]
    masks = (cb == np.arange(nin)[:, None, None]).astype(float)  # [a, m, j]: cb[m, j] == a
    expected = (masks.sum(axis=2) / k)[:, None, :, None] * w.rows[:, :, None, None]
    if gate is not None:
        totals = np.bincount(ys, minlength=nout)[:, None]
        law, noise = (g[:, None] for g in gate)
    rows = max(1, _CHUNK_ENTRIES // (nout * (k + n_msg * nin)))
    examined = second = checks = 0
    known = None  # the one message witnessed so far
    if 0 < count <= rows:
        chunks = (_pattern_table(ys.size, k),)
    else:
        chunks = _pattern_chunks(ys.size, k, rows)
    for patterns in chunks:
        size = patterns.shape[0]
        onehot = ys.take(patterns.T) == symbols
        if gate is None:
            passed = np.ones(size, dtype=bool)
        else:
            kept = onehot.sum(axis=1)
            passed = (_typical(kept, k, law, mu, 0)
                      & _typical(totals - kept, ys.size - k, noise, mu, 0))
            onehot = onehot[:, :, passed]
        # joint[a, b, m, s]: integers <= k, so the float sums are exact in
        # any order.  einsum runs its own loop; a BLAS product would map
        # about 0.3 MB of library pages into the process on its first call.
        joint = np.einsum("amj,bjs->abms", masks, onehot, dtype=float)
        if gate is None:
            hit = _typical(joint, k, expected, mu, (0, 1))
        else:
            hit = np.zeros((n_msg, size), dtype=bool)
            hit[:, passed] = _typical(joint, k, expected, mu, (0, 1))
        # first[m]: the subset at which message m is first witnessed (size
        # if never, -1 if witnessed before this chunk)
        first = [f if h else size for f, h in zip(hit.argmax(axis=1).tolist(),
                                                   hit.any(axis=1).tolist())]
        if known is not None:
            first[known] = -1
        order = sorted((m for m in range(n_msg) if first[m] < size), key=first.__getitem__)
        if len(order) > 1:
            stop, last = first[order[1]], order[1]  # the second witness
        else:
            stop, last = size, -1
        # a message is checked at every gated subset before `stop` up to and
        # including the one that witnesses it, and at `stop` if it comes no
        # later than the second witness
        gated = np.cumsum(passed)
        for m, f in enumerate(first):
            upto = min(f, stop - 1)
            checks += (int(gated[upto]) if upto >= 0 else 0) + (m <= last and f >= stop)
        end = min(stop, size - 1)  # the last subset scanned
        examined += end + 1
        second += int(gated[end])
        if stop < size:
            return DecodeResult(None, examined, second if gate is not None else 0, checks)
        if order:
            known = order[0]
    return DecodeResult(known, examined, second if gate is not None else 0, checks)


def decode_exhaustive(y, k: int, codebook, w: Dmc, mu: float) -> DecodeResult:
    """Scan every k-subset of output instants and declare the unique message
    that admits a conditionally typical arrangement; ambiguity (two distinct
    messages each witnessed by some subset) or no witness at all is an error
    (message None)."""
    return _decode(y, k, codebook, w, mu)


def decode_pattern(y, k: int, codebook, w: Dmc, mu: float, input_dist) -> DecodeResult:
    """Two-stage decoder: a subset enters the second (codeword-matching)
    stage only if its subsequence is typical for the output marginal PW and
    the remaining symbols are typical for the noise output.  As with the
    exhaustive decoder, success requires a unique witnessed message.

    PW = sum_x P(x) W_x is summed in input order, as the definition reads,
    so a tie with mu is decided by the channel and not by a BLAS build."""
    p = _vec(input_dist)
    if p.shape != (w.input_size,):
        raise ValueError("input distribution does not match channel input size")
    return _decode(y, k, codebook, w, mu, gate=((p[:, None] * w.rows).sum(axis=0), w.star_row()))


def _steps(rng, cfg: SimConfig, trailing: bool):
    """A trial's Geometric1 steps and its received length N: the noise run
    before each codeword symbol is its step less one, so N is the steps'
    sum (plus the trailing run when `trailing`)."""
    steps = rng.geometric(cfg.p_t, size=cfg.k)
    n = int(steps.sum())
    if trailing:
        n += int(rng.geometric(cfg.p_t)) - 1
    return steps, n


def _zero_rate_outcomes(cfg: SimConfig, w: Dmc, trailing: bool) -> list:
    """The zero-rate trials' outcomes, from their output counts; no block is
    built.

    Message 0 is all `star`, so a batch's outputs are the noise row's
    inverse-CDF outputs of its uniforms, and a message-1 trial (odd t) then
    takes the signal symbol's row at its k codeword positions.  The
    comparisons are `_channel`'s, so the outputs are those of the placed
    blocks.  A batch's uniforms and its trials' steps are drawn into buffers
    made once per run."""
    k, nout = cfg.k, w.output_size
    cdf = np.cumsum(w.rows, axis=1)[:, :-1]  # the last step only counts past the last output
    # each codeword repeats one symbol: star for message 0, the signal for 1
    noise_cdf, signal_cdf = cdf[zero_rate_codebook(w, 1)[:, 0]]
    steps = np.empty((max(1, _BATCH_SYMBOLS // k), k), dtype=np.int64)
    lengths = np.empty(steps.shape[0], dtype=np.int64)
    uniforms = np.empty(_BATCH_SYMBOLS)
    outcomes = []

    def run_batch(size: int, u: np.ndarray) -> None:
        ns = lengths[:size]
        starts = np.cumsum(ns) - ns
        # every earlier trial has its outcome, so the batch's first trial is
        # len(outcomes); the odd trials send message 1
        odd = slice((len(outcomes) + 1) % 2, size, 2)
        u_at = u[starts[odd, None] + np.cumsum(steps[odd], axis=1) - 1]
        # above[b, i]: how many outputs of trial i are b or more.  An output
        # is the number of CDF steps below its uniform, and the steps rise,
        # so it exceeds j exactly when its uniform is above step j: the noise
        # row's step everywhere but at a message-1 codeword position
        above = np.zeros((nout + 1, size), dtype=np.int64)
        above[0] = ns
        for j in range(nout - 1):
            above[j + 1] = np.add.reduceat(u > noise_cdf[j], starts, dtype=np.int64)
            above[j + 1, odd] += ((u_at > signal_cdf[j]).sum(axis=1)
                                  - (u_at > noise_cdf[j]).sum(axis=1))
        counts = (above[:-1] - above[1:]).T
        decided = _zero_rate_decisions(ns, counts, w, cfg)
        outcomes.extend(TrialOutcome(n, None if d < 0 else d, 1)
                        for n, d in zip(ns.tolist(), decided.tolist()))

    size = pending = 0  # trials and received symbols in the batch
    for rng in _trial_streams(cfg.seed, 0, cfg.trials):
        row, n = _steps(rng, cfg, trailing)
        if size and pending + n > _BATCH_SYMBOLS:
            run_batch(size, uniforms[:pending])
            size = pending = 0
        steps[size], lengths[size] = row, n
        size += 1
        if n > _BATCH_SYMBOLS:  # a longer trial forms a batch alone
            run_batch(1, rng.random(n))
            size = 0
        else:
            rng.random(out=uniforms[pending:pending + n])
            pending += n
    if size:
        run_batch(size, uniforms[:pending])
    return outcomes


def _sequence_outcomes(scheme: str, cfg: SimConfig, w: Dmc, n_messages: int,
                       trailing: bool) -> list:
    """The outcomes of the exhaustive or pattern decoder's trials: each
    trial draws a codebook of `n_messages` i.i.d. uniform codewords, a batch
    of blocks is placed and sent through the channel at once, and each block
    is decoded on its own."""
    # uniform, yet passed as p=: rng.choice draws other codewords without it
    pvec = np.full(w.input_size, 1.0 / w.input_size)
    outcomes = []
    batch = []  # (codebook, Geometric1 steps, received length, uniforms)

    def run_batch():
        codebooks, step_rows, ns, uniforms = zip(*batch)
        batch.clear()
        lengths = np.array(ns)
        # every earlier trial has its outcome, so the batch's first trial is
        # len(outcomes)
        sent = np.arange(len(outcomes), len(outcomes) + len(ns)) % n_messages
        codewords = np.array(codebooks)[np.arange(len(ns)), sent]
        y = _channel(_place(codewords, np.array(step_rows), lengths, w.star),
                     np.concatenate(uniforms), w)
        for cb, n, stop in zip(codebooks, ns, np.cumsum(lengths)):
            y_t = y[stop - n:stop]
            try:
                if scheme == "exhaustive":
                    res = decode_exhaustive(y_t, cfg.k, cb, w, cfg.mu)
                else:
                    res = decode_pattern(y_t, cfg.k, cb, w, cfg.mu, pvec)
                outcomes.append(TrialOutcome(n, res.message, res.choices_examined))
            except SizeGuardError:
                outcomes.append(TrialOutcome(n, None, 0))

    pending = 0  # received symbols in the batch
    for rng in _trial_streams(cfg.seed, 0, cfg.trials):
        cb = rng.choice(w.input_size, size=(n_messages, cfg.k), p=pvec)
        steps, n = _steps(rng, cfg, trailing)
        if batch and pending + n > _BATCH_SYMBOLS:
            run_batch()
            pending = 0
        batch.append((cb, steps, n, rng.random(n)))
        pending += n
    run_batch()
    return outcomes


def monte_carlo_error(scheme: str, cfg: SimConfig, w: Dmc, *, n_messages: int = 2,
                      leading_and_trailing: bool = False) -> SimResult:
    """Estimate the decoding error probability of a scheme by independent
    trials.

    scheme: "zero_rate", "exhaustive", or "pattern".  Messages cycle
    deterministically over trials.  The zero-rate scheme sends the two
    codewords of `zero_rate_codebook`, so it refuses any other `n_messages`;
    the pattern and exhaustive schemes draw a fresh codebook of `n_messages`
    i.i.d. uniform codewords per trial.
    A trial whose C(n, k) instant patterns exceed ENUM_GUARD declares no
    message and counts as an error; its outcome records 0 choices examined,
    which no decoded trial does.

    Each trial makes its draws from its own default_rng([seed, trial])
    stream, as `_trial_streams` derives it; the drawn trials then go through
    the channel, and zero-rate trials through their decision, in batches of
    at most _BATCH_SYMBOLS received symbols (a longer trial forms a batch
    alone).  A zero-rate batch is counted from the uniforms and the codeword
    positions without placing its blocks; the sequence decoders still see
    one trial at a time.  Batching changes no draw, so no result.
    """
    if scheme not in ("zero_rate", "exhaustive", "pattern"):
        raise ValueError(f"unknown scheme {scheme!r}")
    w.star_row()  # refuses a channel without a noise input
    if n_messages < 1:
        raise ValueError(f"need at least one message, got n_messages={n_messages}")
    if scheme == "zero_rate":
        if n_messages != 2:
            raise ValueError(f"the zero-rate scheme sends two messages, got n_messages={n_messages}")
        outcomes = _zero_rate_outcomes(cfg, w, leading_and_trailing)
    else:
        outcomes = _sequence_outcomes(scheme, cfg, w, n_messages, leading_and_trailing)

    errors = sum(o.decoded != t % n_messages for t, o in enumerate(outcomes))
    lo, hi = wilson_interval(errors, cfg.trials)
    return SimResult(
        error_rate=errors / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        errors=errors,
        trials=cfg.trials,
        mean_n=sum(o.n_received for o in outcomes) / cfg.trials,
        outcomes=tuple(outcomes),
    )
