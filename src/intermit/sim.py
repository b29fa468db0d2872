"""Monte-Carlo simulation of the intermittent channel.

The transmitter sends k codeword symbols, each preceded by an independent
Geometric0(1/alpha) run of noise symbols (the designated `star` input), so
the received length N is negative-binomial with mean alpha*k and the block
ends with the last codeword symbol.  Decoders: a two-message zero-rate
typicality test, exhaustive unique-typicality over all transmission-instant
patterns, and the two-stage pattern decoder.

Trial t draws from its own np.random.Generator(np.random.PCG64(seed).jumped(t))
stream, numpy's way to make independent parallel streams, in a fixed order:
the codebook (sequence decoders), the noise gaps, the trailing run and one
uniform per received symbol.  One reused generator is set to each trial's
jumped state in turn, a fraction of the cost of building one per trial.
One generator, `_trial_batches`, makes every trial's draws, into buffers
made once per run, and hands `monte_carlo_error` the trials in batches of
at most _BATCH_SYMBOLS = 8192 received symbols; results do not depend on
the batching.  Each scheme family consumes the batches with one per-batch
function.  Sequence-decoder batches are placed and passed through the
channel, then each block is decoded.  Zero-rate batches are counted, not
built: message 0 is all `star`, so each output is the noise row's
inverse-CDF output of its uniform, except at a message-1 trial's codeword
positions, where it is the signal symbol's; each trial's output counts
come from the uniforms and those positions, and the batch is decided at
once.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations

import numpy as np

from .errors import SizeGuardError
# is_typical and is_cond_typical are not called here; they stay importable
# as intermit.sim.is_typical and .is_cond_typical, where perfbench/layers.py
# wraps them.
from .prob import (OUT_OF_ALPHABET, Dmc, _check_symbols, _typical, _vec,  # noqa: F401
                   is_cond_typical, is_typical, kl_divergence, typical_rows)

ENUM_GUARD = 1_000_000  # max number of instant patterns a decoder may scan
# entries a decoder chunk holds at most: its patterns' one-hot outputs and
# joint counts together, floats of 8 bytes (2 MB)
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
# PCG64.jumped's step, (golden ratio - 1) * 2**128: trial t's stream starts
# t * _JUMP draws after the seed's
_JUMP = 210306068529402873165736369884012333109


def _trial_streams(seed: int, trials):
    """The streams np.random.Generator(np.random.PCG64(seed).jumped(t)) of
    the trial indices t in `trials`, in order, as one reused Generator set
    to each trial's state in turn: a trial must make its draws before the
    next one is taken.

    Each trial restores the seed's fresh state, which also drops a 32-bit
    draw the previous trial left buffered, and advances it by t * _JUMP,
    reduced mod 2**128 into the range PCG64.advance takes; this is what
    jumped(t) does, without building a bit generator per trial.
    """
    bitgen = np.random.PCG64(seed)
    fresh = bitgen.state
    rng = np.random.Generator(bitgen)
    for t in trials:
        bitgen.state = fresh
        bitgen.advance(t * _JUMP % (1 << 128))
        yield rng


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
    joint[a, b, m, s] of every message m.  The one-hot outputs are made
    floats once, so the product runs einsum's float loop; casting booleans
    inside einsum took twice as long at 2 002 subsets.  The scan's
    bookkeeping is in Python ints, from the indices of the subsets that
    pass the gate (every subset, without one).

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
    masks = (cb == np.arange(nin)[:, None, None]).astype(float)  # [a, m, j]: cb[m, j] == a
    inputs = masks.sum(axis=2)  # N_m(a)
    # each in-alphabet symbol sits in exactly one input's mask
    if inputs.sum() != cb.size:
        raise ValueError(OUT_OF_ALPHABET)
    count = math.comb(ys.size, k)
    if count > ENUM_GUARD:
        raise SizeGuardError(
            f"C({ys.size},{k}) = {count} instant patterns exceed the enumeration guard {ENUM_GUARD}"
        )
    if not mu > 0.0:  # NaN included
        raise ValueError(f"typicality slack mu must be positive, got {mu}")
    n_msg = cb.shape[0]
    symbols = np.arange(nout)[:, None, None]
    expected = (inputs / k)[:, None, :, None] * w.rows[:, :, None, None]
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
        onehot = (ys.take(patterns.T) == symbols).astype(float)
        # the indices of the chunk's subsets that reach the codeword checks,
        # ascending: bisect_right(passed, i) of them come no later than i
        if gate is None:
            passed = range(size)
        else:
            kept = onehot.sum(axis=1)
            passed = np.flatnonzero(_typical(kept, k, law, mu, 0)
                                    & _typical(totals - kept, ys.size - k, noise, mu, 0))
            onehot = onehot[:, :, passed]
            passed = passed.tolist()
        # first[m]: the subset at which message m is first witnessed (size
        # if never, -1 if witnessed before this chunk)
        first = [size] * n_msg
        if passed:
            # joint[a, b, m, s]: integers <= k, so the float sums are exact
            # in any order.  einsum runs its own loop; a BLAS product would
            # map about 0.3 MB of library pages into the process on its first
            # call.
            joint = np.einsum("amj,bjs->abms", masks, onehot)
            hit = _typical(joint, k, expected, mu, (0, 1))
            first = [passed[f] if h else size for f, h in zip(hit.argmax(axis=1).tolist(),
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
        for m, f in enumerate(first):
            checks += bisect_right(passed, min(f, stop - 1)) + (m <= last and f >= stop)
        end = min(stop, size - 1)  # the last subset scanned
        examined += end + 1
        second += bisect_right(passed, end)
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


def _trial_batches(cfg: SimConfig, trailing: bool, codebook=None):
    """Every trial of a run, drawn in order and yielded in batches of at
    most _BATCH_SYMBOLS received symbols as (first trial index, codebooks,
    Geometric1 steps, received lengths, uniforms): row i of each is trial
    first + i, and the uniforms are the batch's blocks end to end.

    Trial t draws from its `_trial_streams` stream: with `codebook` =
    (inputs, messages), a codebook of i.i.d. uniform codewords (codebooks is
    None without), then k steps, each one more than the noise run before its
    codeword symbol, the trailing run when `trailing`, and one uniform per
    received symbol.  A batch ends before the trial that would take it past
    the budget; a longer trial grows the uniform buffer and so forms a batch
    alone.  The buffers are made once per run and reused: a batch must be
    consumed before the next is drawn.
    """
    k = cfg.k
    rows = max(1, _BATCH_SYMBOLS // k)  # every trial has at least k symbols
    codebooks = None if codebook is None else np.empty((rows, codebook[1], k), dtype=np.int64)
    steps = np.empty((rows, k), dtype=np.int64)
    lengths = np.empty(rows, dtype=np.int64)
    uniforms = np.empty(_BATCH_SYMBOLS)
    first = size = pending = 0  # the batch's first trial, its trials and symbols
    for t, rng in enumerate(_trial_streams(cfg.seed, range(cfg.trials))):
        cb = None if codebook is None else rng.integers(codebook[0], size=(codebook[1], k))
        row = rng.geometric(cfg.p_t, size=k)
        n = int(row.sum())
        if trailing:
            n += int(rng.geometric(cfg.p_t)) - 1
        if size and pending + n > _BATCH_SYMBOLS:
            yield (first, None if codebook is None else codebooks[:size], steps[:size],
                   lengths[:size], uniforms[:pending])
            first, size, pending = t, 0, 0
        if n > uniforms.size:
            uniforms = np.empty(n)
        if cb is not None:
            codebooks[size] = cb
        steps[size], lengths[size] = row, n
        rng.random(out=uniforms[pending:pending + n])
        size += 1
        pending += n
    yield (first, None if codebook is None else codebooks[:size], steps[:size],
           lengths[:size], uniforms[:pending])


def _zero_rate_batch(w: Dmc, cfg: SimConfig, noise_cdf: np.ndarray, signal_cdf: np.ndarray,
                     first: int, codebooks, steps: np.ndarray, lengths: np.ndarray,
                     u: np.ndarray) -> list:
    """The outcomes of a batch of zero-rate trials, from their output
    counts; no block is built.

    Message 0 is all `star`, so the outputs are the noise row's inverse-CDF
    outputs of the uniforms, and a message-1 trial (odd t) then takes the
    signal symbol's row at its k codeword positions.  The comparisons are
    `_channel`'s, so the outputs are those of the placed blocks.  The CDFs
    lack their last step, which only counts past the last output.  The
    codebooks are None: the scheme's two codewords are fixed."""
    size = lengths.size
    starts = np.cumsum(lengths) - lengths
    odd = slice((first + 1) % 2, size, 2)
    u_at = u[starts[odd, None] + np.cumsum(steps[odd], axis=1) - 1]
    # above[b, i]: how many outputs of trial i are b or more.  An output is
    # the number of CDF steps below its uniform, and the steps rise, so it
    # exceeds j exactly when its uniform is above step j: the noise row's
    # step everywhere but at a message-1 codeword position
    above = np.zeros((w.output_size + 1, size), dtype=np.int64)
    above[0] = lengths
    for j in range(w.output_size - 1):
        above[j + 1] = np.add.reduceat(u > noise_cdf[j], starts, dtype=np.int64)
        above[j + 1, odd] += ((u_at > signal_cdf[j]).sum(axis=1)
                              - (u_at > noise_cdf[j]).sum(axis=1))
    decided = _zero_rate_decisions(lengths, (above[:-1] - above[1:]).T, w, cfg)
    return [TrialOutcome(n, None if d < 0 else d, 1)
            for n, d in zip(lengths.tolist(), decided.tolist())]


def _sequence_batch(scheme: str, w: Dmc, cfg: SimConfig, n_messages: int, first: int,
                    codebooks: np.ndarray, steps: np.ndarray, lengths: np.ndarray,
                    u: np.ndarray) -> list:
    """The outcomes of a batch of exhaustive or pattern decoder trials: the
    blocks are placed and sent through the channel at once, and each is
    decoded on its own."""
    trial = np.arange(lengths.size)
    codewords = codebooks[trial, (first + trial) % n_messages]
    y = _channel(_place(codewords, steps, lengths, w.star), u, w)
    # the codewords' i.i.d. uniform input law, which the pattern decoder's
    # first stage takes
    pvec = np.full(w.input_size, 1.0 / w.input_size)
    outcomes = []
    for cb, n, stop in zip(codebooks, lengths.tolist(), np.cumsum(lengths).tolist()):
        y_t = y[stop - n:stop]
        try:
            if scheme == "exhaustive":
                res = decode_exhaustive(y_t, cfg.k, cb, w, cfg.mu)
            else:
                res = decode_pattern(y_t, cfg.k, cb, w, cfg.mu, pvec)
            outcomes.append(TrialOutcome(n, res.message, res.choices_examined))
        except SizeGuardError:
            outcomes.append(TrialOutcome(n, None, 0))
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

    `_trial_batches` draws every trial, from its own PCG64(seed).jumped(t)
    stream, and hands them over in batches of at most _BATCH_SYMBOLS
    received symbols.  A zero-rate batch is counted from its uniforms and
    codeword positions, with no block placed; a sequence-decoder batch is
    placed and sent through the channel at once, and each block is decoded
    on its own.  Batching changes no draw, so no result.
    """
    if scheme not in ("zero_rate", "exhaustive", "pattern"):
        raise ValueError(f"unknown scheme {scheme!r}")
    w.star_row()  # refuses a channel without a noise input
    if n_messages < 1:
        raise ValueError(f"need at least one message, got n_messages={n_messages}")
    if scheme == "zero_rate":
        if n_messages != 2:
            raise ValueError("the zero-rate scheme sends two messages, "
                             f"got n_messages={n_messages}")
        # each codeword repeats one symbol, star for message 0 and the signal
        # for 1, so each message's outputs follow one row's CDF steps
        cdf = np.cumsum(w.rows, axis=1)[:, :-1]
        decide = partial(_zero_rate_batch, w, cfg, *cdf[zero_rate_codebook(w, 1)[:, 0]])
        codebook = None
    else:
        decide = partial(_sequence_batch, scheme, w, cfg, n_messages)
        codebook = (w.input_size, n_messages)
    outcomes = []
    for batch in _trial_batches(cfg, leading_and_trailing, codebook):
        outcomes += decide(*batch)

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
