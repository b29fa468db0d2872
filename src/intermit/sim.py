"""Monte-Carlo simulation of the intermittent channel.

The transmitter sends k codeword symbols, each preceded by an independent
Geometric0(1/alpha) run of noise symbols (the designated `star` input), so
the received length N is negative-binomial with mean alpha*k and the block
ends with the last codeword symbol.  Decoders: a two-message zero-rate
typicality test, exhaustive unique-typicality over all transmission-instant
patterns, and the two-stage pattern decoder.

Every trial draws from its own np.random.default_rng([seed, trial]) stream,
so results are reproducible independently of batching or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import SizeGuardError
# is_cond_typical is not called here; it stays importable as
# intermit.sim.is_cond_typical, where perfbench/layers.py wraps it.
from .prob import (Dmc, _vec, cond_typical_rows, is_cond_typical,  # noqa: F401
                   is_typical, kl_divergence, typical_rows)

ENUM_GUARD = 1_000_000  # max number of instant patterns a decoder may scan
_CHUNK_ENTRIES = 1 << 18  # index entries a decoder evaluates at once


@dataclass(frozen=True)
class SimConfig:
    k: int
    alpha: float
    trials: int
    seed: int
    mu: float = 0.05
    epsilon: float = 0.2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("codeword length k must be >= 1")
        if not self.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.mu <= 0.0:
            raise ValueError("typicality slack mu must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("length-gate slack epsilon must be positive")

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


def transmit_intermittent(codeword, alpha: float, star: int, rng,
                          *, leading_and_trailing: bool = False) -> np.ndarray:
    """Spread a codeword over a noise-padded block.

    Draws an independent Geometric0(1/alpha) number of `star` symbols before
    each codeword symbol (and after the last one too when
    `leading_and_trailing` is set, which models a trailing listening window).
    The codeword always appears as a subsequence, in order; at alpha = 1 the
    output is the codeword itself.
    """
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    cw = np.asarray(codeword, dtype=np.int64)
    k = cw.size
    if k == 0:
        raise ValueError("codeword must be nonempty")
    p = 1.0 / alpha
    gaps = rng.geometric(p, size=k) - 1
    out = np.full(k + int(gaps.sum()), star, dtype=np.int64)
    out[np.cumsum(gaps) + np.arange(k)] = cw
    if leading_and_trailing:
        trail = int(rng.geometric(p) - 1)
        if trail:
            out = np.concatenate([out, np.full(trail, star, dtype=np.int64)])
    return out


def sample_receive_lengths(k: int, alpha: float, trials: int, rng) -> np.ndarray:
    """Received lengths N for `trials` independent transmissions, drawn
    through the same per-symbol geometric-gap mechanism as the transmitter."""
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    gaps = rng.geometric(1.0 / alpha, size=(trials, k)) - 1
    return k + gaps.sum(axis=1)


def negbinom_pmf(n: int, k: int, p_t: float) -> float:
    """P(N = n) for the received length: C(n-1, k-1) p_t^k (1-p_t)^{n-k},
    n >= k.  Mean k/p_t = alpha*k."""
    if k < 1:
        raise ValueError("codeword length k must be >= 1")
    if not 0.0 < p_t <= 1.0:
        raise ValueError("p_t must lie in (0, 1]")
    if n < k:
        raise ValueError(f"received length n={n} is below the codeword length {k}")
    return float(math.comb(n - 1, k - 1) * p_t ** k * (1.0 - p_t) ** (n - k))


def apply_dmc(x, w: Dmc, rng) -> np.ndarray:
    """Push a symbol sequence through the channel, one output draw per input
    symbol."""
    xs = np.asarray(x, dtype=np.int64)
    if xs.size == 0:
        return xs.copy()
    cum = np.cumsum(w.rows, axis=1)[xs]
    u = rng.random(xs.size)
    return np.minimum((u[:, None] > cum).sum(axis=1), w.output_size - 1)


def wilson_interval(errors: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
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


def decode_zero_rate(y, w: Dmc, cfg: SimConfig) -> int | None:
    """Two-message zero-rate decision: declare an error when the received
    length leaves the [alpha-eps, alpha+eps] band, otherwise answer 0 iff the
    whole block is typical for the noise output."""
    ys = np.asarray(y, dtype=np.int64)
    if abs(ys.size / cfg.k - cfg.alpha) > cfg.epsilon:
        return None
    return 0 if is_typical(ys, w.star_row(), cfg.mu) else 1


def _pattern_chunks(n: int, k: int, rows: int):
    """The k-subsets of range(n) in lexicographic order (the order of
    itertools.combinations), as int64 arrays of at most `rows` rows each."""
    total = math.comb(n, k)
    flat = chain.from_iterable(combinations(range(n), k))
    for start in range(0, total, rows):
        size = min(rows, total - start)
        yield np.fromiter(flat, dtype=np.int64, count=size * k).reshape(size, k)


def _row_counts(a: np.ndarray, size: int) -> np.ndarray:
    """Occurrences of each value 0..size-1 in every row of a 2-D int array."""
    flat = a + size * np.arange(a.shape[0])[:, None]
    return np.bincount(flat.ravel(), minlength=a.shape[0] * size).reshape(-1, size)


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
    scan with its early exit.
    """
    ys = np.asarray(y, dtype=np.int64)
    cb = np.asarray(codebook, dtype=np.int64)
    nin, nout = w.rows.shape
    if k < 1:
        raise ValueError("codeword length k must be >= 1")
    if cb.ndim != 2 or cb.shape[0] < 1 or cb.shape[1] != k:
        raise ValueError("codebook must hold at least one codeword of length k")
    if (ys.size and (ys.min() < 0 or ys.max() >= nout)) or (
            cb.size and (cb.min() < 0 or cb.max() >= nin)):
        raise ValueError("sequence contains out-of-alphabet symbols")
    count = math.comb(ys.size, k)
    if count > ENUM_GUARD:
        raise SizeGuardError(
            f"C({ys.size},{k}) = {count} instant patterns exceed the enumeration guard {ENUM_GUARD}"
        )
    n_msg = cb.shape[0]
    totals = np.bincount(ys, minlength=nout)
    rows = max(1, _CHUNK_ENTRIES // (n_msg * max(k, nin * nout)))
    examined = second = checks = 0
    known = None  # the one message witnessed so far
    for patterns in _pattern_chunks(ys.size, k, rows):
        size = patterns.shape[0]
        sub = ys[patterns]
        if gate is None:
            passed = np.ones(size, dtype=bool)
        else:
            kept = _row_counts(sub, nout)
            passed = typical_rows(kept, gate[0], mu) & typical_rows(totals - kept, gate[1], mu)
        pairs = (cb * nout)[None] + sub[passed][:, None]  # (subset, message, position)
        joint = _row_counts(pairs.reshape(-1, k), nin * nout).reshape(len(pairs), n_msg, nin, nout)
        hit = np.zeros((size, n_msg), dtype=bool)
        hit[passed] = cond_typical_rows(joint, w, mu)
        # first[m]: the subset at which message m is first witnessed (size
        # if never, -1 if witnessed before this chunk)
        first = np.where(hit.any(axis=0), hit.argmax(axis=0), size)
        if known is not None:
            first[known] = -1
        order = [m for m in np.lexsort((np.arange(n_msg), first)) if first[m] < size]
        if len(order) > 1:
            stop, last = int(first[order[1]]), int(order[1])  # the second witness
        else:
            stop, last = size, -1
        # a message is checked at every gated subset before `stop` up to and
        # including the one that witnesses it, and at `stop` if it comes no
        # later than the second witness
        gated = np.cumsum(passed)
        upto = np.minimum(first, stop - 1)
        checks += int(np.where(upto >= 0, gated[upto], 0).sum())
        checks += int(((np.arange(n_msg) <= last) & (first >= stop)).sum())
        end = min(stop, size - 1)  # the last subset scanned
        examined += end + 1
        second += int(gated[end])
        if stop < size:
            return DecodeResult(None, examined, second if gate is not None else 0, checks)
        if order:
            known = int(order[0])
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
    exhaustive decoder, success requires a unique witnessed message."""
    return _decode(y, k, codebook, w, mu, gate=(_vec(input_dist) @ w.rows, w.star_row()))


def monte_carlo_error(scheme: str, cfg: SimConfig, w: Dmc, *, n_messages: int = 2,
                      leading_and_trailing: bool = False) -> SimResult:
    """Estimate the decoding error probability of a scheme by independent
    trials.

    scheme: "zero_rate", "exhaustive", or "pattern".  Messages cycle
    deterministically over trials.  The zero-rate scheme sends the two
    codewords of `zero_rate_codebook`; the pattern and exhaustive schemes
    draw a fresh codebook of `n_messages` i.i.d. uniform codewords per trial.
    A trial whose C(n, k) instant patterns exceed ENUM_GUARD declares no
    message and counts as an error; its outcome records 0 choices examined,
    which no decoded trial does.
    """
    if scheme not in ("zero_rate", "exhaustive", "pattern"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if w.star is None:
        raise ValueError("channel must designate a noise input (star)")
    if scheme == "zero_rate":
        fixed_cb, n_msg = zero_rate_codebook(w, cfg.k), 2
    else:
        fixed_cb, n_msg = None, n_messages
    # uniform, yet passed as p=: rng.choice draws other codewords without it
    pvec = np.full(w.input_size, 1.0 / w.input_size)

    errors = 0
    total_n = 0
    outcomes = []
    for t in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, t])
        m = t % n_msg
        if fixed_cb is None:
            cb = rng.choice(w.input_size, size=(n_msg, cfg.k), p=pvec)
        else:
            cb = fixed_cb
        x = transmit_intermittent(cb[m], cfg.alpha, w.star, rng,
                                  leading_and_trailing=leading_and_trailing)
        y = apply_dmc(x, w, rng)
        if scheme == "zero_rate":
            decoded = decode_zero_rate(y, w, cfg)
            examined = 1
        else:
            try:
                if scheme == "exhaustive":
                    res = decode_exhaustive(y, cfg.k, cb, w, cfg.mu)
                else:
                    res = decode_pattern(y, cfg.k, cb, w, cfg.mu, pvec)
                decoded, examined = res.message, res.choices_examined
            except SizeGuardError:
                decoded, examined = None, 0
        if decoded != m:
            errors += 1
        total_n += int(y.size)
        outcomes.append(TrialOutcome(int(y.size), decoded, examined))
    lo, hi = wilson_interval(errors, cfg.trials)
    return SimResult(
        error_rate=errors / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        errors=errors,
        trials=cfg.trials,
        mean_n=total_n / cfg.trials,
        outcomes=tuple(outcomes),
    )
