"""Monte-Carlo channel simulator and the three decoders."""

import math
import re
import sys
import threading
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intermit.sim as sim_mod
import sim_oracle
from decoder_oracle import (cond_deviation, decode as oracle_decode, deviation,
                            enumerate_exact_error, output_law)
from intermit import (
    Dmc,
    SimConfig,
    SizeGuardError,
    apply_dmc,
    best_distinguishing_symbol,
    decode_exhaustive,
    decode_pattern,
    decode_zero_rate,
    monte_carlo_error,
    negbinom_pmf,
    sample_receive_lengths,
    transmit_intermittent,
    wilson_interval,
    zero_rate_codebook,
)

NOISELESS = Dmc.identity(2, star=0)


def test_sim_config_validation():
    cfg = SimConfig(k=10, alpha=2.0, trials=100, seed=1)
    assert cfg.p_t == 0.5
    with pytest.raises(ValueError):
        SimConfig(k=0, alpha=2.0, trials=100, seed=1)
    with pytest.raises(ValueError):
        SimConfig(k=10, alpha=0.5, trials=100, seed=1)
    with pytest.raises(ValueError):
        SimConfig(k=10, alpha=2.0, trials=0, seed=1)
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(k=10, alpha=2.0, trials=100, seed=seed)
    assert SimConfig(k=10, alpha=2.0, trials=1, seed=np.int64(7)).seed == 7


@pytest.mark.parametrize("field, value", [
    ("k", 5.5), ("k", 10.0), ("trials", 2.5), ("alpha", math.inf), ("alpha", math.nan),
    ("mu", math.nan), ("mu", 0.0), ("epsilon", math.nan), ("epsilon", -0.1),
    ("k", True), ("trials", True), ("seed", False),
])
def test_sim_config_refuses_bad_values(field, value):
    # with mu = nan every zero-rate trial used to decode as message 1; k =
    # True used to run as k = 1
    kwargs = dict(k=10, alpha=2.0, trials=100, seed=1)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        SimConfig(**kwargs)


@pytest.mark.parametrize("scheme", ["exhaustive", "pattern"])
def test_monte_carlo_refuses_fewer_than_one_message(scheme):
    # n_messages = 0 used to divide by zero picking the sent message
    cfg = SimConfig(k=4, alpha=1.5, trials=3, seed=1, mu=0.2)
    with pytest.raises(ValueError, match="n_messages=0"):
        monte_carlo_error(scheme, cfg, Dmc.bsc(0.05), n_messages=0)


@pytest.mark.parametrize("n_messages", [1, 3])
def test_zero_rate_refuses_other_than_two_messages(n_messages):
    # the zero-rate codebook has two codewords; other counts used to be ignored
    cfg = SimConfig(k=4, alpha=1.5, trials=3, seed=1)
    with pytest.raises(ValueError, match=f"two messages, got n_messages={n_messages}"):
        monte_carlo_error("zero_rate", cfg, Dmc.bsc(0.05), n_messages=n_messages)


@pytest.mark.parametrize("scheme", ["zero_rate", "exhaustive", "pattern"])
def test_monte_carlo_refuses_a_channel_without_noise_input(scheme):
    cfg = SimConfig(k=4, alpha=1.5, trials=3, seed=1, mu=0.2)
    with pytest.raises(ValueError, match="channel has no designated noise input"):
        monte_carlo_error(scheme, cfg, Dmc([[0.9, 0.1], [0.1, 0.9]]))


@pytest.mark.parametrize("alpha", [0.5, math.inf, math.nan])
def test_samplers_refuse_bad_alpha(alpha):
    # alpha = inf used to reach numpy's geometric with p = 0
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
        transmit_intermittent([1, 1], alpha, 0, rng)
    with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
        sample_receive_lengths(3, alpha, 5, rng)


class TestReceiveLength:
    def test_pmf_exact_value(self):
        # P(N=8) for k=5, p=1/2: C(7,4) / 2^8
        assert negbinom_pmf(8, 5, 0.5) == 35 / 256

    def test_pmf_normalizes(self):
        total = sum(negbinom_pmf(n, 5, 0.5) for n in range(5, 200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_mean(self):
        mean = sum(n * negbinom_pmf(n, 4, 0.25) for n in range(4, 400))
        assert mean == pytest.approx(16.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_pmf_of_long_blocks(self, p):
        # C(1999, 999) used to overflow float before the powers shrank it
        n, k = 2000, 1000
        log_pmf = (math.lgamma(n) - math.lgamma(k) - math.lgamma(n - k + 1)
                   + k * math.log(p) + (n - k) * math.log1p(-p))
        assert negbinom_pmf(n, k, p) == pytest.approx(math.exp(log_pmf), rel=1e-10)

    def test_pmf_of_long_blocks_normalizes(self):
        # mean 2000, standard deviation about 45
        total = math.fsum(negbinom_pmf(n, 1000, 0.5) for n in range(1000, 2700))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampler_bounds_and_reproducible(self):
        r1 = sample_receive_lengths(5, 2.0, 1000, np.random.default_rng(9))
        r2 = sample_receive_lengths(5, 2.0, 1000, np.random.default_rng(9))
        assert np.array_equal(r1, r2)
        assert r1.min() >= 5
        assert abs(r1.mean() - 10.0) < 0.5


class TestTransmit:
    def test_alpha_one_is_identity(self):
        cw = np.array([1, 0, 1, 1])
        y = transmit_intermittent(cw, 1.0, 0, np.random.default_rng(0))
        assert np.array_equal(y, cw)

    def test_filler_preserves_codeword(self):
        # ternary alphabet so codeword symbols never collide with the filler
        cw = np.array([1, 2, 2, 1, 1])
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = transmit_intermittent(cw, 2.5, 0, rng)
            assert np.array_equal(y[y != 0], cw)
            assert len(y) >= len(cw)

    def test_trailing_noise_variant(self):
        cw = np.array([1, 1, 2])
        rng = np.random.default_rng(3)
        lengths = []
        for _ in range(1000):
            y = transmit_intermittent(cw, 2.0, 0, rng, leading_and_trailing=True)
            assert np.array_equal(y[y != 0], cw)
            lengths.append(len(y))
        # one extra geometric run beyond the slot model
        assert np.mean(lengths) == pytest.approx(3 * 2.0 + 1.0, abs=0.3)

    def test_mean_length(self):
        cw = np.ones(20, dtype=int)
        rng = np.random.default_rng(4)
        lens = [len(transmit_intermittent(cw, 1.5, 0, rng)) for _ in range(2000)]
        assert np.mean(lens) == pytest.approx(30.0, rel=0.02)


def test_apply_dmc_identity_exact():
    x = np.array([0, 1, 1, 0])
    y = apply_dmc(x, NOISELESS, np.random.default_rng(0))
    assert np.array_equal(y, x)


def test_apply_dmc_flip_rate():
    x = np.zeros(100_000, dtype=int)
    y = apply_dmc(x, Dmc.bsc(0.1), np.random.default_rng(12))
    assert y.mean() == pytest.approx(0.1, abs=0.005)


@pytest.mark.parametrize("x", [[-1, -2, 0], [0, 2, 1]])
def test_apply_dmc_rejects_out_of_alphabet_inputs(x):
    with pytest.raises(ValueError, match="out-of-alphabet"):
        apply_dmc(x, Dmc.bsc(0.1), np.random.default_rng(0))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda nout: st.lists(
           st.lists(st.integers(0, 5), min_size=nout, max_size=nout).filter(any),
           min_size=1, max_size=3)),
       st.integers(0, 2**32 - 1))
def test_apply_dmc_is_inverse_cdf_lookup(weights, seed):
    # the output is the number of CDF steps below the uniform, capped at the
    # last output
    rows = np.array(weights, dtype=float)
    w = Dmc(rows / rows.sum(axis=1, keepdims=True))
    x = np.random.default_rng(seed).integers(0, w.input_size, size=200)
    u = np.random.default_rng(seed).random(x.size)
    want = np.minimum((u[:, None] > np.cumsum(w.rows, axis=1)[x]).sum(axis=1), w.output_size - 1)
    assert np.array_equal(apply_dmc(x, w, np.random.default_rng(seed)), want)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.03699480747600191, abs=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    for errors in (-1, 11, math.nan):
        with pytest.raises(ValueError, match=rf"got {errors} errors in 10 trials"):
            wilson_interval(errors, 10)


def test_best_distinguishing_symbol():
    assert best_distinguishing_symbol(Dmc.bsc(0.1)) == 1
    assert best_distinguishing_symbol(NOISELESS) == 1
    useless = Dmc(np.array([[0.5, 0.5], [0.5, 0.5]]), star=0)
    with pytest.raises(ValueError):
        best_distinguishing_symbol(useless)


def test_zero_rate_codebook_layout(bsc01):
    cb = zero_rate_codebook(bsc01, 4)
    assert np.array_equal(cb, [[0, 0, 0, 0], [1, 1, 1, 1]])


class TestZeroRateDecoder:
    def test_decodes_clean_bursts(self, bsc01):
        cfg = SimConfig(k=200, alpha=1.5, trials=1, seed=0)
        rng = np.random.default_rng(21)
        cw = np.ones(200, dtype=int)
        y = apply_dmc(transmit_intermittent(cw, 1.5, 0, rng), bsc01, rng)
        assert decode_zero_rate(y, bsc01, cfg) == 1
        silence = apply_dmc(np.zeros(300, dtype=int), bsc01, rng)
        assert decode_zero_rate(silence, bsc01, cfg) == 0

    def test_length_gate(self, bsc01):
        cfg = SimConfig(k=100, alpha=1.5, trials=1, seed=0, epsilon=0.2)
        y = np.zeros(400, dtype=int)  # N/k = 4, far outside the gate
        assert decode_zero_rate(y, bsc01, cfg) is None


class TestSequenceDecoders:
    CODEBOOK = np.array([[0, 1], [1, 0]])

    def test_exhaustive_unique_match(self):
        res = decode_exhaustive(np.array([1, 0, 0]), 2, self.CODEBOOK, NOISELESS, 0.05)
        assert res.message == 1
        res = decode_exhaustive(np.array([0, 0, 1]), 2, self.CODEBOOK, NOISELESS, 0.05)
        assert res.message == 0

    def test_exhaustive_ambiguity_fails(self):
        # (0,1,0) contains both codewords as filler-consistent subsequences
        res = decode_exhaustive(np.array([0, 1, 0]), 2, self.CODEBOOK, NOISELESS, 0.05)
        assert res.message is None

    def test_exhaustive_enumeration_guard(self):
        y = np.zeros(30, dtype=int)
        big = np.zeros((2, 15), dtype=int)
        with pytest.raises(SizeGuardError):
            decode_exhaustive(y, 15, big, NOISELESS, 0.05)

    def test_pattern_agrees_on_tiny_noiseless(self):
        dist = np.array([0.5, 0.5])
        for y, expect in [((1, 0, 0), 1), ((0, 0, 1), 0), ((0, 1, 0), None)]:
            res = decode_pattern(np.array(y), 2, self.CODEBOOK, NOISELESS, 0.05, dist)
            assert res.message == expect

    def test_choices_examined_bounded(self):
        res = decode_exhaustive(np.array([1, 0, 0]), 2, self.CODEBOOK, NOISELESS, 0.05)
        assert 1 <= res.choices_examined <= math.comb(3, 2)


@st.composite
def decode_cases(draw):
    """A channel of up to 9 outputs, codebook, received block, slack and
    input law small enough for the one-pattern-at-a-time oracle."""
    nin = draw(st.integers(2, 3))
    if draw(st.booleans()):
        rows = np.eye(nin)  # deterministic: frequencies land on the tie values j/k
    else:
        nout = draw(st.integers(2, 9))
        weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=nout, max_size=nout),
                                         min_size=nin, max_size=nin)), dtype=float)
        weights[weights.sum(axis=1) == 0] = 1.0
        rows = weights / weights.sum(axis=1, keepdims=True)
    w = Dmc(rows, star=0)
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, k + 4))
    msgs = draw(st.integers(1, 3))
    cb = np.array(draw(st.lists(st.lists(st.integers(0, nin - 1), min_size=k, max_size=k),
                                min_size=msgs, max_size=msgs)))
    y = np.array(draw(st.lists(st.integers(0, w.output_size - 1), min_size=n, max_size=n)))
    mu = draw(st.one_of(st.sampled_from([j / k for j in range(1, k + 1)] + [1 / 3, 1 / 4]),
                        st.floats(0.01, 0.7)))
    law = np.array(draw(st.lists(st.integers(1, 4), min_size=nin, max_size=nin)), dtype=float)
    return w, cb, y, mu, law / law.sum()


@settings(max_examples=200, deadline=None)
@given(decode_cases(), st.sampled_from([1, 5, 40, sim_mod._CHUNK_ENTRIES]))
def test_decoders_match_sequential_oracle(case, chunk):
    # budgets down to one pattern per chunk put the stop at the second
    # witnessed message both inside a chunk and on a chunk border
    w, cb, y, mu, law = case
    k = cb.shape[1]
    with mock.patch.object(sim_mod, "_CHUNK_ENTRIES", chunk):
        got = [decode_exhaustive(y, k, cb, w, mu), decode_pattern(y, k, cb, w, mu, law)]
    want = [oracle_decode(y, k, cb, w, mu), oracle_decode(y, k, cb, w, mu, law)]
    for res, expect in zip(got, want):
        assert (res.message, res.choices_examined, res.second_stage_checks,
                res.typicality_checks) == expect


@st.composite
def tie_cases(draw):
    """A channel of 1-3 inputs and 2-9 outputs, a codebook of length
    k = 1..12, a block of k..k+2 received symbols and an input law, with mu
    one of the deviations the decoders compare with it: of a subset's
    symbols from a codeword's or from PW, or of the rest from the noise
    row."""
    nin, nout = draw(st.integers(1, 3)), draw(st.integers(2, 9))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=nout, max_size=nout),
                                     min_size=nin, max_size=nin)), dtype=float)
    weights[weights.sum(axis=1) == 0] = 1.0
    w = Dmc(weights / weights.sum(axis=1, keepdims=True), star=0)
    k = draw(st.integers(1, 12))
    n = draw(st.integers(k, k + 2))
    msgs = draw(st.integers(1, 3))
    cb = np.array(draw(st.lists(st.lists(st.integers(0, nin - 1), min_size=k, max_size=k),
                                min_size=msgs, max_size=msgs)))
    y = np.array(draw(st.lists(st.integers(0, nout - 1), min_size=n, max_size=n)))
    law = np.array(draw(st.lists(st.integers(1, 4), min_size=nin, max_size=nin)), dtype=float)
    law /= law.sum()
    pw = output_law(law, w.rows)
    devs = set()
    for subset in combinations(range(n), k):
        idx = list(subset)
        devs.add(deviation(y[idx], pw))
        if n > k:
            devs.add(deviation(np.delete(y, idx), w.star_row()))
        devs.update(cond_deviation(y[idx], x, w.rows) for x in cb)
    mu = draw(st.sampled_from(sorted(d for d in devs if d > 0) or [0.05]))
    return w, cb, y, mu, law


@settings(max_examples=200, deadline=None)
@given(tie_cases())
def test_decoders_match_the_definition_at_ties(case):
    w, cb, y, mu, law = case
    k = cb.shape[1]
    got = [decode_exhaustive(y, k, cb, w, mu), decode_pattern(y, k, cb, w, mu, law)]
    want = [oracle_decode(y, k, cb, w, mu), oracle_decode(y, k, cb, w, mu, law)]
    for res, expect in zip(got, want):
        assert (res.message, res.choices_examined, res.second_stage_checks,
                res.typicality_checks) == expect


def test_exhaustive_decides_a_tie_by_the_definition():
    # codeword 1 against the whole block deviates by exactly mu = 0.1 at
    # (input 2, output 3); a marginal summed from the nine frequencies
    # rounds above it and decodes no message
    weights = np.array([[0, 1, 1, 0, 1, 1, 1, 2, 0], [1, 0, 2, 1, 0, 1, 3, 1, 1],
                        [0, 2, 1, 3, 2, 1, 3, 3, 3]], dtype=float)
    w = Dmc(weights / weights.sum(axis=1, keepdims=True), star=0)
    cb = np.array([[0, 1, 1, 1, 1, 2, 2, 1, 2, 2], [2, 2, 2, 0, 2, 2, 2, 1, 0, 1]])
    y = np.array([7, 2, 1, 8, 6, 8, 8, 3, 3, 4])
    assert decode_exhaustive(y, 10, cb, w, 0.1).message == 1
    assert oracle_decode(y, 10, cb, w, 0.1)[0] == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, max(n, 1)))),
       st.integers(1, 40))
def test_pattern_chunks_are_combinations_in_order(nk, rows):
    n, k = nk
    chunks = list(sim_mod._pattern_chunks(n, k, rows))
    assert all(0 < len(c) <= rows and c.dtype == np.uint8 for c in chunks)
    assert [tuple(p) for c in chunks for p in c.tolist()] == list(combinations(range(n), k))


def test_pattern_tables_are_read_only_and_built_once():
    with mock.patch.dict(sim_mod._TABLES, clear=True):
        table = sim_mod._pattern_table(7, 3)
        assert sim_mod._pattern_table(7, 3) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        assert table.tolist() == [list(p) for p in combinations(range(7), 3)]
        assert sim_mod._pattern_table(300, 1).dtype == np.uint16


def test_pattern_memo_keeps_within_its_budget():
    # tables of 20, 12 and 60 bytes under an 80-byte budget: the third
    # evicts the least recently used one only
    with mock.patch.dict(sim_mod._TABLES, clear=True), \
            mock.patch.object(sim_mod, "_TABLE_BYTES", 80):
        sim_mod._pattern_table(5, 2)
        sim_mod._pattern_table(4, 2)
        sim_mod._pattern_table(5, 2)  # a hit: now the most recently used
        sim_mod._pattern_table(6, 3)
        assert list(sim_mod._TABLES) == [(5, 2), (6, 3)]
        sim_mod._pattern_table(4, 2)
        assert list(sim_mod._TABLES) == [(6, 3), (4, 2)]
        assert sum(t.nbytes for t in sim_mod._TABLES.values()) <= 80


def test_pattern_memo_shared_by_threads():
    # eight threads cycle through four tables under a budget that holds two
    # or three of them, so nearly every lookup builds a table and evicts
    # others while the other threads do the same; every table must be right
    # and the memo must stay within its budget
    sizes = [(6, 3), (7, 3), (8, 3), (9, 3)]
    want = {nk: [list(p) for p in combinations(range(nk[0]), nk[1])] for nk in sizes}
    wrong, errors = [], []

    def work():
        try:
            for _ in range(500):
                for nk in sizes:
                    if sim_mod._pattern_table(*nk).tolist() != want[nk]:
                        wrong.append(nk)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.dict(sim_mod._TABLES, clear=True), \
                mock.patch.object(sim_mod, "_TABLE_BYTES", 500):
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert sum(t.nbytes for t in sim_mod._TABLES.values()) <= 500
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not wrong


def test_patched_chunk_size_streams_past_the_memo():
    # the memo holds the (6, 3) table after a default-sized decode; with one
    # pattern per chunk the decoder must stream again, and still read as the
    # one-pattern-at-a-time oracle
    w, k = NOISELESS, 3
    cb = np.array([[1, 0, 1], [1, 1, 0]])
    y = np.array([1, 0, 1, 1, 0, 0])
    want = oracle_decode(y, k, cb, w, 0.2)
    assert astuple(decode_exhaustive(y, k, cb, w, 0.2)) == want
    assert (6, 3) in sim_mod._TABLES
    chunks = mock.Mock(wraps=sim_mod._pattern_chunks)
    with mock.patch.object(sim_mod, "_CHUNK_ENTRIES", 1), \
            mock.patch.object(sim_mod, "_pattern_chunks", chunks):
        got = decode_exhaustive(y, k, cb, w, 0.2)
    chunks.assert_called_once_with(6, k, 1)
    assert astuple(got) == want


class TestMonteCarlo:
    def test_deterministic_given_seed(self, bsc01):
        cfg = SimConfig(k=50, alpha=1.5, trials=300, seed=77)
        a = monte_carlo_error("zero_rate", cfg, bsc01)
        b = monte_carlo_error("zero_rate", cfg, bsc01)
        assert a.errors == b.errors
        assert a.outcomes == b.outcomes
        assert a.ci_low <= a.error_rate <= a.ci_high

    def test_mean_received_length(self, bsc01):
        cfg = SimConfig(k=50, alpha=2.0, trials=2000, seed=5)
        res = monte_carlo_error("zero_rate", cfg, bsc01)
        assert res.mean_n == pytest.approx(100.0, rel=0.02)

    def test_exhaustive_noiseless_low_error(self):
        cfg = SimConfig(k=6, alpha=1.3, trials=300, seed=9)
        res = monte_carlo_error("exhaustive", cfg, NOISELESS)
        assert res.trials == 300
        assert res.error_rate < 0.5
        assert len(res.outcomes) == 300

    def test_pattern_scheme_runs(self):
        cfg = SimConfig(k=5, alpha=1.2, trials=60, seed=13)
        res = monte_carlo_error("pattern", cfg, NOISELESS)
        assert res.trials == 60
        assert 0.0 <= res.error_rate <= 1.0

    def test_guard_trip_keeps_other_trials(self, monkeypatch):
        cfg = SimConfig(k=4, alpha=1.5, trials=40, seed=2, mu=0.2)
        full = monte_carlo_error("exhaustive", cfg, NOISELESS)
        monkeypatch.setattr(sim_mod, "ENUM_GUARD", 10)
        res = monte_carlo_error("exhaustive", cfg, NOISELESS)
        tripped = 0
        for o, ref in zip(res.outcomes, full.outcomes):
            assert o.n_received == ref.n_received
            if math.comb(o.n_received, 4) > 10:
                tripped += 1
                assert (o.decoded, o.choices_examined) == (None, 0)
            else:
                assert o == ref
        assert tripped > 0
        wrong = sum(o.decoded != t % 2 for t, o in enumerate(res.outcomes))
        assert res.errors == wrong

    def test_unknown_scheme_rejected(self, bsc01):
        cfg = SimConfig(k=10, alpha=1.5, trials=10, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_error("telepathy", cfg, bsc01)


# channels whose noise input is not 0 and whose zero-rate signal symbol (the
# best distinguishing input) is not the last input
TERNARY_3X3 = Dmc([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]], star=1)  # signal 0
TERNARY_3X4 = Dmc([[0.3, 0.3, 0.2, 0.2], [0.1, 0.1, 0.1, 0.7], [0.4, 0.3, 0.2, 0.1]],
                  star=2)  # signal 1


def test_ternary_channels_signal_inside_the_alphabet():
    assert best_distinguishing_symbol(TERNARY_3X3) == 0
    assert best_distinguishing_symbol(TERNARY_3X4) == 1


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(["zero_rate", "exhaustive", "pattern"]),
       trailing=st.booleans(),
       w=st.sampled_from([NOISELESS, Dmc.bsc(0.1), TERNARY_3X3, TERNARY_3X4]),
       k=st.integers(1, 6),
       alpha=st.sampled_from([1.0, 1.3, 2.0]),
       trials=st.integers(1, 60),
       seed=st.integers(0, 2**64),
       budget=st.sampled_from([1, 24, 40, sim_mod._BATCH_SYMBOLS]),
       guard=st.sampled_from([10, sim_mod.ENUM_GUARD]))
@example(scheme="zero_rate", trailing=False, w=TERNARY_3X4, k=1, alpha=1.0, trials=11, seed=3,
         budget=24, guard=sim_mod.ENUM_GUARD)
def test_monte_carlo_matches_per_trial_oracle(scheme, trailing, w, k, alpha, trials, seed,
                                              budget, guard):
    # a 1-symbol budget puts every trial in a batch of its own, longer than
    # the budget; 24 and 40 symbols end batches mid-run, and 24 symbols
    # hold three 8-symbol zero-rate trials at alpha = 1, so batches start
    # on odd trials as well as on even ones (the @example); a guard of 10
    # patterns trips on some trials inside a batch
    if scheme == "zero_rate":
        k *= 8
    cfg = SimConfig(k=k, alpha=alpha, trials=trials, seed=seed, mu=0.2)
    with mock.patch.object(sim_mod, "_BATCH_SYMBOLS", budget), \
            mock.patch.object(sim_mod, "ENUM_GUARD", guard):
        got = monte_carlo_error(scheme, cfg, w, leading_and_trailing=trailing)
        want = sim_oracle.monte_carlo_error(scheme, cfg, w, leading_and_trailing=trailing)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**70),
       start=st.sampled_from([0, 2**32 - 5]),
       trials=st.integers(1, 12),
       block=st.sampled_from([1, 3, 4, sim_mod._SEED_BLOCK]))
@example(seed=0, start=0, trials=5, block=2)
@example(seed=2**64 - 1, start=0, trials=5, block=2)
@example(seed=2**128 + 3, start=0, trials=5, block=2)
def test_trial_streams_match_default_rng(seed, start, trials, block):
    # small blocks put block boundaries inside the run; a start just below
    # 2**32 gives the later trials a second index word, and a five-word
    # seed overflows SeedSequence's four-word pool
    with mock.patch.object(sim_mod, "_SEED_BLOCK", block):
        got = [rng.bit_generator.state
               for rng in sim_mod._trial_streams(seed, start, start + trials)]
    want = [np.random.default_rng([seed, t]).bit_generator.state
            for t in range(start, start + trials)]
    assert got == want


class TestExactEnumeration:
    def test_hand_computed_instance(self):
        res = enumerate_exact_error(
            k=2, n=3, codebook=np.array([[0, 1], [1, 0]]), w=NOISELESS, mu=0.05
        )
        # message 0 always decodes; message 1 is ambiguous for one of the
        # two equally likely insertion patterns
        assert res["exhaustive"] == Fraction(1, 4)
        assert res["pattern"] == Fraction(1, 4)

    def test_rejects_noisy_channel(self, bsc01):
        with pytest.raises(ValueError):
            enumerate_exact_error(
                k=2, n=3, codebook=np.array([[0, 1], [1, 0]]), w=bsc01, mu=0.05
            )


def test_trial_streams_check_each_block_against_numpy():
    # a wrong hash constant stands in for a numpy whose SeedSequence mixes
    # differently: the first trial of every block is checked, so the second
    # block refuses once the constant changes
    with mock.patch.object(sim_mod, "_SEED_BLOCK", 2):
        streams = sim_mod._trial_streams(3, 0, 5)
        next(streams), next(streams)
        with mock.patch.object(sim_mod, "_MIX_L", sim_mod._MIX_L ^ 1), \
                pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}"):
            next(streams)
