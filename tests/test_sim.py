"""Monte-Carlo channel simulator and the three decoders."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intermit.sim as sim_mod
import sim_oracle
from decoder_oracle import decode as oracle_decode, enumerate_exact_error
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
    """A channel, codebook, received block, slack and input law small enough
    for the one-pattern-at-a-time oracle."""
    nin = draw(st.integers(2, 3))
    if draw(st.booleans()):
        rows = np.eye(nin)  # deterministic: frequencies land on the tie values j/k
    else:
        nout = draw(st.integers(2, 3))
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


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(["zero_rate", "exhaustive", "pattern"]),
       trailing=st.booleans(),
       noisy=st.booleans(),
       k=st.integers(1, 6),
       alpha=st.sampled_from([1.0, 1.3, 2.0]),
       trials=st.integers(1, 30),
       seed=st.integers(0, 2**31 - 1),
       budget=st.sampled_from([1, 40, sim_mod._BATCH_SYMBOLS]),
       guard=st.sampled_from([10, sim_mod.ENUM_GUARD]))
def test_monte_carlo_matches_per_trial_oracle(scheme, trailing, noisy, k, alpha, trials, seed,
                                              budget, guard):
    # a 1-symbol budget puts every trial in a batch of its own, longer than
    # the budget; 40 symbols end batches mid-run; a guard of 10 patterns
    # trips on some trials inside a batch
    w = Dmc.bsc(0.1) if noisy else NOISELESS
    if scheme == "zero_rate":
        k *= 8
    cfg = SimConfig(k=k, alpha=alpha, trials=trials, seed=seed, mu=0.2)
    with mock.patch.object(sim_mod, "_BATCH_SYMBOLS", budget), \
            mock.patch.object(sim_mod, "ENUM_GUARD", guard):
        got = monte_carlo_error(scheme, cfg, w, leading_and_trailing=trailing)
        want = sim_oracle.monte_carlo_error(scheme, cfg, w, leading_and_trailing=trailing)
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
