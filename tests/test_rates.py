"""Achievable-rate curves for the two decoding architectures."""

import math

import numpy as np
import pytest

import intermit.rates as rates_mod
from intermit import (
    Dmc,
    binary_entropy,
    blahut_capacity,
    exhaustive_decoding_rate,
    intermittency_overhead,
    noiseless_binary_rate,
    overhead_stationarity,
    pattern_decoding_rate,
)


class TestExhaustiveRate:
    def test_alpha_one_is_capacity(self, bsc01):
        c = blahut_capacity(bsc01).capacity
        assert exhaustive_decoding_rate(bsc01, 1.0) == pytest.approx(c, abs=1e-12)

    def test_formula_noiseless(self):
        w = Dmc.identity(2, star=0)
        alpha = 1.25
        expect = 1.0 - alpha * binary_entropy(1.0 / alpha)
        assert exhaustive_decoding_rate(w, alpha) == pytest.approx(expect, abs=1e-9)

    def test_clamps_at_zero(self, bsc01):
        assert exhaustive_decoding_rate(bsc01, 2.0) == 0.0

    def test_capacity_override(self, bsc01):
        expect = max(0.7 - 1.5 * binary_entropy(1 / 1.5), 0.0)
        got = exhaustive_decoding_rate(bsc01, 1.5, capacity=0.7)
        assert got == pytest.approx(expect, abs=1e-12)


class TestOverhead:
    def test_alpha_one_vanishes(self, bsc01):
        res = intermittency_overhead(bsc01.star_row(), bsc01, 1.0)
        assert res.value == 0.0
        assert res.beta_star == 0.0

    def test_frozen_value(self, bsc01):
        res = intermittency_overhead(bsc01.star_row(), bsc01, 1.5)
        assert res.value == pytest.approx(1.3648393599545972, abs=1e-9)
        assert res.beta_star == pytest.approx(0.6593632232702759, abs=1e-6)
        assert abs(res.stationarity_residual) < 1e-6

    def test_increasing_in_alpha(self, bsc01):
        p = np.array([0.5, 0.5])
        vals = [intermittency_overhead(p, bsc01, a).value for a in (1.2, 1.5, 1.8)]
        assert vals[0] < vals[1] < vals[2]

    def test_residual_nonzero_off_optimum(self, bsc01):
        res = intermittency_overhead(bsc01.star_row(), bsc01, 1.5)
        off = overhead_stationarity(bsc01.star_row(), bsc01, 1.5, res.beta_star / 2)
        assert abs(off) > 1e-3


class TestPatternRate:
    def test_alpha_one_is_capacity(self, bsc01):
        res = pattern_decoding_rate(bsc01, 1.0)
        c = blahut_capacity(bsc01).capacity
        assert res.rate == pytest.approx(c, abs=1e-12)
        assert res.spread == 0.0

    def test_frozen_value(self, bsc01):
        res = pattern_decoding_rate(bsc01, 1.05)
        assert res.rate == pytest.approx(0.2675494277009187, abs=1e-7)
        assert res.spread == 0.0  # binary search path is deterministic

    def test_beats_exhaustive(self, bsc01):
        for alpha in (1.02, 1.05, 1.1):
            r1 = exhaustive_decoding_rate(bsc01, alpha)
            r2 = pattern_decoding_rate(bsc01, alpha).rate
            assert r2 >= r1 - 1e-9
        # strict separation where both are positive
        assert pattern_decoding_rate(bsc01, 1.05).rate > exhaustive_decoding_rate(
            bsc01, 1.05
        )

    def test_ternary_channel(self):
        rows = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        w = Dmc(rows, star=0)
        res = pattern_decoding_rate(w, 1.1, starts=8, seed=3)
        r1 = exhaustive_decoding_rate(w, 1.1)
        c = blahut_capacity(w).capacity
        assert r1 - 1e-9 <= res.rate <= c + 1e-9
        assert res.spread <= 1e-3

    def test_equal_starts_descend_once(self, monkeypatch):
        rows = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        w = Dmc(rows, star=0)
        # Blahut-Arimoto's capacity-achieving input is exactly uniform here
        assert np.array_equal(blahut_capacity(w).input_dist.probs, np.full(3, 1.0 / 3.0))
        real = rates_mod.pairwise_descent
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(rates_mod, "pairwise_descent", counted)
        res = pattern_decoding_rate(w, 1.1, starts=0)
        assert len(calls) == 1
        # the values of descending from both starts
        assert res.rate == pytest.approx(0.24589116080201212, abs=1e-12)
        assert res.input_dist.probs == pytest.approx(
            [0.2666676839192708, 0.36666615804036456, 0.36666615804036456], abs=1e-12
        )
        assert res.spread == 0.0


class TestNoiselessBinary:
    def test_endpoints(self):
        assert noiseless_binary_rate(1.0).rate == pytest.approx(1.0, abs=1e-6)
        assert noiseless_binary_rate(2.0).rate <= 1e-6

    def test_frozen_interior_value(self):
        res = noiseless_binary_rate(1.2)
        assert res.rate == pytest.approx(0.41997309402197525, abs=1e-9)
        assert res.p_zero == pytest.approx(0.4, abs=1e-5)

    def test_matches_pattern_rate_on_identity_channel(self):
        w = Dmc.identity(2, star=0)
        for alpha in (1.1, 1.3, 1.7):
            direct = noiseless_binary_rate(alpha).rate
            generic = pattern_decoding_rate(w, alpha).rate
            assert direct == pytest.approx(generic, abs=1e-9)

    def test_nonincreasing(self):
        alphas = np.arange(1.0, 2.0001, 0.1)
        vals = [noiseless_binary_rate(a).rate for a in alphas]
        assert np.all(np.diff(vals) <= 1e-9)
        assert all(0.0 <= v <= 1.0 for v in vals)
