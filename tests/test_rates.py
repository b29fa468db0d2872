"""Achievable-rate curves for the two decoding architectures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intermit import (
    Dmc,
    binary_entropy,
    blahut_capacity,
    exhaustive_decoding_rate,
    intermittency_overhead,
    mutual_information,
    noiseless_binary_rate,
    output_dist,
    pattern_decoding_rate,
)
from rates_oracle import (noiseless_search, overhead_search, overhead_stationarity,
                          pattern_rate_search)


@pytest.mark.parametrize("rate", [
    lambda w: intermittency_overhead(np.array([0.5, 0.5]), w, 1.5),
    lambda w: pattern_decoding_rate(w, 1.5),
], ids=["overhead", "r2"])
def test_channel_without_noise_input_is_refused(rate):
    with pytest.raises(ValueError, match="channel has no designated noise input"):
        rate(Dmc([[0.9, 0.1], [0.1, 0.9]]))


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
        assert abs(overhead_stationarity(bsc01.star_row(), bsc01, 1.5, res.beta_star)) < 1e-6

    def test_increasing_in_alpha(self, bsc01):
        p = np.array([0.5, 0.5])
        vals = [intermittency_overhead(p, bsc01, a).value for a in (1.2, 1.5, 1.8)]
        assert vals[0] < vals[1] < vals[2]

    def test_residual_nonzero_off_optimum(self, bsc01):
        res = intermittency_overhead(bsc01.star_row(), bsc01, 1.5)
        off = overhead_stationarity(bsc01.star_row(), bsc01, 1.5, res.beta_star / 2)
        assert abs(off) > 1e-3


@st.composite
def overhead_cases(draw):
    """A channel with 2-4 inputs and outputs, an input law and alpha in [1, 4];
    zero entries are common, so W* and PW often have zeros.  With
    `all_noise` the input is the noise symbol alone, so PW = W*."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    rows = np.array(draw(st.lists(st.lists(weight, min_size=m, max_size=m),
                                  min_size=n, max_size=n)))
    rows[rows.sum(axis=1) == 0.0, draw(st.integers(0, m - 1))] = 1.0
    star = draw(st.integers(0, n - 1))
    p = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    all_noise = draw(st.booleans()) or p.sum() == 0.0
    if all_noise:
        p = np.eye(n)[star]
    w = Dmc(rows / rows.sum(axis=1, keepdims=True), star=star)
    return w, p / p.sum(), draw(st.floats(1.0, 4.0)), all_noise


# alpha one ulp above 1, and PW = W* with a zero: beta* = 1/alpha leaves the
# grid search's split region only a rounding error wide
_EDGE = Dmc(np.array([[0.0, 2.0 / 3.0, 1.0 / 3.0], [1.0, 0.0, 0.0]]), star=0)


@settings(max_examples=15, deadline=None)
@given(overhead_cases())
@example((Dmc(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]), star=0), np.array([0.0, 1.0]),
          1.0000000000000002, False))
@example((_EDGE, np.array([1.0, 0.0]), 1.0000000000000002, True))
@example((_EDGE, np.array([1.0, 0.0]), 1.00390625, True))
def test_overhead_closed_form_matches_search(case):
    w, p, alpha, all_noise = case
    res = intermittency_overhead(p, w, alpha)
    value, beta = overhead_search(p, w, alpha)
    assert res.value == pytest.approx(value, abs=1e-12)
    assert res.beta_star == pytest.approx(beta, abs=1e-7)
    top = alpha * binary_entropy(1.0 / alpha)
    assert 0.0 <= res.value <= top + 1e-12
    if all_noise:
        assert res.value == pytest.approx(top, abs=1e-12)
    # the tilting constants are finite for beta below 1/alpha, W*(supp PW)
    # and PW(supp W*)/(alpha - 1)
    star, pw = w.star_row(), output_dist(p, w).probs
    if 1e-8 < res.beta_star < min(1.0 / alpha, star[pw > 0.0].sum(),
                                  pw[star > 0.0].sum() / (alpha - 1.0)) - 1e-8:
        assert abs(overhead_stationarity(p, w, alpha, res.beta_star)) < 1e-9
    # I(P, W) - f = alpha I(P', W) - alpha h(1/alpha), P' = P/alpha + (1 - 1/alpha) delta_*
    p_prime = p / alpha + (1.0 - 1.0 / alpha) * np.eye(w.input_size)[w.star]
    lhs = mutual_information(p, w) - res.value
    rhs = alpha * mutual_information(p_prime, w) - top
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(overhead_cases())
def test_pattern_rate_is_certified_maximum(case):
    w, _, alpha, _ = case
    res = pattern_decoding_rate(w, alpha)
    search, _ = pattern_rate_search(w, alpha)
    p = res.input_dist.probs
    objective = mutual_information(p, w) - intermittency_overhead(p, w, alpha).value
    assert res.rate + res.gap >= search - 1e-12
    assert res.rate >= search - 1e-9
    assert res.rate >= exhaustive_decoding_rate(w, alpha) - 1e-12
    assert res.rate == pytest.approx(max(objective, 0.0), abs=1e-9)
    assert 0.0 <= res.gap <= 1e-9


class TestPatternRate:
    def test_alpha_one_is_capacity(self, bsc01):
        res = pattern_decoding_rate(bsc01, 1.0)
        c = blahut_capacity(bsc01).capacity
        assert res.rate == pytest.approx(c, abs=1e-12)
        assert res.gap <= 1e-9

    def test_frozen_value(self, bsc01):
        res = pattern_decoding_rate(bsc01, 1.05)
        assert res.rate == pytest.approx(0.2675494277009187, abs=1e-7)
        assert res.gap <= 1e-9

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
        res = pattern_decoding_rate(w, 1.1)
        r1 = exhaustive_decoding_rate(w, 1.1)
        c = blahut_capacity(w).capacity
        assert r1 - 1e-9 <= res.rate <= c + 1e-9
        assert res.gap <= 1e-9

    def test_binding_run_is_certified_when_an_input_copies_the_noise_row(self):
        # input 1 repeats the noise row; with the plain update alone the
        # binding run used up its 100 000 iterations and left a gap of 5.8e-9
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.8366, 0.1634, 0.0]])
        res = pattern_decoding_rate(Dmc(rows, star=0), 2.65625)
        assert 0.0 <= res.gap <= 1e-9

    def test_ternary_closed_form(self):
        # the uniform capacity-achieving input puts 1/3 >= 1 - 1/1.1 on the
        # noise symbol, so R2 = alpha (C_W - h(1/alpha)) at alpha Q - (alpha-1) delta_*
        rows = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        w = Dmc(rows, star=0)
        res = pattern_decoding_rate(w, 1.1)
        row_entropy = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.1))
        expect = 1.1 * (math.log2(3.0) - row_entropy) - 1.1 * binary_entropy(1.0 / 1.1)
        assert res.rate == pytest.approx(expect, abs=1e-12)
        assert res.input_dist.probs == pytest.approx([4 / 15, 11 / 30, 11 / 30], abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_noiseless_closed_form(self, n):
        # slack up to alpha = n/(n-1), where the uniform input puts 1/n on
        # the noise symbol; beyond it P(*) = 0 and the other n-1 symbols
        # carry log2(n-1) bits
        w = Dmc.identity(n)
        for alpha in (1.0, 1.05, 1.2, n / (n - 1.0), 1.7, 2.0, 2.6, 4.0):
            if alpha <= n / (n - 1.0):
                expect = alpha * math.log2(n) - alpha * binary_entropy(1.0 / alpha)
            else:
                expect = math.log2(n - 1.0)
            assert pattern_decoding_rate(w, alpha).rate == pytest.approx(
                expect, abs=1e-12), alpha

    @pytest.mark.parametrize("flip", [0.0, 0.01, 0.1, 0.3])
    def test_bsc_closed_form(self, flip):
        w = Dmc.bsc(flip)
        for alpha in (1.0, 1.02, 1.1, 1.3, 1.6, 2.0):
            expect = max(alpha * (1.0 - binary_entropy(flip))
                         - alpha * binary_entropy(1.0 / alpha), 0.0)
            assert pattern_decoding_rate(w, alpha).rate == pytest.approx(
                expect, abs=1e-12), alpha


class TestNoiselessBinary:
    def test_endpoints(self):
        assert noiseless_binary_rate(1.0).rate == pytest.approx(1.0, abs=1e-6)
        assert noiseless_binary_rate(2.0).rate <= 1e-6

    def test_frozen_interior_value(self):
        res = noiseless_binary_rate(1.2)
        assert res.rate == pytest.approx(0.41997309402197525, abs=1e-9)
        assert res.p_zero == pytest.approx(0.4, abs=1e-5)

    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.8, 1.95])
    def test_closed_form_optimum(self, alpha):
        res = noiseless_binary_rate(alpha)
        assert res.p_zero == pytest.approx(1.0 - alpha / 2.0, abs=1e-7)
        assert res.beta == pytest.approx((2.0 - alpha) / alpha, abs=1e-7)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_search_oracle(self, alpha):
        # a coarser p0 grid only brackets the optimum sooner; the
        # golden-section polish sets the precision
        rate, p_zero, beta = noiseless_search(alpha, outer_coarse=65)
        res = noiseless_binary_rate(alpha)
        assert res.rate == pytest.approx(rate, abs=1e-12)
        assert res.p_zero == pytest.approx(p_zero, abs=1e-7)
        assert res.beta == pytest.approx(beta, abs=1e-7)

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
