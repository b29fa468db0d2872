"""Genie-aided converse bounds and capacity per unit cost."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intermit.bounds as bounds
from intermit import (
    CostModel,
    Dmc,
    c1_limit,
    c1_upper,
    c2_upper,
    cpuc_lower,
    cpuc_upper,
    insertion_loss,
    kl_divergence,
    pattern_decoding_rate,
    ppm_burst_length,
    z_pmf,
    z_quantile,
)

LOG2_9 = np.log2(9.0)


def test_config_validation():
    for args, message in (((0, 5, 1.5), "s must be >= 1"), ((5, 4, 1.5), "b_max must be >= s"),
                          ((3, 10, 0.5), "alpha must be >= 1"),
                          ((3, 10, math.nan), "alpha must be >= 1")):
        with pytest.raises(ValueError, match=message):
            c1_upper(*args)
    with pytest.raises(ValueError, match="b_max must be >= s"):
        c1_limit(5, 4)


class TestBlockLengthPmf:
    def test_smallest_block(self):
        # z = s+1 happens only when every slot is occupied
        assert z_pmf(4, 3, 0.3) == pytest.approx(0.3**4, abs=1e-15)
        assert z_pmf(3, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_long_spans(self, p):
        # C(1999, 999) used to overflow float before the powers shrank it
        z, s = 2000, 999
        b = z - 1
        log_pmf = (math.lgamma(b + 1) - math.lgamma(s + 1) - math.lgamma(b - s + 1)
                   + (s + 1) * math.log(p) + (b - s) * math.log1p(-p))
        assert z_pmf(z, s, p) == pytest.approx(math.exp(log_pmf), rel=1e-10)

    def test_below_support_rejected(self):
        with pytest.raises(ValueError):
            z_pmf(3, 3, 0.5)

    def test_normalization_and_mean(self):
        s, p = 4, 0.4
        zmax = z_quantile(s, p, tail=1e-14)
        zs = np.arange(s + 1, zmax + 1)
        pmf = np.array([z_pmf(int(z), s, p) for z in zs])
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert (zs * pmf).sum() == pytest.approx((s + 1) / p, abs=1e-6)

    def test_quantile_monotone_in_tail(self):
        assert z_quantile(3, 0.5, tail=1e-12) >= z_quantile(3, 0.5, tail=1e-6)

    @staticmethod
    def _tails_above(z: int, s: int, p: Fraction, tail: float) -> tuple:
        """Exactly, whether P(span > z-1) and P(span > z) exceed `tail`, with
        P(span > n) = P(Bin(n, p) <= s) put over the denominator b^z."""
        a, b = p.numerator, p.denominator
        c = b - a
        common = c ** (z - 1 - s)
        prev = b * common * sum(math.comb(z - 1, i) * a**i * c**(s - i) for i in range(s + 1))
        this = c * common * sum(math.comb(z, i) * a**i * c**(s - i) for i in range(s + 1))
        t = Fraction(tail)
        limit = t.numerator * b**z
        return prev * t.denominator > limit, this * t.denominator > limit

    def test_quantile_is_smallest_span_within_tail(self):
        # p = 0.001 reaches spans of 75 000 slots, where the exact sums take
        # most of the time
        for p in ("0.001", "0.01", "0.05", "0.1", "0.3", "0.5", "0.7", "0.9", "0.999"):
            for s in range(1, 20):
                for tail in (1e-3, 1e-6, 1e-9, 1e-12, 1e-14):
                    z = z_quantile(s, float(p), tail)
                    assert z >= s + 1
                    assert self._tails_above(z, s, Fraction(p), tail) == (True, False), \
                        (s, p, tail, z)

    def test_quantile_near_one_minus_tail(self):
        # one slot past a 1 - tail quantile rounded near 1: at s = 1, p_t = 0.3
        # exactly P(span > 101) = 1.0027e-14 and P(span > 102) = 7.09e-15
        assert z_quantile(1, 0.3, 1e-14) == 102
        assert z_quantile(15, 0.05, 1e-14) == 1331
        assert z_quantile(2, 0.01, 1e-14) == 3874

    def test_quantile_edges(self):
        assert z_quantile(3, 1.0) == 4
        assert z_quantile(3, 0.5, tail=1.0) == 4
        for s, p, tail in ((0, 0.5, 1e-6), (3, 0.0, 1e-6), (3, 1.5, 1e-6), (3, 0.5, 0.0)):
            with pytest.raises(ValueError):
                z_quantile(s, p, tail)


class TestFirstGenieBound:
    def test_no_intermittency_no_loss(self):
        for s in (2, 3, 5):
            assert c1_upper(s, 8, 1.0) == 1.0

    def test_frozen_values(self):
        assert c1_upper(3, 10, 1.5) == pytest.approx(
            0.9059844301005351, abs=1e-9
        )
        assert c1_limit(3, 10) == pytest.approx(0.8407273969307965, abs=1e-9)

    def test_limit_bounds_the_sweep(self):
        lim = c1_limit(3, 10)
        vals = [c1_upper(3, 10, a) for a in (1.0, 1.5, 2.0, 4.0)]
        assert np.all(np.diff(vals) <= 1e-12)
        assert all(v >= lim - 1e-12 for v in vals)
        assert all(v <= 1.0 for v in vals)

    @pytest.mark.parametrize("s, b_max", [(2, 6), (3, 10), (5, 12), (9, 17)])
    def test_infinite_alpha_is_the_limit(self, s, b_max, monkeypatch):
        # every term of the b sum vanishes, so only phi(s, b_max) is asked for
        asked = []

        def loss(a, b, **kwargs):
            asked.append((a, b))
            return insertion_loss(a, b, **kwargs)

        monkeypatch.setattr(bounds, "insertion_loss", loss)
        value = c1_upper(s, b_max, math.inf, allow_large=True)
        assert asked == [(s, b_max)]
        assert value == c1_limit(s, b_max, allow_large=True)
        assert value == 1.0 - insertion_loss(s, b_max, allow_large=True) / (s + 1)
        assert value == pytest.approx(c1_upper(s, b_max, 1e12, allow_large=True), abs=1e-9)


class TestSecondGenieBound:
    def test_no_intermittency_no_loss(self):
        for s in (2, 4, 6):
            assert c2_upper(s, 1.0) == 1.0

    def test_frozen_value(self):
        assert c2_upper(3, 1.5) == pytest.approx(0.9650975643971911, abs=1e-9)

    def test_infinite_alpha_is_the_limit(self):
        # as alpha -> infinity only the a = 1 term is left: 1 - phi(1, s)
        for s in (2, 3, 6):
            assert c2_upper(s, math.inf) == 1.0 - insertion_loss(1, s)
            assert c2_upper(s, math.inf) == pytest.approx(c2_upper(s, 1e12), abs=1e-9)

    def test_tightens_with_larger_window(self):
        vals = [c2_upper(s, 1.5) for s in range(3, 7)]
        assert np.all(np.diff(vals) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 4.0),
       st.integers(1, 8).flatmap(lambda s: st.tuples(st.just(s), st.integers(s, 12))))
def test_pattern_rate_below_both_genie_bounds(alpha, window):
    # an achievable rate of the noiseless binary channel never exceeds a
    # converse bound on its capacity; R2 is certified to 1e-9 bits
    s, b_max = window
    rate = pattern_decoding_rate(Dmc.identity(2), alpha).rate
    assert rate <= c1_upper(s, b_max, alpha) + 1e-9
    assert rate <= c2_upper(s, alpha) + 1e-9


class TestCostCapacity:
    def test_upper_bsc(self, bsc01):
        cost = CostModel(gamma=(0.0, 1.0), star=0)
        res = cpuc_upper(bsc01, cost)
        assert res.value == pytest.approx(0.8 * LOG2_9, abs=1e-12)
        assert res.best_symbol == 1
        assert res.degenerate_symbols == ()

    def test_lower_at_alpha_one_is_half_upper(self, bsc01):
        cost = CostModel(gamma=(0.0, 1.0), star=0)
        up = cpuc_upper(bsc01, cost).value
        lo = cpuc_lower(bsc01, cost, 1.0).value
        assert lo == pytest.approx(up / 2.0, abs=1e-9)

    def test_lower_nonincreasing_and_dominated(self, bsc01):
        cost = CostModel(gamma=(0.0, 1.0), star=0)
        up = cpuc_upper(bsc01, cost).value
        vals = [cpuc_lower(bsc01, cost, a).value for a in (1.0, 2.0, 3.0, 5.0)]
        assert np.all(np.diff(vals) <= 1e-12)
        assert all(v <= up / 2.0 + 1e-12 for v in vals)

    def test_zero_cost_informative_symbol_flagged(self):
        rows = np.array([[0.8, 0.2], [0.1, 0.9], [0.6, 0.4]])
        w = Dmc(rows, star=0)
        cost = CostModel(gamma=(0.0, 1.0, 0.0), star=0)
        res = cpuc_upper(w, cost)
        assert 2 in res.degenerate_symbols
        assert res.value == np.inf

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(gamma=(0.5, 1.0), star=0)  # star must cost nothing
        with pytest.raises(ValueError):
            CostModel(gamma=(0.0, -1.0), star=0)
        with pytest.raises(ValueError, match="costs must be nonnegative numbers"):
            CostModel(gamma=(0.0, float("nan")), star=0)  # used to pass

    def test_ppm_burst_length(self, bsc01):
        cost = CostModel(gamma=(0.0, 1.0), star=0)
        # at alpha = 1 the scheme's exponent is the plain divergence
        d1 = kl_divergence(bsc01.rows[1], bsc01.star_row())
        expect1 = 2.0 * np.log2(16.0) / d1
        assert ppm_burst_length(bsc01, cost, 1.0, 16) == pytest.approx(expect1, abs=1e-9)
        # at alpha > 1 the burst dilutes the paid symbol into the noise row
        alpha = 2.0
        mix = bsc01.rows[1] / alpha + (1 - 1 / alpha) * bsc01.star_row()
        d2 = kl_divergence(mix, bsc01.star_row())
        expect2 = 2.0 * np.log2(16.0) / (alpha * d2)
        assert ppm_burst_length(bsc01, cost, alpha, 16) == pytest.approx(expect2, abs=1e-9)
