"""Genie-aided converse bounds and capacity per unit cost."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intermit import (
    CostModel,
    Dmc,
    GenieBoundConfig,
    c1_limit,
    c1_upper,
    c2_upper,
    cpuc_lower,
    cpuc_upper,
    kl_divergence,
    pattern_decoding_rate,
    ppm_burst_length,
    z_pmf,
    z_quantile,
)

LOG2_9 = np.log2(9.0)


def test_config_validation():
    cfg = GenieBoundConfig(s=3, b_max=10, alpha=2.0)
    assert cfg.p_t == 0.5
    with pytest.raises(ValueError):
        GenieBoundConfig(s=0, b_max=5, alpha=1.5)
    with pytest.raises(ValueError):
        GenieBoundConfig(s=5, b_max=4, alpha=1.5)
    with pytest.raises(ValueError):
        GenieBoundConfig(s=3, b_max=10, alpha=0.5)


class TestBlockLengthPmf:
    def test_smallest_block(self):
        # z = s+1 happens only when every slot is occupied
        assert z_pmf(4, 3, 0.3) == pytest.approx(0.3**4, abs=1e-15)
        assert z_pmf(3, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

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


class TestFirstGenieBound:
    def test_no_intermittency_no_loss(self):
        for s in (2, 3, 5):
            cfg = GenieBoundConfig(s=s, b_max=8, alpha=1.0)
            assert c1_upper(cfg) == 1.0

    def test_frozen_values(self):
        assert c1_upper(GenieBoundConfig(3, 10, 1.5)) == pytest.approx(
            0.9059844301005351, abs=1e-9
        )
        assert c1_limit(3, 10) == pytest.approx(0.8407273969307965, abs=1e-9)

    def test_limit_bounds_the_sweep(self):
        lim = c1_limit(3, 10)
        vals = [c1_upper(GenieBoundConfig(3, 10, a)) for a in (1.0, 1.5, 2.0, 4.0)]
        assert np.all(np.diff(vals) <= 1e-12)
        assert all(v >= lim - 1e-12 for v in vals)
        assert all(v <= 1.0 for v in vals)


class TestSecondGenieBound:
    def test_no_intermittency_no_loss(self):
        for s in (2, 4, 6):
            assert c2_upper(s, 1.0) == 1.0

    def test_frozen_value(self):
        assert c2_upper(3, 1.5) == pytest.approx(0.9650975643971911, abs=1e-9)

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
    assert rate <= c1_upper(GenieBoundConfig(s, b_max, alpha)) + 1e-9
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

    def test_ppm_burst_length(self, bsc01):
        cost = CostModel(gamma=(0.0, 1.0), star=0)
        # at alpha = 1 the scheme's exponent is the plain divergence
        d1 = kl_divergence(bsc01.row(1), bsc01.star_row())
        expect1 = 2.0 * np.log2(16.0) / d1
        assert ppm_burst_length(bsc01, cost, 1.0, 16) == pytest.approx(expect1, abs=1e-9)
        # at alpha > 1 the burst dilutes the paid symbol into the noise row
        alpha = 2.0
        mix = bsc01.row(1) / alpha + (1 - 1 / alpha) * bsc01.star_row()
        d2 = kl_divergence(mix, bsc01.star_row())
        expect2 = 2.0 * np.log2(16.0) / (alpha * d2)
        assert ppm_burst_length(bsc01, cost, alpha, 16) == pytest.approx(expect2, abs=1e-9)
