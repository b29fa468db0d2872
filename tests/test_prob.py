"""Distribution containers, information measures, typicality."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoder_oracle import cond_typical, typical
from intermit import (
    Dmc,
    Pmf,
    binary_entropy,
    cond_divergence,
    cond_typical_rows,
    empirical_type,
    entropy,
    is_cond_typical,
    is_typical,
    kl_divergence,
    mutual_information,
    output_dist,
    typical_rows,
)

LOG2_9 = np.log2(9.0)


class TestPmf:
    def test_basic(self):
        p = Pmf(np.array([0.3, 0.7]))
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert len(p) == 2

    def test_renormalizes_small_drift(self):
        p = Pmf(np.array([0.3, 0.7 + 3e-10]))
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.3, 0.8]))

    def test_rejects_real_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([-0.1, 1.1]))

    def test_clips_tiny_negative(self):
        p = Pmf(np.array([1.0 + 5e-13, -5e-13]))
        assert p.probs[1] == 0.0

    def test_immutable(self):
        p = Pmf.uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    def test_point_mass(self):
        p = Pmf.point_mass(2, 4)
        assert p.probs.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_json_round_trip(self):
        p = Pmf(np.array([0.25, 0.5, 0.25]))
        q = Pmf.from_json(json.loads(json.dumps(p.to_json())))
        assert np.array_equal(p.probs, q.probs)


class TestDmc:
    def test_bsc(self):
        w = Dmc.bsc(0.1)
        assert w.rows.shape == (2, 2)
        assert w.star == 0
        assert np.array_equal(w.row(0), [0.9, 0.1])
        assert np.array_equal(w.star_row(), w.row(0))

    def test_identity(self):
        w = Dmc.identity(3, star=1)
        assert np.array_equal(w.rows, np.eye(3))
        assert w.star == 1

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            Dmc(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_bad_star(self):
        with pytest.raises(ValueError):
            Dmc(np.eye(2), star=5)

    def test_json_round_trip(self):
        w = Dmc.bsc(0.3, star=1)
        w2 = Dmc.from_json(json.loads(json.dumps(w.to_json())))
        assert np.array_equal(w.rows, w2.rows)
        assert w2.star == 1


def test_entropy_uniform():
    assert entropy(Pmf.uniform(8)) == pytest.approx(3.0, abs=1e-12)


def test_entropy_point_mass_zero():
    assert entropy(Pmf.point_mass(0, 5)) == 0.0


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # h(0.1) = -(0.1 log2 0.1 + 0.9 log2 0.9)
    expect = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
    assert binary_entropy(0.1) == pytest.approx(expect, abs=1e-15)


def test_binary_entropy_vectorized_and_domain():
    vals = binary_entropy(np.array([-0.1, 0.25, 1.2]))
    assert vals[0] == -np.inf and vals[2] == -np.inf
    assert vals[1] == pytest.approx(binary_entropy(0.25))


def test_kl_known_value():
    # rows of BSC(0.1) against each other: 0.8 log2 9
    assert kl_divergence([0.9, 0.1], [0.1, 0.9]) == pytest.approx(0.8 * LOG2_9, abs=1e-12)


def test_kl_support_mismatch_infinite():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf


def test_kl_zero_numerator_ok():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_output_dist_exact():
    w = Dmc.bsc(0.1)
    q = output_dist([0.3, 0.7], w)
    assert np.allclose(q.probs, [0.34, 0.66], atol=1e-15)


def test_mutual_information_bsc_uniform():
    w = Dmc.bsc(0.1)
    expect = 1.0 - binary_entropy(0.1)
    assert mutual_information([0.5, 0.5], w) == pytest.approx(expect, abs=1e-12)


def test_mutual_information_with_subnormal_input_mass():
    # the only input reaching output 1 has mass 1e-316, so PW(1) is subnormal
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    value = mutual_information([1.0, 1e-316], w)
    assert 0.0 <= value < 1e-300


def test_cond_divergence_skips_zero_rows():
    w = Dmc.bsc(0.2)
    wp = Dmc.bsc(0.3)
    d = cond_divergence(w, wp, [1.0, 0.0])
    assert d == pytest.approx(kl_divergence([0.8, 0.2], [0.7, 0.3]), abs=1e-12)


def test_empirical_type():
    t = empirical_type([0, 1, 1, 2, 1], 4)
    assert t.counts.tolist() == [1, 3, 1, 0]
    assert t.length == 5
    assert np.allclose(t.freqs.probs, [0.2, 0.6, 0.2, 0.0])


def test_is_typical_exact_type():
    assert is_typical([0, 1, 0, 1], [0.5, 0.5], mu=0.01)


def test_is_typical_rejects_far():
    assert not is_typical([1, 1, 1, 1], [0.5, 0.5], mu=0.2)


def test_is_typical_empty_sequence():
    assert is_typical([], [0.3, 0.7], mu=0.05)


def test_is_cond_typical():
    w = Dmc.identity(2, star=0)
    assert is_cond_typical([0, 1, 1], [0, 1, 1], w, mu=0.05)
    assert not is_cond_typical([1, 1, 1], [0, 1, 1], w, mu=0.05)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4),
       st.sampled_from([0.25, 1 / 3, 0.5, 0.1, 1 / 6]), st.integers(0, 2**32 - 1))
def test_row_typicality_matches_per_sequence(length, batch, mu, seed):
    # the batched tests decide every row as the per-sequence arithmetic does,
    # including on the tie values mu = j/length
    rng = np.random.default_rng(seed)
    w = Dmc(np.array([[0.5, 0.25, 0.25], [0.0, 1 / 3, 2 / 3]]))
    xs = rng.integers(0, 2, size=(batch, length))
    ys = rng.integers(0, 3, size=(batch, length))
    counts = np.array([np.bincount(row, minlength=3) for row in ys])
    joint = np.array([np.bincount(x * 3 + y, minlength=6).reshape(2, 3)
                      for x, y in zip(xs, ys)])
    pw = np.array([0.25, 0.25, 0.5])
    assert typical_rows(counts, pw, mu).tolist() == [typical(y, pw, mu) for y in ys]
    expect = [length == 0 or cond_typical(y, x, w.rows, mu) for x, y in zip(xs, ys)]
    assert cond_typical_rows(joint, w, mu).tolist() == expect


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds_random(weights):
    p = np.asarray(weights) / np.sum(weights)
    h = entropy(p)
    assert -1e-12 <= h <= np.log2(len(p)) + 1e-12


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative_random(wp, wq):
    n = min(len(wp), len(wq))
    p = np.asarray(wp[:n]) / np.sum(wp[:n])
    q = np.asarray(wq[:n]) / np.sum(wq[:n])
    assert kl_divergence(p, q) >= -1e-12
