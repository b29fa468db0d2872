"""Certified capacity iteration and the orthogonal-union formula."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import intermit.blahut as blahut_mod
from blahut_oracle import plain_blahut_capacity
from insertion_oracle import unfolded_class_channel, uniform_insertion_channel
from intermit import (ConvergenceError, Dmc, binary_entropy, blahut_capacity,
                      mutual_information, union_capacity)


def test_bsc_capacity_closed_form():
    for p in (0.05, 0.1, 0.25, 0.4):
        res = blahut_capacity(Dmc.bsc(p))
        assert res.gap < 1e-9
        assert res.capacity == pytest.approx(1.0 - binary_entropy(p), abs=1e-8)
        assert np.allclose(res.input_dist.probs, 0.5, atol=1e-4)


def test_noiseless_capacity_is_log_alphabet():
    for n in (2, 3, 5, 8):
        res = blahut_capacity(Dmc.identity(n))
        assert res.capacity == pytest.approx(np.log2(n), abs=1e-9)


def test_useless_channel_capacity_zero():
    w = np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    res = blahut_capacity(w)
    assert res.capacity == pytest.approx(0.0, abs=1e-9)


def test_certificate_gap_and_history():
    res = blahut_capacity(Dmc.bsc(0.12), tol=1e-10)
    assert res.gap <= 1e-10
    hist = np.asarray(res.lb_history)
    assert np.all(np.diff(hist) >= -1e-13)
    assert res.iterations == len(hist)


def test_sparse_matches_dense():
    rng = np.random.default_rng(5)
    m = rng.dirichlet(np.ones(6), size=4)
    dense = blahut_capacity(m).capacity
    sp = blahut_capacity(sparse.csr_matrix(m)).capacity
    assert sp == pytest.approx(dense, abs=1e-9)


def test_raw_matrix_with_nan_is_refused():
    with pytest.raises(ValueError, match="rows must each sum to 1"):
        blahut_capacity(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_all_zero_output_column_pruned():
    m = np.array([[0.5, 0.0, 0.5], [0.1, 0.0, 0.9]])
    res = blahut_capacity(m)
    two_col = blahut_capacity(m[:, [0, 2]])
    assert res.capacity == pytest.approx(two_col.capacity, abs=1e-10)


def test_max_iter_exhaustion_reports_not_converged(monkeypatch):
    # Z-channel: the optimal input is asymmetric, so the uniform start
    # cannot certify optimality within a couple of iterations
    monkeypatch.setattr(blahut_mod, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError):
        blahut_capacity(np.array([[1.0, 0.0], [0.3, 0.7]]), tol=1e-15)


def test_exhausted_run_reports_its_own_input(monkeypatch):
    # the refusal names the channel's shape (all-zero columns included), the
    # iterations run and the gap reached
    monkeypatch.setattr(blahut_mod, "_MAX_ITER", 3)
    z = np.array([[1.0, 0.0, 0.0], [0.3, 0.7, 0.0]])
    with pytest.raises(ConvergenceError, match=r"on a 2 x 3 channel stopped after 3 "
                                               r"iterations with gap 0\.0[0-9]+ bits"):
        blahut_capacity(z)


def test_underflowed_output_is_refused_at_once():
    # the first column's mass, 5e-324 / 3, underflows to 0 in t = rW at the
    # uniform start, so every bound is NaN from the first iterate
    m = np.array([[5e-324, 0.7, 0.3], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"broke down at iteration 1: its gap is NaN"):
            blahut_capacity(m)


def test_bounds_and_input_come_from_one_iterate():
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    res = blahut_capacity(z)
    assert res.capacity == pytest.approx(mutual_information(res.input_dist.probs, z), abs=1e-14)


def test_offset_maximizes_information_plus_offset():
    # I(r, W) + sum_x r(x) b(x) over a grid of binary inputs
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    b = np.array([0.0, 0.4])
    res = blahut_capacity(z, tol=1e-12, offset=b)
    grid = np.linspace(0.0, 1.0, 20001)
    best = max(mutual_information([1.0 - t, t], z) + 0.4 * t for t in grid)
    value = mutual_information(res.input_dist.probs, z) + res.input_dist.probs @ b
    assert res.gap < 1e-12
    assert res.capacity == pytest.approx(value, abs=1e-12)
    assert best - 1e-12 <= res.capacity + res.gap
    assert res.capacity >= best - 1e-9
    assert res.input_dist.probs[1] > blahut_capacity(z).input_dist.probs[1]


def test_nearly_tied_inputs_converge():
    # the first and last rows nearly coincide and the middle input is nearly
    # useless, so the plain iteration slows to 1/n: 100 000 iterations leave
    # a gap of 2e-6 bits
    w = np.array([[0.61599, 0.0, 0.38401, 0.0],
                  [0.15209, 0.54856, 0.0, 0.29935],
                  [0.61601, 0.0, 0.38399, 0.0]])
    res = blahut_capacity(w)
    assert res.gap <= 1e-9
    assert res.iterations <= 1_000
    assert res.capacity == pytest.approx(mutual_information(res.input_dist.probs, w), abs=1e-14)


def test_without_newton_steps_the_loop_is_the_plain_iteration(monkeypatch):
    # no support is small enough for a Newton step and the update is never
    # over-relaxed, so every iteration takes the plain Blahut-Arimoto update:
    # the same floats as the oracle
    monkeypatch.setattr(blahut_mod, "_NEWTON_MAX_SUPPORT", 1)
    monkeypatch.setattr(blahut_mod, "_RELAX_MAX", 1)
    w = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
    for offset in (None, [0.0, 0.3, 0.1]):
        res = blahut_capacity(w, tol=1e-12, offset=offset)
        ref = plain_blahut_capacity(w, tol=1e-12, offset=offset)
        assert res.lb_history == ref.lb_history
        assert np.array_equal(res.input_dist.probs, ref.input_dist.probs)


def test_relaxed_update_keeps_every_input_positive():
    # the middle input's offset is 100 bits below the others', so the relaxed
    # update exp(mu (d - max d)) at mu = 16 would take its mass to exactly 0,
    # from which no multiplicative update brings it back
    w = np.array([[0.25, 0.2, 0.15, 0.4], [0.2, 0.0, 0.2, 0.6], [0.25, 0.3, 0.4, 0.05]])
    offset = [100.0, 0.0, 100.0]
    res = blahut_capacity(w, offset=offset)
    ref = plain_blahut_capacity(w, offset=offset)
    assert res.gap < 1e-9
    assert (res.input_dist.probs > 0.0).all()
    assert ref.capacity - 1e-12 <= res.capacity <= ref.capacity + ref.gap + 1e-12


def test_start_law():
    w = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
    # equal weights are the default uniform start, float for float
    default = blahut_capacity(w, tol=1e-12)
    even = blahut_capacity(w, tol=1e-12, start=[2.0, 2.0, 2.0])
    assert even.lb_history == default.lb_history
    assert np.array_equal(even.input_dist.probs, default.input_dist.probs)
    # the first lower bound is the information of the normalized start
    skewed = blahut_capacity(w, tol=1e-12, start=[1.0, 2.0, 5.0])
    first = mutual_information(np.array([1.0, 2.0, 5.0]) / 8.0, w)
    assert skewed.lb_history[0] == pytest.approx(first, abs=1e-14)
    assert skewed.capacity == pytest.approx(default.capacity, abs=1e-12)
    for bad in ([1.0, 2.0], [1.0, 0.0, 1.0], [1.0, np.inf, 1.0]):
        with pytest.raises(ValueError):
            blahut_capacity(w, start=bad)


def test_hessian_chunks_do_not_change_the_result(monkeypatch):
    # one output column per chunk against the whole channel in one chunk
    w, _, _ = unfolded_class_channel(6, 10, 3)
    whole = blahut_capacity(w, tol=1e-12)
    assert whole.iterations < plain_blahut_capacity(w, tol=1e-12).iterations
    monkeypatch.setattr(blahut_mod, "_CHUNK_ENTRIES", 1)
    chunked = blahut_capacity(w, tol=1e-12)
    assert chunked.capacity == pytest.approx(whole.capacity, abs=1e-12)
    assert chunked.gap < 1e-12


def test_full_insertion_channel_matches_plain_iteration():
    # the full channel is a disjoint union of weight classes, so its Hessian
    # is block diagonal and the Newton step has to move mass between blocks
    w = uniform_insertion_channel(4, 6).rows
    res = blahut_capacity(w)
    ref = plain_blahut_capacity(w)
    assert res.gap < 1e-9
    assert ref.capacity - 1e-12 <= res.capacity <= ref.capacity + ref.gap + 1e-14


@st.composite
def channels(draw):
    """A channel with 2-6 inputs and outputs, often with zero entries and a
    duplicated row, and an optional per-input offset in bits."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    rows = np.array(draw(st.lists(st.lists(weight, min_size=m, max_size=m),
                                  min_size=n, max_size=n)))
    rows[rows.sum(axis=1) == 0.0, draw(st.integers(0, m - 1))] = 1.0
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = rows[draw(st.integers(0, n - 1))]
    offset = draw(st.one_of(st.none(), st.lists(st.floats(-1.0, 1.0), min_size=n,
                                                 max_size=n)))
    return rows / rows.sum(axis=1, keepdims=True), offset


@settings(max_examples=40, deadline=None)
@given(channels())
def test_newton_steps_match_plain_iteration(case):
    # certified to 1e-12, the accelerated run is within 1e-12 of the capacity,
    # so at least the oracle's lower bound less 1e-12 and at most its upper
    # bound; the plain loop would need up to 1e12 iterations for that
    w, offset = case
    res = blahut_capacity(w, tol=1e-12, offset=offset)
    ref = plain_blahut_capacity(w, offset=offset)
    assert res.gap < 1e-12
    assert np.all(np.diff(res.lb_history) >= -1e-13)
    assert res.capacity >= ref.capacity - 1e-12
    assert res.capacity <= ref.capacity + ref.gap + 1e-14  # the gap's rounding
    csr = blahut_capacity(sparse.csr_matrix(w), tol=1e-12, offset=offset)
    assert csr.gap < 1e-12
    assert csr.capacity == pytest.approx(res.capacity, abs=1e-12)


def test_union_capacity():
    assert union_capacity([1.5]) == pytest.approx(1.5, abs=1e-12)
    # two equal-capacity orthogonal channels gain exactly one bit
    assert union_capacity([2.0, 2.0]) == pytest.approx(3.0, abs=1e-12)
    assert union_capacity([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    # a dominant branch swamps a tiny one
    assert union_capacity([10.0, 0.0]) == pytest.approx(np.log2(2**10 + 1), abs=1e-12)
