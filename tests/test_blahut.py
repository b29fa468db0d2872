"""Certified capacity iteration and the orthogonal-union formula."""

import numpy as np
import pytest
from scipy import sparse

from intermit import (Dmc, binary_entropy, blahut_capacity, mutual_information,
                      union_capacity)


def test_bsc_capacity_closed_form():
    for p in (0.05, 0.1, 0.25, 0.4):
        res = blahut_capacity(Dmc.bsc(p))
        assert res.converged
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


def test_all_zero_output_column_pruned():
    m = np.array([[0.5, 0.0, 0.5], [0.1, 0.0, 0.9]])
    res = blahut_capacity(m)
    two_col = blahut_capacity(m[:, [0, 2]])
    assert res.capacity == pytest.approx(two_col.capacity, abs=1e-10)


def test_max_iter_exhaustion_reports_not_converged():
    # Z-channel: the optimal input is asymmetric, so the uniform start
    # cannot certify optimality within a couple of iterations
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    res = blahut_capacity(z, tol=1e-15, max_iter=3)
    assert not res.converged
    assert res.gap > 1e-15


def test_exhausted_run_reports_its_own_input():
    # the bounds and `input_dist` come from the same iterate
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    res = blahut_capacity(z, tol=1e-15, max_iter=3)
    assert res.capacity == pytest.approx(mutual_information(res.input_dist.probs, z), abs=1e-14)


def test_offset_maximizes_information_plus_offset():
    # I(r, W) + sum_x r(x) b(x) over a grid of binary inputs
    z = np.array([[1.0, 0.0], [0.3, 0.7]])
    b = np.array([0.0, 0.4])
    res = blahut_capacity(z, tol=1e-12, offset=b)
    grid = np.linspace(0.0, 1.0, 20001)
    best = max(mutual_information([1.0 - t, t], z) + 0.4 * t for t in grid)
    value = mutual_information(res.input_dist.probs, z) + res.input_dist.probs @ b
    assert res.converged
    assert res.capacity == pytest.approx(value, abs=1e-12)
    assert best - 1e-12 <= res.capacity + res.gap
    assert res.capacity >= best - 1e-9
    assert res.input_dist.probs[1] > blahut_capacity(z).input_dist.probs[1]


def test_union_capacity():
    assert union_capacity([1.5]) == pytest.approx(1.5, abs=1e-12)
    # two equal-capacity orthogonal channels gain exactly one bit
    assert union_capacity([2.0, 2.0]) == pytest.approx(3.0, abs=1e-12)
    assert union_capacity([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    # a dominant branch swamps a tiny one
    assert union_capacity([10.0, 0.0]) == pytest.approx(np.log2(2**10 + 1), abs=1e-12)
