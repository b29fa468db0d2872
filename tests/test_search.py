"""1-D and simplex maximization helpers."""

import math

import numpy as np

from intermit.search import golden_max, grid_golden_max, pairwise_descent
from partialdiv_oracle import simplex_grid


def test_golden_max_quadratic():
    x, v = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-8
    assert abs(v) < 1e-15


def test_golden_max_handles_neg_inf():
    def f(x):
        return -np.inf if x < 0.5 else -(x - 0.7) ** 2

    x, v = grid_golden_max(f, 0.0, 1.0, coarse=65)
    assert abs(x - 0.7) < 1e-6


def test_grid_golden_finds_global_peak():
    # two local maxima; the higher one sits near x = 0.9
    def f(x):
        return math.sin(12.0 * x) + 0.5 * x

    x, v = grid_golden_max(f, 0.0, 1.0, coarse=65)
    brute = max(np.linspace(0, 1, 200001), key=f)
    assert abs(v - f(brute)) < 1e-9


def test_simplex_grid_counts_and_sums():
    pts = simplex_grid(10, 3)
    assert len(pts) == math.comb(12, 2)
    arr = np.asarray(pts)
    assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
    assert arr.min() >= 0.0


def test_pairwise_descent_reaches_vertex_optimum():
    # minimize -p[2] over the simplex, i.e. push all mass onto one symbol
    x, v = pairwise_descent(lambda p: -p[2], np.full(3, 1 / 3), 0.25)
    assert abs(v + 1.0) < 1e-6
    assert abs(x[2] - 1.0) < 1e-6


def test_pairwise_descent_interior_optimum():
    target = np.array([0.2, 0.3, 0.5])

    def f(p):
        return float(np.sum((p - target) ** 2))

    x, v = pairwise_descent(f, np.full(3, 1 / 3), 0.25, tol=1e-10)
    assert np.allclose(x, target, atol=1e-4)
