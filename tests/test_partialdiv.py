"""Partial divergence and the two-source exponent: closed form, tilting
constant, and the grid-search oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intermit import (
    convexity_lower_bound,
    kl_divergence,
    mismatch_exponent,
    partial_divergence,
    partial_divergence_deriv,
    tilting_constant,
)
from intermit.errors import ConvergenceError
from intermit.partialdiv import _split, _tilt_root
from partialdiv_oracle import split_search, tilt_root_bisection

P4 = np.full(4, 0.25)
Q1 = np.array([0.1, 0.1, 0.1, 0.7])
PAIRS = [
    (np.array([0.5, 0.5]), np.array([0.25, 0.75])),
    (np.array([0.2, 0.8]), np.array([0.6, 0.4])),
    (P4, Q1),
    (np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])),
]
# P(supp Q) = 0.44059547...; the grid-search oracle returns +inf at rho = 0.44
NEAR_MASS_P = np.array([0.55940452, 0.23441942, 0.20617605]) / 0.99999999
NEAR_MASS_Q = np.array([0.0, 0.72720132, 0.27279868])


def test_rho_zero_is_exactly_zero():
    for p, q in PAIRS:
        assert partial_divergence(p, q, 0.0).value == 0.0


def test_rho_one_equals_kl_exactly():
    for p, q in PAIRS:
        assert partial_divergence(p, q, 1.0).value == kl_divergence(p, q)


def test_identical_distributions_give_zero_everywhere():
    p = np.array([0.3, 0.45, 0.25])
    for rho in np.linspace(0.01, 0.99, 33):
        r = partial_divergence(p, p, rho)
        assert abs(r.value) < 1e-12
        # optimal tilt for p == q is rho/(1-rho)
        assert r.tilt == pytest.approx(rho / (1.0 - rho), abs=1e-10)


def test_tilt_exceeds_trivial_value_when_distinct():
    for p, q in PAIRS:
        c = tilting_constant(p, q, 0.4)
        assert c > 0.4 / 0.6 + 1e-6


def test_tilting_constant_validates_input():
    with pytest.raises(ValueError):
        tilting_constant([0.5, 0.5], [1.0, 0.0], 0.3)
    with pytest.raises(ValueError):
        tilting_constant([0.5, 0.5], [0.5, 0.5], 0.0)
    with pytest.raises(ValueError):
        tilting_constant([0.5, 0.5], [0.5, 0.5], 1.0)


def test_non_pmf_vectors_are_refused():
    # the closed form of a p summing to 1.2 used to read -0.04 bits
    for p, q in (([0.5, 0.7], [0.5, 0.5]), ([0.5, 0.5], [0.6, 0.6]),
                 ([1.1, -0.1], [0.5, 0.5])):
        for f in (partial_divergence, convexity_lower_bound):
            with pytest.raises(ValueError, match="not a pmf"):
                f(p, q, 0.5)
        with pytest.raises(ValueError, match="not a pmf"):
            mismatch_exponent(p, q, [0.5, 0.5], 0.5)
        with pytest.raises(ValueError, match="not a pmf"):
            tilting_constant(p, q, 0.5)
    with pytest.raises(ValueError, match="not a pmf"):
        mismatch_exponent([0.5, 0.5], [0.5, 0.5], [0.5, 0.7], 0.5)


def test_pmfs_within_tolerance_are_used_as_given():
    p, q = np.array([0.5, 0.5]) * (1.0 + 1e-10), np.array([0.25, 0.75])
    assert partial_divergence(p, q, 0.3).value != partial_divergence(p / p.sum(), q, 0.3).value


def test_monotone_convex_bounded():
    rhos = np.linspace(0.0, 1.0, 101)
    for p, q in PAIRS:
        d_full = kl_divergence(p, q)
        vals = np.array([partial_divergence(p, q, r).value for r in rhos])
        assert np.all(np.diff(vals) >= -1e-9)
        assert np.all(np.diff(vals, 2) >= -1e-9)
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= rhos * d_full + 1e-9)


def test_derivative_matches_finite_difference():
    h = 1e-6
    zero_refs = [(np.array([0.5, 0.5]), np.array([1.0, 0.0])),
                 (np.array([0.2, 0.3, 0.5]), np.array([0.0, 0.5, 0.5])),
                 (NEAR_MASS_P, NEAR_MASS_Q)]
    for p, q in PAIRS + zero_refs:
        # fractions of P(supp Q), which is 1 for the strictly positive pairs
        for rho in p[q > 0.0].sum() * np.array([0.1, 0.35, 0.6, 0.9]):
            an = partial_divergence_deriv(p, q, rho)
            fd = (
                partial_divergence(p, q, rho + h).value
                - partial_divergence(p, q, rho - h).value
            ) / (2 * h)
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(an))
            assert an >= -1e-9


def test_mixture_bound_is_a_lower_bound():
    for p, q in PAIRS:
        for rho in np.linspace(0.05, 0.95, 19):
            lb = convexity_lower_bound(p, q, rho)
            val = partial_divergence(p, q, rho).value
            assert lb <= val + 1e-9


def test_closed_form_matches_grid_oracle():
    for p, q in PAIRS:
        for rho in (0.2, 0.5, 0.8):
            closed = partial_divergence(p, q, rho)
            oracle = split_search(p, q, p, rho)
            assert closed.value == pytest.approx(oracle, abs=1e-4)


def test_oracle_endpoints():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    qa = np.array([0.4, 0.4, 0.2])
    assert mismatch_exponent(p, q, qa, 0.0) == pytest.approx(kl_divergence(p, qa), abs=1e-12)
    assert mismatch_exponent(p, q, qa, 1.0) == pytest.approx(kl_divergence(p, q), abs=1e-12)


def test_zero_entry_reference_uses_oracle_path():
    # Q with a zero goes through the same closed form, checked here against
    # the grid-search oracle
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    r = partial_divergence(p, q, 0.3)
    assert np.isfinite(r.value)
    assert r.value == pytest.approx(split_search(p, q, p, 0.3), abs=1e-6)
    # mass on supp(q) is 0.5, so rho beyond it is infeasible
    assert partial_divergence(p, q, 0.7).value == np.inf


def _tilt_split_value(p, q, rho, c):
    """rho D(P1||Q) + (1-rho) D(P2||P) at the split the tilt c defines:
    rho P1 = c q p/(c q + p), (1-rho) P2 = p^2/(c q + p)."""
    p1 = c * q * p / (c * q + p) / rho
    p2 = p * p / (c * q + p) / (1.0 - rho)
    assert p1.sum() == pytest.approx(1.0, abs=1e-12)
    assert p2.sum() == pytest.approx(1.0, abs=1e-12)
    assert rho * p1 + (1.0 - rho) * p2 == pytest.approx(p, abs=1e-15)
    return rho * kl_divergence(p1, q) + (1.0 - rho) * kl_divergence(p2, p)


def test_zero_entry_near_support_mass_is_finite():
    p, q = NEAR_MASS_P, NEAR_MASS_Q
    for rho in np.arange(0.3, 0.4401, 0.02):
        r = partial_divergence(p, q, float(rho))
        assert math.isfinite(r.value) and math.isfinite(r.tilt)
        assert r.value == pytest.approx(_tilt_split_value(p, q, float(rho), r.tilt), abs=1e-12)
    assert partial_divergence(p, q, 0.44).value == pytest.approx(0.5174514378326652, abs=1e-12)


def test_value_at_and_beyond_support_mass():
    p = np.array([0.5, 0.25, 0.25])
    q = np.array([0.0, 0.5, 0.5])
    # at rho = P(supp Q) = 0.5 the only split is P1 = Q, P2 = point mass on 0:
    # sum_{supp Q} p log2(p/q) + h(1/2) = -0.5 + 1
    r = partial_divergence(p, q, 0.5)
    assert r.value == 0.5
    assert r.tilt == math.inf
    assert partial_divergence(p, q, 0.5 - 1e-12).value == pytest.approx(0.5, abs=1e-9)
    beyond = partial_divergence(p, q, 0.5 + 1e-12)
    assert beyond.value == math.inf
    assert beyond.tilt is None
    with pytest.raises(ValueError):
        partial_divergence_deriv(p, q, 0.5)


@st.composite
def zero_reference_cases(draw):
    """(P, Q, rho): Q on 2-4 symbols with at least one zero, P with mass
    P(supp Q) in [0.05, 0.95] (zeros allowed inside), rho <= P(supp Q) - 0.02."""
    n = draw(st.integers(2, 4))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    q = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    zero = draw(st.integers(0, n - 1))
    q[zero] = 0.0
    if q.sum() == 0.0:
        q[(zero + 1) % n] = 1.0
    on = q > 0.0
    p = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    mass = draw(st.floats(0.05, 0.95))
    for part, share in ((on, mass), (~on, 1.0 - mass)):
        if p[part].sum() == 0.0:
            p[np.flatnonzero(part)[0]] = 1.0
        p[part] *= share / p[part].sum()
    rho = draw(st.floats(0.01, 1.0)) * (p[on].sum() - 0.02)
    return p, q / q.sum(), rho


@settings(max_examples=40, deadline=None)
@given(zero_reference_cases())
def test_zero_reference_closed_form_matches_oracle(case):
    p, q, rho = case
    assert partial_divergence(p, q, rho).value == pytest.approx(
        split_search(p, q, p, rho), abs=1e-6)


def test_point_mass_reference_value():
    # with q = point mass at symbol 0, the split must put rho * P1 = rho * delta_0,
    # leaving P2 = (p - rho*delta_0)/(1-rho); the exponent is (1-rho) D(P2 || p).
    p = np.array([0.5, 0.5])
    rho = 0.3
    p2 = np.array([0.5 - rho, 0.5]) / (1.0 - rho)
    expect = (1.0 - rho) * kl_divergence(p2, p)
    assert partial_divergence(p, np.array([1.0, 0.0]), rho).value == pytest.approx(
        expect, abs=1e-9
    )


def test_mismatch_exponent_with_a_zero_of_the_second_law():
    # A = (0, 1) forces P1 = (7/9, 2/9), P2 = (0, 1): no grid point is
    # feasible at rho = 0.9, and the search finds the split from its
    # proportional start
    p, q, a = [0.7, 0.3], [0.6, 0.4], [0.0, 1.0]
    value = mismatch_exponent(p, q, a, 0.9)
    assert value == pytest.approx(0.0924774790, abs=1e-9)
    assert value == pytest.approx(0.9 * kl_divergence([7 / 9, 2 / 9], q), abs=1e-15)
    assert value == pytest.approx(split_search(p, q, a, 0.9), abs=1e-9)
    # at rho = 0.8 the grid holds P1(0) = 0.7/0.8 and the search is finite
    assert mismatch_exponent(p, q, a, 0.8) == pytest.approx(split_search(p, q, a, 0.8), abs=1e-9)
    # below the forced mass 0.7 no split exists
    assert mismatch_exponent(p, q, a, 0.6) == math.inf


def test_mismatch_exponent_near_support_mass():
    p, q = NEAR_MASS_P, NEAR_MASS_Q
    value = mismatch_exponent(p, q, p, 0.44)
    assert value == pytest.approx(0.5174514378, abs=1e-9)
    assert value == pytest.approx(split_search(p, q, p, 0.44), abs=1e-9)


def test_partial_divergence_is_mismatch_exponent_at_second_law_p():
    cases = PAIRS + [(np.array([0.5, 0.25, 0.25]), np.array([0.0, 0.5, 0.5])),
                     (NEAR_MASS_P, NEAR_MASS_Q)]
    for p, q in cases:
        mass = float(p[q > 0.0].sum())
        for rho in (0.0, 0.1, 0.3, 0.44, mass - 1e-9, min(mass, 1.0), 0.7, 1.0):
            assert partial_divergence(p, q, rho).value == mismatch_exponent(p, q, p, rho)


def _weights(draw, n):
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                               min_size=n, max_size=n)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum()


@st.composite
def split_cases(draw):
    """(P, Q, A, rho) on 2-4 symbols with zeros in every law; rho is drawn
    from [0.01, 0.99], or set to the forced mass P(A = 0) or to P(supp Q)."""
    n = draw(st.integers(2, 4))
    p, q, a = (_weights(draw, n) for _ in range(3))
    where = draw(st.sampled_from(["inside", "forced", "support"]))
    if where == "forced":
        rho = float(p[(a == 0.0) & (q > 0.0)].sum())
    elif where == "support":
        rho = float(p[q > 0.0].sum())
    else:
        rho = draw(st.floats(0.01, 0.99))
    return p, q, a, min(rho, 1.0)


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_mismatch_exponent_is_the_optimal_split(case):
    p, q, a, rho = case
    value, c = _split(p, q, a, rho)
    assert mismatch_exponent(p, q, a, rho) == value
    oracle = split_search(p, q, a, rho)
    if math.isfinite(oracle):
        assert value == pytest.approx(oracle, abs=1e-6)
    if not math.isfinite(value):
        return
    if rho in (0.0, 1.0):
        assert value == kl_divergence(p, a if rho == 0.0 else q)
    if not 0.01 <= rho <= 0.99:
        # the rebuilt P1 and P2 divide by rho and 1 - rho
        return
    # rebuild the split c defines: rho*P1 = P*c*Q/(c*Q + A), (1-rho)*P2 =
    # P*A/(c*Q + A), with every symbol wholly on one side in the limits
    on = p > 0.0
    u, v = np.zeros_like(p), np.zeros_like(p)
    if c == 0.0 or math.isinf(c):
        to_q = on & ((q > 0.0) if math.isinf(c) else (a == 0.0))
        u[to_q], v[on & ~to_q] = p[to_q], p[on & ~to_q]
    else:
        den = c * q[on] + a[on]
        u[on], v[on] = p[on] * c * q[on] / den, p[on] * a[on] / den
    p1, p2 = u / rho, v / (1.0 - rho)
    for part in (p1, p2):
        assert part.min() >= 0.0
        assert part.sum() == pytest.approx(1.0, abs=1e-12)
    assert rho * p1 + (1.0 - rho) * p2 == pytest.approx(p, abs=1e-15)
    objective = rho * kl_divergence(p1, q) + (1.0 - rho) * kl_divergence(p2, a)
    assert objective == pytest.approx(value, abs=1e-12)


@st.composite
def tilt_cases(draw):
    """(p, q, a, f): positive vectors on 1-7 symbols with entries down to
    1e-15, and the target as a fraction f of sum p."""
    n = draw(st.integers(1, 7))
    entry = st.floats(1e-15, 1.0)
    p, q, a = (np.array(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(3))
    return p, q, a, draw(st.floats(1e-12, 1.0 - 1e-12))


PQ = np.array([0.2, 0.3, 0.5])


@settings(max_examples=200, deadline=None)
@given(tilt_cases())
@example((PQ, PQ[::-1], PQ, 1.0 - 1e-12))
@example((PQ, PQ[::-1], PQ, 1e-12))
@example((np.array([0.3]), np.array([0.7]), np.array([0.2]), 0.6))
@example((PQ, PQ, PQ, 0.3))
# a subnormal a: p q / a overflows at c = 0, the first Newton step was NaN
@example((np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([1e-310, 1.0]), 0.6))
def test_tilt_root_matches_bisection(case):
    p, q, a, f = case
    target = f * p.sum()
    c, shift = _tilt_root(p, q, a, target)
    c = math.ldexp(c, -shift)
    assert abs(c * (p * q / (c * q + a)).sum() - target) <= 8 * math.ulp(target)
    # near f = 1 the root is ill-conditioned: a rounding of target moves it
    # by about eps * target / g'(c)
    eps = np.finfo(float).eps
    slope = (p * q * a / (c * q + a) ** 2).sum()
    hi = tilt_root_bisection(p, q, a, target)[1]
    assert abs(c - hi) <= 4 * (eps * target / slope + math.ulp(c))
    if np.array_equal(p, q) and np.array_equal(q, a):
        # P = Q (and A = P): c q / (c q + a) = c / (c + 1) = f, and
        # dc/df = (c + 1)^2
        assert abs(c - f / (1.0 - f)) <= 4 * eps * (c + 1.0) ** 2


def test_tilt_root_beyond_float_range_is_refused_without_warning():
    # c ~ sum p^2/q / (1 - rho) = 2.5e299 / 1e-10 exceeds the largest float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            partial_divergence([0.5, 0.5], [1e-300, 1.0 - 1e-300], 1.0 - 1e-10)
        with pytest.raises(ConvergenceError):
            _tilt_root(np.array([1.0]), np.array([1e-300]), np.array([1.0]), 1.0 - 1e-10)


def test_value_with_an_underflowing_log_term_is_finite():
    # c > 2.5e199, so p/(c q + p) for the 1e-160 symbol underflows to 0; the
    # value used to be -inf, with a divide-by-zero warning from log2
    p = np.array([0.5, 0.5 - 1e-160, 1e-160])
    q = np.array([1e-200, 0.5, 0.5 - 1e-200])
    rho = 0.9
    r = partial_divergence(p, q, rho)
    s = r.tilt * q + p
    expect = (math.fsum(p * (np.log2(p) - np.log2(s))) + rho * math.log2(r.tilt)
              - rho * math.log2(rho) - (1 - rho) * math.log2(1 - rho))
    assert r.value == pytest.approx(expect, abs=1e-12)


def _closed_form_60_digits(p, q, a, rho):
    """mismatch_exponent's closed form at 60 digits for positive p, q, a:
    the tilt root by bisection on log c, then the value at that root."""
    import mpmath

    with mpmath.workdps(60):
        p, q, a = ([mpmath.mpf(float(x)) for x in v] for v in (p, q, a))
        rho = mpmath.mpf(rho)

        def g(c):
            return c * mpmath.fsum(pi * qi / (c * qi + ai) for pi, qi, ai in zip(p, q, a))

        lo, hi = mpmath.mpf(2) ** -2000, mpmath.mpf(2) ** 1100
        for _ in range(400):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if g(mid) < rho else (lo, mid)
        value = mpmath.fsum(pi * mpmath.log(pi / (lo * qi + ai), 2)
                            for pi, qi, ai in zip(p, q, a))
        value += rho * mpmath.log(lo, 2) - rho * mpmath.log(rho, 2) - (1 - rho) * mpmath.log(1 - rho, 2)
        return float(value), float(lo)


@pytest.mark.parametrize("a0", [1e-310, 5e-324, 1e-306])
def test_subnormal_second_law_matches_60_digit_closed_form(a0):
    # a0 = 1e-310 and 5e-324 used to end in "tilting-constant solve failed:
    # c = 0.0, residual nan"; at 1e-310 the tilt root, 3e-310, is itself
    # subnormal, so p/(c q + a) overflows.  1e-306 worked and keeps its value.
    p, q, a = [0.5, 0.5], [0.5, 0.5], [a0, 1.0 - a0]
    value, c = _closed_form_60_digits(p, q, a, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mismatch_exponent(p, q, a, 0.3)
        tilt = _split(np.array(p), np.array(q), np.array(a), 0.3)[1]
    assert got == pytest.approx(value, rel=1e-15, abs=0)
    assert tilt == pytest.approx(c, rel=1e-9, abs=0)


def test_root_below_float_range_keeps_its_value():
    # the tilt root, about 2e-9 * 5e-324, is below the least float, yet the
    # value is taken at its scaled form
    value, _ = _closed_form_60_digits([0.5, 0.5], [0.5, 0.5], [5e-324, 1.0], 1e-9)
    assert mismatch_exponent([0.5, 0.5], [0.5, 0.5], [5e-324, 1.0], 1e-9) == pytest.approx(
        value, rel=1e-13, abs=0)
