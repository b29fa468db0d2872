"""End-to-end acceptance suite.

Each test is one observable guarantee of the toolkit, checked at a pinned
tolerance.  Run with -v to get one pass/fail line per guarantee.  The
full-size long-window reproduction is marked `paper_scale` (about 10 s on
2 vCPUs); it runs by default, and -m 'not paper_scale' leaves it out.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from decoder_oracle import enumerate_exact_error
from insertion_oracle import uniform_insertion_channel
from intermit import (
    CostModel,
    Dmc,
    SimConfig,
    blahut_capacity,
    c1_limit,
    c1_upper,
    c2_upper,
    convexity_lower_bound,
    cpuc_lower,
    cpuc_upper,
    exhaustive_decoding_rate,
    insertion_capacity,
    insertion_capacity_upper,
    kl_divergence,
    monte_carlo_error,
    negbinom_pmf,
    noiseless_binary_rate,
    partial_divergence,
    partial_divergence_deriv,
    pattern_decoding_rate,
    sample_receive_lengths,
)
from intermit.cli import main as cli_main
from partialdiv_oracle import split_search


def _random_pair(rng, n):
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    q = np.clip(q, 0.02, None)
    return p, q / q.sum()


@pytest.fixture(scope="module")
def insertion_rate_curve():
    """alpha -> noiseless binary pattern rate, on a 0.05 grid over [1, 2]."""
    alphas = np.round(np.arange(1.0, 2.0001, 0.05), 10)
    return {float(a): noiseless_binary_rate(float(a)).rate for a in alphas}


def test_01_closed_form_agrees_with_splitting_oracle():
    """Stable closed form vs. independent constrained-split minimization,
    50 random pairs over alphabets of size 2-4, nine occupancy levels."""
    rng = np.random.default_rng(20260814)
    sizes = [2] * 17 + [3] * 17 + [4] * 16
    worst = 0.0
    for n in sizes:
        p, q = _random_pair(rng, n)
        for rho in np.arange(0.1, 0.91, 0.1):
            closed = partial_divergence(p, q, float(rho)).value
            oracle = split_search(p, q, p, float(rho))
            worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-4, f"worst closed-form/oracle gap {worst:.3e}"


def test_02_partial_divergence_shape_suite():
    """Endpoints exact, identity, monotonicity, convexity, linear upper
    bound, mixture lower bound, derivative vs. finite differences."""
    rng = np.random.default_rng(7)
    pairs = [_random_pair(rng, n) for n in (2, 2, 3, 3, 4)]
    rhos = np.linspace(0.0, 1.0, 100)
    for p, q in pairs:
        d_full = kl_divergence(p, q)
        vals = np.array([partial_divergence(p, q, float(r)).value for r in rhos])
        assert vals[0] == 0.0
        assert partial_divergence(p, q, 1.0).value == d_full
        assert np.all(np.diff(vals) >= -1e-9)
        assert np.all(np.diff(vals, 2) >= -1e-9)
        assert np.all(vals >= -1e-12) and np.all(vals <= rhos * d_full + 1e-9)
        for rho in np.arange(0.1, 0.91, 0.1):
            rho = float(rho)
            assert convexity_lower_bound(p, q, rho) <= partial_divergence(
                p, q, rho
            ).value + 1e-9
            an = partial_divergence_deriv(p, q, rho)
            h = 1e-6
            fd = (
                partial_divergence(p, q, rho + h).value
                - partial_divergence(p, q, rho - h).value
            ) / (2 * h)
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(an))
    # splitting P into rho P + (1-rho) P shows the value must vanish
    p = np.array([0.3, 0.45, 0.25])
    for rho in np.linspace(0.01, 0.99, 100):
        assert abs(partial_divergence(p, p, float(rho)).value) <= 1e-12


def test_03_four_letter_example_curves():
    """Two reference four-letter targets: curves start at zero, grow
    convexly, and end at their full divergences in the right order."""
    p = np.full(4, 0.25)
    q_far = np.array([0.1, 0.1, 0.1, 0.7])
    q_near = np.array([0.1, 0.4, 0.1, 0.4])
    rhos = np.linspace(0.0, 1.0, 101)
    curves = {}
    for name, q in (("far", q_far), ("near", q_near)):
        vals = np.array([partial_divergence(p, q, float(r)).value for r in rhos])
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-9)
        assert np.all(np.diff(vals, 2) >= -1e-9)
        curves[name] = vals
    assert curves["far"][-1] == pytest.approx(0.6200893643729612, abs=1e-9)
    assert curves["near"][-1] == pytest.approx(0.3219280948873623, abs=1e-9)
    assert curves["far"][-1] > curves["near"][-1]


def test_04_insertion_counts_exact_small_table():
    """The 2->3 zero-insertion channel, enumerated exactly."""
    expected = (
        np.array(
            [
                [3, 0, 0, 0, 0, 0, 0, 0],
                [0, 2, 1, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 2, 0, 0, 0],
                [0, 0, 0, 1, 0, 1, 1, 0],
            ]
        )
        / 3.0
    )
    ch = uniform_insertion_channel(2, 3)
    assert np.array_equal(np.asarray(ch.rows), expected)


def test_05_auxiliary_capacity_grid_properties():
    """g(a, b) over the full desk-size triangle: anchors, monotonicity,
    nonnegative loss, dominating upper bound, and agreement between the
    class-decomposition and direct constructions."""
    g = {}
    for b in range(1, 11):
        for a in range(1, b + 1):
            res = insertion_capacity(a, b)
            g[a, b] = res.capacity
            assert res.loss >= 0.0, (a, b)
            assert insertion_capacity_upper(a, b) >= res.capacity - 1e-7, (a, b)
    for a in range(1, 11):
        assert g[a, a] == pytest.approx(a, abs=5e-9)
    for b in range(1, 11):
        assert g[1, b] == pytest.approx(1.0, abs=5e-9)
    for (a, b), val in g.items():
        if (a + 1, b) in g:
            assert g[a + 1, b] >= val - 1e-7, (a, b)
        if (a, b + 1) in g:
            assert g[a, b + 1] <= val + 1e-7, (a, b)
    direct = blahut_capacity(uniform_insertion_channel(2, 3)).capacity
    assert abs(direct - g[2, 3]) <= 1e-6


@pytest.mark.paper_scale
def test_06_long_window_limit_full_size(tmp_path):
    """Full-size long-window limit of the first genie bound, via the CLI,
    swept over every feasible revealed span at the largest computable
    window: the tightest value reproduces the pinned reference 0.6739
    (attained at span 9; the limit curve is unimodal in the span)."""
    limits = {}
    for s in range(2, 17):
        out = tmp_path / f"c1_limit_{s}.csv"
        code = cli_main(
            ["upper-bound", "c1", "--s", str(s), "--bmax", "17", "--limit",
             "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().split("\n")[-1].split(",")
        assert row[2] == "inf"
        limits[s] = float(row[3])
    best_s = min(limits, key=limits.get)
    assert best_s == 9
    assert limits[best_s] == pytest.approx(0.6739, abs=5e-4)


def test_06_long_window_limit_desk_proxy():
    """Desk-size stand-in for the full-size limit: the limit tightens
    monotonically as the window grows and stays in (0, 1]."""
    vals = [c1_limit(3, b) for b in range(3, 11)]
    assert vals[0] == pytest.approx(1.0, abs=5e-9)
    assert np.all(np.diff(vals) <= 1e-9)
    assert all(0.0 < v <= 1.0 + 1e-12 for v in vals)


def test_07_rate_curves(insertion_rate_curve):
    """Exhaustive-decoding rate equals capacity without intermittency;
    the pattern rate dominates it; the noiseless binary curve anchors at
    1 and 0 and never increases."""
    for p_flip in (0.0, 0.05, 0.1):
        w = Dmc.bsc(p_flip)
        cap = blahut_capacity(w).capacity
        assert exhaustive_decoding_rate(w, 1.0) == pytest.approx(cap, abs=1e-12)
        for alpha in np.round(np.arange(1.0, 2.001, 0.1), 10):
            r1 = exhaustive_decoding_rate(w, float(alpha))
            r2 = pattern_decoding_rate(w, float(alpha)).rate
            assert r2 >= r1 - 1e-9, (p_flip, alpha)
    curve = insertion_rate_curve
    alphas = sorted(curve)
    assert curve[1.0] == pytest.approx(1.0, abs=1e-6)
    assert curve[2.0] <= 1e-6
    vals = [curve[a] for a in alphas]
    assert np.all(np.diff(vals) <= 1e-8)


def test_08_genie_bounds_dominate_achievable_rates(insertion_rate_curve):
    """Both genie bounds sit strictly between the achievable noiseless
    rate and 1, and the second bound tightens with the revealed span."""
    for alpha in np.round(np.arange(1.1, 2.001, 0.1), 10):
        alpha = float(alpha)
        rate = insertion_rate_curve[alpha]
        b1 = c1_upper(3, 10, alpha)
        b2 = c2_upper(3, alpha)
        assert rate < b1 <= 1.0, alpha
        assert rate < b2 <= 1.0, alpha
    c2s = [c2_upper(s, 1.5) for s in range(3, 11)]
    assert np.all(np.diff(c2s) <= 1e-12)


def test_09_cost_capacity_values():
    """Capacity per unit cost of the flip channel: pinned upper value,
    halving at no intermittency, and monotone degradation."""
    w = Dmc.bsc(0.1)
    cost = CostModel(gamma=(0.0, 1.0), star=0)
    up = cpuc_upper(w, cost).value
    assert up == pytest.approx(2.536, abs=1e-3)
    assert cpuc_lower(w, cost, 1.0).value == pytest.approx(up / 2.0, abs=1e-9)
    lows = [cpuc_lower(w, cost, float(a)).value for a in np.arange(1.0, 5.001, 0.5)]
    assert np.all(np.diff(lows) <= 1e-9)
    assert all(v <= up / 2.0 + 1e-12 for v in lows)


def test_10_receive_length_distribution():
    """Simulated received-length law vs. the exact negative binomial:
    total variation below 1e-2 at a million trials, mean within 3 sigma."""
    k, alpha, trials = 5, 2.0, 1_000_000
    p = 1.0 / alpha
    lengths = sample_receive_lengths(k, alpha, trials, np.random.default_rng(2024))
    n_max = max(int(lengths.max()), int(stats.nbinom.ppf(1 - 1e-12, k, p)) + k)
    emp = np.bincount(lengths, minlength=n_max + 1) / trials
    pmf = np.zeros(n_max + 1)
    for n in range(k, n_max + 1):
        pmf[n] = negbinom_pmf(n, k, p)
    tail = max(0.0, 1.0 - pmf.sum())
    tv = 0.5 * (np.abs(emp - pmf).sum() + tail)
    assert tv < 0.01, f"TV distance {tv:.4f}"
    sigma_mean = math.sqrt(k * (1 - p)) / p / math.sqrt(trials)
    assert abs(lengths.mean() - k * alpha) <= 3 * sigma_mean


def test_11_zero_rate_error_separation():
    """Longer codewords make the zero-rate scheme strictly more reliable,
    with non-overlapping 95% confidence intervals at 10^4 trials."""
    w = Dmc.bsc(0.1)
    short = monte_carlo_error(
        "zero_rate", SimConfig(k=50, alpha=1.5, trials=10_000, seed=101), w,
    )
    long_ = monte_carlo_error(
        "zero_rate", SimConfig(k=200, alpha=1.5, trials=10_000, seed=101), w,
    )
    assert long_.error_rate < short.error_rate
    assert long_.ci_high < short.ci_low, (
        f"intervals overlap: [{long_.ci_low:.4f}, {long_.ci_high:.4f}] vs "
        f"[{short.ci_low:.4f}, {short.ci_high:.4f}]"
    )


def _oracle_errors(k, n, codebook, mu):
    """Independent re-derivation of both decoders' exact error rates on the
    noiseless binary channel with filler symbol 0, conditioned on length n.

    Implemented from scratch on purpose: plain tuples and loops, no calls
    into the package's typicality or decoding helpers.
    """
    n_msg = len(codebook)
    patterns = [
        tuple(front) + (n - 1,) for front in itertools.combinations(range(n - 1), k - 1)
    ]
    all_subsets = list(itertools.combinations(range(n), k))

    def exhaustive(y):
        witnessed = set()
        for sub in all_subsets:
            kept = tuple(y[i] for i in sub)
            for m, cw in enumerate(codebook):
                if kept == tuple(cw):
                    witnessed.add(m)
        return witnessed.pop() if len(witnessed) == 1 else None

    def two_stage(y):
        witnessed = set()
        for sub in all_subsets:
            kept = tuple(y[i] for i in sub)
            rest = tuple(y[i] for i in range(n) if i not in sub)
            # uniform input marginal: the kept block needs exactly half ones
            if abs(sum(kept) / k - 0.5) > mu:
                continue
            if any(v != 0 for v in rest):
                continue
            for m, cw in enumerate(codebook):
                if kept == tuple(cw):
                    witnessed.add(m)
        return witnessed.pop() if len(witnessed) == 1 else None

    errors = {"exhaustive": 0, "pattern": 0}
    for m, cw in enumerate(codebook):
        for pat in patterns:
            y = [0] * n
            for pos, sym in zip(pat, cw):
                y[pos] = sym
            if exhaustive(y) != m:
                errors["exhaustive"] += 1
            if two_stage(y) != m:
                errors["pattern"] += 1
    total = n_msg * len(patterns)
    return {name: Fraction(e, total) for name, e in errors.items()}


def test_12_tiny_instance_exact_error():
    """Package decoders, driven through the exact pattern enumeration,
    reproduce an independently coded ground-truth enumeration exactly."""
    w = Dmc.identity(2, star=0)
    codebook = np.array([[0, 1, 1, 0], [1, 0, 0, 1]])
    for n in (5, 6, 7):
        got = enumerate_exact_error(k=4, n=n, codebook=codebook, w=w, mu=0.05)
        want = _oracle_errors(4, n, codebook.tolist(), 0.05)
        assert got == want, (n, got, want)
    # the events are not degenerate in at least one of the instances
    probs = enumerate_exact_error(k=4, n=6, codebook=codebook, w=w, mu=0.05)
    assert 0 < probs["exhaustive"] < 1


def test_13_cli_simulate_byte_identical(tmp_path):
    """Seeded simulate runs re-emit byte-identical artifacts, for every
    decoding scheme."""
    cases = {
        "zero_rate": ["--k", "40", "--alpha", "1.5"],
        "exhaustive": ["--k", "5", "--alpha", "1.3"],
        "pattern": ["--k", "5", "--alpha", "1.3"],
    }
    for scheme, extra in cases.items():
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{scheme}-{tag}"
            argv = [
                "simulate", "--scheme", scheme, "--channel", "bsc:0.05",
                "--trials", "60", "--seed", "11", "--out", str(out),
            ] + extra
            assert cli_main(argv) == 0
            outs.append(out)
        first, second = outs
        assert (first / "trials.csv").read_bytes() == (second / "trials.csv").read_bytes()
        assert (first / "summary.json").read_bytes() == (
            second / "summary.json"
        ).read_bytes()
        rows = (first / "trials.csv").read_text().strip().split("\n")
        assert len(rows) == 62  # hash line + header + one row per trial
        summary = json.loads((first / "summary.json").read_text())
        assert summary["trials"] == 60
