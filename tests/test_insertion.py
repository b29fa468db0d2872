"""Zero-insertion channels: exact counts, capacities, run-structure bound."""

import hashlib
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import entr

import intermit.insertion as insertion_mod
from blahut_oracle import plain_blahut_capacity
from insertion_oracle import (_orbits, all_blocks, composition_class_channel, count_matrix,
                              position_entropy, position_entropy_terms, reversal_class_channel,
                              run_length_upper, run_profile, unfolded_class_channel,
                              uniform_insertion_channel, weight_blocks)
from intermit import (
    Dmc,
    SizeGuardError,
    blahut_capacity,
    insertion_capacity,
    insertion_capacity_upper,
    insertion_counts,
    insertion_loss,
    union_capacity,
    weight_class_channel,
)

# one zero inserted into each length-2 input, counts over the 3 kept-position
# choices; output index is the big-endian binary value of the output string
TABLE_2_TO_3 = np.array(
    [
        [3, 0, 0, 0, 0, 0, 0, 0],  # 00 -> 000
        [0, 2, 1, 0, 0, 0, 0, 0],  # 01 -> 001,001 | 010
        [0, 0, 1, 0, 2, 0, 0, 0],  # 10 -> 010 | 100,100
        [0, 0, 0, 1, 0, 1, 1, 0],  # 11 -> 011 | 101 | 110
    ]
)


def test_exact_counts_length_2_to_3():
    ch = uniform_insertion_channel(2, 3)
    assert np.array_equal(np.asarray(ch.rows) * 3, TABLE_2_TO_3)


def test_weight_class_split_of_full_channel():
    m, inputs, outputs = unfolded_class_channel(2, 3, 1)
    assert inputs == [(0, 1), (1, 0)]
    assert outputs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert np.array_equal(m * 3, np.array([[2, 1, 0], [0, 1, 2]]))
    # folded: 01 and 10 (zero runs (1, 0) and (0, 1)) form one input orbit,
    # 001 and 100 one output orbit
    cls = weight_class_channel(2, 3, 1)
    assert cls.inputs.tolist() == [0b01]
    assert cls.sizes.tolist() == [2]
    assert cls.outputs.tolist() == [0b001, 0b010]
    assert np.array_equal(cls.matrix * 3, np.array([[2, 1]]))
    # H(V) + E log2|Yo| - H(W_x) = h(1/3) + 2/3 - h(1/3)
    assert cls.offset[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


# chunk budgets, in (input, composition) entries, from one input per chunk
# up to the module's own
CHUNKS = st.sampled_from([1, 7, 300, insertion_mod._CHUNK_ENTRIES])


@st.composite
def class_sizes(draw):
    b = draw(st.integers(0, 10))
    a = draw(st.integers(0, b))
    return a, b, draw(st.integers(0, a))


def _code(x) -> int:
    return int("".join(map(str, x)) or "0", 2)


def _zero_runs(x):
    """The zero runs of a binary tuple: before each one, then after the last."""
    return tuple(len(run) for run in "".join(map(str, x)).split("1"))


def _run_orbits(blocks):
    """The blocks grouped by the multiset of their zero runs, each group in
    the order given, the groups in increasing code of their smallest block."""
    groups = {}
    for x in blocks:
        groups.setdefault(tuple(sorted(_zero_runs(x))), []).append(x)
    return sorted(groups.values(), key=lambda g: min(map(_code, g)))


def _multinomial(runs) -> int:
    return math.factorial(len(runs)) // math.prod(
        math.factorial(m) for m in Counter(runs).values())


def _entropy_bits(rows):
    return entr(rows).sum(axis=1) / math.log(2.0)


@settings(max_examples=60, deadline=None)
@given(class_sizes())
@example((0, 5, 0))  # a = 0: the empty input
@example((5, 9, 0))  # w = 0: one composition, one run
@example((5, 9, 5))  # w = a: no zero in the input
@example((7, 7, 3))  # a = b: nothing inserted
@example((5, 9, 2))  # input orbits of 1, 3 and 6 blocks
def test_class_counts_match_oracle(sizes):
    a, b, w = sizes
    cls = weight_class_channel(a, b, w)
    inputs, outputs = weight_blocks(a, w), weight_blocks(b, w)
    in_orbits, out_orbits = _run_orbits(inputs), _run_orbits(outputs)
    in_reps = [min(g, key=_code) for g in in_orbits]
    out_reps = [min(g, key=_code) for g in out_orbits]
    # the smallest code of each orbit is its block whose runs do not increase
    for rep in in_reps + out_reps:
        assert list(_zero_runs(rep)) == sorted(_zero_runs(rep), reverse=True)
    assert cls.inputs.tolist() == [_code(x) for x in in_reps]
    assert cls.outputs.tolist() == [_code(y) for y in out_reps]
    assert cls.sizes.tolist() == [len(g) for g in in_orbits]
    assert cls.sizes.tolist() == [_multinomial(_zero_runs(x)) for x in in_reps]
    expect = count_matrix(in_reps, outputs, a, b)
    denom = math.comb(b, a)
    assert np.array_equal(expect.sum(axis=1), np.full(len(in_reps), denom))
    # the oracle's counts summed over each output orbit
    orbit = {y: k for k, g in enumerate(out_orbits) for y in g}
    fold = np.zeros((len(outputs), len(out_orbits)), dtype=np.int64)
    fold[np.arange(len(outputs)), [orbit[y] for y in outputs]] = 1
    folded = expect @ fold
    assert np.array_equal(np.rint(cls.matrix * denom).astype(np.int64), folded)
    assert np.array_equal(cls.matrix, folded / denom)  # bit for bit
    out_sizes = np.array([len(g) for g in out_orbits])
    v = folded / denom
    offset = _entropy_bits(v) + v @ np.log2(out_sizes) - _entropy_bits(expect / denom)
    assert np.allclose(cls.offset, offset, rtol=0.0, atol=1e-12)
    assert (cls.offset >= -1e-12).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10).flatmap(lambda b: st.tuples(st.integers(1, b), st.just(b))), CHUNKS)
def test_full_channel_counts_match_oracle(sizes, chunk):
    a, b = sizes
    with mock.patch.object(insertion_mod, "_CHUNK_ENTRIES", chunk):
        counts = insertion_counts(a, b)
        ch = uniform_insertion_channel(a, b)
    expect = count_matrix(all_blocks(a), all_blocks(b), a, b)
    assert counts.has_sorted_indices
    assert np.array_equal(counts.toarray(), expect)
    assert np.array_equal(ch.rows, Dmc(expect / math.comb(b, a)).rows)


def _class_digest(classes) -> str:
    """SHA-256 over the dtype, shape and bytes of every array of the classes,
    in order."""
    h = hashlib.sha256()
    for cls in classes:
        for arr in [cls.matrix, cls.offset, cls.sizes, cls.inputs, cls.outputs]:
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


# every weight class of paper-scale windows, pinned byte for byte from the
# kept-set enumeration: a change to a count, a summation order or a dtype
# shows here, where the oracle property compares offsets to 1e-12 for b <= 10.
# The digests are, in order, the block-reversal fold of `insertion_oracle`,
# its run-permutation fold from every composition, and `weight_class_channel`,
# which sums the offsets' n log2 n terms over composition orbits instead.
PINNED_CLASSES = [
    ((9, 17), "62200453ca4a23ec66305bf696b1aeb759b1a9bbb726942c6aaf547d3f5b78c5",
     "f08999a43a17ee4ade579a2c2951a4f8e7a05bad834f5b4bc128ced528e4ad84",
     "7f4177eb58613793361a374acf874a1e3a115b5f8bdd88e0727dd1ed5667a570"),
    ((6, 16), "1dc6ac9a5677e8d7c673ad743ca8872ad08e088f76384f9756b77d0a17e5b441",
     "4717966d32beb8a4ba068695d787079409a41d906dfe10326fbce5f1966cc839",
     "90d18972b8b289faa6eb9f8d2a95315620bda5e68bab6309aed1568c6ef7d58f"),
    ((7, 14), "94cb62c65bf812343b50d41556720a3b1b622dbb162e4204be70f799c81c059f",
     "a2f045af8a74dac93fc8b19e2225cf86137c98f35c8176bdfcda3ab0ed36b1dd",
     "57d87422eae9949adc0fd5b392f4ab42626f6188361dc77f711928feffe89111"),
    ((11, 12), "990e700a08137b9068a6653d7da16933ea7147d776403ddc6be34165d4ddda7e",
     "0672255b3fe0c4bca4f3f56523f5c0024c1b25fd01880100aa54921f8bdf4a1e",
     "0672255b3fe0c4bca4f3f56523f5c0024c1b25fd01880100aa54921f8bdf4a1e"),
]
PINNED_IDS = [f"{a}-{b}" for (a, b), *_ in PINNED_CLASSES]


@pytest.mark.parametrize("pair, reversal_digest, composition_digest, digest", PINNED_CLASSES,
                         ids=PINNED_IDS)
def test_pinned_class_bytes(pair, reversal_digest, composition_digest, digest):
    a, b = pair
    classes = [weight_class_channel(a, b, w, allow_large=True) for w in range(a + 1)]
    assert _class_digest(classes) == digest


@pytest.mark.parametrize("pair, reversal_digest, composition_digest, digest", PINNED_CLASSES,
                         ids=PINNED_IDS)
def test_pinned_composition_oracle_class_bytes(pair, reversal_digest, composition_digest,
                                               digest):
    a, b = pair
    classes = [composition_class_channel(a, b, w, allow_large=True) for w in range(a + 1)]
    assert _class_digest(classes) == composition_digest


@pytest.mark.parametrize("pair, reversal_digest, composition_digest, digest", PINNED_CLASSES,
                         ids=PINNED_IDS)
def test_pinned_reversal_oracle_class_bytes(pair, reversal_digest, composition_digest,
                                            digest):
    a, b = pair
    classes = [reversal_class_channel(a, b, w, allow_large=True) for w in range(a + 1)]
    assert _class_digest(classes) == reversal_digest


@pytest.mark.paper_scale
def test_class_build_matches_composition_oracle():
    # every class up to b = B_HARD against the build from every composition:
    # the folded counts, orbit sizes and codes bit for bit.  The offsets sum
    # n log2 n over composition orbits rather than every composition, so they
    # agree only to rounding, by at most 2.0e-13
    for b in range(insertion_mod.B_HARD + 1):
        for a in range(b + 1):
            for w in range(a + 1):
                cls = weight_class_channel(a, b, w, allow_large=True)
                ref = composition_class_channel(a, b, w, allow_large=True)
                for name in ("matrix", "sizes", "inputs", "outputs"):
                    new, old = getattr(cls, name), getattr(ref, name)
                    assert (new.dtype, new.shape) == (old.dtype, old.shape), (a, b, w, name)
                    assert new.tobytes() == old.tobytes(), (a, b, w, name)
                assert cls.matrix.flags.f_contiguous
                assert np.abs(cls.offset - ref.offset).max() <= 1e-12, (a, b, w)


def test_dense_class_is_column_major():
    # the layout blahut_capacity iterates on, so it runs on the class itself
    for a, b, w in [(2, 3, 1), (5, 9, 2), (7, 14, 3)]:
        assert weight_class_channel(a, b, w, allow_large=True).matrix.flags.f_contiguous


def test_paper_scale_window_memory_bound():
    # the block weights and run partitions are cached for the process, so
    # they are filled first and the peak counts only the class builds and
    # Blahut-Arimoto runs; numpy reports its buffers to tracemalloc, so the
    # figure repeats exactly.  It is 1.24 MB with numpy 2.4, set by decoding
    # the 12 870 composition codes of the (9, 17, 8) class into the positions
    # of their ones; outputs and counts are built only for the 67 composition
    # orbits that the class keeps of them
    insertion_mod._block_weights()
    for w in range(10):
        insertion_mod._partitions(9 - w, w + 1)
        insertion_mod._partitions(17 - w, w + 1)
    tracemalloc.start()
    try:
        insertion_capacity(9, 17, allow_large=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def _orbit_code(x) -> int:
    """Code of the block with the zero runs of x in non-increasing order: the
    representative of x's orbit."""
    runs = sorted(_zero_runs(x), reverse=True)
    return _code(sum(([0] * r + [1] for r in runs[:-1]), []) + [0] * runs[-1])


def test_folded_certificate_is_the_unfolded_one():
    # at the invariant law that spreads each orbit's mass evenly, the
    # unfolded class has the folded run's objective and sandwich
    for a, b, w in [(4, 7, 2), (5, 9, 2), (6, 10, 3), (8, 11, 4)]:
        cls = weight_class_channel(a, b, w)
        res = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
        m, inputs, _ = unfolded_class_channel(a, b, w)
        orbit = {code: k for k, code in enumerate(cls.inputs.tolist())}
        rho = res.input_dist.probs
        r = np.array([rho[orbit[_orbit_code(x)]] / _multinomial(_zero_runs(x)) for x in inputs])
        t = r @ m
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(m > 0.0, m * np.log2(m / t), 0.0).sum(axis=1)
        assert res.gap < 1e-9
        assert float(r @ d) == pytest.approx(res.capacity, abs=1e-12)
        assert float(d.max() - r @ d) == pytest.approx(res.gap, abs=1e-12)


# every class with b <= 12 and every class of the pinned paper-scale windows
CROSS_CHECK_PAIRS = sorted({(a, b) for b in range(1, 13) for a in range(1, b + 1)}
                           | {pair for pair, *_ in PINNED_CLASSES})


@pytest.mark.paper_scale
def test_capacity_matches_reversal_oracle():
    # each class's capacity on run-permutation orbits lies within the two
    # certified gaps of the block-reversal oracle's, and the union brackets of
    # insertion_capacity built from either fold overlap.  1e-12 allows for the
    # rounding of the offsets, differences of sums of n log2 n that the
    # oracle property holds to 1e-12: at (7, 14, 5) the two folds' lower
    # bounds differ by the same 9e-14 at every iterate
    for a, b in CROSS_CHECK_PAIRS:
        for w in range(1, a):
            cls = weight_class_channel(a, b, w, allow_large=True)
            res = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
            cls = reversal_class_channel(a, b, w, allow_large=True)
            ref = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
            assert abs(res.capacity - ref.capacity) <= res.gap + ref.gap + 1e-12, (a, b, w)
        res = insertion_capacity(a, b, allow_large=True)
        with mock.patch.object(insertion_mod, "weight_class_channel", reversal_class_channel):
            ref = insertion_capacity(a, b, allow_large=True)
        assert res.capacity <= ref.capacity_upper and ref.capacity <= res.capacity_upper, (a, b)


def _uniform_law_values(cls):
    """D(V_O || rV) + offset(O) in bits for each input orbit O of a folded
    class, at the law r of the unfolded class's uniform input."""
    t = cls.sizes / cls.sizes.sum() @ cls.matrix
    col, row = np.nonzero(cls.matrix.T)  # the classes are column-major
    v = cls.matrix.T[col, row]
    return np.bincount(row, weights=v * np.log2(v / t[col]), minlength=len(cls.offset)) + cls.offset


@pytest.mark.paper_scale
def test_offset_rounding_is_within_the_capacity_margin():
    # At a law that is uniform on each input orbit, every block x of a class
    # has one value D(W_x || rW) in the unfolded class, and each fold computes
    # it as D(V_O || rV) + offset(O), from offsets summed in an order of its
    # own.  So the run fold and the block-reversal oracle agree per block up
    # to rounding, which insertion_capacity's margin _OFFSET_ERR must cover.
    # Every class with 1 <= w < a < b <= B_HARD is checked whose dense
    # reversal fold has at most 2^20 entries: 611 of 680 (the 6 470 x 12 190
    # fold of (16, 17, 8) alone takes 630 MB).  The largest difference is
    # 3.1e-13 bits at (9, 17, 7), also over all 680 classes
    worst = 0.0
    for b in range(3, insertion_mod.B_HARD + 1):
        for a in range(2, b):
            for w in range(1, a):
                if len(_orbits(a, w)[0]) * len(_orbits(b, w)[0]) > 1 << 20:
                    continue
                cls = weight_class_channel(a, b, w, allow_large=True)
                ref = reversal_class_channel(a, b, w, allow_large=True)
                runs = np.sort(insertion_mod._runs(insertion_mod._ones(ref.inputs, a, w), a),
                               axis=1)
                codes = insertion_mod._run_codes(runs[:, ::-1], a)  # each block's orbit
                orbit = np.searchsorted(cls.inputs, codes)
                assert np.array_equal(cls.inputs[orbit], codes), (a, b, w)
                diff = _uniform_law_values(cls)[orbit] - _uniform_law_values(ref)
                worst = max(worst, float(np.abs(diff).max()))
    assert worst <= insertion_mod._OFFSET_ERR / 2, worst


def test_run_profile():
    r = run_profile((0, 1, 1, 0, 1, 0, 0))
    assert r.weight == 3
    assert r.zero_runs == (1, 1, 2)
    assert r.one_runs == (2,)  # isolated ones carry no slot of their own
    assert r.length == 7

    assert run_profile((1, 1)).zero_runs == (0, 0)
    assert run_profile((0, 0)).one_runs == ()


def test_position_entropy_small_cases():
    assert position_entropy((1,), 1) == 0.0
    assert position_entropy((0,), 2) == pytest.approx(1.0, abs=1e-12)
    assert position_entropy((0, 1), 3) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # all-zero input: every pattern collapses to one output
    assert position_entropy((0, 0), 3) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_position_entropy_terms_partition_pattern_count():
    for x, b in [((0, 1), 4), ((1, 0, 1), 6), ((0, 0, 1, 1), 7)]:
        mult, _, total = position_entropy_terms(x, b)
        assert total == math.comb(b, len(x))
        assert sum(mult) == total


def test_capacity_identity_cases():
    for a in (1, 2, 3, 4):
        assert insertion_capacity(a, a).capacity == pytest.approx(a, abs=5e-9)
    for b in (1, 2, 5, 9):
        assert insertion_capacity(1, b).capacity == pytest.approx(1.0, abs=5e-9)


def test_identity_capacity_is_exactly_a():
    # with nothing inserted every class is noiseless: no class is built or
    # iterated, and g(a, a) is a to the last bit
    with mock.patch.object(insertion_mod, "weight_class_channel",
                           side_effect=AssertionError("built a class")):
        for a in range(1, 13):
            res = insertion_capacity(a, a)
            assert res.capacity == res.capacity_upper == a
            assert res.loss == 0.0
            assert res.class_capacities == tuple(math.log2(math.comb(a, w))
                                                 for w in range(a + 1))
            assert res.class_iterations == (0,) * (a + 1)
            assert res.class_gaps == (0.0,) * (a + 1)


def test_relaxed_classes_certify_within_half_the_plain_iterations():
    # each class of (7, 12) against the plain Blahut-Arimoto oracle on the
    # unfolded class, whose uniform start is the folded run's start; a class
    # the oracle certifies at its first iterate takes one iteration too
    res = insertion_capacity(7, 12)
    assert res.class_iterations[0] == res.class_iterations[7] == 0
    assert res.class_gaps[0] == res.class_gaps[7] == 0.0
    for w in range(1, 7):
        cls = weight_class_channel(7, 12, w)
        run = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
        assert (res.class_iterations[w], res.class_gaps[w]) == (run.iterations, run.gap)
        assert res.class_gaps[w] < 1e-9
        plain = plain_blahut_capacity(unfolded_class_channel(7, 12, w)[0]).iterations
        assert res.class_iterations[w] <= max(1, plain // 2), (w, plain)
    # the Newton-accelerated plain update took 311 iterations over the classes
    assert sum(res.class_iterations) <= 100


@pytest.mark.paper_scale
def test_class_iterations_up_to_the_hard_limit():
    # every class with 1 <= w < a < b <= B_HARD certifies 1e-9 bits; they
    # took 4 798 iterations in all and at most 28 in one class (numpy 2.4).
    # The pins leave 4 % and two iterations for other roundings of the same
    # floats; Newton steps from 1e-3 bits took 7 933 and 113
    iterations = []
    for b in range(3, insertion_mod.B_HARD + 1):
        for a in range(2, b):
            for w in range(1, a):
                cls = weight_class_channel(a, b, w, allow_large=True)
                res = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
                assert res.gap < 1e-9, (a, b, w)
                iterations.append(res.iterations)
    assert len(iterations) == 680
    assert sum(iterations) <= 5_000 and max(iterations) <= 30, (sum(iterations),
                                                                max(iterations))


def test_capacity_2_to_3_two_routes():
    via_classes = insertion_capacity(2, 3).capacity
    direct = blahut_capacity(uniform_insertion_channel(2, 3)).capacity
    assert via_classes == pytest.approx(1.84293903978736, abs=1e-9)
    assert direct == pytest.approx(via_classes, abs=1e-6)


def test_capacity_matches_plain_iteration():
    # every desk-size (a, b) with b <= 10, class by class against the plain
    # Blahut-Arimoto loop: at least its lower bound, at most its upper bound;
    # the certified upper capacity is at least the union of its lower bounds
    for b in range(1, 11):
        for a in range(1, b + 1):
            res = insertion_capacity(a, b)
            ref_caps = []
            for w, cap in enumerate(res.class_capacities):
                if math.comb(a, w) == 1:
                    ref_caps.append(0.0)
                    continue
                ref = plain_blahut_capacity(unfolded_class_channel(a, b, w)[0])
                ref_caps.append(ref.capacity)
                # 1e-14: a class certified at its first iterate can have a gap of -3e-16
                assert ref.capacity - 1e-12 <= cap <= ref.capacity + ref.gap + 1e-14, (a, b, w)
            assert res.capacity_upper >= min(union_capacity(ref_caps), a) - 1e-14, (a, b)


def test_loss_is_a_minus_the_certified_upper_capacity():
    for a, b in [(2, 3), (3, 9), (5, 9), (3, 10), (8, 8)]:
        res = insertion_capacity(a, b)
        assert res.loss == a - res.capacity_upper
        assert res.capacity <= res.capacity_upper <= min(res.capacity + 1e-9, a)
        assert insertion_loss(a, b) == res.loss


def test_class_capacities_recorded():
    res = insertion_capacity(2, 3)
    assert len(res.class_capacities) == 3  # weights 0, 1, 2
    # the all-zero and all-one classes have a single input each
    assert res.class_capacities[0] == 0.0
    assert res.class_capacities[2] == 0.0
    total = np.log2(np.sum(np.exp2(res.class_capacities)))
    assert total == pytest.approx(res.capacity, abs=1e-12)


def test_loss_nonnegative_and_cached():
    val1 = insertion_loss(2, 3)
    val2 = insertion_loss(2, 3)
    assert val1 == val2
    assert val1 == pytest.approx(2.0 - 1.84293903978736, abs=1e-9)
    assert insertion_loss(3, 3) == 0.0


def test_upper_bound_dominates():
    for b in range(1, 11):
        for a in range(1, b + 1):
            g = insertion_capacity(a, b).capacity
            ub = insertion_capacity_upper(a, b)
            assert ub >= g - 1e-7, (a, b)


def test_upper_bound_matches_run_length_oracle():
    # position entropies from the integer counts against the run-length formula
    for b in range(1, 11):
        for a in range(1, b + 1):
            assert insertion_capacity_upper(a, b) == pytest.approx(
                run_length_upper(a, b), abs=1e-12), (a, b)


def test_size_guards():
    with pytest.raises(SizeGuardError):
        insertion_capacity(2, 13)
    with pytest.raises(SizeGuardError):
        insertion_loss(5, 14)
    # explicit opt-in lifts the desk guard but not the hard one
    with pytest.raises(SizeGuardError):
        insertion_capacity(2, 18, allow_large=True)


def test_input_validation():
    with pytest.raises(ValueError):
        insertion_capacity(0, 3)
    with pytest.raises(ValueError):
        insertion_capacity(4, 3)
