"""Zero-insertion channels: exact counts, capacities, run-structure bound."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import entr

import intermit.insertion as insertion_mod
from blahut_oracle import plain_blahut_capacity
from insertion_oracle import (all_blocks, count_matrix, position_entropy,
                              position_entropy_terms, run_length_upper, run_profile,
                              unfolded_class_channel, uniform_insertion_channel,
                              weight_blocks)
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
    # folded: 01 and 10 form one input orbit, 001 and 100 one output orbit
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


def _representatives(blocks):
    """The blocks whose code is at most that of their reversal."""
    return [x for x in blocks if _code(x) <= _code(x[::-1])]


def _entropy_bits(rows):
    return entr(rows).sum(axis=1) / math.log(2.0)


@settings(max_examples=60, deadline=None)
@given(class_sizes(), CHUNKS)
@example((0, 5, 0), 1)  # a = 0: the empty input
@example((5, 9, 0), 7)  # w = 0: one composition, one run
@example((5, 9, 5), 300)  # w = a: no zero in the input
@example((7, 7, 3), 1)  # a = b: nothing inserted
def test_class_counts_match_oracle(sizes, chunk):
    a, b, w = sizes
    with mock.patch.object(insertion_mod, "_CHUNK_ENTRIES", chunk):
        cls = weight_class_channel(a, b, w)
    inputs, outputs = weight_blocks(a, w), weight_blocks(b, w)
    in_reps, out_reps = _representatives(inputs), _representatives(outputs)
    assert cls.inputs.tolist() == [_code(x) for x in in_reps]
    assert cls.outputs.tolist() == [_code(y) for y in out_reps]
    # every palindromic input is an orbit of its own
    assert cls.sizes.tolist() == [1 if x == x[::-1] else 2 for x in in_reps]
    expect = count_matrix(in_reps, outputs, a, b)
    denom = math.comb(b, a)
    assert np.array_equal(expect.sum(axis=1), np.full(len(in_reps), denom))
    # the oracle's counts summed over each output orbit {y, reversed y}
    orbit = {y: k for k, rep in enumerate(out_reps) for y in (rep, rep[::-1])}
    fold = np.zeros((len(outputs), len(out_reps)), dtype=np.int64)
    fold[np.arange(len(outputs)), [orbit[y] for y in outputs]] = 1
    folded = expect @ fold
    mat = cls.matrix.toarray() if sparse.issparse(cls.matrix) else cls.matrix
    assert np.array_equal(np.rint(mat * denom).astype(np.int64), folded)
    assert np.array_equal(mat, folded / denom)  # bit for bit
    out_sizes = np.array([1 if y == y[::-1] else 2 for y in out_reps])
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


def test_sparse_class_matches_dense(monkeypatch):
    # the dense scatter and the CSR build must place the same bits
    tol = 1e-9
    for a, b in [(5, 9), (6, 11)]:
        dense = [weight_class_channel(a, b, w) for w in range(a + 1)]
        dense_caps = insertion_capacity(a, b).class_capacities
        with monkeypatch.context() as m:
            m.setattr(insertion_mod, "_DENSE_LIMIT", 4)
            m.setattr(insertion_mod, "_CHUNK_ENTRIES", 40)  # several chunks per class
            for w in range(1, a):
                cls = weight_class_channel(a, b, w)
                assert sparse.issparse(cls.matrix)
                assert cls.matrix.has_sorted_indices
                assert np.array_equal(cls.matrix.toarray(), dense[w].matrix)
                assert np.array_equal(cls.offset, dense[w].offset)
            sparse_caps = insertion_capacity(a, b).class_capacities
        assert np.allclose(sparse_caps, dense_caps, rtol=0.0, atol=tol)


def _class_digest(classes) -> str:
    """SHA-256 over the dtype, shape and bytes of every array of the classes,
    in order; a CSR matrix contributes its data, indices and index pointers."""
    h = hashlib.sha256()
    for cls in classes:
        m = cls.matrix
        parts = [m.data, m.indices, m.indptr] if sparse.issparse(m) else [m]
        for arr in parts + [cls.offset, cls.sizes, cls.inputs, cls.outputs]:
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


# every weight class of paper-scale windows, pinned byte for byte from the
# kept-set enumeration: a change to a count, a summation order or a dtype
# shows here, where the oracle property compares offsets to 1e-12 for b <= 10
PINNED_CLASSES = [
    ((9, 17), "62200453ca4a23ec66305bf696b1aeb759b1a9bbb726942c6aaf547d3f5b78c5"),
    ((6, 16), "1dc6ac9a5677e8d7c673ad743ca8872ad08e088f76384f9756b77d0a17e5b441"),
    ((7, 14), "94cb62c65bf812343b50d41556720a3b1b622dbb162e4204be70f799c81c059f"),
    ((11, 12), "990e700a08137b9068a6653d7da16933ea7147d776403ddc6be34165d4ddda7e"),
]


@pytest.mark.parametrize("pair, digest", PINNED_CLASSES,
                         ids=[f"{a}-{b}" for (a, b), _ in PINNED_CLASSES])
def test_pinned_class_bytes(pair, digest):
    a, b = pair
    classes = [weight_class_channel(a, b, w, allow_large=True) for w in range(a + 1)]
    assert _class_digest(classes) == digest


def test_pinned_csr_class_bytes(monkeypatch):
    monkeypatch.setattr(insertion_mod, "_DENSE_LIMIT", 4)
    monkeypatch.setattr(insertion_mod, "_CHUNK_ENTRIES", 100)
    cls = weight_class_channel(7, 14, 3, allow_large=True)
    assert sparse.issparse(cls.matrix)
    assert _class_digest([cls]) == "8e25008c490618219e35d92040b951e295a34755a04d196dc2a4867231bca1f3"


def test_folded_certificate_is_the_unfolded_one():
    # at the invariant law that spreads each orbit's mass evenly, the
    # unfolded class has the folded run's objective and sandwich
    for a, b, w in [(4, 7, 2), (5, 9, 2), (6, 10, 3)]:
        cls = weight_class_channel(a, b, w)
        res = blahut_capacity(cls.matrix, offset=cls.offset, start=cls.sizes)
        m, inputs, _ = unfolded_class_channel(a, b, w)
        orbit = {code: k for k, code in enumerate(cls.inputs.tolist())}
        rho = res.input_dist.probs
        r = np.array([rho[orbit[min(_code(x), _code(x[::-1]))]] / (1 if x == x[::-1] else 2)
                      for x in inputs])
        t = r @ m
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(m > 0.0, m * np.log2(m / t), 0.0).sum(axis=1)
        assert res.gap < 1e-9
        assert float(r @ d) == pytest.approx(res.capacity, abs=1e-12)
        assert float(d.max() - r @ d) == pytest.approx(res.gap, abs=1e-12)


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
