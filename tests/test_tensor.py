import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import (
    composite_index,
    fold,
    frobenius_norm,
    mode_product,
    multi_mode_product,
    numerical_rank,
    outer,
    select_fibers,
    spectral_norm,
    subtensor,
    unfold,
)

from tensorcur.tensor import check_ranks, gram

from conftest import random_low_rank, tensor_with_layout


def storage_order_cube():
    # entries 1..8 in flat storage order, first index fastest
    return np.reshape(np.arange(1.0, 9.0), (2, 2, 2), order="F")


class TestUnfold:
    def test_mode0_of_storage_order_cube(self):
        t = storage_order_cube()
        assert np.array_equal(unfold(t, 0), [[1, 3, 5, 7], [2, 4, 6, 8]])

    def test_single_mode_tensor_is_column(self):
        v = np.array([3.0, 1.0, 4.0])
        assert np.array_equal(unfold(v, 0), [[3.0], [1.0], [4.0]])

    def test_last_mode_rows_are_vectorized_slices(self, slices_3x3x2):
        m = unfold(slices_3x3x2, 2)
        for k in range(2):
            assert np.array_equal(m[k], slices_3x3x2[:, :, k].ravel(order="F"))

    def test_rank_of_first_unfolding(self, slices_3x3x2):
        assert numerical_rank(unfold(slices_3x3x2, 0)) == 2

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold(storage_order_cube(), 3)


class TestFold:
    def test_round_trip_all_modes_random_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.integers(1, 5)
            dims = tuple(int(d) for d in rng.integers(1, 6, size=n))
            t = rng.standard_normal(dims)
            for k in range(n):
                assert np.array_equal(fold(unfold(t, k), k, dims), t)

    def test_fold_reproduces_storage_order_cube(self):
        m = np.array([[1.0, 3, 5, 7], [2, 4, 6, 8]])
        assert np.array_equal(fold(m, 0, (2, 2, 2)), storage_order_cube())

    def test_wrong_column_count(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 3)), 0, (2, 2, 2))


class TestModeProduct:
    def test_identity_matrix(self):
        t = storage_order_cube()
        assert np.array_equal(mode_product(t, np.eye(2), 1), t)

    def test_zero_row_matrix_collapses_mode(self):
        t = storage_order_cube()
        out = mode_product(t, np.zeros((1, 2)), 2)
        assert out.shape == (2, 2, 1)
        assert np.all(out == 0)

    def test_matches_naive_sum(self):
        # oracle: elementwise definition sum_s t[..., s, ...] * a[j, s]
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 4))
        expected = np.zeros((3, 2, 5))
        for i in range(3):
            for j in range(2):
                for k in range(5):
                    expected[i, j, k] = sum(
                        t[i, s, k] * a[j, s] for s in range(4)
                    )
        got = mode_product(t, a, 1)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(unfold(got, 1) - a @ unfold(t, 1))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(storage_order_cube(), np.zeros((2, 3)), 0)


class TestMultiModeProduct:
    def test_all_identities(self):
        t = storage_order_cube()
        assert np.array_equal(multi_mode_product(t, [np.eye(2)] * 3), t)
        assert np.array_equal(multi_mode_product(t, [None, None, None]), t)

    def test_order_invariance(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 5))
        forward = mode_product(mode_product(t, a, 0), b, 1)
        backward = mode_product(mode_product(t, b, 1), a, 0)
        assert np.max(np.abs(forward - backward)) < 1e-12
        assert np.max(np.abs(multi_mode_product(t, [a, b, None]) - forward)) < 1e-12

    def test_reconstructs_known_low_rank_tensor(self):
        rng = np.random.default_rng(5)
        core = rng.standard_normal((2, 2, 2))
        factors = [rng.standard_normal((6, 2)) for _ in range(3)]
        t = multi_mode_product(core, factors)
        from tensorcur import multilinear_rank

        assert multilinear_rank(t) == (2, 2, 2)

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            multi_mode_product(storage_order_cube(), [np.eye(2)] * 2)


class TestKronecker:
    def test_unfolding_of_other_mode_product_is_kronecker_structured(self):
        # under the first-fastest column convention the matching factor order
        # is reversed over the remaining modes
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((4, 4))
        for j, k in [(1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2)]:
            a_j = rng.standard_normal((t.shape[j], t.shape[j]))
            y = mode_product(t, a_j, j)
            blocks = []
            for m in reversed([m for m in range(3) if m != k]):
                blocks.append(a_j if m == j else np.eye(t.shape[m]))
            structured = blocks[0]
            for blk in blocks[1:]:
                structured = np.kron(structured, blk)
            assert np.max(np.abs(unfold(y, k) - unfold(t, k) @ structured.T)) < 1e-12


class TestCheckRanks:
    def test_returns_int_tuple(self):
        assert check_ranks(np.array([2, 3]), (2, 5)) == (2, 3)

    @pytest.mark.parametrize(
        "ranks,message",
        [((2,), "expected 2 ranks"), ((0, 1), "out of range"), ((2, 6), "extent 5 at mode 1")],
    )
    def test_rejects(self, ranks, message):
        with pytest.raises(ValueError, match=message):
            check_ranks(ranks, (2, 5))


class TestOuter:
    def test_two_basis_vectors(self):
        e1 = np.array([1.0, 0.0])
        got = outer([e1, e1])
        assert np.array_equal(got, [[1.0, 0.0], [0.0, 0.0]])

    def test_direct_product_values(self):
        got = outer([np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0])])
        assert np.array_equal(got, [[1, 1, 1], [2, 2, 2]])

    def test_unfoldings_have_rank_one(self):
        rng = np.random.default_rng(21)
        t = outer([rng.standard_normal(d) + 2.0 for d in (3, 4, 5)])
        for k in range(3):
            assert numerical_rank(unfold(t, k)) == 1

    def test_empty_list(self):
        with pytest.raises(ValueError):
            outer([])


class TestSubtensorAndFibers:
    def test_full_ranges_identity(self):
        t = storage_order_cube()
        full = [range(2)] * 3
        assert np.array_equal(subtensor(t, full), t)

    def test_core_slices_of_fixture(self, slices_3x3x2):
        r = subtensor(slices_3x3x2, [[0, 1]] * 3)
        assert np.array_equal(r[:, :, 0], [[1, 2], [2, 4]])
        assert np.array_equal(r[:, :, 1], [[2, 5], [4, 10]])

    def test_composite_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            dims = tuple(int(d) for d in rng.integers(2, 6, size=3))
            t = rng.standard_normal(dims)
            sets = [np.sort(rng.choice(d, size=rng.integers(1, d + 1), replace=False))
                    for d in dims]
            for k in range(3):
                cols = composite_index(sets, k, dims)
                # brute force: walk every remaining multi-index, first mode fastest
                rem = [m for m in range(3) if m != k]
                expected_cols = []
                strides = {}
                s = 1
                for m in rem:
                    strides[m] = s
                    s *= dims[m]
                import itertools

                for combo in itertools.product(*[sets[m] for m in reversed(rem)]):
                    combo = dict(zip(reversed(rem), combo))
                    expected_cols.append(sum(combo[m] * strides[m] for m in rem))
                assert sorted(expected_cols) == cols.tolist()
                gathered = select_fibers(t, k, cols)
                slab_sets = [np.arange(dims[m]) if m == k else sets[m] for m in range(3)]
                assert np.array_equal(gathered, unfold(subtensor(t, slab_sets), k))

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            subtensor(storage_order_cube(), [[0, 2], [0], [0]])
        with pytest.raises(ValueError):
            select_fibers(storage_order_cube(), 0, [4])


@st.composite
def fiber_selections(draw):
    """A 3- or 4-mode tensor in some memory layout, a mode, and a column set
    of that mode's unfolding: one column, every column, or a random subset."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=3, max_size=4)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    t = tensor_with_layout(dims, layout, draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, len(dims) - 1))
    total = t.size // dims[k]
    kind = draw(st.sampled_from(["one", "all", "subset"]))
    if kind == "one":
        cols = [draw(st.integers(0, total - 1))]
    elif kind == "all":
        cols = list(range(total))
    else:
        cols = sorted(draw(st.sets(st.integers(0, total - 1), min_size=1)))
    return t, k, np.array(cols)


class TestSelectFibersGather:
    @settings(max_examples=150, deadline=None)
    @given(fiber_selections())
    def test_matches_unfolding_columns_bit_for_bit(self, case):
        t, k, cols = case
        got = select_fibers(t, k, cols)
        ref = unfold(t, k)[:, cols]
        assert got.tobytes() == ref.tobytes()
        # same layout too, so matrix products of the fibers round identically
        assert got.shape == ref.shape and got.strides == ref.strides


@st.composite
def layout_cases(draw):
    """A 1- to 4-mode tensor stored C-ordered, F-ordered or strided, a mode,
    and a seed for the matrices applied to it."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    t = tensor_with_layout(dims, layout, draw(st.integers(0, 2**32 - 1)))
    return t, draw(st.integers(0, len(dims) - 1)), draw(st.integers(0, 2**32 - 1))


def assert_close(got, ref, scale):
    # entrywise rounding of a product is bounded by the product of magnitudes
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


class TestViewKernels:
    @settings(max_examples=200, deadline=None)
    @given(layout_cases(), st.integers(1, 4))
    def test_mode_product_matches_the_unfolding_reference(self, case, rows):
        t, k, seed = case
        a = np.random.default_rng(seed).standard_normal((rows, t.shape[k]))
        got = mode_product(t, a, k)
        dims = t.shape[:k] + (rows,) + t.shape[k + 1 :]
        ref = fold(a @ unfold(t, k), k, dims)
        assert_close(got, ref, (np.abs(a) @ np.abs(unfold(t, k))).max())
        if t.flags.c_contiguous:
            assert got.flags.c_contiguous
        elif t.flags.f_contiguous:
            assert got.flags.f_contiguous

    @settings(max_examples=100, deadline=None)
    @given(layout_cases(), st.data())
    def test_multi_mode_product_does_not_depend_on_the_mode_order(self, case, data):
        t, _, seed = case
        rng = np.random.default_rng(seed)
        modes = data.draw(st.permutations(range(t.ndim)))
        mats = [rng.standard_normal((int(rng.integers(1, 5)), d)) for d in t.shape]
        shuffled = t
        for k in modes:
            shuffled = mode_product(shuffled, mats[k], k)
        scale = multi_mode_product(np.abs(t), [np.abs(a) for a in mats]).max()
        assert_close(shuffled, multi_mode_product(t, mats), scale)

    @settings(max_examples=100, deadline=None)
    @given(layout_cases())
    def test_fold_inverts_unfold_bit_for_bit(self, case):
        t, k, _ = case
        back = fold(unfold(t, k), k, t.shape)
        assert back.shape == t.shape
        assert np.ascontiguousarray(back).tobytes() == np.ascontiguousarray(t).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(layout_cases())
    def test_gram_matches_the_unfolding_product(self, case):
        t, k, _ = case
        m = unfold(t, k)
        ref = m @ m.T
        assert_close(gram(t, k), ref, np.diagonal(ref).max())

    def test_gram_of_a_long_leading_mode_sums_chunks_of_slabs(self):
        t = tensor_with_layout((3000, 4, 3), "C", seed=59)
        m = unfold(t, 1)
        ref = m @ m.T
        assert_close(gram(t, 1), ref, np.diagonal(ref).max())


class TestNorms:
    def test_zero_tensor(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_all_ones_cube(self):
        assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))

    def test_norm_invariant_under_unfolding(self):
        rng = np.random.default_rng(55)
        t = rng.standard_normal((4, 3, 5))
        ref = np.sqrt(np.sum(t * t))
        assert frobenius_norm(t) == pytest.approx(ref, rel=1e-14)
        for k in range(3):
            assert frobenius_norm(unfold(t, k)) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_every_layout_matches_the_norm_of_a_c_copy(self, layout):
        t = tensor_with_layout((7, 5, 6), layout, seed=57)
        ref = np.linalg.norm(np.ascontiguousarray(t).ravel())
        assert frobenius_norm(t) == pytest.approx(ref, rel=1e-14)

    def test_fortran_ordered_input_is_not_copied(self):
        t = tensor_with_layout((64, 64, 64), "F", seed=58)
        tracemalloc.start()
        try:
            frobenius_norm(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * t.nbytes

    def test_spectral_norm_is_largest_singular_value(self):
        rng = np.random.default_rng(56)
        m = rng.standard_normal((6, 4))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])


def test_low_rank_helper_has_declared_rank():
    rng = np.random.default_rng(77)
    t = random_low_rank((8, 9, 7), (2, 3, 2), rng)
    from tensorcur import multilinear_rank

    assert multilinear_rank(t) == (2, 3, 2)
