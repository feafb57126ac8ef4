import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import (
    frobenius_norm,
    mode_product,
    multi_mode_product,
    numerical_rank,
    unfold,
)

from tensorcur import tensor, write_tensor
from tensorcur.tensor import as_index_array, check_ranks, composite_index, gram, residual
from tensorcur.tensorfile import SlabReader

from conftest import random_low_rank, tensor_with_layout


def gather(t, k, cols):
    """Columns ``cols`` of ``unfold(t, k)``, filled into a fresh F-ordered matrix."""
    return tensor._select_fibers(t, k, cols, np.empty((cols.size, t.shape[k])).T)


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

    @pytest.mark.parametrize("a", [np.ones(2), np.ones((1, 2, 2))], ids=["1-d", "3-d"])
    def test_a_non_matrix_is_rejected(self, a):
        with pytest.raises(ValueError, match="^mode_product expects a matrix$"):
            mode_product(storage_order_cube(), a, 0)


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

    @pytest.mark.parametrize("ranks", [(2.9, 2, 2), (2.0, 2, 2), (2, np.float64(2), 2),
                                       ("2", 2, 2)])
    def test_rejects_a_rank_that_is_not_an_integer(self, ranks):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            check_ranks(ranks, (5, 5, 5))


class TestSubtensorAndFibers:
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
                gathered = gather(t, k, cols)
                ref = unfold(t, k)[:, cols]
                assert gathered.tobytes() == ref.tobytes() and gathered.strides == ref.strides
                slab_sets = [np.arange(dims[m]) if m == k else sets[m] for m in range(3)]
                assert np.array_equal(gathered, unfold(t[np.ix_(*slab_sets)], k))

    def test_out_of_range_indices(self):
        # mode 0 of a 2x2x2 tensor has 4 columns
        with pytest.raises(ValueError, match="^index out of range for extent 4$"):
            as_index_array([4], 4)

    @pytest.mark.parametrize("cols", [[], [[0, 1]]], ids=["empty", "2-d"])
    def test_an_index_set_that_is_not_a_nonempty_sequence_is_rejected(self, cols):
        with pytest.raises(ValueError, match="^index set must be a nonempty 1-d sequence$"):
            as_index_array(cols, 4)

    @pytest.mark.parametrize("cols", [
        [0.9, 2.5], [0.0, 1.0], np.array([1e20]), np.array([1.5], np.float32),
        [True, False], np.array([1 + 0j]),
    ], ids=["fractional", "integral floats", "beyond intp", "float32", "bool", "complex"])
    def test_an_index_set_that_does_not_hold_integers_is_rejected(self, cols):
        # checked before any cast, so nothing is truncated or warned about
        with pytest.raises(TypeError, match="^index set must hold integers, got dtype "):
            as_index_array(cols, 4)

    @pytest.mark.parametrize("cols", [[1, 3], np.array([1, 3], np.int8),
                                      np.array([1, 3], np.uint64)])
    def test_an_integer_index_set_of_any_integer_dtype_is_taken(self, cols):
        idx = as_index_array(cols, 4)
        assert idx.dtype == np.intp and idx.tolist() == [1, 3]

    @pytest.mark.parametrize("sets, k, message", [
        ([[0], [0], [0]], 3, r"^mode 3 out of range for dims \(2, 2, 2\)$"),
        ([[0], [0], [0]], -1, r"^mode -1 out of range for dims \(2, 2, 2\)$"),
        ([[0], [0]], 0, "^expected 3 index-set entries, got 2$"),
    ])
    def test_composite_index_rejects_a_bad_mode_or_entry_count(self, sets, k, message):
        with pytest.raises(ValueError, match=message):
            composite_index(sets, k, (2, 2, 2))

    @pytest.mark.parametrize("dims", [(2, 2.5, 2), (2, 2, 2.0), (np.float64(2), 2, 2)])
    def test_composite_index_rejects_an_extent_that_is_not_an_integer(self, dims):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            composite_index([[0], [1], [1]], 0, dims)
        got = composite_index([[0], [1], [1]], 0, np.array([2, 2, 2]))
        assert got.tolist() == composite_index([[0], [1], [1]], 0, (2, 2, 2)).tolist() == [3]


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
        got = gather(t, k, cols)
        ref = unfold(t, k)[:, cols]
        assert got.tobytes() == ref.tobytes()
        # same layout too, so matrix products of the fibers round identically
        assert got.shape == ref.shape and got.strides == ref.strides


class TestFillInPlace:
    """The gather writes into the F-ordered view it is given, inside a larger
    buffer, and matches the unfolding's columns bit for bit, for every mode
    and layout."""

    @staticmethod
    def check(t, k, cols):
        block = np.full(cols.size * t.shape[k] + 2, np.nan)  # a view inside a larger buffer
        out = block[1:-1].reshape(cols.size, t.shape[k]).T
        got = tensor._select_fibers(t, k, cols, out)
        assert got is out and np.isnan(block[[0, -1]]).all()
        want = unfold(t, k)[:, cols]
        assert out.strides == want.strides and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("dims", [(7,), (6, 5), (5, 4, 3), (1, 4, 1), (4, 3, 2, 3)])
    def test_every_mode(self, layout, dims):
        t = tensor_with_layout(dims, layout, seed=62)
        rng = np.random.default_rng(63)
        for k, d in enumerate(dims):
            total = t.size // d
            self.check(t, k, np.sort(rng.choice(total, size=min(total, 5), replace=False)))

    @settings(max_examples=100, deadline=None)
    @given(fiber_selections())
    def test_any_selection(self, case):
        self.check(*case)


class TestOutermostModeGather:
    """The mode with the largest stride is taken along its rows in blocks,
    so the gather allocates one block and its converted indices, never a
    copy of its output."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("kind", ["chidori", "every other"])
    def test_peak_memory_is_the_output_and_one_block(self, layout, kind):
        t = tensor_with_layout((60, 60, 60), layout, seed=60)
        k = 0 if layout == "C" else 2
        if kind == "chidori":
            rng = np.random.default_rng(61)
            sets = [np.sort(rng.choice(60, size=21, replace=False)) for _ in range(3)]
            cols = composite_index(sets, k, t.shape)
        else:  # an output wider than the slack, so a whole temporary would not fit
            cols = np.arange(0, 3600, 2)
        out = np.empty((cols.size, t.shape[k])).T
        tracemalloc.start()
        try:
            got = tensor._select_fibers(t, k, cols, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of rows, and the column ids with their conversion to the view's order
        assert got is out and peak <= tensor._TAKE_BLOCK_BYTES + 4 * cols.nbytes, peak
        ref = unfold(t, k)[:, cols]
        assert got.strides == ref.strides and got.tobytes() == ref.tobytes()


@st.composite
def composite_cases(draw):
    """A 1- to 4-mode tensor in some memory layout, a mode, and one nonempty
    ascending index set per mode."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    t = tensor_with_layout(dims, layout, draw(st.integers(0, 2**32 - 1)))
    sets = [sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))) for d in dims]
    return t, draw(st.integers(0, len(dims) - 1)), sets


class TestCompositeIndexProperty:
    @settings(max_examples=200, deadline=None)
    @given(composite_cases())
    def test_gathers_the_slab_unfolding_bit_for_bit(self, case):
        t, k, sets = case
        cols = composite_index(sets, k, t.shape)
        slab_sets = [np.arange(d) if m == k else sets[m] for m, d in enumerate(t.shape)]
        got = gather(t, k, cols)
        ref = unfold(t[np.ix_(*slab_sets)], k)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        columns = unfold(t, k)[:, cols]
        assert got.strides == columns.strides and got.tobytes() == columns.tobytes()


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
        # fold: the unfolding's rows back to mode k, its columns to the other modes
        rest = t.shape[:k] + t.shape[k + 1 :]
        ref = np.moveaxis(np.reshape(a @ unfold(t, k), (rows,) + rest, order="F"), 0, k)
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

    def test_finite_input_is_summed_once_unscaled(self):
        t = tensor_with_layout((7, 5, 6), "F", seed=59)
        assert frobenius_norm(t) == float(np.linalg.norm(t.ravel(order="K")))

    def test_squares_that_overflow_are_scaled_and_infinite_entries_are_not(self):
        t = np.full((4, 4), 1e300)
        assert frobenius_norm(t) == pytest.approx(4e300, rel=1e-15)
        t[0, 0] = np.inf
        assert frobenius_norm(t) == np.inf

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_squares_that_underflow_are_scaled_and_a_zero_tensor_is_not(self, scale):
        # at 1e-160 the squares are subnormal; at 1e-170 and 1e-300 they are 0
        a = np.random.default_rng(0).standard_normal((20, 20, 20))
        np.testing.assert_allclose(frobenius_norm(a * scale), scale * frobenius_norm(a), rtol=1e-12)
        assert frobenius_norm(np.zeros((20, 20))) == 0.0
        assert frobenius_norm(np.zeros((0, 3))) == 0.0


def tucker_form(dims, ks, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(ks), [rng.standard_normal((d, k)) for d, k in zip(dims, ks)]


class TestResidual:
    """The streamed residual equals the norm of the difference with the full
    reconstruction, for every layout and chunking, and never holds it whole."""

    SHAPES = [((40,), (3,)), ((30, 25), (3, 2)), ((16, 14, 12), (2, 3, 2)),
              ((9, 8, 7, 6), (2, 2, 3, 2))]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("dims,ks", SHAPES)
    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 30])  # one slab, more than the tensor
    def test_matches_the_full_reconstruction(self, monkeypatch, layout, dims, ks, chunk_bytes):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
        x = tensor_with_layout(dims, layout, seed=60)
        core, factors = tucker_form(dims, ks, 61)
        ref = frobenius_norm(x - multi_mode_product(core, factors))
        assert residual(x, core, factors) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_reversed_view_factors(self, layout):
        dims = (20, 18, 16)
        x = tensor_with_layout(dims, layout, seed=62)
        core, factors = tucker_form(dims, (3, 3, 3), 63)
        views = [np.ascontiguousarray(f[:, ::-1])[:, ::-1] for f in factors]
        assert not any(v.flags.c_contiguous for v in views)
        ref = frobenius_norm(x - multi_mode_product(core, factors))
        assert residual(x, core, views) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 30])
    def test_writer_receives_the_last_mode_slabs_in_order(self, monkeypatch, layout,
                                                          chunk_bytes):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
        dims = (7, 6, 5)
        x = tensor_with_layout(dims, layout, seed=64)
        core, factors = tucker_form(dims, (2, 2, 2), 65)

        class Collect(list):
            def write(self, chunk):
                assert chunk.shape[:-1] == dims[:-1]
                self.append(chunk.copy())

        chunks = Collect()
        got = residual(x, core, factors, chunks)
        rec = multi_mode_product(core, factors)
        assert np.allclose(np.concatenate(chunks, axis=-1), rec, rtol=0, atol=1e-12)
        assert got == pytest.approx(frobenius_norm(x - rec), rel=1e-12)

    def test_a_form_of_other_dims_is_rejected(self):
        core, factors = tucker_form((4, 5, 6), (2, 2, 2), 66)
        with pytest.raises(ValueError, match="does not have the tensor's dims"):
            residual(np.zeros((5, 4, 6)), core, factors)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("first, last", [(np.inf, np.nan), (np.nan, np.inf), (np.inf, 1.0)])
    def test_non_finite_chunks_give_the_one_shot_norm(self, monkeypatch, layout, first, last):
        # math.hypot(inf, nan) is inf, where the whole difference's sum of squares is NaN
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)
        dims = (6, 5, 4)
        x = tensor_with_layout(dims, layout, seed=69)
        x[0, 0, 0], x[-1, -1, -1] = first, last
        core, factors = tucker_form(dims, (2, 2, 2), 70)
        want = frobenius_norm(x - multi_mode_product(core, factors))
        got = residual(x, core, factors)
        assert got == want or (np.isnan(got) and np.isnan(want))

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_peak_memory_is_one_chunk(self, monkeypatch, layout):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1 << 16)
        dims = (64, 64, 64)
        x = tensor_with_layout(dims, layout, seed=67)
        core, factors = tucker_form(dims, (4, 4, 4), 68)
        tracemalloc.start()
        try:
            residual(x, core, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 64 x 64 x 4 head (and its F-ordered copy) is 1/16 of the input
        assert peak < 0.25 * x.nbytes

    @pytest.mark.parametrize("source", [False, True])
    def test_no_head_of_the_first_modes_is_held(self, tmp_path, monkeypatch, source):
        # a 256 x 256 x 2 head of modes 0 and 1 is 1 MiB, twice a slab; the
        # inner core is 32 KiB
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)
        dims = (256, 256, 8)
        x = tensor_with_layout(dims, "F", seed=71)
        core, factors = tucker_form(dims, (8, 8, 2), 72)
        if source:
            write_tensor(tmp_path / "x.tnsr", x)
            x = SlabReader(tmp_path / "x.tnsr")
        slab = 8 * 256 * 256
        tracemalloc.start()
        try:
            residual(x, core, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 0.55 MiB in memory and 1.05 MiB from a file, a reconstructed
        # slab and the reader's
        assert peak < (1 + source) * slab + (1 << 18)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("dims", [(7, 6, 5), (6, 5, 4, 3)])
    @pytest.mark.parametrize("zero", ["first", "middle", "last"])
    def test_a_zero_width_factor_reconstructs_zeros(self, layout, dims, zero):
        # cur_to_hosvd's zero maps: the GEMMs' inner dimension k_0, or the inner
        # core's extent, is 0
        k = {"first": 0, "middle": len(dims) // 2, "last": len(dims) - 1}[zero]
        ks = tuple(0 if i == k else 2 for i in range(len(dims)))
        x = tensor_with_layout(dims, layout, seed=73)
        core, factors = tucker_form(dims, ks, 74)

        class Collect(list):
            def write(self, chunk):
                self.append(chunk.copy())

        chunks = Collect()
        for writer in (None, chunks):
            assert residual(x, core, factors, writer) == pytest.approx(frobenius_norm(x),
                                                                       rel=1e-15)
        got = np.concatenate(chunks, axis=-1)
        assert got.shape == dims and not got.any()


def test_low_rank_helper_has_declared_rank():
    rng = np.random.default_rng(77)
    t = random_low_rank((8, 9, 7), (2, 3, 2), rng)
    from tensorcur import multilinear_rank

    assert multilinear_rank(t) == (2, 3, 2)


class TestComplexInput:
    """A complex tensor raises ``ValueError`` naming its dtype before any
    work, where a cast to float64 would keep only its real part."""

    @pytest.mark.parametrize("call", [
        "chidori_cur", "chidori_cur_length", "fiber_cur", "cur_with_indices",
        "cur_with_indices_fiber", "hosvd", "st_hosvd", "hooi", "frobenius_norm",
        "relative_error", "relative_error_approx", "write_tensor",
    ])
    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    def test_is_rejected_naming_the_dtype(self, tmp_path, monkeypatch, call, dtype):
        import warnings

        import tensorcur as tc
        from tensorcur import cur, tucker

        def never(*args, **kwargs):
            raise AssertionError("work began on a complex input")

        for module, name in [(cur, "draw_indices"), (cur, "_gather"),
                             (tucker, "_leading_left_vectors")]:
            monkeypatch.setattr(module, name, never)
        rng = np.random.default_rng(64)
        real = rng.standard_normal((20, 20, 20))
        a = (real + 1j * rng.standard_normal(real.shape)).astype(dtype)
        rows = ([0, 3, 7], [1, 2, 9], [4, 5, 6])
        path = tmp_path / "x.tnsr"
        run = {
            "chidori_cur": lambda: tc.chidori_cur(a, tc.SamplingPlan((5, 5, 5)), (2, 2, 2)),
            "chidori_cur_length": lambda: tc.chidori_cur(
                a, tc.SamplingPlan((5, 5, 5), distribution="length"), (2, 2, 2)),
            "fiber_cur": lambda: tc.fiber_cur(a, tc.SamplingPlan((5, 5, 5), (9, 9, 9)),
                                              (2, 2, 2)),
            "cur_with_indices": lambda: tc.cur_with_indices(a, rows, (2, 2, 2)),
            "cur_with_indices_fiber": lambda: tc.cur_with_indices(a, rows, (2, 2, 2), rows),
            "hosvd": lambda: tc.hosvd(a, (2, 2, 2)),
            "st_hosvd": lambda: tc.st_hosvd(a, (2, 2, 2)),
            "hooi": lambda: tc.hooi(a, (2, 2, 2)),
            "frobenius_norm": lambda: frobenius_norm(a),
            "relative_error": lambda: tc.relative_error(a, real),
            "relative_error_approx": lambda: tc.relative_error(real, a),
            "write_tensor": lambda: write_tensor(path, a),
        }[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast would warn before it cut the input
            with pytest.raises(ValueError, match=f"^expected a real tensor, got dtype {dtype}$"):
                run()
        assert not path.exists()

    def test_real_inputs_of_other_dtypes_are_widened(self):
        a = np.arange(24).reshape(2, 3, 4)
        assert frobenius_norm(a) == frobenius_norm(a.astype(np.float64))
        assert frobenius_norm(a.tolist()) == frobenius_norm(a.astype(np.float64))
        assert frobenius_norm(a > 3) == frobenius_norm((a > 3).astype(np.float64))
