import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorcur import (
    SamplingPlan,
    check_characterization,
    chidori_cur,
    composite_index,
    cur_to_hosvd,
    cur_with_indices,
    evaluate_error_bounds,
    fiber_cur,
    fiber_sample_sizes,
    frobenius_norm,
    multi_mode_product,
    multilinear_rank,
    numerical_rank,
    projection_reconstruct,
    read_tensor,
    relative_error,
    unfold,
    write_tensor,
)
from tensorcur import cur, tensor
from tensorcur.tensorfile import SlabReader
from tensorcur.cur import draw_indices
from tensorcur.tensor import residual

from conftest import random_low_rank


def exact_chidori(dims, ranks, tensor_seed, plan_seed_start=0, t_sizes=None):
    """Known-factor tensor plus a chidori decomposition whose intersections
    carry the full target rank (resampling the plan seed until they do)."""
    rng = np.random.default_rng(tensor_seed)
    t = random_low_rank(dims, ranks, rng)
    if t_sizes is None:
        t_sizes = tuple(min(d, 2 * r + 2) for d, r in zip(dims, ranks))
    for seed in range(plan_seed_start, plan_seed_start + 50):
        dec = chidori_cur(t, SamplingPlan(t_sizes, seed=seed), ranks)
        if all(numerical_rank(u, 1e-8) == r for u, r in zip(dec.intersections, ranks)):
            return t, dec
    raise AssertionError("no plan seed produced a full-rank intersection")


class TestChidori:
    def test_full_sampling_reconstructs_any_tensor(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 5, 3))
        plan = SamplingPlan((4, 5, 3), seed=1)
        dec = chidori_cur(t, plan, (4, 5, 3))
        assert relative_error(t, dec.reconstruct()) < 1e-12

    def test_fixture_core_rank_defect_blocks_reconstruction(self, slices_3x3x2):
        dec = cur_with_indices(slices_3x3x2, [[0, 1]] * 3, (2, 2, 2))
        assert multilinear_rank(dec.core) == (1, 2, 2)
        assert relative_error(slices_3x3x2, dec.reconstruct()) > 0.01

    def test_random_exact_instance_reconstructs(self):
        t, dec = exact_chidori((15, 15, 15), (2, 2, 2), tensor_seed=3, t_sizes=(6, 6, 6))
        assert relative_error(t, dec.reconstruct()) < 1e-9

    def test_intersections_equal_core_unfoldings(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((7, 6, 5))
        dec = chidori_cur(t, SamplingPlan((3, 4, 2), seed=9), (2, 2, 2))
        for i, u in enumerate(dec.intersections):
            assert np.array_equal(u, unfold(dec.core, i))

    def test_zero_tensor_reconstructs_to_zero(self):
        dec = cur_with_indices(np.zeros((4, 4, 4)), [[0, 1]] * 3, (1, 1, 1))
        assert np.all(dec.reconstruct() == 0)

    def test_plan_size_exceeding_extent(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((4, 4, 4))
        with pytest.raises(ValueError):
            chidori_cur(t, SamplingPlan((5, 4, 4), seed=0), (2, 2, 2))

    def test_length_weighted_plan_runs(self):
        rng = np.random.default_rng(7)
        t = random_low_rank((12, 12, 12), (2, 2, 2), rng)
        dec = chidori_cur(t, SamplingPlan((6, 6, 6), distribution="length", seed=2), (2, 2, 2))
        assert dec.core.shape == (6, 6, 6)


class TestFiber:
    def test_full_index_sets_reconstruct_low_rank_input(self):
        rng = np.random.default_rng(8)
        t = random_low_rank((6, 5, 4), (2, 2, 2), rng)
        rows = [np.arange(d) for d in t.shape]
        cols = [np.arange(t.size // d) for d in t.shape]
        dec = cur_with_indices(t, rows, (2, 2, 2), fiber_indices=cols)
        assert relative_error(t, dec.reconstruct()) < 1e-9

    def test_log_sized_sampling_reconstructs(self):
        dims, ranks = (40, 40, 40), (3, 3, 3)
        rng = np.random.default_rng(9)
        t = random_low_rank(dims, ranks, rng)
        t_sizes, s_sizes = fiber_sample_sizes(dims, ranks)
        for seed in range(25):
            plan = SamplingPlan(t_sizes, fiber_counts=s_sizes, seed=seed)
            dec = fiber_cur(t, plan, ranks)
            if all(numerical_rank(u, 1e-8) == 3 for u in dec.intersections):
                assert relative_error(t, dec.reconstruct()) < 1e-8
                break
        else:
            raise AssertionError("rank condition never held")

    def test_undersized_fibers_fail_the_rank_condition(self):
        dims, ranks = (20, 20, 20), (3, 3, 3)
        rng = np.random.default_rng(10)
        t = random_low_rank(dims, ranks, rng)
        plan = SamplingPlan((8, 8, 8), fiber_counts=(2, 2, 2), seed=4)
        dec = fiber_cur(t, plan, ranks)
        assert any(numerical_rank(u, 1e-8) < 3 for u in dec.intersections)
        report = check_characterization(t, dec)
        assert not report.intersection_rank_ok
        assert not report.exact

    def test_requires_fiber_counts(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((5, 5, 5))
        with pytest.raises(ValueError):
            fiber_cur(t, SamplingPlan((2, 2, 2), seed=0), (1, 1, 1))


class TestCharacterization:
    def test_fixture_report_matches_known_facts(self, slices_3x3x2):
        dec = cur_with_indices(slices_3x3x2, [[0, 1]] * 3, (2, 2, 2))
        report = check_characterization(slices_3x3x2, dec, tol=1e-8)
        assert report.intersection_ranks == (1, 2, 2)
        assert report.core_multilinear_rank == (1, 2, 2)
        assert report.fiber_ranks == (2, 2, 2)
        assert not report.intersection_rank_ok
        assert not report.core_rank_ok
        assert report.fiber_rank_ok
        assert not report.exact
        proj = projection_reconstruct(slices_3x3x2, dec)
        assert frobenius_norm(slices_3x3x2 - proj) < 1e-10

    def test_exact_instance_satisfies_every_condition(self):
        t, dec = exact_chidori((14, 12, 13), (2, 2, 2), tensor_seed=12)
        report = check_characterization(t, dec)
        assert report.intersection_rank_ok
        assert report.fiber_rank_ok
        assert report.core_rank_ok
        assert report.slab_rank_ok
        assert report.exact
        proj = projection_reconstruct(t, dec)
        assert relative_error(t, proj) < 1e-9

    @pytest.mark.parametrize("shape", [(12, 20, 20), (20, 20), (30, 30, 30)])
    def test_tensor_of_other_dims_is_rejected(self, shape):
        rng = np.random.default_rng(14)
        dec = chidori_cur(random_low_rank((20, 20, 20), (2, 2, 2), rng),
                          SamplingPlan((6, 6, 6), seed=0), (2, 2, 2))
        with pytest.raises(ValueError, match="decomposition dims do not match the tensor"):
            check_characterization(rng.standard_normal(shape), dec)

    def test_full_index_sets_trivially_pass(self):
        rng = np.random.default_rng(13)
        t = random_low_rank((6, 6, 6), (2, 2, 2), rng)
        dec = cur_with_indices(t, [np.arange(6)] * 3, (2, 2, 2))
        report = check_characterization(t, dec)
        assert report.intersection_rank_ok and report.exact

    def test_three_way_equivalence_on_random_instances(self):
        agreements = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dims = tuple(int(d) for d in rng.integers(10, 18, size=3))
            r = int(rng.integers(1, 4))
            ranks = (r,) * 3
            t = random_low_rank(dims, ranks, rng)
            sizes = tuple(int(rng.integers(1, d + 1)) for d in dims)
            fiber_sizes = tuple(
                int(rng.integers(1, min(t.size // d, 40) + 1)) for d in dims
            )
            plan = SamplingPlan(sizes, fiber_counts=fiber_sizes, seed=seed)
            dec = fiber_cur(t, plan, ranks)
            report = check_characterization(t, dec, tol=1e-8)
            cond_i = report.intersection_rank_ok
            cond_ii = report.exact
            cond_iii = report.fiber_rank_ok and report.core_rank_ok
            assert cond_i == cond_ii == cond_iii
            agreements += 1
        assert agreements == 20


class TestDeterminismAndReconstruction:
    def test_same_plan_gives_bitwise_identical_decomposition(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((9, 8, 7))
        plan = SamplingPlan((4, 4, 4), fiber_counts=(6, 6, 6), seed=77)
        a = fiber_cur(t, plan, (2, 2, 2))
        b = fiber_cur(t, plan, (2, 2, 2))
        assert np.array_equal(a.core, b.core)
        for x, y in zip(a.fibers + a.intersections, b.fibers + b.intersections):
            assert np.array_equal(x, y)
        for x, y in zip(a.row_indices + a.fiber_indices, b.row_indices + b.fiber_indices):
            assert np.array_equal(x, y)

    def test_mode_application_order_does_not_matter(self):
        t, dec = exact_chidori((10, 10, 10), (2, 2, 2), tensor_seed=15)
        maps = dec.mode_maps()
        from tensorcur import mode_product

        forward = dec.core
        for k in range(3):
            forward = mode_product(forward, maps[k], k)
        backward = dec.core
        for k in reversed(range(3)):
            backward = mode_product(backward, maps[k], k)
        assert np.max(np.abs(forward - backward)) <= 1e-12 * max(1.0, np.abs(forward).max())

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_reconstruction_is_in_the_storage_order(self, layout):
        # files are read and written F-ordered; an F reconstruction needs no
        # reordering copy when it is written or compared with its input
        t = random_low_rank((12, 11, 10), (2, 2, 2), np.random.default_rng(16))
        t = np.asfortranarray(t) if layout == "F" else np.ascontiguousarray(t)
        for dec in (chidori_cur(t, SamplingPlan((5, 5, 5), seed=3), (2, 2, 2)),
                    fiber_cur(t, SamplingPlan((5, 5, 5), (8, 8, 8), seed=3), (2, 2, 2))):
            assert dec.core.flags.f_contiguous
            assert dec.reconstruct().flags.f_contiguous


class TestEveryLayoutGathersTheSameBits:
    """C-ordered, F-ordered and strided copies of one tensor give the same
    core, fibers and intersections, in the same layout: the outermost mode
    of a contiguous copy is taken along its rows, every other gather indexes."""

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    @pytest.mark.parametrize("dims", [(9, 8), (1, 7), (7, 1), (6, 5, 4), (1, 1, 9), (7, 1, 9),
                                      (9, 1, 1), (5, 4, 3, 6), (1, 4, 1, 3)])
    def test_c_f_and_strided_copies_agree(self, variant, dims):
        a = np.random.default_rng(17).standard_normal(dims)
        strided = np.zeros(tuple(2 * d for d in dims))[(slice(None, None, 2),) * len(dims)]
        strided[...] = a
        t = tuple(min(d, 3) for d in dims)
        s = tuple(min(a.size // d, 4) for d in dims) if variant == "fiber" else None
        rows, cols = draw_indices(a, SamplingPlan(t, s, seed=18))
        ranks = tuple(min(d, 2) for d in dims)
        decs = [cur_with_indices(x, rows, ranks, cols)
                for x in (strided, np.ascontiguousarray(a), np.asfortranarray(a))]
        for dec in decs[1:]:
            for got, want in zip([dec.core, *dec.fibers, *dec.intersections],
                                 [decs[0].core, *decs[0].fibers, *decs[0].intersections],
                                 strict=True):
                assert got.shape == want.shape and got.strides == want.strides
                assert got.tobytes(order="A") == want.tobytes(order="A")


class TestConversion:
    def test_exact_instance_round_trip(self):
        t, dec = exact_chidori((13, 11, 12), (2, 2, 2), tensor_seed=16)
        converted = cur_to_hosvd(dec)
        assert relative_error(t, converted.reconstruct()) < 1e-9

    def test_rank_one_core_is_scalar_with_full_energy(self):
        rng = np.random.default_rng(17)
        t = random_low_rank((7, 6, 5), (1, 1, 1), rng)
        dec = cur_with_indices(t, [[0, 3], [1, 4], [0, 2]], (1, 1, 1))
        converted = cur_to_hosvd(dec)
        assert converted.core.shape == (1, 1, 1)
        assert abs(converted.core).max() == pytest.approx(frobenius_norm(t), rel=1e-9)

    def test_targets_above_the_rank_give_the_numerical_multilinear_rank(self):
        t = random_low_rank((12, 11, 10), (2, 2, 2), np.random.default_rng(19))
        dec = chidori_cur(t, SamplingPlan((8, 8, 8), seed=4), (4, 4, 4))
        converted = cur_to_hosvd(dec)
        assert converted.ranks == (2, 2, 2)
        assert relative_error(t, converted.reconstruct()) < 1e-9

    def test_rank_defective_core_fixture_keeps_its_core_rank(self, slices_3x3x2):
        dec = cur_with_indices(slices_3x3x2, [[0, 1]] * 3, (2, 2, 2))
        converted = cur_to_hosvd(dec)
        assert converted.ranks == (1, 2, 2)
        cur_rec = dec.reconstruct()
        parity = frobenius_norm(cur_rec - converted.reconstruct())
        assert parity <= 1e-12 * frobenius_norm(cur_rec)

    def test_zero_sample_converts_to_a_zero_core(self):
        # every intersection is zero, so no direction is inverted
        t = np.zeros((6, 5, 4))
        t[0, 0, 0] = 1.0
        dec = cur_with_indices(t, [[1, 2]] * 3, (1, 1, 1))
        converted = cur_to_hosvd(dec)
        assert converted.ranks == (1, 1, 1) and not converted.core.any()
        for w in converted.factors:
            assert np.linalg.norm(w.T @ w - np.eye(1)) < 1e-12

    def test_factors_orthonormal_and_parity_under_noise(self):
        rng = np.random.default_rng(18)
        exact = random_low_rank((12, 12, 12), (2, 2, 2), rng)
        noisy = exact + 1e-3 * rng.standard_normal(exact.shape)
        dec = chidori_cur(noisy, SamplingPlan((6, 6, 6), seed=3), (2, 2, 2))
        converted = cur_to_hosvd(dec)
        for w in converted.factors:
            assert np.linalg.norm(w.T @ w - np.eye(w.shape[1])) < 1e-10
        cur_rec = dec.reconstruct()
        parity = frobenius_norm(cur_rec - converted.reconstruct())
        assert parity <= 1e-9 * frobenius_norm(cur_rec)


class TestValidation:
    def test_bad_rank_count(self):
        with pytest.raises(ValueError):
            cur_with_indices(np.zeros((3, 3, 3)), [[0]] * 3, (1, 1))

    def test_rank_exceeding_extent(self):
        with pytest.raises(ValueError):
            cur_with_indices(np.ones((3, 3, 3)), [[0, 1]] * 3, (4, 1, 1))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            cur_with_indices(np.ones((3, 3, 3)), [[0, 0], [0, 1], [0, 1]], (1, 1, 1))

    def test_wrong_number_of_row_index_sets(self):
        with pytest.raises(ValueError, match="expected 3 row index sets, got 2"):
            cur_with_indices(np.ones((3, 3, 3)), [[0, 1]] * 2, (1, 1, 1))

    def test_wrong_number_of_fiber_index_sets(self):
        with pytest.raises(ValueError, match="expected 3 fiber index sets, got 2"):
            cur_with_indices(np.ones((3, 3, 3)), [[0, 1]] * 3, (1, 1, 1), [[0, 1]] * 2)

    def test_plan_with_the_wrong_number_of_row_counts(self):
        with pytest.raises(ValueError, match="plan has 2 row counts for a 3-mode tensor"):
            draw_indices(np.ones((3, 3, 3)), SamplingPlan((2, 2), seed=0))


class TestReadsOnlySampledEntries:
    @pytest.mark.parametrize("method", ["chidori", "fiber"])
    @pytest.mark.parametrize("distribution", ["uniform", "length"])
    def test_peak_memory_far_below_the_tensor(self, method, distribution):
        # an unfolding (or a squared copy) of the input would cost a.nbytes
        a = np.random.default_rng(0).standard_normal((64, 64, 64))
        ranks = (2, 2, 2)
        t, s = fiber_sample_sizes(a.shape, ranks)
        if method == "chidori":
            decompose, plan = chidori_cur, SamplingPlan(t, distribution=distribution, seed=1)
        else:
            decompose, plan = fiber_cur, SamplingPlan(t, s, distribution=distribution, seed=1)
        tracemalloc.start()
        try:
            decompose(a, plan, ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * a.nbytes


class TestSlabSourceGather:
    """``cur_with_indices`` over a file's chunks of last-mode slabs gives what
    it gives for the loaded tensor: the same bits in the same layout."""

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    @pytest.mark.parametrize("dims", [(13, 11, 9), (7, 6, 5, 9), (41,), (12, 10), (1, 1, 9),
                                      (7, 1, 9)])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_the_loaded_tensor(self, tmp_path, monkeypatch, variant, dims, dtype):
        path = tmp_path / "x.tnsr"
        write_tensor(path, np.random.default_rng(5).standard_normal(dims), dtype=dtype)
        x = read_tensor(path)
        t = tuple(min(d, 4) for d in dims)
        s = tuple(min(x.size // d, 5) for d in dims) if variant == "fiber" else None
        rows, cols = draw_indices(x, SamplingPlan(t, s, seed=6))
        ranks = tuple(min(d, 2) for d in dims)
        reference = cur_with_indices(x, rows, ranks, cols)
        # four slabs a chunk: the last extent is not a multiple of it
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 4 * 8 * x[..., 0].size)
        source = SlabReader(path)
        assert len(list(source)) == -(-dims[-1] // 4) > 1
        dec = cur_with_indices(source, rows, ranks, cols)
        assert dec.variant == reference.variant
        got = [dec.core, *dec.fibers, *dec.intersections]
        want = [reference.core, *reference.fibers, *reference.intersections]
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes(order="A") == b.tobytes(order="A")
        for a, b in zip(dec.fiber_indices, reference.fiber_indices):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("decompose", [chidori_cur, fiber_cur])
    def test_the_randomized_entry_points_take_a_slab_source(self, tmp_path, monkeypatch,
                                                              decompose):
        path = tmp_path / "x.tnsr"
        a = np.random.default_rng(10).standard_normal((13, 11, 9))
        write_tensor(path, a)
        plan, ranks = SamplingPlan((4, 5, 4), (6, 7, 6), seed=11), (2, 2, 2)
        want = decompose(a, plan, ranks)
        # three slabs a chunk, so the gather runs over three chunks
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 3 * 8 * a[..., 0].size)
        assert len(list(SlabReader(path))) == 3
        for x in (SlabReader(path), a.tolist()):
            got = decompose(x, plan, ranks)
            assert got.variant == want.variant
            for g, w in zip([got.core, *got.fibers, *got.intersections],
                            [want.core, *want.fibers, *want.intersections], strict=True):
                assert g.strides == w.strides and g.tobytes(order="A") == w.tobytes(order="A")
            for g, w in zip(got.row_indices + got.fiber_indices,
                            want.row_indices + want.fiber_indices, strict=True):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("call", ["draw_indices", "chidori_cur", "fiber_cur"])
    def test_a_length_plan_rejects_a_slab_source(self, tmp_path, call):
        path = tmp_path / "x.tnsr"
        write_tensor(path, np.random.default_rng(12).standard_normal((8, 7, 6)))
        plan = SamplingPlan((3, 3, 3), (5, 5, 5), distribution="length", seed=13)
        run = {
            "draw_indices": lambda x: draw_indices(x, plan),
            "chidori_cur": lambda x: chidori_cur(x, plan, (2, 2, 2)),
            "fiber_cur": lambda x: fiber_cur(x, plan, (2, 2, 2)),
        }[call]
        message = "^a length plan reads the whole tensor, not a source of its slabs$"
        with pytest.raises(ValueError, match=message):
            run(SlabReader(path))
        run(read_tensor(path))

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    def test_an_array_like_is_a_tensor(self, variant):
        class ArrayLike:  # as pandas, xarray, h5py or torch objects expose themselves
            def __init__(self, a):
                self.shape, self._a = a.shape, a

            def __array__(self, dtype=None, copy=None):
                return self._a

        a = np.random.default_rng(8).standard_normal((9, 8, 7))
        rows = ([0, 2, 5], [1, 3, 4, 7], [0, 6])
        cols = ([3, 10, 40], [1, 20, 50], [5, 30, 71]) if variant == "fiber" else None
        want, got = (cur_with_indices(x, rows, (2, 2, 2), cols) for x in (a, ArrayLike(a)))
        for g, w in zip([got.core, *got.fibers, *got.intersections],
                        [want.core, *want.fibers, *want.intersections]):
            assert g.strides == w.strides and g.tobytes(order="A") == w.tobytes(order="A")
        form = want.tucker_form()
        assert residual(ArrayLike(a), *form) == residual(a, *form)

    @pytest.mark.parametrize("consumer", ["gather", "residual"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c[:1] + c[2:], "does not continue slab 2"),
            (lambda c: c[:-1], "6 of 8 slabs read"),
            (lambda c: c[:2] + c[1:], "does not continue slab 4"),
            (lambda c: c[1:2] + c[:1] + c[2:], "does not continue slab 0"),
            (lambda c: [(0, c[0][1][:5])] + c[1:], "does not continue slab 0"),
            (lambda c: c[:3] + [(6, c[3][1][..., :1]), (7, c[3][1])], "does not continue slab 7"),
        ],
        ids=["dropped", "last-dropped", "repeated", "reordered", "wrong-shape", "overrun"],
    )
    def test_a_source_that_does_not_tile_the_slabs_is_rejected(self, consumer, edit, message):
        a = np.random.default_rng(9).standard_normal((6, 5, 8))
        chunks = edit([(s, a[..., s : s + 2]) for s in range(0, 8, 2)])

        class Source:
            shape = a.shape

            def __iter__(self):
                return iter(chunks)

        rows = ([0, 2, 5], [1, 3], [0, 3, 6])
        dec = cur_with_indices(a, rows, (2, 2, 2))
        with pytest.raises(ValueError, match=message):
            if consumer == "gather":
                cur_with_indices(Source(), rows, (2, 2, 2))
            else:
                residual(Source(), *dec.tucker_form())

    def test_chidori_intersections_are_the_core_unfoldings_in_c_order(self):
        a = np.random.default_rng(7).standard_normal((9, 8, 7))
        rows = ([0, 2, 5], [1, 3, 4, 7], [0, 6])
        dec = cur_with_indices(a, rows, (2, 2, 2))
        for i, (u, c, r) in enumerate(zip(dec.intersections, dec.fibers, dec.row_indices)):
            assert u.flags.c_contiguous and np.array_equal(u, unfold(dec.core, i))
            assert u.tobytes() == c[r, :].tobytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    def test_nan_in_a_sampled_fiber_outside_the_core_rows_is_rejected(self, variant):
        a = random_low_rank((20, 20, 20), (2, 2, 2), np.random.default_rng(0))
        fibers = (30, 30, 30) if variant == "fiber" else None
        plan = SamplingPlan((6, 6, 6), fibers, seed=3)
        rows, cols = draw_indices(a, plan)
        # a mode-0 fiber that the decomposition reads, at a row outside I_0
        j = composite_index(rows, 0, a.shape)[0] if cols is None else cols[0][0]
        a[np.setdiff1d(np.arange(20), rows[0])[0], j % 20, j // 20] = np.nan
        decompose = chidori_cur if variant == "chidori" else fiber_cur
        with pytest.raises(ValueError, match="non-finite"):
            decompose(a, plan, (2, 2, 2))

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    def test_nan_in_an_unsampled_entry_is_never_read(self, variant):
        a = random_low_rank((20, 20, 20), (2, 2, 2), np.random.default_rng(1))
        fibers = (30, 30, 30) if variant == "fiber" else None
        plan = SamplingPlan((6, 6, 6), fibers, seed=4)
        decompose = chidori_cur if variant == "chidori" else fiber_cur
        clean = decompose(a, plan, (2, 2, 2))
        read = np.zeros(a.shape, dtype=bool)
        read[np.ix_(*clean.row_indices)] = True
        for i, cols in enumerate(clean.fiber_indices):
            others = np.unravel_index(cols, [d for k, d in enumerate(a.shape) if k != i], order="F")
            np.moveaxis(read, i, 0)[(slice(None),) + others] = True
        a[np.unravel_index(np.flatnonzero(~read)[0], a.shape)] = np.nan
        dec = decompose(a, plan, (2, 2, 2))
        assert np.array_equal(dec.reconstruct(), clean.reconstruct())


    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    def test_samples_whose_squares_overflow_are_kept(self, variant):
        # the sums of squares of the 1e200-scaled core and fibers overflow; the
        # finiteness check retakes them in units of max|a|
        a = random_low_rank((20, 20, 20), (2, 2, 2), np.random.default_rng(2))
        fibers = (30, 30, 30) if variant == "fiber" else None
        plan = SamplingPlan((6, 6, 6), fibers, seed=5)
        decompose = chidori_cur if variant == "chidori" else fiber_cur
        clean = decompose(a, plan, (2, 2, 2))
        with np.errstate(over="ignore"):
            dec = decompose(1e200 * a, plan, (2, 2, 2))
            assert dec.rank_ok == clean.rank_ok
        assert np.array_equal(dec.core, 1e200 * clean.core)
        for c, ref in zip(dec.fibers, clean.fibers):
            assert np.array_equal(c, 1e200 * ref)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    @pytest.mark.parametrize("where", [(0, 1, 0), (1, 1, 0)])  # in the core, in a fiber only
    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    def test_one_non_finite_sampled_entry_is_rejected(self, variant, where, scale, value):
        a = scale * np.random.default_rng(7).standard_normal((9, 8, 7))
        rows = ([0, 2, 5], [1, 3, 4, 7], [0, 6])
        cols = None
        if variant == "fiber":
            cols = [composite_index(rows, i, a.shape) for i in range(3)]
        a[where] = value
        with pytest.raises(ValueError, match="the sampled core or fibers hold non-finite values"):
            cur_with_indices(a, rows, (2, 2, 2), cols)


@st.composite
def exact_rank_cases(draw):
    """Exact multilinear rank 3- and 4-mode tensors with random sample sizes."""
    n = draw(st.sampled_from([3, 4]))
    dims = tuple(draw(st.integers(2, 9 if n == 3 else 6)) for _ in range(n))
    ranks = tuple(draw(st.integers(1, min(d, 3))) for d in dims)
    # a core of these ranks has them as its unfolding ranks only if r_i^2 <= prod(r)
    assume(all(r * r <= int(np.prod(ranks)) for r in ranks))
    rows = tuple(draw(st.integers(1, d)) for d in dims)
    fibers = None
    if draw(st.booleans()):
        fibers = tuple(draw(st.integers(1, int(np.prod(dims)) // d)) for d in dims)
    return dims, ranks, SamplingPlan(rows, fibers, seed=draw(st.integers(0, 2**32 - 1)))


class TestRankGate:
    @settings(max_examples=80, deadline=None)
    @given(exact_rank_cases())
    def test_gate_matches_numerical_rank_and_certifies_exactness(self, case):
        dims, ranks, plan = case
        a = random_low_rank(dims, ranks, np.random.default_rng(plan.seed))
        rows, cols = draw_indices(a, plan)
        dec = cur_with_indices(a, rows, ranks, cols)
        maps, rank_ok = dec.mode_maps(), dec.rank_ok
        assert rank_ok == all(
            numerical_rank(u, 1e-6) >= r for u, r in zip(dec.intersections, ranks)
        )
        assert all(np.array_equal(m, p) for m, p in zip(maps, dec.mode_maps()))
        if rank_ok:
            assert relative_error(a, multi_mode_product(dec.core, maps)) <= 1e-8


class TestOneFactorizationPerDecomposition:
    """A decomposition factors each intersection once, on first use, and
    every reader shares those factors."""

    @pytest.fixture
    def pinv_calls(self, monkeypatch):
        calls = []
        factor = cur.rank_r_pinv_factors

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return factor(*args, **kwargs)

        monkeypatch.setattr(cur, "rank_r_pinv_factors", counting)
        return calls

    @pytest.mark.parametrize("dims, ranks", [((9, 8, 7), (2, 3, 2)), ((6, 5, 5, 4), (2, 2, 2, 2))])
    def test_every_reader(self, pinv_calls, dims, ranks):
        exact, dec = exact_chidori(dims, ranks, 4)
        noise = np.zeros(dims)
        assert dec.rank_ok
        dec.mode_maps()
        dec.tucker_form()
        dec.reconstruct()
        check_characterization(exact, dec)
        cur_to_hosvd(dec)
        evaluate_error_bounds(exact, noise, dec)
        assert len(pinv_calls) == len(dims)

    def test_tucker_form_reproduces_the_reconstruction(self):
        a = np.random.default_rng(8).standard_normal((9, 8, 7))
        dec = fiber_cur(a, SamplingPlan((5, 4, 4), (6, 7, 5), seed=2), (3, 2, 3))
        small, factors = dec.tucker_form()
        assert relative_error(dec.reconstruct(), multi_mode_product(small, factors)) <= 1e-12

    def test_replace_factors_afresh(self, pinv_calls):
        t, dec = exact_chidori((8, 7, 6), (2, 2, 2), 5)
        maps = dec.mode_maps()
        lower = dataclasses.replace(dec, ranks=(1, 1, 1))
        expected = cur_with_indices(t, dec.row_indices, (1, 1, 1)).mode_maps()
        assert len(pinv_calls) == 6
        assert all(np.array_equal(m, e) for m, e in zip(lower.mode_maps(), expected))
        assert all(np.array_equal(m, p) for m, p in zip(dec.mode_maps(), maps))
        assert len(pinv_calls) == 9
