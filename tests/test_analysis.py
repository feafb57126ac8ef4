import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import (
    SamplingPlan,
    check_characterization,
    chidori_cur,
    coherence,
    cur_with_indices,
    evaluate_error_bounds,
    fiber_cur,
    fiber_sample_sizes,
    frobenius_norm,
    generate_synthetic,
    numerical_rank,
    relative_error,
    tensor_coherence,
    unfold,
)
from tensorcur import tensor
from tensorcur.linalg import _leading_left_vectors
from tensorcur.tensor import composite_index

from conftest import random_low_rank, tensor_with_layout


def orthonormal(d, r, rng):
    return np.linalg.qr(rng.standard_normal((d, r)))[0]


class TestCoherence:
    def test_uniform_column_is_perfectly_incoherent(self):
        w = np.full((4, 1), 0.5)  # unit column with equal weight everywhere
        assert coherence(w) == 1.0

    def test_basis_vector_is_maximally_coherent(self):
        w = np.zeros((4, 1))
        w[0, 0] = 1.0
        assert coherence(w) == 4.0

    def test_random_orthonormal_range_and_recompute(self):
        rng = np.random.default_rng(0)
        w = orthonormal(50, 5, rng)
        mu = coherence(w)
        assert 1.0 <= mu <= 10.0
        direct = 50 / 5 * max(np.sum(w[i] ** 2) for i in range(50))
        assert mu == pytest.approx(direct, rel=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            coherence(np.ones((4, 2)))

    @pytest.mark.parametrize("w", [np.zeros((4, 0)), np.ones(4)], ids=["no-columns", "1-d"])
    def test_rejects_a_matrix_without_columns(self, w):
        message = "^coherence expects a matrix with at least one column$"
        with pytest.raises(ValueError, match=message):
            coherence(w)

    def test_tensor_report_bounds(self):
        rng = np.random.default_rng(1)
        t = random_low_rank((20, 18, 16), (3, 2, 4), rng)
        report = tensor_coherence(t, (3, 2, 4))
        for k, (mu, d, r) in enumerate(zip(report.mode_coherences, t.shape, (3, 2, 4))):
            assert 1.0 <= mu <= d / r + 1e-12
        assert report.coherence == max(report.mode_coherences)
        assert report.sigma_min <= report.sigma_max
        assert all(len(s) == r for s, r in zip(report.mode_singular_values, (3, 2, 4)))


def verified_chidori(exact, noisy, ranks, sizes, start_seed=0):
    for seed in range(start_seed, start_seed + 40):
        dec = chidori_cur(noisy, SamplingPlan(sizes, seed=seed), ranks)
        if all(numerical_rank(u, 1e-6) >= r for u, r in zip(dec.intersections, ranks)):
            return dec
    raise AssertionError("rank condition never held")


def sampled_decomposition(a, variant, plan):
    return (fiber_cur if variant == "fiber" else chidori_cur)(a, plan, (2, 2, 2))


class TestRankChecks:
    def test_tensor_coherence_names_the_rank_poor_mode(self):
        t = random_low_rank((10, 9, 8), (3, 2, 4), np.random.default_rng(11))
        with pytest.raises(ValueError, match=r"^mode 1 unfolding has numerical rank 2 < requested 3$"):
            tensor_coherence(t, (3, 3, 4))

    def test_tensor_coherence_rejects_non_finite_input(self):
        t = random_low_rank((6, 6, 6), (2, 2, 2), np.random.default_rng(12))
        t[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            tensor_coherence(t, (2, 2, 2))

    @pytest.mark.parametrize("ranks, message", [
        ((2, 0, 2), "rank 0 out of range for extent 9 at mode 1"),
        ((2, 2, 9), "rank 9 out of range for extent 8 at mode 2"),
        ((2, 2), "expected 3 ranks, got 2"),
    ])
    def test_tensor_coherence_validates_its_ranks(self, ranks, message):
        t = random_low_rank((10, 9, 8), (2, 2, 2), np.random.default_rng(11))
        with pytest.raises(ValueError, match=f"^{message}$"):
            tensor_coherence(t, ranks)

    @pytest.mark.parametrize("last, message", [
        (12, "^exact tensor and noise must have the same shape$"),
        (11, "^decomposition dims do not match the tensor$"),
    ])
    def test_error_bounds_reject_mismatched_shapes(self, last, message):
        # the decomposition is of a 12^3 tensor, the noise 12 x 12 x 11
        exact = random_low_rank((12, 12, 12), (2, 2, 2), np.random.default_rng(13))
        dec = cur_with_indices(exact, [np.arange(0, 12, 2)] * 3, (2, 2, 2))
        with pytest.raises(ValueError, match=message):
            evaluate_error_bounds(exact[..., :last], np.zeros((12, 12, 11)), dec)

    def test_error_bounds_name_the_rank_poor_mode(self):
        exact = random_low_rank((12, 12, 12), (2, 3, 3), np.random.default_rng(13))
        dec = cur_with_indices(exact, [np.arange(0, 12, 2)] * 3, (3, 3, 3))
        with pytest.raises(ValueError, match=r"^exact tensor has mode-0 rank 2, below target 3$"):
            evaluate_error_bounds(exact, np.zeros_like(exact), dec)


class TestErrorBounds:
    def test_zero_noise_zeroes_the_bound(self):
        rng = np.random.default_rng(2)
        exact = random_low_rank((15, 15, 15), (2, 2, 2), rng)
        dec = verified_chidori(exact, exact, (2, 2, 2), (6, 6, 6))
        report = evaluate_error_bounds(exact, np.zeros_like(exact), dec)
        assert report.general_bound == 0.0
        assert report.chidori_bound == 0.0
        assert report.guaranteed
        assert report.measured_error <= 1e-9 * frobenius_norm(exact)

    def test_gaussian_noise_dominance(self):
        exact, noisy, noise = generate_synthetic(30, 2, 1e-6, np.random.default_rng(3))
        dec = verified_chidori(exact, noisy, (2, 2, 2), (7, 7, 7))
        report = evaluate_error_bounds(exact, noise, dec)
        assert report.guaranteed
        assert report.measured_error <= report.general_bound
        assert report.measured_error <= report.chidori_bound

    def test_chidori_bound_dominates_general_bound(self):
        for seed in range(5):
            exact, noisy, noise = generate_synthetic(
                24, 2, 1e-7, np.random.default_rng(seed)
            )
            dec = verified_chidori(exact, noisy, (2, 2, 2), (7, 7, 7), start_seed=seed)
            report = evaluate_error_bounds(exact, noise, dec)
            assert report.chidori_bound >= report.general_bound

    def test_noise_confined_to_core_chidori(self):
        # every fiber-noise diagnostic collapses to the core noise norm
        rng = np.random.default_rng(4)
        exact = random_low_rank((16, 16, 16), (2, 2, 2), rng)
        dec = verified_chidori(exact, exact, (2, 2, 2), (6, 6, 6))
        noise = np.zeros_like(exact)
        block = 1e-8 * rng.standard_normal((6, 6, 6))
        noise[np.ix_(*dec.row_indices)] = block
        noisy_dec = cur_with_indices(
            exact + noise, dec.row_indices, dec.ranks
        )
        report = evaluate_error_bounds(exact, noise, noisy_dec)
        core_norm = frobenius_norm(block)
        assert report.core_noise_norm == pytest.approx(core_norm, rel=1e-12)
        for e_j, e_ij in zip(report.fiber_noise_norms, report.intersection_noise_norms):
            assert e_j == pytest.approx(core_norm, rel=1e-12)
            assert e_ij == pytest.approx(core_norm, rel=1e-12)
        assert report.guaranteed
        assert report.measured_error <= report.general_bound

    def test_noise_avoiding_fibers_leaves_only_the_core_term(self):
        # fiber columns disjoint from the core composite: the bound reduces to
        # its leading term and still dominates
        rng = np.random.default_rng(5)
        dims, ranks = (14, 14, 14), (2, 2, 2)
        exact = random_low_rank(dims, ranks, rng)
        rows = tuple(np.arange(0, 12, 2) for _ in range(3))  # even positions
        forbidden = [set(composite_index(rows, i, dims).tolist()) for i in range(3)]
        cols = []
        for i in range(3):
            total = exact.size // dims[i]
            pool = [c for c in range(total) if c not in forbidden[i]]
            cols.append(np.asarray(pool[:40], dtype=np.intp))
        noise = np.zeros_like(exact)
        noise[np.ix_(*rows)] = 1e-9 * rng.standard_normal((6, 6, 6))
        dec = cur_with_indices(exact + noise, rows, ranks, fiber_indices=tuple(cols))
        if any(numerical_rank(u, 1e-6) < 2 for u in dec.intersections):
            pytest.skip("sampled fibers lost rank; fixture needs different columns")
        report = evaluate_error_bounds(exact, noise, dec)
        assert all(e == 0.0 for e in report.fiber_noise_norms)
        assert all(e == 0.0 for e in report.intersection_noise_norms)
        lead = (
            (9.0 / 4.0) ** 3
            * np.prod(report.subfactor_pinv_norms)
            * report.core_noise_norm
        )
        assert report.general_bound == pytest.approx(lead, rel=1e-12)
        assert report.measured_error <= report.general_bound

    def test_fiber_variant_has_no_specialized_bound(self):
        rng = np.random.default_rng(6)
        exact = random_low_rank((12, 12, 12), (2, 2, 2), rng)
        plan = SamplingPlan((6, 6, 6), fiber_counts=(20, 20, 20), seed=1)
        dec = fiber_cur(exact, plan, (2, 2, 2))
        report = evaluate_error_bounds(exact, np.zeros_like(exact), dec)
        assert report.chidori_bound is None

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    @pytest.mark.parametrize("which", ["exact", "noise"])
    def test_a_non_finite_sampled_entry_is_named(self, variant, which):
        rng = np.random.default_rng(8)
        exact = random_low_rank((12, 12, 12), (2, 2, 2), rng)
        noise = 1e-6 * rng.standard_normal(exact.shape)
        plan = SamplingPlan((6, 6, 6), (20, 20, 20) if variant == "fiber" else None, seed=1)
        dec = sampled_decomposition(exact + noise, variant, plan)
        tensors = {"exact": exact, "noise": noise}
        tensors[which][tuple(rows[0] for rows in dec.row_indices)] = np.nan  # a core entry
        with pytest.raises(ValueError, match="^the sampled core or fibers hold non-finite values$"):
            evaluate_error_bounds(tensors["exact"], tensors["noise"], dec)

    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from(["chidori", "fiber"]), seed=st.integers(0, 2**32 - 1))
    def test_noise_outside_the_core_and_fibers_is_never_read(self, variant, seed):
        # the bounds are stated on the sampled noise alone, so redrawing every
        # other entry of the noise leaves the whole report unchanged
        rng = np.random.default_rng(seed)
        exact = random_low_rank((9, 8, 7), (2, 2, 2), rng)
        noise = 1e-3 * rng.standard_normal(exact.shape)
        plan = SamplingPlan((4, 4, 4), (9, 9, 9) if variant == "fiber" else None, seed=seed)
        dec = sampled_decomposition(exact + noise, variant, plan)
        sampled = np.zeros(exact.shape, dtype=bool)
        sampled[np.ix_(*dec.row_indices)] = True
        for i, cols in enumerate(dec.fiber_indices):
            others = list(np.unravel_index(cols, exact.shape[:i] + exact.shape[i + 1 :], order="F"))
            sampled[tuple(others[:i] + [slice(None)] + others[i:])] = True
        redrawn = np.where(sampled, noise, 10.0 * rng.standard_normal(exact.shape))
        before = evaluate_error_bounds(exact, noise, dec)
        after = evaluate_error_bounds(exact, redrawn, dec)
        assert not np.array_equal(redrawn, noise) or sampled.all()
        # core_noise_norm, fiber_noise_norms, intersection_noise_norms,
        # premise_ok and every field computed from them, bit for bit
        assert astuple(after) == astuple(before)

    def test_premise_flags_off_when_noise_swamps_intersections(self):
        rng = np.random.default_rng(7)
        exact = random_low_rank((12, 12, 12), (2, 2, 2), rng)
        noise = 10.0 * rng.standard_normal(exact.shape)
        dec = cur_with_indices(exact + noise, [np.arange(0, 12, 2)] * 3, (2, 2, 2))
        report = evaluate_error_bounds(exact, noise, dec)
        assert not report.guaranteed
        assert not all(report.premise_ok)


def projector(w):
    return w @ w.T


class TestUnfoldingSpectrum:
    # coherence and the bounds read each unfolding's leading subspace and
    # singular values from the shared kernel, which forms the Gram matrix
    # from a view of a wide unfolding and takes the thin SVD of a tall one
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("dims", [(12, 10, 9), (7, 6, 5, 4), (90, 5, 4)])
    def test_matches_the_svd_of_the_unfolding(self, dims, layout):
        t = tensor_with_layout(dims, layout, seed=20)
        r = 3
        for k in range(t.ndim):
            w, s, _ = _leading_left_vectors(t, k, r)
            w_ref, s_ref, _ = np.linalg.svd(unfold(t, k), full_matrices=False)
            if dims[k] > t.size // dims[k]:  # a tall mode takes the SVD itself
                assert np.array_equal(w, w_ref[:, :r]) and np.array_equal(s, s_ref)
            assert np.linalg.norm(projector(w) - projector(w_ref[:, :r]), 2) <= 1e-9
            np.testing.assert_allclose(s[:r], s_ref[:r], rtol=1e-9, atol=0)
        report = tensor_coherence(t, (r,) * t.ndim)
        for k, (mu, sv) in enumerate(zip(report.mode_coherences, report.mode_singular_values)):
            w_ref, s_ref, _ = np.linalg.svd(unfold(t, k), full_matrices=False)
            assert mu == pytest.approx(coherence(w_ref[:, :r]), rel=1e-9)
            np.testing.assert_allclose(sv, s_ref[:r], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("dims", [(14, 13, 12), (9, 8, 8, 7)])
    def test_no_svd_of_a_full_size_operand(self, monkeypatch, dims):
        ranks = (2,) * len(dims)
        exact, noisy, noise = generate_synthetic(dims, ranks, 1e-6, np.random.default_rng(21))
        dec = verified_chidori(exact, noisy, ranks, (6,) * len(dims))
        sizes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            sizes.append(np.size(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        tensor_coherence(noisy, ranks)
        evaluate_error_bounds(exact, noise, dec)
        assert sizes and max(sizes) < exact.size

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_coherence_peak_is_a_fraction_of_the_tensor(self, layout):
        t = tensor_with_layout((48, 48, 48), layout, seed=22)
        tracemalloc.start()
        try:
            tensor_coherence(t, (5, 5, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * t.nbytes


class TestStreamedError:
    """The bounds' measured error and the characterization's relative error
    are streamed from the decomposition's Tucker form."""

    @staticmethod
    def instance(dims, variant, sigma, seed):
        ranks = (2,) * len(dims)
        exact, noisy, noise = generate_synthetic(dims, ranks, sigma, np.random.default_rng(seed))
        t, s = fiber_sample_sizes(dims, ranks)
        plan = SamplingPlan(t, s if variant == "fiber" else None, seed=seed)
        dec = (fiber_cur if variant == "fiber" else chidori_cur)(noisy, plan, ranks)
        return exact, noisy, noise, dec

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    @pytest.mark.parametrize("dims", [(20, 18, 16), (9, 8, 7, 6)])
    def test_errors_match_the_full_reconstruction(self, variant, dims):
        exact, noisy, noise, dec = self.instance(dims, variant, 1e-3, 23)
        rec = dec.reconstruct()
        measured = evaluate_error_bounds(exact, noise, dec).measured_error
        assert measured == pytest.approx(frobenius_norm(exact - rec), rel=1e-9)
        rel = check_characterization(noisy, dec).relative_error
        assert rel == pytest.approx(relative_error(noisy, rec), rel=1e-9)

    @pytest.mark.parametrize("variant", ["chidori", "fiber"])
    @pytest.mark.parametrize("which", ["bounds", "characterization"])
    def test_peak_is_a_fraction_of_the_tensor(self, monkeypatch, variant, which):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1 << 16)
        exact, noisy, noise, dec = self.instance((64, 64, 64), variant, 1e-4, 24)
        assert dec.rank_ok  # the intersections are factored before the peak is taken
        tracemalloc.start()
        try:
            if which == "bounds":
                evaluate_error_bounds(exact, noise, dec)
            else:
                check_characterization(noisy, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full-size reconstruction and difference peaked at 2x
        assert peak < 0.5 * exact.nbytes


def perturbed_pair(dims, layout_a, layout_b, seed):
    """A reference of ``layout_a`` and, in ``layout_b``, the reference plus
    ``1e-3`` times an independent Gaussian tensor."""
    a = tensor_with_layout(dims, layout_a, seed)
    b = tensor_with_layout(dims, layout_b, seed + 1)
    b[...] = a + 1e-3 * b
    return a, b


def one_shot_relative_error(a, b):
    return frobenius_norm(np.asarray(a) - np.asarray(b)) / frobenius_norm(a)


class TestStreamedRelativeError:
    """``relative_error`` streams the difference through the residual kernel:
    the same value as the one-shot formula for every layout pair and chunking,
    the same non-finite results, and one chunk of memory."""

    LAYOUTS = ["C", "F", "strided"]
    CUBES = [(50,), (30, 30), (12, 12, 12), (7, 7, 7, 7)]

    @pytest.mark.parametrize("layout_b", LAYOUTS)
    @pytest.mark.parametrize("layout_a", LAYOUTS)
    @pytest.mark.parametrize("dims", [(40,), (30, 25), (16, 14, 12), (9, 8, 7, 6)])
    def test_matches_the_one_shot_formula(self, dims, layout_a, layout_b):
        a, b = perturbed_pair(dims, layout_a, layout_b, 70)
        want = one_shot_relative_error(a, b)
        assert relative_error(a, b) == pytest.approx(want, rel=1e-13)
        assert relative_error(b, a) == pytest.approx(one_shot_relative_error(b, a), rel=1e-13)

    @pytest.mark.parametrize("layouts", [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C"),
                                         ("strided", "C"), ("F", "strided")])
    @pytest.mark.parametrize("dims", CUBES)
    @pytest.mark.parametrize("slabs", [None, 2])  # one byte (one slab a chunk), two slabs
    def test_chunking_does_not_change_the_value(self, monkeypatch, dims, layouts, slabs):
        a, b = perturbed_pair(dims, *layouts, 71)
        whole = relative_error(a, b)
        # every slab of a cube holds d^(n-1) entries, whichever mode is chunked
        chunk_bytes = 1 if slabs is None else slabs * 8 * a.size // dims[0]
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
        assert relative_error(a, b) == pytest.approx(whole, rel=1e-13)
        assert relative_error(a, b) == pytest.approx(one_shot_relative_error(a, b), rel=1e-13)

    def test_a_scalar_pair_is_measured(self):
        assert relative_error(2.0, 1.0) == 0.5
        assert relative_error(np.float64(-4.0), np.float64(-3.0)) == 0.25

    @pytest.mark.parametrize("layouts", [("C", "C"), ("F", "F"), ("C", "F"), ("strided", "F")])
    @pytest.mark.parametrize(
        "first, last",
        [  # what the reference ("a") or the approximation ("b") holds in its first and last slab
            (("b", np.inf), ("b", np.nan)), (("b", np.nan), ("b", np.inf)),
            (("b", np.inf), ("b", -np.inf)), (("b", np.inf), None), (("b", np.nan), None),
            (("a", np.inf), None), (("a", np.nan), None), (("a", np.inf), ("b", np.inf)),
            (("a", -np.inf), ("b", np.nan)),
        ],
    )
    def test_non_finite_values_give_the_one_shot_result(self, monkeypatch, layouts, first, last):
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)  # the two corners in two chunks
        a, b = perturbed_pair((6, 5, 4), *layouts, 72)
        arrays = {"a": a, "b": b}
        for entry, index in ((first, (0, 0, 0)), (last, (-1, -1, -1))):
            if entry is not None:
                arrays[entry[0]][index] = entry[1]
        with np.errstate(invalid="ignore"):  # inf - inf, as in the one-shot difference
            got, want = relative_error(a, b), one_shot_relative_error(a, b)
        assert not np.isfinite(want)
        assert got == want or (np.isnan(got) and np.isnan(want))

    @pytest.mark.parametrize("layouts", [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C")])
    def test_peak_is_one_chunk(self, monkeypatch, layouts):
        a, b = perturbed_pair((128, 128, 128), *layouts, 73)

        def peak():
            tracemalloc.start()
            try:
                relative_error(a, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the one-shot difference peaked at 1.0x; a 4 MiB chunk is 0.25x of a 128^3 tensor
        assert peak() <= tensor._STREAM_CHUNK_BYTES + 0.01 * a.nbytes
        monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1 << 20)
        assert peak() <= 0.1 * a.nbytes


class TestMetrics:
    def test_relative_error_of_exact_reconstruction(self):
        rng = np.random.default_rng(8)
        exact = random_low_rank((15, 15, 15), (2, 2, 2), rng)
        dec = verified_chidori(exact, exact, (2, 2, 2), (6, 6, 6))
        assert relative_error(exact, dec.reconstruct()) < 1e-9

    def test_relative_error_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("approx", [np.ones(4), 1.0, np.ones((4, 3)), np.ones((3, 4, 1))])
    def test_relative_error_rejects_a_shape_that_would_broadcast(self, approx):
        message = f"approximation shape {np.shape(approx)} differs from the reference's (3, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            relative_error(np.ones((3, 4)), approx)

    def test_relative_error_is_scale_invariant_where_squares_overflow(self):
        rng = np.random.default_rng(10)
        x = 1e200 * rng.standard_normal((8, 8, 8))
        approx = x + 1e198 * rng.standard_normal(x.shape)
        got = relative_error(x, approx)
        assert np.isfinite(got)
        assert got == pytest.approx(relative_error(x * 1e-200, approx * 1e-200), rel=1e-12)

