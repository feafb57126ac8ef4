import numpy as np
import pytest

from tensorcur import (
    SamplingPlan,
    chidori_cur,
    coherence,
    composite_index,
    cur_with_indices,
    evaluate_error_bounds,
    fiber_cur,
    frobenius_norm,
    generate_synthetic,
    numerical_rank,
    relative_error,
    tensor_coherence,
)

from conftest import random_low_rank


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

    def test_premise_flags_off_when_noise_swamps_intersections(self):
        rng = np.random.default_rng(7)
        exact = random_low_rank((12, 12, 12), (2, 2, 2), rng)
        noise = 10.0 * rng.standard_normal(exact.shape)
        dec = cur_with_indices(exact + noise, [np.arange(0, 12, 2)] * 3, (2, 2, 2))
        report = evaluate_error_bounds(exact, noise, dec)
        assert not report.guaranteed
        assert not all(report.premise_ok)


class TestMetrics:
    def test_relative_error_of_exact_reconstruction(self):
        rng = np.random.default_rng(8)
        exact = random_low_rank((15, 15, 15), (2, 2, 2), rng)
        dec = verified_chidori(exact, exact, (2, 2, 2), (6, 6, 6))
        assert relative_error(exact, dec.reconstruct()) < 1e-9

    def test_relative_error_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_relative_error_is_scale_invariant_where_squares_overflow(self):
        rng = np.random.default_rng(10)
        x = 1e200 * rng.standard_normal((8, 8, 8))
        approx = x + 1e198 * rng.standard_normal(x.shape)
        got = relative_error(x, approx)
        assert np.isfinite(got)
        assert got == pytest.approx(relative_error(x * 1e-200, approx * 1e-200), rel=1e-12)

