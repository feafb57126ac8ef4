import tracemalloc

import numpy as np
import pytest

from tensorcur import (
    frobenius_norm,
    hooi,
    hosvd,
    multi_mode_product,
    multilinear_rank,
    relative_error,
    st_hosvd,
    tucker,
    unfold,
)

import tensorcur.tensor
import tensorcur.tucker
from tensorcur.tensor import mode_product

from conftest import random_low_rank, tensor_with_layout


def noisy_instance(seed, dims=(12, 10, 11), ranks=(3, 2, 3), sigma=1e-2):
    rng = np.random.default_rng(seed)
    exact = random_low_rank(dims, ranks, rng)
    return exact + sigma * rng.standard_normal(dims), ranks


class TestHosvd:
    def test_exact_on_low_rank_input(self):
        rng = np.random.default_rng(0)
        t = random_low_rank((9, 8, 10), (2, 2, 2), rng)
        dec = hosvd(t, (2, 2, 2))
        assert relative_error(t, dec.reconstruct()) < 1e-9

    def test_full_ranks_reproduce_input(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((4, 5, 3))
        dec = hosvd(t, t.shape)
        assert relative_error(t, dec.reconstruct()) < 1e-12

    def test_fixture_exact_at_its_rank(self, slices_3x3x2):
        dec = hosvd(slices_3x3x2, (2, 2, 2))
        assert relative_error(slices_3x3x2, dec.reconstruct()) < 1e-9

    def test_compact_default_ranks(self):
        rng = np.random.default_rng(2)
        t = random_low_rank((7, 7, 7), (2, 3, 2), rng)
        dec = hosvd(t)
        assert dec.core.shape == (2, 3, 2)

    def test_rank_exceeding_extent(self):
        with pytest.raises(ValueError):
            hosvd(np.zeros((3, 3, 3)) + 1.0, (4, 3, 3))

    def test_unfolding_identity_with_reversed_kronecker_order(self):
        # X_(k) = W_k T_(k) (W_last x ... x W_first without k)^T under the
        # first-fastest column convention
        rng = np.random.default_rng(3)
        t = random_low_rank((6, 5, 7), (2, 2, 2), rng)
        dec = hosvd(t, (2, 2, 2))
        for k in range(3):
            others = [dec.factors[m] for m in reversed(range(3)) if m != k]
            structured = others[0]
            for blk in others[1:]:
                structured = np.kron(structured, blk)
            lhs = unfold(t, k)
            rhs = dec.factors[k] @ unfold(dec.core, k) @ structured.T
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.abs(lhs).max())


class TestStHosvd:
    def test_exact_on_low_rank_input(self):
        rng = np.random.default_rng(4)
        t = random_low_rank((10, 9, 8), (3, 2, 2), rng)
        dec = st_hosvd(t, (3, 2, 2))
        assert relative_error(t, dec.reconstruct()) < 1e-9

    def test_full_ranks_reproduce_input(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 4, 4))
        assert relative_error(t, st_hosvd(t, t.shape).reconstruct()) < 1e-12

    def test_error_close_to_plain_hosvd_on_noise(self):
        for seed in range(5):
            noisy, ranks = noisy_instance(seed)
            e_st = relative_error(noisy, st_hosvd(noisy, ranks).reconstruct())
            e_h = relative_error(noisy, hosvd(noisy, ranks).reconstruct())
            assert abs(e_st - e_h) <= 0.1 * e_h

    def test_core_shape_matches_ranks(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((6, 7, 8))
        assert st_hosvd(t, (2, 3, 4)).core.shape == (2, 3, 4)


class TestHooi:
    def test_exact_input_converges_immediately(self):
        rng = np.random.default_rng(7)
        t = random_low_rank((9, 9, 9), (2, 2, 2), rng)
        dec = hooi(t, (2, 2, 2), max_iters=1)
        assert relative_error(t, dec.reconstruct()) < 1e-9

    def test_full_ranks_reproduce_input(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 3, 5))
        assert relative_error(t, hooi(t, t.shape).reconstruct()) < 1e-12

    def test_fit_nonincreasing_over_sweeps(self):
        noisy, ranks = noisy_instance(42, sigma=0.3)
        errors = []
        for sweeps in range(1, 11):
            rec = hooi(noisy, ranks, max_iters=sweeps, tol=0.0).reconstruct()
            errors.append(frobenius_norm(noisy - rec))
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12

    def test_refines_hosvd(self):
        for seed in range(5):
            noisy, ranks = noisy_instance(seed, sigma=0.2)
            e_hooi = frobenius_norm(noisy - hooi(noisy, ranks).reconstruct())
            e_hosvd = frobenius_norm(noisy - hosvd(noisy, ranks).reconstruct())
            assert e_hooi <= e_hosvd + 1e-10


class TestOrthonormality:
    def test_all_methods_return_orthonormal_factors(self):
        noisy, ranks = noisy_instance(11)
        for dec in (hosvd(noisy, ranks), st_hosvd(noisy, ranks), hooi(noisy, ranks)):
            for w in dec.factors:
                assert np.linalg.norm(w.T @ w - np.eye(w.shape[1])) < 1e-10

    def test_all_methods_exact_on_exact_rank_input(self):
        rng = np.random.default_rng(12)
        t = random_low_rank((11, 10, 9), (3, 3, 3), rng)
        for method in (hosvd, st_hosvd, hooi):
            assert relative_error(t, method(t, (3, 3, 3)).reconstruct()) < 1e-9

    def test_reconstruction_has_declared_rank(self):
        rng = np.random.default_rng(13)
        t = random_low_rank((8, 8, 8), (2, 2, 2), rng)
        dec = hosvd(t, (2, 2, 2))
        assert multilinear_rank(dec.reconstruct()) == (2, 2, 2)


def planted_spectrum(ratio, noise, dims=(14, 12, 10), r=4, seed=0):
    """Tensor whose mode unfoldings all have the leading singular values
    ``geomspace(1, ratio, r)``, plus Gaussian noise of norm ``noise`` times
    the exact part's norm."""
    rng = np.random.default_rng(seed)
    core = np.zeros((r, r, r))
    core[np.arange(r), np.arange(r), np.arange(r)] = np.geomspace(1.0, ratio, r)
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d in dims]
    exact = multi_mode_product(core, factors)
    g = rng.standard_normal(dims)
    return exact + noise * frobenius_norm(exact) * g / frobenius_norm(g), (r, r, r)


def svd_left_vectors(t, k, r):
    m = unfold(t, k)
    return np.linalg.svd(m, full_matrices=False)[0][:, : min(r, *m.shape)]


class TestGramAgainstSvd:
    # factors come from eigh of the Gram matrix, which squares the condition
    # number; the reference swaps in the thin SVD of the same unfoldings
    @pytest.mark.parametrize("noise", [0.0, 1e-10, 1e-4])
    @pytest.mark.parametrize("ratio", [1.0, 1e-2, 1e-3, 1e-5, 1e-8])
    def test_error_and_subspaces_match_the_svd_reference(self, monkeypatch, ratio, noise):
        t, ranks = planted_spectrum(ratio, noise)
        methods = (hosvd, st_hosvd, hooi)
        got = [method(t, ranks) for method in methods]
        with monkeypatch.context() as patch:
            patch.setattr(tucker, "_leading_left_vectors", svd_left_vectors)
            ref = [method(t, ranks) for method in methods]
        for dec, dec_ref in zip(got, ref):
            e = relative_error(t, dec.reconstruct())
            assert e <= relative_error(t, dec_ref.reconstruct()) + 1e-12
            if ratio >= 1e-2:
                for w, w_ref in zip(dec.factors, dec_ref.factors):
                    assert np.linalg.norm(w @ w.T - w_ref @ w_ref.T, 2) <= 1e-9

    def test_ill_conditioned_exact_input_falls_back_to_the_svd(self):
        t, ranks = planted_spectrum(1e-8, 0.0)
        dec = hosvd(t)
        assert dec.ranks == ranks
        assert relative_error(t, dec.reconstruct()) < 1e-12

    @pytest.mark.parametrize("method", [hosvd, st_hosvd, hooi])
    def test_long_mode_does_not_form_its_gram_matrix(self, method):
        # the mode-0 unfolding is 4000 x 16, so its Gram matrix takes 128 MB
        d = 4000
        t = random_low_rank((d, 4, 4), (2, 2, 2), np.random.default_rng(0))
        tracemalloc.start()
        try:
            dec = method(t, (2, 2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * d * d * 8
        assert relative_error(t, dec.reconstruct()) < 1e-12


class TestNonFiniteInput:
    # (6, 5, 4) and (4, 3, 5, 2) take the Gram path at every mode; the long
    # mode 0 of (40, 3, 3) and (30, 2, 2, 3) takes the thin SVD
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dims", [(6, 5, 4), (4, 3, 5, 2), (40, 3, 3), (30, 2, 2, 3)])
    @pytest.mark.parametrize("method", [hosvd, st_hosvd, hooi])
    def test_rejected_with_a_clear_error(self, method, dims, value):
        t = np.random.default_rng(14).standard_normal(dims)
        t[(1,) * len(dims)] = value
        with pytest.raises(ValueError, match="non-finite"):
            method(t, (2,) * len(dims))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_entries_whose_squares_overflow_are_accepted(self):
        t = 1e200 * random_low_rank((6, 5, 4), (1, 1, 1), np.random.default_rng(15))
        dec = hosvd(t, (1, 1, 1))
        assert relative_error(t / 1e200, dec.reconstruct() / 1e200) < 1e-12


class TestMemory:
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("op", ["hosvd", "st_hosvd", "hooi", "mode_product"])
    def test_peak_is_a_fraction_of_the_tensor(self, op, layout):
        # no unfolding is copied: the Grams and products read views of t
        t = tensor_with_layout((64, 64, 64), layout, seed=16)
        w = np.linalg.qr(np.random.default_rng(17).standard_normal((64, 5)))[0]
        run = {
            "hosvd": lambda: hosvd(t, (5, 5, 5)),
            "st_hosvd": lambda: st_hosvd(t, (5, 5, 5)),
            "hooi": lambda: hooi(t, (5, 5, 5), max_iters=3),
            "mode_product": lambda: max(mode_product(t, w.T, k).size for k in range(3)),
        }[op]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * t.nbytes


@pytest.mark.parametrize("max_iters, tol, full_size", [(1, 1e-8, 4), (3, 0.0, 10)])
def test_hooi_reuses_the_cores_it_has(monkeypatch, max_iters, tol, full_size):
    # st_hosvd's core starts the iteration and each sweep's last partial
    # finishes its core, so only st_hosvd's first product and each factor
    # update multiply the full tensor
    t = np.random.default_rng(6).standard_normal((10, 9, 8))
    operands = []

    def counting(x, a, k):
        operands.append(np.size(x))
        return mode_product(x, a, k)

    monkeypatch.setattr(tensorcur.tensor, "mode_product", counting)
    monkeypatch.setattr(tensorcur.tucker, "mode_product", counting)
    hooi(t, (3, 3, 3), max_iters=max_iters, tol=tol)
    assert operands.count(t.size) == full_size
