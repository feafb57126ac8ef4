import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import multilinear_rank, numerical_rank, unfold
from tensorcur.linalg import rank_r_pinv_factors


def rank_deficient(rows, cols, rank, rng):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def factored_pinv(m, r):
    """The rank-``r`` pseudoinverse ``left @ right.T`` of ``rank_r_pinv_factors``."""
    left, right, _ = rank_r_pinv_factors(m, r)
    return left @ right.T


def numpy_pinv(m):
    """numpy's pseudoinverse at the package's cutoff, ``max(rows, cols) * eps * sigma_1``."""
    return np.linalg.pinv(m, rcond=max(m.shape) * np.finfo(np.float64).eps)


class TestFactoredRankRPinv:
    def test_full_rank_request_equals_pinv(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 4))
        assert np.allclose(factored_pinv(m, 4), numpy_pinv(m), atol=1e-12)

    def test_rank_zero_is_zero_matrix(self):
        m = np.ones((3, 5))
        got = factored_pinv(m, 0)
        assert got.shape == (5, 3)
        assert np.all(got == 0)

    def test_matches_pinv_of_truncated_reconstruction(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 6))
        w, s, vt = np.linalg.svd(m, full_matrices=False)
        truncated = (w[:, :3] * s[:3]) @ vt[:3]
        assert np.linalg.norm(factored_pinv(m, 3) - numpy_pinv(truncated)) < 1e-10

    def test_result_rank_at_most_r(self):
        rng = np.random.default_rng(8)
        for r in range(5):
            m = rng.standard_normal((7, 6))
            assert numerical_rank(factored_pinv(m, r)) <= r

    def test_effective_rank_reduction_on_deficient_input(self):
        rng = np.random.default_rng(9)
        m = rank_deficient(8, 6, 2, rng)
        got = factored_pinv(m, 5)  # only 2 usable directions
        assert numerical_rank(got) == 2
        assert np.allclose(got, numpy_pinv(m), atol=1e-10)

    def test_negative_rank(self):
        with pytest.raises(ValueError):
            rank_r_pinv_factors(np.eye(2), -1)

    @pytest.mark.parametrize("f", [lambda m: rank_r_pinv_factors(m, 1), numerical_rank],
                             ids=["rank_r_pinv_factors", "numerical_rank"])
    def test_a_non_matrix_is_rejected(self, f):
        with pytest.raises(ValueError, match="^expected a matrix$"):
            f(np.ones(3))


def planted_singular_values(shape, ratio, noise, r=4, seed=0):
    """``(m, pinv_r)``: ``m`` has the singular values ``geomspace(1, ratio, r)``
    and a tail of ``noise * geomspace(1, 0.5, .)``, and ``pinv_r`` is the
    pseudoinverse of its best rank-``r`` part, from the planted factors."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    n = min(shape)
    u = np.linalg.qr(rng.standard_normal((rows, n)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, n)))[0]
    s = np.concatenate([np.geomspace(1.0, ratio, r), noise * np.geomspace(1.0, 0.5, n - r)])
    top = np.argsort(-s, kind="stable")[:r]
    return (u * s) @ v.T, (v[:, top] / s[top]) @ u[:, top].T


def with_layout(m, layout):
    """``m`` stored C-ordered, F-ordered, or as a strided view of a larger array."""
    if layout == "C":
        return np.ascontiguousarray(m)
    if layout == "F":
        return np.asfortranarray(m)
    base = np.zeros((2 * m.shape[0], 2 * m.shape[1]))
    base[::2, ::2] = m
    view = base[::2, ::2]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


def svd_pinv_factors(m, r):
    """The reference kernel: the factored rank-``r`` pseudoinverse from the thin
    SVD of ``m``."""
    w, s, vt = np.linalg.svd(m, full_matrices=False)
    k = min(r, int(np.count_nonzero(s > 1e-14 * s[0])))
    return vt[:k].T / s[:k], w[:, :k], s


def recorded_operands(monkeypatch, name):
    """The shapes of the operands that ``np.linalg.<name>`` is called with
    from now on, in order."""
    operands = []
    original = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        operands.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return operands


def gate_count(s):
    return int(np.count_nonzero(s > 1e-6 * s[0]))


class TestFactoredPinvAgainstSvd:
    # a wide matrix takes its pseudoinverse from eigh of its Gram matrix, which
    # squares the condition number; the reference is the thin SVD of the same
    # matrix, and both are measured against the planted pinv_r.  The Gram is
    # formed by tensor.gram, which reads an F-ordered matrix as its transpose
    # and copies a strided one
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("noise", [0.0, 1e-10, 1e-4])
    @pytest.mark.parametrize("ratio", [1.0, 1e-1, 1e-2, 1.1e-3, 1e-3, 1e-5, 1e-8])
    @pytest.mark.parametrize("shape", [(12, 40), (16, 16), (40, 12), (24, 600)])
    def test_error_rank_and_gate_match_the_svd_reference(self, shape, ratio, noise, layout):
        for seed in range(3):
            m, pinv_r = planted_singular_values(shape, ratio, noise, seed=seed)
            m = with_layout(m, layout)
            left, right, s = rank_r_pinv_factors(m, 4)
            left_ref, right_ref, s_ref = svd_pinv_factors(m, 4)
            got, ref = left @ right.T, left_ref @ right_ref.T
            assert np.array_equal(factored_pinv(m, 4), got)
            scale = np.linalg.norm(pinv_r)
            err = np.linalg.norm(got - pinv_r) / scale
            assert err <= np.linalg.norm(ref - pinv_r) / scale + 1e-12
            assert left.shape[1] == right.shape[1] == left_ref.shape[1]
            assert s.shape == s_ref.shape
            assert gate_count(s) == gate_count(s_ref)

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    def test_near_the_gram_limit_the_gram_path_is_taken(self, monkeypatch, noise):
        # sigma_4 / sigma_1 = 1.1e-3 passes the Gram gate; without the
        # Rayleigh-Ritz step the error here is ~1e-10, and with it alone ~1e-11
        # at the 1e-4 noise floor, against ~1e-13 for the SVD
        m, _ = planted_singular_values((12, 40), 1.1e-3, noise)
        operands = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            operands.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        rank_r_pinv_factors(m, 4)
        assert operands == [(12, 4)]

    @pytest.mark.parametrize("shape", [(12, 40), (24, 600)])
    def test_the_tall_panels_take_no_householder_qr(self, monkeypatch, shape):
        # the cols x q panels are orthonormalized from their Grams; only the
        # rows x q panel m @ y is QR-factored
        m, _ = planted_singular_values(shape, 1e-2, 1e-4)
        svd, qr = recorded_operands(monkeypatch, "svd"), recorded_operands(monkeypatch, "qr")
        rank_r_pinv_factors(m, 4)
        assert svd == [(shape[0], 4)]  # the Gram path
        assert qr == [(shape[0], 4)]

    @pytest.mark.parametrize("scale", [1e150, 1e-140])
    def test_a_scaled_matrix_scales_the_factors(self, monkeypatch, scale):
        # the panels' Grams hold sigma^2: neither overflows nor underflows
        # where the Gram of m itself does not
        m, _ = planted_singular_values((24, 600), 1e-2, 1e-4)
        left, right, s = rank_r_pinv_factors(m, 4)
        svd = recorded_operands(monkeypatch, "svd")
        left_s, right_s, s_s = rank_r_pinv_factors(scale * m, 4)
        assert svd == [(24, 4)]  # the Gram path
        ref = left @ right.T
        got = scale * (left_s @ right_s.T)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        # the leading values come from the Rayleigh-Ritz SVD, the rest from the
        # Gram's eigenvalues, which are accurate to eps * sigma_1^2
        assert np.allclose(s_s[:4] / scale, s[:4], rtol=1e-12, atol=0.0)
        assert np.allclose(s_s / scale, s, rtol=0.0, atol=1e-12 * s[0])

    def test_a_request_beyond_the_row_count_inverts_every_row(self):
        m = np.random.default_rng(3).standard_normal((3, 10))
        left, right, s = rank_r_pinv_factors(m, 5)
        assert left.shape == (10, 3) and right.shape == (3, 3) and s.shape == (3,)
        assert np.linalg.norm(left @ right.T - np.linalg.pinv(m)) <= 1e-12 * np.linalg.norm(
            np.linalg.pinv(m)
        )

    def test_squares_that_overflow_take_the_svd(self):
        m = 1e200 * np.random.default_rng(4).standard_normal((5, 8))
        with np.errstate(over="ignore"):
            got = rank_r_pinv_factors(m, 3)
        ref = svd_pinv_factors(m, 3)
        for x, y in zip(got, ref):
            assert np.all(np.isfinite(x)) and np.array_equal(x, y)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_one_non_finite_entry_is_rejected(self, value, scale):
        # at 1e200 the finite entries' squares overflow too
        m = scale * np.random.default_rng(4).standard_normal((5, 8))
        m[3, 6] = value
        for f in (lambda x: rank_r_pinv_factors(x, 3), numerical_rank):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                f(m)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-170])
    def test_squares_that_underflow_take_the_svd(self, scale):
        # the Gram's diagonal is below tiny / eps, so its entries lost precision
        m = scale * np.random.default_rng(4).standard_normal((5, 8))
        got = rank_r_pinv_factors(m, 3)
        ref = svd_pinv_factors(m, 3)
        for x, y in zip(got, ref):
            assert np.all(np.isfinite(x)) and np.array_equal(x, y)

    def test_zero_and_rank_zero(self):
        left, right, s = rank_r_pinv_factors(np.zeros((3, 5)), 2)
        assert left.shape == (5, 0) and right.shape == (3, 0)
        assert np.array_equal(s, np.zeros(3))
        left, right, s = rank_r_pinv_factors(np.ones((3, 5)), 0)
        assert left.shape == (5, 0) and right.shape == (3, 0) and s.size == 0


@st.composite
def planted_rank_matrices(draw):
    """A matrix with ``rank`` singular values in ``[1e-3, 1]`` times a scale,
    the rest exactly zero; zero and empty matrices included."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    s = 10.0 ** rng.uniform(-3.0, 0.0, rank) * 10.0 ** draw(st.integers(-5, 5))
    return (u * s) @ v.T, rank


def svd_count(m, tol):
    """Singular values of ``m`` from ``np.linalg.svd`` above ``tol * sigma_1``,
    by default ``tol = max(rows, cols) * eps``."""
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if tol is None:
        tol = max(m.shape) * np.finfo(np.float64).eps
    return int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0


class TestNumericalRankProperties:
    @settings(max_examples=150, deadline=None)
    @given(planted_rank_matrices(), st.sampled_from([None, 1e-6, 1e-12]))
    def test_equals_svd_count_and_planted_rank(self, case, tol):
        m, rank = case
        assert numerical_rank(m, tol) == svd_count(m, tol) == rank

    @settings(max_examples=100, deadline=None)
    @given(planted_rank_matrices(), st.sampled_from([1e-2, 0.1, 0.5]))
    def test_equals_svd_count_when_the_cutoff_splits_the_spectrum(self, case, tol):
        m, _ = case
        assert numerical_rank(m, tol) == svd_count(m, tol)


class TestRankAndQr:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_fixture_unfolding_rank(self, slices_3x3x2):
        assert numerical_rank(unfold(slices_3x3x2, 0)) == 2
        assert multilinear_rank(slices_3x3x2) == (2, 2, 2)

    def test_tolerance_controls_count(self):
        m = np.diag([1.0, 1e-3, 1e-9])
        assert numerical_rank(m, tol=1e-6) == 2
        assert numerical_rank(m, tol=1e-12) == 3
