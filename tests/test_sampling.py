import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import (
    SamplingPlan,
    chidori_cur,
    chidori_sample_sizes,
    fiber_cur,
    fiber_sample_sizes,
    generate_synthetic,
    sample_without_replacement,
    unfold,
)
from tensorcur import sampling
from tensorcur.cur import draw_indices
from tensorcur.sampling import mode_length_distributions

from conftest import tensor_with_layout


def sequential_cumsum_draw(probabilities, k, rng):
    """Reference weighted draw: one full cumulative sum per draw, ``O(k n)``."""
    p = np.array(probabilities, dtype=np.float64)
    out = np.empty(k, dtype=np.intp)
    for i in range(k):
        cum = np.cumsum(p)
        u = rng.random() * cum[-1]
        j = int(np.searchsorted(cum, u, side="right"))
        j = min(j, p.size - 1)
        while p[j] == 0.0:
            j -= 1
        out[i] = j
        p[j] = 0.0
    return out


def scalar_fisher_yates(n, k, rng):
    """Reference uniform draw: one scalar ``integers`` call per index."""
    swapped = {}
    out = np.empty(k, dtype=np.intp)
    for i in range(k):
        j = int(rng.integers(i, n))
        out[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    return out


def skewed_weights(n, zero_frac, seed):
    """Heavy-tailed nonnegative weights with exact zeros and at least one
    positive entry."""
    rng = np.random.default_rng(seed)
    p = np.exp(4.0 * rng.standard_normal(n))
    p[rng.random(n) < zero_frac] = 0.0
    if not p.any():
        p[rng.integers(n)] = 1.0
    return p


def unfolding_lengths(t, k, axis):
    """The length-squared distribution over the rows or columns of
    ``unfold(t, k)``, by plain numpy rather than the package's kernel."""
    u = unfold(t, k)
    return (u * u).sum(1 if axis == "rows" else 0) / (u * u).sum()


# numpy functions through which a pass could read the whole tensor
READERS = ("einsum", "square", "multiply", "divide", "abs", "isfinite", "sum", "dot",
           "matmul", "tensordot", "copyto", "ascontiguousarray", "asfortranarray")


def worked_matrices():
    m = np.random.default_rng(0).standard_normal((6, 9))
    total = np.sum(m * m)
    return [
        (np.eye(3), np.full(3, 1.0 / 3.0), np.full(3, 1.0 / 3.0)),
        (np.diag([1.0, 2.0]), [0.2, 0.8], [0.2, 0.8]),
        (m, np.sum(m * m, axis=1) / total, np.sum(m * m, axis=0) / total),
    ]


class TestModeLengthDistributions:
    @pytest.mark.parametrize("m,rows,cols", worked_matrices(), ids=["eye3", "diag12", "6x9"])
    def test_worked_examples(self, m, rows, cols):
        # mode 0 of a matrix is the matrix itself; mode 1 is its transpose
        (p, q), (p_cols, q_cols) = mode_length_distributions(m, fibers=True)
        np.testing.assert_allclose(p, rows, rtol=1e-12)
        np.testing.assert_allclose(p_cols, cols, rtol=1e-12)
        np.testing.assert_allclose(q, cols, rtol=1e-12)
        np.testing.assert_allclose(q_cols, rows, rtol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12 and abs(p_cols.sum() - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.sampled_from(["C", "F", "strided"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_unfoldings(self, dims, layout, fibers, seed):
        t = tensor_with_layout(tuple(dims), layout, seed)
        rows, cols = mode_length_distributions(t, fibers)
        assert len(rows) == t.ndim
        for k, p in enumerate(rows):
            np.testing.assert_allclose(p, unfolding_lengths(t, k, "rows"), rtol=1e-12)
        if not fibers:
            assert cols is None
            return
        assert len(cols) == t.ndim
        for k, q in enumerate(cols):
            np.testing.assert_allclose(q, unfolding_lengths(t, k, "cols"), rtol=1e-12)

    @pytest.mark.parametrize("dims", [(4,), (3, 4), (2, 3, 4), (2, 2, 3, 2)])
    @pytest.mark.parametrize("fibers", [False, True])
    def test_zero_tensor_is_degenerate(self, dims, fibers):
        with pytest.raises(ValueError, match="degenerate"):
            mode_length_distributions(np.zeros(dims), fibers)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("dims", [(11,), (11, 13), (11, 4, 13), (11, 3, 4, 13)])
    @pytest.mark.parametrize("fibers", [False, True])
    @pytest.mark.parametrize("slabs", [1, 2])
    def test_chunk_boundaries(self, monkeypatch, layout, dims, fibers, slabs):
        # chunks of one slab, or of two, which do not divide 11 or 13 leading slabs
        t = tensor_with_layout(dims, layout, seed=len(dims))
        lead = dims[-1] if layout == "F" else dims[0]
        monkeypatch.setattr(sampling, "_NORM_CHUNK_BYTES", slabs * (t.nbytes // lead))
        rows, cols = mode_length_distributions(t, fibers)
        for k, p in enumerate(rows):
            np.testing.assert_allclose(p, unfolding_lengths(t, k, "rows"), rtol=1e-12)
        for k, q in enumerate(cols or []):
            np.testing.assert_allclose(q, unfolding_lengths(t, k, "cols"), rtol=1e-12)

    @pytest.mark.parametrize(
        "distribution,variant,passes",
        [("length", "fiber", 1), ("length", "chidori", 1), ("uniform", "fiber", 0),
         ("uniform", "chidori", 0)],
    )
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_full_tensor_passes(self, monkeypatch, distribution, variant, passes, layout):
        t = tensor_with_layout((17, 8, 9), layout, seed=6)
        read = []

        def counting(name):
            # entries of t read by one call: an operand given twice is read once
            f = getattr(np, name)

            def spy(*operands, **kwargs):
                sizes = [np.size(op) for op in operands if np.may_share_memory(op, t)]
                read.append(max(sizes, default=0))
                return f(*operands, **kwargs)

            return spy

        for name in READERS:
            monkeypatch.setattr(np, name, counting(name))
        if variant == "fiber":
            fiber_cur(t, SamplingPlan((3, 3, 3), (5, 5, 5), distribution), (2, 2, 2))
        else:
            chidori_cur(t, SamplingPlan((3, 3, 3), distribution=distribution), (2, 2, 2))
        assert sum(read) == passes * t.size

    @pytest.mark.parametrize("fibers", [False, True])
    def test_squares_that_overflow_are_taken_in_units_of_the_largest_entry(self, fibers):
        a = np.random.default_rng(4).standard_normal((9, 7, 8))
        rows, cols = mode_length_distributions(a, fibers)
        big_rows, big_cols = mode_length_distributions(a * 1e160, fibers)
        for p, q in zip(rows + (cols or []), big_rows + (big_cols or [])):
            np.testing.assert_allclose(q, p, rtol=1e-12)
        plan = SamplingPlan((3, 3, 3), (5, 5, 5) if fibers else None, "length", seed=2)
        for got, want in zip(draw_indices(a * 1e160, plan), draw_indices(a, plan)):
            for i, j in zip(got or [], want or []):
                np.testing.assert_array_equal(i, j)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    @pytest.mark.parametrize("fibers", [False, True])
    def test_squares_that_underflow_are_taken_in_units_of_the_largest_entry(self, fibers, scale):
        # at 1e-160 the squares are subnormal; at 1e-170 and 1e-300 they are 0
        a = np.random.default_rng(0).standard_normal((20, 20, 20))
        rows, cols = mode_length_distributions(a, fibers)
        small_rows, small_cols = mode_length_distributions(a * scale, fibers)
        for p, q in zip(rows + (cols or []), small_rows + (small_cols or []), strict=True):
            np.testing.assert_allclose(q, p, rtol=1e-12)
        plan = SamplingPlan((5, 5, 5), (9, 9, 9) if fibers else None, "length")
        for got, want in zip(draw_indices(a * scale, plan), draw_indices(a, plan)):
            for i, j in zip(got or [], want or []):
                np.testing.assert_array_equal(i, j)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fibers", [False, True])
    def test_non_finite_input_is_named(self, value, fibers):
        a = np.random.default_rng(4).standard_normal((9, 7, 8))
        a[3, 2, 5] = value
        with pytest.raises(ValueError, match="the tensor holds non-finite values"):
            mode_length_distributions(a, fibers)
        plan = SamplingPlan((3, 3, 3), (5, 5, 5) if fibers else None, "length")
        decompose = fiber_cur if fibers else chidori_cur
        with pytest.raises(ValueError, match="the tensor holds non-finite values"):
            decompose(a, plan, (2, 2, 2))


class TestSampleWithoutReplacement:
    def test_full_draw_returns_everything(self):
        rng = np.random.default_rng(1)
        assert sample_without_replacement(5, 5, rng).tolist() == [0, 1, 2, 3, 4]
        p = np.array([0.7, 0.1, 0.05, 0.1, 0.05])
        rng = np.random.default_rng(2)
        assert sample_without_replacement(5, 5, rng, p).tolist() == [0, 1, 2, 3, 4]

    def test_point_mass(self):
        rng = np.random.default_rng(3)
        got = sample_without_replacement(3, 1, rng, np.array([1.0, 0.0, 0.0]))
        assert got.tolist() == [0]

    def test_zero_probability_indices_never_drawn(self):
        p = np.array([0.5, 0.0, 0.5, 0.0])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            got = sample_without_replacement(4, 2, rng, p)
            assert got.tolist() == [0, 2]

    def test_uniform_determinism_and_spread(self):
        a = sample_without_replacement(1000, 100, np.random.default_rng(7))
        b = sample_without_replacement(1000, 100, np.random.default_rng(7))
        c = sample_without_replacement(1000, 100, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert len(set(a.tolist())) == 100
        assert np.all(np.diff(a) > 0)

    def test_weighted_determinism(self):
        rng = np.random.default_rng(9)
        p = rng.random(50)
        a = sample_without_replacement(50, 10, np.random.default_rng(4), p)
        b = sample_without_replacement(50, 10, np.random.default_rng(4), p)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_weighted_frequencies_track_probabilities(self):
        # single draws: the empirical law must match p itself
        p = np.array([0.6, 0.3, 0.1])
        counts = np.zeros(3)
        for seed in range(4000):
            rng = np.random.default_rng(seed)
            counts[sample_without_replacement(3, 1, rng, p)[0]] += 1
        assert np.max(np.abs(counts / 4000 - p)) < 0.03

    def test_oversized_request(self):
        with pytest.raises(ValueError):
            sample_without_replacement(4, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("k, p, message", [
        (0, None, "^sample size must be positive$"),
        (2, [0.5, -0.1, 0.3, 0.3], "^probabilities must be finite and nonnegative$"),
        (2, [0.5, np.nan, 0.3, 0.2], "^probabilities must be finite and nonnegative$"),
        (2, [0.5, np.inf, 0.3, 0.2], "^probabilities must be finite and nonnegative$"),
        (2, [0.5, 0.5], "^probabilities must have one entry per population element$"),
    ], ids=["k=0", "negative", "nan", "inf", "short"])
    def test_rejects_a_bad_size_or_probabilities(self, k, p, message):
        with pytest.raises(ValueError, match=message):
            sample_without_replacement(4, k, np.random.default_rng(0), p)

    def test_insufficient_positive_probability(self):
        with pytest.raises(ValueError):
            sample_without_replacement(
                4, 3, np.random.default_rng(0), np.array([0.5, 0.5, 0.0, 0.0])
            )

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3000),
        st.sampled_from([0.0, 0.3, 0.9]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_weighted_draws_match_the_sequential_cumsum(self, n, zero_frac, seed, data):
        p = skewed_weights(n, zero_frac, seed)
        k = data.draw(st.integers(1, int(np.count_nonzero(p))), label="k")
        got = sample_without_replacement(n, k, np.random.default_rng(seed), p)
        want = np.sort(sequential_cumsum_draw(p, k, np.random.default_rng(seed)))
        assert got.tolist() == want.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3000),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_sampling_invariants(self, n, weighted, seed, data):
        p = skewed_weights(n, 0.3, seed) if weighted else None
        population = int(np.count_nonzero(p)) if weighted else n
        k = data.draw(st.integers(1, population), label="k")
        a = sample_without_replacement(n, k, np.random.default_rng(seed), p)
        b = sample_without_replacement(n, k, np.random.default_rng(seed), p)
        assert a.size == k
        assert np.all(np.diff(a) > 0)  # sorted and distinct
        assert 0 <= a[0] and a[-1] < n
        assert np.array_equal(a, b)
        if weighted:
            assert np.all(p[a] > 0)


class TestOneGeneratorCallPerIndexSet:
    """An index set's one generator call draws the variates of one scalar
    call per index and leaves the generator where those calls leave it, so
    every later draw of a plan is unchanged too."""

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 5), (300, 1), (300, 29), (300, 300),
                                      (90000, 115), (2**32, 1), (2**32 + 7, 40), (2**40, 17)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_matches_scalar_calls(self, n, k, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_without_replacement(n, k, got_rng)
        want = np.sort(scalar_fisher_yates(n, k, want_rng))
        assert got.tolist() == want.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.integers(0, n) == want_rng.integers(0, n)

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 5), (300, 1), (300, 29), (300, 300)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_matches_scalar_calls(self, n, k, seed):
        p = skewed_weights(n, 0.0, seed)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_without_replacement(n, k, got_rng, p)
        want = np.sort(sequential_cumsum_draw(p, k, want_rng))
        assert got.tolist() == want.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()


class TestLengthPlansArePinned:
    """Length-weighted index draws for fixed seeds, recorded from the
    implementation that built every mode unfolding to compute the norms."""

    ROWS = {
        0: [[0, 1, 2, 3], [3, 4, 6, 7], [0, 2, 6, 8]],
        1: [[0, 2, 5, 6], [2, 3, 4, 7], [0, 2, 4, 6]],
    }
    FIBERS = {
        0: [[7, 13, 23, 35, 52, 54], [2, 9, 16, 17, 30, 33], [19, 30, 31, 32, 53, 55]],
        1: [[10, 18, 19, 23, 25, 50], [13, 15, 16, 23, 33, 59], [15, 17, 28, 32, 52, 53]],
    }

    @pytest.fixture(scope="class")
    def tensor(self):
        return generate_synthetic((7, 8, 9), 2, 1e-3, np.random.default_rng(5))[1]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_chidori(self, tensor, seed):
        plan = SamplingPlan((4, 4, 4), distribution="length", seed=seed)
        dec = chidori_cur(tensor, plan, (2, 2, 2))
        assert [r.tolist() for r in dec.row_indices] == self.ROWS[seed]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fiber(self, tensor, seed):
        plan = SamplingPlan((4, 4, 4), (6, 6, 6), distribution="length", seed=seed)
        dec = fiber_cur(tensor, plan, (2, 2, 2))
        assert [r.tolist() for r in dec.row_indices] == self.ROWS[seed]
        assert [j.tolist() for j in dec.fiber_indices] == self.FIBERS[seed]


class TestLengthDrawsOnA40CubeArePinned:
    """Length-weighted ``draw_indices`` on a fixed heavy-tailed ``40^3`` input,
    recorded from the implementation that summed each mode's marginal in
    its own ``einsum`` pass; a Fiber plan draws the same rows first."""

    ROWS = {
        0: [[0, 1, 10, 25, 33, 36], [0, 20, 24, 28, 32, 37], [1, 7, 21, 29, 34, 35]],
        1: [[5, 12, 16, 20, 37, 38], [1, 15, 20, 21, 29, 32], [4, 11, 13, 17, 19, 31]],
        2: [[3, 10, 13, 24, 29, 33], [2, 6, 7, 12, 23, 27], [16, 18, 26, 27, 28, 38]],
    }
    FIBERS = {
        0: [
            [49, 193, 490, 646, 714, 1000, 1058, 1090],
            [206, 646, 1051, 1104, 1114, 1168, 1565, 1595],
            [495, 514, 563, 777, 838, 926, 1389, 1483],
        ],
        1: [
            [321, 424, 455, 809, 1174, 1208, 1532, 1566],
            [184, 252, 447, 851, 880, 1021, 1254, 1548],
            [66, 106, 725, 850, 980, 1018, 1329, 1447],
        ],
        2: [
            [290, 522, 578, 660, 841, 1251, 1441, 1471],
            [164, 169, 320, 780, 1100, 1134, 1369, 1429],
            [634, 681, 824, 955, 982, 1017, 1345, 1393],
        ],
    }

    @pytest.fixture(scope="class")
    def tensor(self):
        return np.random.default_rng(11).standard_normal((40, 40, 40)) ** 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chidori(self, tensor, seed):
        plan = SamplingPlan((6, 6, 6), distribution="length", seed=seed)
        rows, cols = draw_indices(tensor, plan)
        assert [r.tolist() for r in rows] == self.ROWS[seed]
        assert cols is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fiber(self, tensor, seed):
        plan = SamplingPlan((6, 6, 6), (8, 8, 8), distribution="length", seed=seed)
        rows, cols = draw_indices(tensor, plan)
        assert [r.tolist() for r in rows] == self.ROWS[seed]
        assert [j.tolist() for j in cols] == self.FIBERS[seed]


class TestSamplingPlan:
    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            SamplingPlan((2, 2, 2), distribution="leverage")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            SamplingPlan((2, 0, 2))
        with pytest.raises(ValueError):
            SamplingPlan((2, 2, 2), fiber_counts=(1, 1))
        with pytest.raises(ValueError, match="^fiber sample sizes must be positive$"):
            SamplingPlan((2, 2, 2), fiber_counts=(1, 0, 1))

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed -1 must be nonnegative$"):
            SamplingPlan((2, 2, 2), seed=-1)

    def test_rng_is_seed_stable(self):
        plan = SamplingPlan((3, 3, 3), seed=123)
        assert plan.rng().integers(1 << 30) == plan.rng().integers(1 << 30)


class TestSizePrescriptions:
    def test_chidori_sizes_follow_log_rule(self):
        t = chidori_sample_sizes((50, 50, 50), (5, 5, 5))
        assert t == (int(np.ceil(5 * np.log(50))),) * 3

    def test_fiber_sizes_follow_log_rule(self):
        t, s = fiber_sample_sizes((40, 40, 40), (3, 3, 3))
        assert t == (int(np.ceil(3 * np.log(40))),) * 3
        assert s == (int(np.ceil(2 * 3 * np.log(1600))),) * 3

    def test_rank_floor_applies(self):
        # tiny extents where ceil(r log d) < r
        assert chidori_sample_sizes((2, 2), (2, 2)) == (2, 2)

    def test_oversized_prescription_is_an_error(self):
        with pytest.raises(ValueError):
            chidori_sample_sizes((10, 10, 10), (5, 5, 5))
