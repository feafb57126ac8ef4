"""Reproducible index sampling: plans, length-based distributions, and
without-replacement draws.

Determinism contract: every draw is a pure function of a
``numpy.random.Generator`` state.  A :class:`SamplingPlan` carries a single
64-bit seed; building a decomposition from the same plan twice yields
bit-identical results.  Uniform draws use a partial Fisher-Yates shuffle;
weighted draws are sequential without-replacement draws, renormalizing the
remaining probabilities after each removal: one variate picks a block of
about ``sqrt(n)`` weights from the cumulative block sums, then an entry from
that block's cumulative sum, and the drawn entry is zeroed and its block sum
refreshed, so a draw costs ``O(sqrt(n))``.  Index sets are always returned
sorted ascending so downstream slicing is reproducible.
"""

import math
import string
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplingPlan",
    "length_distribution",
    "sample_without_replacement",
    "chidori_sample_sizes",
    "fiber_sample_sizes",
]

DISTRIBUTIONS = ("uniform", "length")


@dataclass(frozen=True)
class SamplingPlan:
    """Per-mode sample sizes plus the distribution and seed for index draws.

    ``row_counts`` are the per-mode subtensor sizes t_i; ``fiber_counts`` are
    the per-mode fiber counts s_i and are required only for Fiber plans.
    ``distribution`` is ``"uniform"`` or ``"length"``; length-based plans
    weight mode-index draws by squared row norms of the mode unfolding and
    fiber draws by squared column norms (see :func:`length_distribution`).
    """

    row_counts: tuple[int, ...]
    fiber_counts: tuple[int, ...] | None = None
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "row_counts", tuple(int(t) for t in self.row_counts))
        if self.fiber_counts is not None:
            object.__setattr__(
                self, "fiber_counts", tuple(int(s) for s in self.fiber_counts)
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if any(t < 1 for t in self.row_counts):
            raise ValueError("row sample sizes must be positive")
        if self.fiber_counts is not None:
            if len(self.fiber_counts) != len(self.row_counts):
                raise ValueError("fiber_counts must have one entry per mode")
            if any(s < 1 for s in self.fiber_counts):
                raise ValueError("fiber sample sizes must be positive")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def length_distribution(t, axis: str = "rows", mode: int = 0) -> np.ndarray:
    """Probability vector proportional to squared row (or column) norms of
    the mode-``mode`` unfolding ``m`` of ``t``.

    ``p_j = ||m[j, :]||^2 / ||m||_F^2`` for ``axis="rows"`` and the column
    analogue for ``axis="cols"``; columns follow the unfolding's order (first
    remaining index fastest).  For a matrix and ``mode=0``, ``m`` is ``t``
    itself.  The squared norms are summed straight from ``t`` in one
    ``einsum`` pass, so neither the unfolding nor a squared copy of ``t`` is
    ever built.
    """
    t = np.asarray(t, dtype=np.float64)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-mode tensor")
    if axis not in ("rows", "cols"):
        raise ValueError("axis must be 'rows' or 'cols'")
    return _normalized(_squared_norms(t, mode, keep_mode=axis == "rows"))


def mode_length_distributions(t, fibers: bool = False):
    """Row length distributions of every mode unfolding of ``t`` and, with
    ``fibers=True``, the column ones, as ``(rows, cols)`` lists
    (``cols is None`` otherwise); entry ``i`` equals
    ``length_distribution(t, axis, mode=i)`` up to rounding.

    Each mode's row norms are summed from the column-norm marginal of another
    mode, so the whole tensor is read once per mode for Fiber plans and twice
    for Chidori plans (the last mode's marginal, then that mode's row norms).
    """
    t = np.asarray(t, dtype=np.float64)
    n = t.ndim
    kept = range(n) if fibers else range(1, n)[-1:]  # Chidori: mode n-1 only, if n > 1
    marginals = {i: np.expand_dims(_squared_norms(t, i, keep_mode=False), i) for i in kept}
    rows = []
    for j in range(n):
        i = next((i for i in marginals if i != j), None)
        others = tuple(m for m in range(n) if m != j)
        sq = _squared_norms(t, j, keep_mode=True) if i is None else marginals[i].sum(axis=others)
        rows.append(_normalized(sq))
    cols = [_normalized(m) for m in marginals.values()] if fibers else None
    return rows, cols


def _squared_norms(t: np.ndarray, mode: int, keep_mode: bool) -> np.ndarray:
    # one einsum pass: squared row norms of the mode unfolding, or its column ones
    modes = string.ascii_letters[: t.ndim]
    kept = modes[mode] if keep_mode else modes[:mode] + modes[mode + 1 :]
    return np.einsum(f"{modes},{modes}->{kept}", t, t)


def _normalized(sq: np.ndarray) -> np.ndarray:
    sq = sq.ravel(order="F")
    total = sq.sum()
    if total <= 0.0:
        raise ValueError("degenerate distribution: zero tensor")
    return sq / total


def _uniform_without_replacement(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # partial Fisher-Yates over [0, n) with a sparse swap map; O(k) time/space
    swapped: dict[int, int] = {}
    out = np.empty(k, dtype=np.intp)
    for i in range(k):
        j = int(rng.integers(i, n))
        out[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    return out


def _weighted_without_replacement(
    probabilities: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    p = np.asarray(probabilities, dtype=np.float64)
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and nonnegative")
    if int(np.count_nonzero(p > 0)) < k:
        raise ValueError(
            f"cannot draw {k} indices: only {np.count_nonzero(p > 0)} have positive probability"
        )
    # two-level cumulative sums over ~sqrt(n) blocks; padding entries are 0
    width = max(1, math.isqrt(p.size))
    blocks = np.zeros((-(-p.size // width), width))
    blocks.reshape(-1)[: p.size] = p
    p = blocks.reshape(-1)
    sums = blocks.sum(axis=1)
    out = np.empty(k, dtype=np.intp)
    for i in range(k):
        cum = sums.cumsum()
        u = rng.random() * cum[-1]
        b = min(int(cum.searchsorted(u, side="right")), sums.size - 1)
        if b:
            u -= cum[b - 1]
        j = b * width + min(int(blocks[b].cumsum().searchsorted(u, side="right")), width - 1)
        while p[j] == 0.0:  # guard against landing on a removed index
            j -= 1
        out[i] = j
        p[j] = 0.0
        b = j // width
        sums[b] = blocks[b].sum()
    return out


def sample_without_replacement(
    n: int, k: int, rng: np.random.Generator, probabilities=None
) -> np.ndarray:
    """Draw ``k`` distinct indices from ``[0, n)``, returned sorted ascending.

    With ``probabilities=None`` the draw is uniform (partial Fisher-Yates);
    otherwise indices are drawn sequentially with renormalization, so each
    draw follows the exact conditional distribution given earlier removals.
    """
    n = int(n)
    k = int(k)
    if k < 1:
        raise ValueError("sample size must be positive")
    if k > n:
        raise ValueError(f"sample size {k} exceeds the population of {n}")
    if probabilities is None:
        out = _uniform_without_replacement(n, k, rng)
    else:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape != (n,):
            raise ValueError("probabilities must have one entry per population element")
        out = _weighted_without_replacement(probabilities, k, rng)
    out.sort()
    return out


def _size_from_log(r: int, population: int, scale: float, what: str) -> int:
    size = max(int(r), math.ceil(scale * r * math.log(population)))
    if size > population:
        raise ValueError(
            f"default {what} sample size {size} exceeds population {population}; "
            "pass explicit sizes"
        )
    return size


def chidori_sample_sizes(dims, ranks) -> tuple[int, ...]:
    """Default per-mode subtensor sizes ``t_i = ceil(r_i * log d_i)``.

    Raises if the prescription exceeds a mode's extent rather than clamping.
    """
    return tuple(_size_from_log(int(r), int(d), 1.0, "row") for d, r in zip(dims, ranks))


def fiber_sample_sizes(dims, ranks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Default Fiber sizes: ``t_i = ceil(r_i log d_i)`` and
    ``s_i = ceil(2 r_i log(prod_{j != i} d_j))``."""
    dims = tuple(int(d) for d in dims)
    ranks = tuple(int(r) for r in ranks)
    total = math.prod(dims)
    s = tuple(_size_from_log(r, total // d, 2.0, "fiber") for d, r in zip(dims, ranks))
    return chidori_sample_sizes(dims, ranks), s
