"""Reproducible index sampling: plans, length-based distributions, and
without-replacement draws.

Determinism contract: every draw is a pure function of a
``numpy.random.Generator`` state.  A :class:`SamplingPlan` carries a single
64-bit seed; building a decomposition from the same plan twice yields
bit-identical results.  Each index set takes its variates from one generator
call, which draws what one call per index would.  Uniform draws use a
partial Fisher-Yates shuffle;
weighted draws are sequential without-replacement draws, renormalizing the
remaining probabilities after each removal: one variate picks a block of
about ``sqrt(n)`` weights from the cumulative block sums, then an entry from
that block's cumulative sum, and the drawn entry is zeroed and its block sum
refreshed, so a draw costs ``O(sqrt(n))``.  Index sets are always returned
sorted ascending so downstream slicing is reproducible.

A length plan reads the tensor once: every squared-norm marginal it needs is
summed from chunks of leading slabs, each squared into one reused buffer of
about 1 MB and reduced by matrix-vector products with a ones vector.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .tensor import _real

__all__ = [
    "SamplingPlan",
    "chidori_sample_sizes",
    "fiber_sample_sizes",
]

DISTRIBUTIONS = ("uniform", "length")


@dataclass(frozen=True)
class SamplingPlan:
    """Per-mode sample sizes plus the distribution and seed for index draws.

    ``row_counts`` are the per-mode subtensor sizes t_i; ``fiber_counts`` are
    the per-mode fiber counts s_i and are required only for Fiber plans; a
    non-integer count or seed raises ``TypeError``.
    ``distribution`` is ``"uniform"`` or ``"length"``; length-based plans
    weight mode-index draws by squared row norms of the mode unfolding and
    fiber draws by squared column norms (see
    :func:`mode_length_distributions`).
    """

    row_counts: tuple[int, ...]
    fiber_counts: tuple[int, ...] | None = None
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "row_counts", tuple(map(operator.index, self.row_counts)))
        if self.fiber_counts is not None:
            object.__setattr__(
                self, "fiber_counts", tuple(map(operator.index, self.fiber_counts))
            )
        object.__setattr__(self, "seed", operator.index(self.seed))
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


def mode_length_distributions(t, fibers: bool = False):
    """Row length distributions of every mode unfolding of ``t`` and, with
    ``fibers=True``, the column ones, as ``(rows, cols)`` lists
    (``cols is None`` otherwise).  Entry ``i`` of ``rows`` is
    ``p_j = ||m[j, :]||^2 / ||m||_F^2`` for ``m = unfold(t, i)``, and of
    ``cols`` the column analogue in the unfolding's column order.

    The tensor is read once, in chunks (see :func:`_length_norms`).  When the
    sum of squares of a nonzero finite ``t`` overflows or falls below the
    smallest normal float, the pass is redone in units of ``max|t|``; a
    tensor with a non-finite entry is rejected.
    """
    t = _real(t)
    with np.errstate(over="ignore"):
        rows, cols = _length_norms(t, fibers)
    if not all(np.finfo(np.float64).tiny <= sq.sum() < math.inf for sq in rows + cols):
        if not np.isfinite(t).all():
            raise ValueError("the tensor holds non-finite values")
        scale = max(float(t.max(initial=0.0)), -float(t.min(initial=0.0)))
        if scale > 0.0:
            rows, cols = _length_norms(t, fibers, scale)
    cols = [_normalized(sq) for sq in cols] if fibers else None
    return [_normalized(sq) for sq in rows], cols


# bytes of squared slabs per chunk of a norm pass, so that the chunk stays in L2
_NORM_CHUNK_BYTES = 1 << 20


def _length_norms(t: np.ndarray, fibers: bool, scale: float = 1.0):
    """``(rows, cols)``: the squared row norms of every mode unfolding of
    ``t / scale`` and, with ``fibers``, the squared column norms in each
    unfolding's column order (``cols`` is empty otherwise), from one pass.

    The pass reads the C-contiguous view of ``t`` (an F-ordered ``t`` through
    ``t.T``, whose modes are reversed) in chunks of leading slabs.  A Fiber
    plan sums the squares over each axis in turn; a Chidori plan only over
    the last axis and over all but the last.  Every row-norm vector but the
    last axis's is summed from the last axis's marginal.
    """
    if t.ndim == 1:  # a vector is its own (d, 1) unfolding
        rows, cols = _length_norms(t[:, None], fibers, scale)
        return rows[:1], cols[:1]
    flipped = t.flags.f_contiguous and not t.flags.c_contiguous
    c = t.T if flipped else t
    n = c.ndim
    groups = [(a, a + 1) for a in range(n)] if fibers else [(0, n - 1), (n - 1, n)]
    sums = _square_sums(c, groups, scale)
    # sums[0] is summed over axis 0 (Fiber) or over every axis but the last (Chidori)
    last = sums[0].reshape(-1, c.shape[-1]).sum(axis=0)
    rows = [sums[-1].sum(axis=tuple(b for b in range(n - 1) if b != a)) for a in range(n - 1)]
    rows.append(last)
    # a marginal lists its remaining axes in the view's order, reversed from t's when flipped
    cols = [sq.ravel(order="C" if flipped else "F") for sq in sums] if fibers else []
    return (rows[::-1], cols[::-1]) if flipped else (rows, cols)


def _square_sums(c: np.ndarray, groups, scale: float) -> list[np.ndarray]:
    """For each ``(lo, hi)`` in ``groups``, the sum of ``(c / scale)**2`` over
    the axes ``lo..hi-1`` of ``c``, from one pass over chunks of ``c``'s
    leading slabs.  Each chunk is squared into one reused buffer (a
    non-contiguous ``c`` is copied there chunk by chunk), at most
    ``_NORM_CHUNK_BYTES`` and an eighth of the tensor, and reduced by
    matrix-vector products with a ones vector."""
    shape = c.shape
    slab = c.itemsize * math.prod(shape[1:])
    step = max(1, min(-(-shape[0] // 8), _NORM_CHUNK_BYTES // max(1, slab)))
    buf = np.empty((step,) + shape[1:])
    ones = np.ones(max(math.prod(buf.shape[lo:hi]) for lo, hi in groups))
    sums = [np.zeros(shape[:lo] + shape[hi:]) for lo, hi in groups]
    for start in range(0, shape[0], step):
        x = buf[: min(step, shape[0] - start)]
        chunk = c[start : start + len(x)]
        if scale != 1.0:
            chunk = np.divide(chunk, scale, out=x)
        np.square(chunk, out=x)
        for (lo, hi), out in zip(groups, sums):
            p, m = math.prod(x.shape[:lo]), math.prod(x.shape[lo:hi])
            v = x.reshape(p, m, math.prod(x.shape[hi:]))
            if m == 1:  # nothing to sum
                part = v[:, 0, :]
            elif v.shape[2] == 1:
                part = v[:, :, 0] @ ones[:m]
            else:
                part = ones[:m] @ v
            if lo == 0:
                out += part.reshape(out.shape)
            else:
                out[start : start + len(x)] = part.reshape((len(x),) + out.shape[1:])
    return sums


def _normalized(sq: np.ndarray) -> np.ndarray:
    total = sq.sum()
    if total <= 0.0:
        raise ValueError("degenerate distribution: zero tensor")
    return sq / total


def _uniform_without_replacement(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # partial Fisher-Yates over [0, n) with a sparse swap map; O(k) time/space.
    # One call draws every j_i in [i, n), the variates k scalar calls would draw.
    swapped: dict[int, int] = {}
    out = []
    for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return np.array(out, dtype=np.intp)


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
    for i, u in enumerate(rng.random(k).tolist()):
        cum = sums.cumsum()
        u *= cum[-1]
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
    """Draw ``k`` distinct indices from ``[0, n)``, returned sorted ascending;
    a non-integer ``n`` or ``k`` raises ``TypeError``.

    With ``probabilities=None`` the draw is uniform (partial Fisher-Yates);
    otherwise indices are drawn sequentially with renormalization, so each
    draw follows the exact conditional distribution given earlier removals.
    """
    n, k = operator.index(n), operator.index(k)
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
    r = operator.index(r)
    size = max(r, math.ceil(scale * r * math.log(population)))
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
    return tuple(_size_from_log(r, operator.index(d), 1.0, "row") for d, r in zip(dims, ranks))


def _fiber_sizes(dims, ranks) -> tuple[int, ...]:
    """Default per-mode fiber counts ``s_i = ceil(2 r_i log(prod_{j != i} d_j))``."""
    dims = tuple(map(operator.index, dims))
    total = math.prod(dims)
    return tuple(_size_from_log(r, total // d, 2.0, "fiber") for d, r in zip(dims, ranks))


def fiber_sample_sizes(dims, ranks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Default Fiber sizes: ``t_i = ceil(r_i log d_i)`` and
    ``s_i = ceil(2 r_i log(prod_{j != i} d_j))``."""
    s = _fiber_sizes(dims, ranks)  # checked before the row sizes
    return chidori_sample_sizes(dims, ranks), s
