"""Chidori and Fiber tensor CUR decompositions.

Both variants pick a core subtensor ``R = A[I_0, ..., I_{n-1}]`` and, per
mode, a fiber matrix ``C_i`` (columns of the mode-i unfolding) with
intersection ``U_i = C_i[I_i, :]``.  The Chidori variant takes the fiber
columns to be the composite of the other modes' index sets, which makes
``U_i`` equal to the mode-i unfolding of the core; the Fiber variant samples
fiber columns independently.  The approximation is

    R x_0 (C_0 @ rank_r_pinv(U_0, r_0)) x_1 ... x_{n-1} (C_{n-1} @ ...)

and it reproduces ``A`` exactly precisely when every ``U_i`` has rank equal
to the mode-i rank of ``A``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    _count_above,
    _rank_r_pinv_and_spectrum,
    multilinear_rank,
    numerical_rank,
    pinv,
    qr_factor,
)
from .sampling import SamplingPlan, mode_length_distributions, sample_without_replacement
from .tensor import (
    as_index_array,
    check_ranks,
    composite_index,
    frobenius_norm,
    multi_mode_product,
    select_fibers,
    subtensor,
    unfold,
)
from .tucker import HosvdDecomposition, hosvd

__all__ = [
    "CurDecomposition",
    "CharacterizationReport",
    "chidori_cur",
    "fiber_cur",
    "cur_with_indices",
    "draw_indices",
    "projection_reconstruct",
    "check_characterization",
    "cur_to_hosvd",
]

# relative singular-value gate deciding whether a sampled intersection matrix
# carries the full target rank
_RANK_GATE_TOL = 1e-6


@dataclass(frozen=True)
class CurDecomposition:
    """Core subtensor, per-mode fiber/intersection matrices, and their indices.

    ``fiber_indices[i]`` are column indices of the mode-i unfolding (the
    composite of the other modes' row indices for the Chidori variant).
    ``ranks`` are the target ranks enforced at reconstruction time.
    """

    variant: str
    core: np.ndarray
    fibers: tuple[np.ndarray, ...]
    intersections: tuple[np.ndarray, ...]
    row_indices: tuple[np.ndarray, ...]
    fiber_indices: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.fibers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.fibers)

    def mode_maps(self) -> list[np.ndarray]:
        """The per-mode reconstruction operators ``C_i @ rank_r_pinv(U_i, r_i)``."""
        return self.gated_mode_maps()[0]

    def gated_mode_maps(self) -> tuple[list[np.ndarray], bool]:
        """The mode maps and the rank gate, from one SVD per intersection.

        The gate holds when every ``U_i`` has at least ``r_i`` singular values
        above ``1e-6 * sigma_1(U_i)``, i.e. the sample kept the target rank.
        """
        maps, rank_ok = [], True
        for c, u, r in zip(self.fibers, self.intersections, self.ranks):
            p, s = _rank_r_pinv_and_spectrum(u, r)
            maps.append(c @ p)
            rank_ok = rank_ok and _count_above(s, _RANK_GATE_TOL) >= r
        return maps, rank_ok

    def reconstruct(self) -> np.ndarray:
        """Apply the mode maps to the core; output has the source dims."""
        return multi_mode_product(self.core, self.mode_maps())


def cur_with_indices(a, row_indices, ranks, fiber_indices=None) -> CurDecomposition:
    """Deterministic CUR construction from explicit index sets.

    With ``fiber_indices=None`` the Chidori variant is built (fiber columns
    are the composite of the other modes' row indices); otherwise the Fiber
    variant uses the given mode-i unfolding column sets.  Either way only
    the core and the selected fibers are read from ``a``, and only they are
    checked for non-finite values.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.ndim
    if len(row_indices) != n:
        raise ValueError(f"expected {n} row index sets, got {len(row_indices)}")
    rows = tuple(as_index_array(idx, a.shape[k]) for k, idx in enumerate(row_indices))
    ranks = check_ranks(ranks, a.shape)
    if fiber_indices is None:
        variant = "chidori"
        cols = tuple(composite_index(rows, i, a.shape) for i in range(n))
    else:
        variant = "fiber"
        if len(fiber_indices) != n:
            raise ValueError(f"expected {n} fiber index sets, got {len(fiber_indices)}")
        cols = tuple(
            as_index_array(j, a.size // a.shape[i]) for i, j in enumerate(fiber_indices)
        )
    # F is the package's storage order; an F core gives F reconstructions
    core = np.asfortranarray(subtensor(a, rows))
    fibers = tuple(select_fibers(a, i, j) for i, j in enumerate(cols))
    if not (np.isfinite(core).all() and all(np.isfinite(c).all() for c in fibers)):
        raise ValueError("the sampled core or fibers hold non-finite values")
    intersections = tuple(c[r, :] for c, r in zip(fibers, rows))
    return CurDecomposition(variant, core, fibers, intersections, rows, cols, ranks)


def draw_indices(a: np.ndarray, plan: SamplingPlan):
    """Draw ``plan``'s per-mode row index sets and, if it has ``fiber_counts``,
    its per-mode fiber column sets (else ``None``), all from ``plan.rng()``."""
    if len(plan.row_counts) != a.ndim:
        raise ValueError(f"plan has {len(plan.row_counts)} row counts for a {a.ndim}-mode tensor")
    fibers = plan.fiber_counts is not None
    p = q = (None,) * a.ndim
    if plan.distribution == "length":
        p, q = mode_length_distributions(a, fibers)
    rng = plan.rng()
    rows = tuple(
        sample_without_replacement(d, t, rng, pi) for d, t, pi in zip(a.shape, plan.row_counts, p)
    )
    if not fibers:
        return rows, None
    cols = tuple(
        sample_without_replacement(a.size // d, s, rng, qi)
        for d, s, qi in zip(a.shape, plan.fiber_counts, q)
    )
    return rows, cols


def chidori_cur(a, plan: SamplingPlan, ranks) -> CurDecomposition:
    """Randomized Chidori CUR: draw per-mode index sets, take the core at
    their intersection and the fibers at their composite."""
    a = np.asarray(a, dtype=np.float64)
    rows, _ = draw_indices(a, replace(plan, fiber_counts=None))
    return cur_with_indices(a, rows, ranks)


def fiber_cur(a, plan: SamplingPlan, ranks) -> CurDecomposition:
    """Randomized Fiber CUR: draw per-mode index sets and, independently,
    per-mode fiber column sets."""
    a = np.asarray(a, dtype=np.float64)
    if plan.fiber_counts is None:
        raise ValueError("fiber_cur requires a plan with fiber_counts")
    rows, cols = draw_indices(a, plan)
    return cur_with_indices(a, rows, ranks, fiber_indices=cols)


def projection_reconstruct(a, dec: CurDecomposition) -> np.ndarray:
    """Project ``a`` onto the fiber column spaces: ``a x_i (C_i @ pinv(C_i))``."""
    a = np.asarray(a, dtype=np.float64)
    return multi_mode_product(a, [c @ pinv(c) for c in dec.fibers])


@dataclass(frozen=True)
class CharacterizationReport:
    """Per-mode rank conditions of the exactness characterization, plus the
    measured reconstruction error.

    For a source tensor of multilinear rank ``(r_0, ..., r_{n-1})`` the
    conditions agree: all intersections have full target rank iff the
    reconstruction is exact iff the fibers have full target rank and the core
    has the full multilinear rank.
    """

    target_ranks: tuple[int, ...]
    intersection_ranks: tuple[int, ...]
    fiber_ranks: tuple[int, ...]
    core_multilinear_rank: tuple[int, ...]
    slab_ranks: tuple[int, ...]
    relative_error: float
    tol: float

    @property
    def intersection_rank_ok(self) -> bool:
        return self.intersection_ranks == self.target_ranks

    @property
    def fiber_rank_ok(self) -> bool:
        return self.fiber_ranks == self.target_ranks

    @property
    def core_rank_ok(self) -> bool:
        return self.core_multilinear_rank == self.target_ranks

    @property
    def slab_rank_ok(self) -> bool:
        return self.slab_ranks == self.target_ranks

    @property
    def exact(self) -> bool:
        return self.relative_error < self.tol


def check_characterization(a, dec: CurDecomposition, tol: float = 1e-8) -> CharacterizationReport:
    """Evaluate every rank condition of the exactness characterization on one
    instance, at relative tolerance ``tol`` for both ranks and reconstruction."""
    a = np.asarray(a, dtype=np.float64)
    ranks = dec.ranks
    inter = tuple(numerical_rank(u, tol) for u in dec.intersections)
    fib = tuple(numerical_rank(c, tol) for c in dec.fibers)
    core = multilinear_rank(dec.core, tol)
    slabs = []
    for i, rows in enumerate(dec.row_indices):
        slabs.append(numerical_rank(unfold(np.take(a, rows, axis=i), i), tol))
    norm = frobenius_norm(a)
    if norm == 0.0:
        rel = 0.0
    else:
        rel = frobenius_norm(a - dec.reconstruct()) / norm
    return CharacterizationReport(ranks, inter, fib, core, tuple(slabs), rel, tol)


def cur_to_hosvd(dec: CurDecomposition) -> HosvdDecomposition:
    """Convert a CUR decomposition to an orthonormal Tucker form.

    QR-factor each mode map, push the triangular factors into the core, and
    take the compact HOSVD of the resulting small tensor.  The output
    reconstruction equals the CUR reconstruction; its factors are products of
    orthonormal matrices and thus orthonormal.
    """
    qs = []
    rs = []
    for mat in dec.mode_maps():
        q, r = qr_factor(mat)
        qs.append(q)
        rs.append(r)
    small = multi_mode_product(dec.core, rs)
    inner = hosvd(small)
    factors = tuple(q @ v for q, v in zip(qs, inner.factors))
    return HosvdDecomposition(inner.core, factors)
