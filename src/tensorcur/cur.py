"""Chidori and Fiber tensor CUR decompositions.

Both variants pick a core subtensor ``R = A[I_0, ..., I_{n-1}]`` and, per
mode, a fiber matrix ``C_i`` (columns of the mode-i unfolding) with
intersection ``U_i = C_i[I_i, :]``.  The Chidori variant takes the fiber
columns to be the composite of the other modes' index sets, which makes
``U_i`` equal to the mode-i unfolding of the core; the Fiber variant samples
fiber columns independently.  The approximation is

    R x_0 (C_0 @ U_0^+_{r_0}) x_1 ... x_{n-1} (C_{n-1} @ U_{n-1}^+_{r_{n-1}})

where ``U_i^+_{r_i}`` is the pseudoinverse of the best rank-``r_i``
approximation of ``U_i`` (singular values below ``1e-14 * sigma_1`` are not
inverted).  It reproduces ``A`` exactly precisely when every ``U_i`` has rank
equal to the mode-i rank of ``A``.  The pseudoinverses are kept factored, with
``k_i <= r_i`` columns (:func:`~tensorcur.linalg.rank_r_pinv_factors`): the
leading left subspace of ``U_i`` comes from the kernel the Tucker baselines
use, the Gram matrix of ``U_i`` refined by a Rayleigh-Ritz step or its thin
SVD.  A decomposition factors each intersection once, on first use, and its
rank gate, mode maps, Tucker form and reconstruction all read those factors.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import _EPS, _count_above, multilinear_rank, numerical_rank, rank_r_pinv_factors
from .sampling import SamplingPlan, mode_length_distributions, sample_without_replacement
from .tensor import (
    _is_slab_source,
    _source_slabs,
    _take_columns,
    as_index_array,
    check_ranks,
    composite_index,
    frobenius_norm,
    multi_mode_product,
    residual,
    select_fibers,
    unfold,
)
from .tucker import HosvdDecomposition, hosvd

__all__ = [
    "CurDecomposition",
    "CharacterizationReport",
    "chidori_cur",
    "fiber_cur",
    "cur_with_indices",
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
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.fibers)

    @cached_property
    def _pinv_factors(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per mode, ``(C_i @ left_i, right_i, s_i)`` from one factored
        pseudoinverse ``U_i^+_{r_i} == left_i @ right_i.T`` of the best
        rank-``r_i`` approximation of ``U_i``, both factors ``k_i <= r_i``
        wide, and the singular values ``s_i`` of ``U_i``; computed on first
        use and kept.  ``C_i @ left_i`` is formed as ``(left_i.T @ C_i.T).T``,
        which BLAS takes about twice as fast for the F-ordered fibers the
        package gathers and reads."""
        out = []
        for c, u, r in zip(self.fibers, self.intersections, self.ranks):
            left, right, s = rank_r_pinv_factors(u, r)
            out.append(((left.T @ c.T).T, right, s))
        return tuple(out)

    @property
    def rank_ok(self) -> bool:
        """The rank gate: every ``U_i`` has at least ``r_i`` singular values
        above ``1e-6 * sigma_1(U_i)``, i.e. the sample kept the target rank."""
        return all(
            _count_above(s, _RANK_GATE_TOL) >= r
            for (_, _, s), r in zip(self._pinv_factors, self.ranks)
        )

    def mode_maps(self) -> list[np.ndarray]:
        """The per-mode reconstruction operators ``C_i @ U_i^+_{r_i}``, formed
        as ``(C_i @ left_i) @ right_i.T``."""
        return [cl @ right.T for cl, right, _ in self._pinv_factors]

    def tucker_form(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The reconstruction as a Tucker form ``(small, factors)``.

        ``small = core x_0 right_0.T ... x_{n-1} right_{n-1}.T`` is ``k_0 x
        ... x k_{n-1}`` and ``factors[i] = C_i @ left_i``, so ``small x_0
        factors[0] ... x_{n-1} factors[n-1]`` equals :meth:`reconstruct` up
        to rounding without a full-size intermediate.
        """
        small = multi_mode_product(self.core, [right.T for _, right, _ in self._pinv_factors])
        return small, [cl for cl, _, _ in self._pinv_factors]

    def reconstruct(self) -> np.ndarray:
        """Apply the mode maps to the core; output has the source dims."""
        return multi_mode_product(self.core, self.mode_maps())


def _gather(chunks, dims, rows, cols) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The core ``A[I_0, ..., I_{n-1}]`` and the fibers ``unfold(A, i)[:, J_i]``
    of a tensor of ``dims`` given as ``(start, chunk)`` pairs of its last-mode
    slabs, in order.

    A chunk of every slab, such as a whole tensor, gives the pieces its
    indexing gives, without a copy.  Smaller chunks fill outputs laid out as
    those pieces are: the core F (C if that is F-contiguous too), a fiber
    matrix the transpose of C.  The last-mode index is the slowest digit of
    a column of ``unfold(A, i)`` for ``i < n-1``, so each chunk holds a run
    of the sorted ``J_i``.  Modes 0 and ``n-2`` make no fiber-sized
    temporary per chunk: mode 0's run is taken from the rows of the chunk's
    transposed mode-0 unfolding (its fibers, contiguous in an F chunk)
    straight into the fiber matrix's rows, and mode ``n-2``'s slab by slab
    along the rows of each slab's ``(d_{n-2}, prod(d_<n-2))`` C view; any
    other mode's come from :func:`select_fibers` and are copied in.  The
    last mode's fibers take one row per slab, read from the chunk's
    ``(m, prod(d_<n-1))`` view into a C buffer that is transposed once at
    the end.
    """
    n = len(dims)
    core = None
    for start, chunk in chunks:
        stop = start + chunk.shape[-1]
        if stop - start == dims[-1]:
            # F is the package's storage order; an F core gives F reconstructions
            core = np.asfortranarray(chunk[np.ix_(*rows)])
            return core, tuple(select_fibers(chunk, i, j) for i, j in enumerate(cols))
        if core is None:  # allocated only here, so a whole chunk leaves the heap as it was
            shape = tuple(r.size for r in rows)
            core = np.empty(shape, order="F" if sum(t > 1 for t in shape) > 1 else "C")
            fibers = [np.empty((j.size, d)).T for j, d in zip(cols[:-1], dims)]
            last = np.empty((dims[-1], cols[-1].size))
        lo, hi = np.searchsorted(rows[-1], (start, stop))
        if lo < hi:
            core[..., lo:hi] = chunk[np.ix_(*rows[:-1], rows[-1][lo:hi] - start)]
        for i, out in enumerate(fibers):
            w = math.prod(dims[:-1]) // dims[i]  # columns of unfold(A, i) per last-mode index
            bounds = np.searchsorted(cols[i], w * np.arange(start, stop + 1))
            lo, hi = bounds[0], bounds[-1]
            if lo == hi:
                continue
            if i == 0:
                # the indices are checked, so "clip" only spares take a buffered copy
                fibers_of = chunk.reshape(dims[0], -1, order="F").T
                np.take(fibers_of, cols[0][lo:hi] - start * w, axis=0, out=out.T[lo:hi],
                        mode="clip")
            elif i == n - 2:
                for slab, a, b in zip(range(start, stop), bounds[:-1], bounds[1:]):
                    if a < b:
                        view = chunk[..., slab - start].T.reshape(dims[i], w)
                        _take_columns(view, cols[i][a:b] - slab * w, out[:, a:b])
            else:
                out[:, lo:hi] = select_fibers(chunk, i, cols[i][lo:hi] - start * w)
        slabs = chunk.reshape(-1, stop - start, order="F").T
        np.take(slabs, cols[-1], axis=1, out=last[start:stop], mode="clip")
    return core, (*fibers, last.copy(order="F"))


def cur_with_indices(a, row_indices, ranks, fiber_indices=None) -> CurDecomposition:
    """Deterministic CUR construction from explicit index sets.

    With ``fiber_indices=None`` the Chidori variant is built (fiber columns
    are the composite of the other modes' row indices); otherwise the Fiber
    variant uses the given mode-i unfolding column sets.  ``a`` is a tensor
    or a source of its last-mode slabs (an object with the tensor's
    ``shape`` whose iteration yields ``(start, chunk)`` pairs in order, such
    as :class:`~tensorcur.tensorfile.SlabReader`), iterated once; chunks
    that do not tile the last mode in order raise ``ValueError``.  Either
    way only the core and the selected fibers are kept, and only they are
    checked for non-finite values.  A Chidori intersection ``U_i`` is the
    mode-i unfolding of the core, a Fiber one the rows ``I_i`` of ``C_i``.
    """
    if _is_slab_source(a):
        chunks = _source_slabs(a)
    else:
        a = np.asarray(a, dtype=np.float64)
        chunks = ((0, a),)
    dims = tuple(a.shape)
    n = len(dims)
    if len(row_indices) != n:
        raise ValueError(f"expected {n} row index sets, got {len(row_indices)}")
    rows = tuple(as_index_array(idx, d) for idx, d in zip(row_indices, dims))
    ranks = check_ranks(ranks, dims)
    if fiber_indices is None:
        variant = "chidori"
        cols = tuple(composite_index(rows, i, dims) for i in range(n))
    else:
        variant = "fiber"
        if len(fiber_indices) != n:
            raise ValueError(f"expected {n} fiber index sets, got {len(fiber_indices)}")
        cols = tuple(
            as_index_array(j, math.prod(dims) // d) for j, d in zip(fiber_indices, dims)
        )
    core, fibers = _gather(chunks, dims, rows, cols)
    # the norm is one BLAS pass with no boolean temporary, and NaN or inf exactly
    # when an entry is
    if not all(math.isfinite(frobenius_norm(x)) for x in (core, *fibers)):
        raise ValueError("the sampled core or fibers hold non-finite values")
    if variant == "chidori":
        intersections = tuple(np.ascontiguousarray(unfold(core, i)) for i in range(n))
    else:
        intersections = tuple(c[r, :] for c, r in zip(fibers, rows))
    return CurDecomposition(variant, core, fibers, intersections, rows, cols, ranks)


def draw_indices(a, plan: SamplingPlan):
    """Draw ``plan``'s per-mode row index sets and, if it has ``fiber_counts``,
    its per-mode fiber column sets (else ``None``), all from ``plan.rng()``.
    A uniform plan reads only the dims of ``a``, a tensor or a source of its
    slabs (see :func:`cur_with_indices`).  A length plan reads every entry
    of a tensor; a slab source raises ``ValueError``."""
    dims = np.shape(a)
    if len(plan.row_counts) != len(dims):
        raise ValueError(
            f"plan has {len(plan.row_counts)} row counts for a {len(dims)}-mode tensor"
        )
    fibers = plan.fiber_counts is not None
    p = q = (None,) * len(dims)
    if plan.distribution == "length":
        if _is_slab_source(a):
            raise ValueError("a length plan reads the whole tensor, not a source of its slabs")
        p, q = mode_length_distributions(a, fibers)
    rng = plan.rng()
    rows = tuple(
        sample_without_replacement(d, t, rng, pi) for d, t, pi in zip(dims, plan.row_counts, p)
    )
    if not fibers:
        return rows, None
    cols = tuple(
        sample_without_replacement(math.prod(dims) // d, s, rng, qi)
        for d, s, qi in zip(dims, plan.fiber_counts, q)
    )
    return rows, cols


def chidori_cur(a, plan: SamplingPlan, ranks) -> CurDecomposition:
    """Randomized Chidori CUR: draw per-mode index sets, take the core at
    their intersection and the fibers at their composite.  ``a`` is a tensor
    or, with a uniform plan, a source of its slabs (see :func:`draw_indices`)."""
    rows, _ = draw_indices(a, replace(plan, fiber_counts=None))
    return cur_with_indices(a, rows, ranks)


def fiber_cur(a, plan: SamplingPlan, ranks) -> CurDecomposition:
    """Randomized Fiber CUR: draw per-mode index sets and, independently,
    per-mode fiber column sets.  ``a`` is a tensor or, with a uniform plan,
    a source of its slabs (see :func:`draw_indices`)."""
    if plan.fiber_counts is None:
        raise ValueError("fiber_cur requires a plan with fiber_counts")
    rows, cols = draw_indices(a, plan)
    return cur_with_indices(a, rows, ranks, fiber_indices=cols)


def projection_reconstruct(a, dec: CurDecomposition) -> np.ndarray:
    """Project ``a`` onto the fiber column spaces: ``a x_i (C_i @ C_i^+)``.
    ``C_i^+`` is numpy's pseudoinverse, :func:`numpy.linalg.pinv`, with the
    cutoff of :func:`~tensorcur.linalg.numerical_rank`: singular values at or
    below ``max(rows, cols) * eps * sigma_1`` are not inverted."""
    a = np.asarray(a, dtype=np.float64)
    return multi_mode_product(
        a, [c @ np.linalg.pinv(c, rcond=max(c.shape) * _EPS) for c in dec.fibers]
    )


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
    if a.shape != dec.dims:
        raise ValueError("decomposition dims do not match the tensor")
    ranks = dec.ranks
    inter = tuple(numerical_rank(u, tol) for u in dec.intersections)
    fib = tuple(numerical_rank(c, tol) for c in dec.fibers)
    core = multilinear_rank(dec.core, tol)
    slabs = []
    for i, rows in enumerate(dec.row_indices):
        slabs.append(numerical_rank(unfold(np.take(a, rows, axis=i), i), tol))
    norm = frobenius_norm(a)
    rel = residual(a, *dec.tucker_form()) / norm if norm > 0.0 else 0.0
    return CharacterizationReport(ranks, inter, fib, core, tuple(slabs), rel, tol)


def cur_to_hosvd(dec: CurDecomposition) -> HosvdDecomposition:
    """Convert a CUR decomposition to an orthonormal Tucker form.

    With each mode map factored as ``(C_i @ left_i) @ right_i.T``, QR-factor
    ``C_i @ left_i``, push ``R_i @ right_i.T`` into the core, and take the
    compact HOSVD of the resulting ``k_0 x ... x k_{n-1}`` tensor (``k_i <=
    r_i``).  The output reconstruction equals the CUR reconstruction; its
    factors are products of orthonormal matrices and thus orthonormal.
    """
    qs = []
    rs = []
    for cl, right, _ in dec._pinv_factors:
        if cl.shape[1] == 0:
            # nothing inverted: keep the zero map as one zero column
            cl, right = np.zeros((cl.shape[0], 1)), np.zeros((right.shape[0], 1))
        q, rr = np.linalg.qr(cl)
        qs.append(q)
        rs.append(rr @ right.T)
    small = multi_mode_product(dec.core, rs)
    inner = hosvd(small, tuple(max(1, r) for r in multilinear_rank(small)))
    factors = tuple(q @ v for q, v in zip(qs, inner.factors))
    return HosvdDecomposition(inner.core, factors)
