"""Orthogonal Tucker-format baselines: truncated HOSVD, sequentially
truncated HOSVD, and HOOI.  Factors are the leading eigenvectors of each
unfolding's Gram matrix, formed from a view of the tensor by
:func:`~tensorcur.tensor.gram`, or its thin SVD's when the unfolding is
taller than wide or ``sigma_k / sigma_1 < 1e-3``.  A tensor with a
non-finite entry is rejected with a ``ValueError``."""

from dataclasses import dataclass

import numpy as np

from .linalg import multilinear_rank
from .tensor import (
    check_ranks,
    frobenius_norm,
    gram,
    mode_product,
    multi_mode_product,
    unfold,
)

__all__ = ["HosvdDecomposition", "hosvd", "st_hosvd", "hooi"]

# Gram eigh loses ~eps * sigma_1 / sigma_k; below sigma_k / sigma_1 = 1e-3 use the SVD
_GRAM_MIN_RATIO = 1e-6


@dataclass(frozen=True)
class HosvdDecomposition:
    """Core tensor plus one orthonormal-column factor matrix per mode."""

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        return multi_mode_product(self.core, self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape


def _reject_non_finite(t: np.ndarray) -> None:
    if not np.isfinite(t).all():
        raise ValueError("the tensor holds non-finite values")


def _leading_left_vectors(t: np.ndarray, k: int, r: int) -> np.ndarray:
    """The leading ``r`` left singular vectors of ``unfold(t, k)``."""
    d = t.shape[k]
    p = t.size // d
    # a d x p unfolding has at most min(d, p) singular vectors
    q = min(r, d, p)
    if d <= p:
        # a tall unfolding keeps its thin SVD: the d x d Gram would cost O(d^2) memory
        g = gram(t, k)
        # every entry's square lands on the diagonal, so a non-finite entry
        # shows there; finite entries whose squares overflow go to the SVD
        if np.isfinite(np.diagonal(g)).all():
            lam, v = np.linalg.eigh(g)
            if lam[-1] > 0.0 and lam[-q] >= _GRAM_MIN_RATIO * lam[-1]:
                return v[:, -q:][:, ::-1]
        else:
            _reject_non_finite(t)
    m = unfold(t, k)
    # an infinite entry can stall the SVD, so its operand is checked first
    _reject_non_finite(m)
    return np.linalg.svd(m, full_matrices=False)[0][:, :q]


def hosvd(t, ranks=None, tol: float | None = None) -> HosvdDecomposition:
    """Truncated higher-order SVD.

    Factor ``k`` holds the leading ``r_k`` left singular vectors of the
    mode-k unfolding; the core is the input multiplied by every factor
    transpose.  With ``ranks=None`` the numerical multilinear rank is used,
    which makes the reconstruction exact for exactly low-rank inputs.
    """
    t = np.asarray(t, dtype=np.float64)
    if ranks is None:
        ranks = multilinear_rank(t, tol)
        ranks = tuple(max(1, r) for r in ranks)
    ranks = check_ranks(ranks, t.shape)
    factors = tuple(_leading_left_vectors(t, k, r) for k, r in enumerate(ranks))
    core = multi_mode_product(t, [w.T for w in factors])
    return HosvdDecomposition(core, factors)


def st_hosvd(t, ranks) -> HosvdDecomposition:
    """Sequentially truncated HOSVD, processing modes in ascending order.

    Each mode is compressed immediately after its factor is computed, so
    later SVDs act on progressively smaller tensors.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = check_ranks(ranks, t.shape)
    factors = []
    current = t
    for k, r in enumerate(ranks):
        w = _leading_left_vectors(current, k, r)
        factors.append(w)
        current = mode_product(current, w.T, k)
    return HosvdDecomposition(current, tuple(factors))


def hooi(t, ranks, max_iters: int = 50, tol: float = 1e-8) -> HosvdDecomposition:
    """Higher-order orthogonal iteration, initialized from :func:`st_hosvd`.

    Each sweep updates every factor to the leading left singular vectors of
    the unfolding of the input compressed along all other modes.  Sweeps stop
    when the relative change of the core norm drops below ``tol`` or after
    ``max_iters`` sweeps.  The fit is nonincreasing across sweeps.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = check_ranks(ranks, t.shape)
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    factors = list(st_hosvd(t, ranks).factors)
    core = multi_mode_product(t, [w.T for w in factors])
    previous = frobenius_norm(core)
    for _ in range(max_iters):
        for k, r in enumerate(ranks):
            partial = t
            for j, w in enumerate(factors):
                if j != k:
                    partial = mode_product(partial, w.T, j)
            factors[k] = _leading_left_vectors(partial, k, r)
        core = multi_mode_product(t, [w.T for w in factors])
        current = frobenius_norm(core)
        if abs(current - previous) <= tol * max(current, np.finfo(np.float64).tiny):
            break
        previous = current
    return HosvdDecomposition(core, tuple(factors))
