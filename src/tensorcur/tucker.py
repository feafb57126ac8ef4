"""Orthogonal Tucker-format baselines: truncated HOSVD, sequentially
truncated HOSVD, and HOOI.  Factors are the leading eigenvectors of each
unfolding's Gram matrix, formed from a view of the tensor by
:func:`~tensorcur.tensor.gram`, or its thin SVD's when the unfolding is
taller than wide, the Gram's diagonal over- or underflows, or ``sigma_k /
sigma_1 < 1e-3``.  A tensor with a non-finite entry is rejected with a
``ValueError``."""

from dataclasses import dataclass

import numpy as np

from .linalg import _gram_eigh
from .tensor import (
    _contiguous,
    check_ranks,
    frobenius_norm,
    gram,
    mode_product,
    multi_mode_product,
    unfold,
)

__all__ = ["HosvdDecomposition", "hosvd", "st_hosvd", "hooi"]


@dataclass(frozen=True)
class HosvdDecomposition:
    """Core tensor plus one orthonormal-column factor matrix per mode."""

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def tucker_form(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """``(core, factors)``, the form :meth:`reconstruct` multiplies out."""
        return self.core, self.factors

    def reconstruct(self) -> np.ndarray:
        return multi_mode_product(self.core, self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape


def _reject_non_finite(t: np.ndarray) -> None:
    if not np.isfinite(t).all():
        raise ValueError("the tensor holds non-finite values")


def _leading_left_vectors(t: np.ndarray, k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The leading ``r`` left singular vectors of ``unfold(t, k)`` and all its
    singular values, descending (the square roots of the Gram eigenvalues)."""
    d = t.shape[k]
    p = t.size // d
    # a d x p unfolding has at most min(d, p) singular vectors
    q = min(r, d, p)
    # a tall unfolding keeps its thin SVD: the d x d Gram would cost O(d^2) memory
    eig = _gram_eigh(gram(t, k), q) if d <= p else None
    if eig is not None:
        lam, v = eig
        return v[:, -q:][:, ::-1], np.sqrt(np.maximum(lam[::-1], 0.0))
    m = unfold(t, k)
    # an infinite entry can stall the SVD, so its operand is checked first
    _reject_non_finite(m)
    w, s, _ = np.linalg.svd(m, full_matrices=False)
    return w[:, :q], s


def hosvd(t, ranks) -> HosvdDecomposition:
    """Truncated higher-order SVD: factor ``k`` holds the leading ``r_k`` left
    singular vectors of the mode-k unfolding, and the core is the input
    multiplied by every factor transpose."""
    t = _contiguous(t)
    ranks = check_ranks(ranks, t.shape)
    factors = tuple(_leading_left_vectors(t, k, r)[0] for k, r in enumerate(ranks))
    core = multi_mode_product(t, [w.T for w in factors])
    return HosvdDecomposition(core, factors)


def st_hosvd(t, ranks) -> HosvdDecomposition:
    """Sequentially truncated HOSVD, processing modes in ascending order.

    Each mode is compressed immediately after its factor is computed, so
    later SVDs act on progressively smaller tensors.
    """
    t = _contiguous(t)
    ranks = check_ranks(ranks, t.shape)
    factors = []
    current = t
    for k, r in enumerate(ranks):
        w = _leading_left_vectors(current, k, r)[0]
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
    t = _contiguous(t)
    ranks = check_ranks(ranks, t.shape)
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    start = st_hosvd(t, ranks)
    factors, core = list(start.factors), start.core
    previous = frobenius_norm(core)
    for _ in range(max_iters):
        for k, r in enumerate(ranks):
            partial = multi_mode_product(t, [None if j == k else w.T for j, w in enumerate(factors)])
            factors[k] = _leading_left_vectors(partial, k, r)[0]
        # the last partial is t x_j W_j.T for every j < n-1, all updated
        core = mode_product(partial, factors[-1].T, t.ndim - 1)
        current = frobenius_norm(core)
        if abs(current - previous) <= tol * max(current, np.finfo(np.float64).tiny):
            break
        previous = current
    return HosvdDecomposition(core, tuple(factors))
