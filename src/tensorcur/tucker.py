"""Orthogonal Tucker-format baselines: truncated HOSVD, sequentially
truncated HOSVD, and HOOI.  Every factor is the leading left subspace of an
unfolding, from the kernel the intersection pseudoinverses also use,
:func:`~tensorcur.linalg._leading_left_vectors`: the leading eigenvectors of
the unfolding's Gram matrix, or its thin SVD's when the unfolding is taller
than wide, the Gram's diagonal over- or underflows, or ``sigma_k / sigma_1 <
1e-3``.  A tensor with a non-finite entry is rejected with a ``ValueError``."""

from dataclasses import dataclass

import numpy as np

from .linalg import _leading_left_vectors
from .tensor import _contiguous, check_ranks, frobenius_norm, mode_product, multi_mode_product

__all__ = ["HosvdDecomposition", "hosvd", "st_hosvd", "hooi"]

_HOOI_MAX_SWEEPS = 50
_HOOI_TOL = 1e-8


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


def hooi(t, ranks) -> HosvdDecomposition:
    """Higher-order orthogonal iteration, initialized from :func:`st_hosvd`.

    Each sweep updates every factor to the leading left singular vectors of
    the unfolding of the input compressed along all other modes.  Sweeps stop
    when the relative change of the core norm is at most ``_HOOI_TOL`` (1e-8)
    or after ``_HOOI_MAX_SWEEPS`` (50).  The fit is nonincreasing across sweeps.
    """
    t = _contiguous(t)
    ranks = check_ranks(ranks, t.shape)
    start = st_hosvd(t, ranks)
    factors = list(start.factors)
    previous = frobenius_norm(start.core)
    for _ in range(_HOOI_MAX_SWEEPS):
        # core is t x_j W_j.T for every j < k, all updated, and each partial starts from it
        core = t
        for k, r in enumerate(ranks):
            later = [None if j <= k else w.T for j, w in enumerate(factors)]
            partial = multi_mode_product(core, later)
            factors[k] = _leading_left_vectors(partial, k, r)[0]
            core = mode_product(core, factors[k].T, k)
        current = frobenius_norm(core)
        if abs(current - previous) <= _HOOI_TOL * max(current, np.finfo(np.float64).tiny):
            break
        previous = current
    return HosvdDecomposition(core, tuple(factors))
