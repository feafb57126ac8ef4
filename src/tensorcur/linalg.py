"""Matrix factorization primitives: the factored rank-``r`` pseudoinverse of
a sampled intersection, the package's one pseudoinverse; numerical rank; and
the leading left subspace of an unfolding, which the pseudoinverse and the
Tucker baselines share.

All factorizations are dense and delegate to LAPACK through ``numpy.linalg``.
The default rank cutoff is the conventional ``max(rows, cols) * eps`` relative
to the largest singular value.
"""

import math

import numpy as np

from .tensor import _real, frobenius_norm, gram, unfold

__all__ = [
    "numerical_rank",
    "multilinear_rank",
]

# floor (relative to sigma_1) below which a requested singular value is treated
# as zero when building a rank-limited pseudoinverse
_PINV_FLOOR = 1e-14

# eigh of m @ m.T errs by ~eps * lambda_1, eps * (sigma_1 / sigma_k)^2 relative
# in direction k; below sigma_k / sigma_1 = 1e-3 the thin SVD of m is used
_GRAM_MIN_RATIO = 1e-6

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if not math.isfinite(frobenius_norm(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _count_above(s: np.ndarray, tol: float) -> int:
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.count_nonzero(s > tol * s[0]))


def numerical_rank(m, tol: float | None = None) -> int:
    """Number of singular values above ``tol * sigma_1`` (by default
    ``tol = max(rows, cols) * eps``)."""
    m = _as_matrix(m)
    s = np.linalg.svd(m, compute_uv=False) if min(m.shape) else np.zeros(0)
    return _count_above(s, max(m.shape) * _EPS if tol is None else tol)


def _leading_left_vectors(t, k: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(w, s, vt)``: the leading ``q = min(r, d, p)`` left singular vectors
    ``w`` of the ``d x p`` unfolding ``unfold(t, k)`` and all its singular
    values ``s``, descending; the one kernel behind the Tucker factors and
    the intersection pseudoinverses.

    A wide unfolding takes them from ``eigh`` of its Gram matrix, formed by
    :func:`~tensorcur.tensor.gram` from a view of ``t``, and ``vt`` is
    ``None``.  A tall unfolding (its Gram would take ``O(d^2)`` memory), a
    Gram diagonal that is not finite or below ``tiny / eps`` (a non-finite
    entry, overflow, a zero ``t`` or underflow), and ``lambda_q < 1e-6 *
    lambda_1`` take the thin SVD ``W S vt`` of the unfolding instead, which
    rejects a non-finite entry with a ``ValueError``.
    """
    d = t.shape[k]
    p = t.size // d
    q = min(r, d, p)
    if d <= p:
        g = gram(t, k)
        diagonal = np.diagonal(g)
        if np.isfinite(diagonal).all() and diagonal.max() >= _TINY / _EPS:
            lam, v = np.linalg.eigh(g)
            if lam[-q] >= _GRAM_MIN_RATIO * lam[-1]:
                return v[:, -q:][:, ::-1], np.sqrt(np.maximum(lam[::-1], 0.0)), None
    m = unfold(t, k)
    # an infinite entry can stall the SVD, so its operand is checked first
    if not np.isfinite(m).all():
        raise ValueError("the tensor holds non-finite values")
    w, s, vt = np.linalg.svd(m, full_matrices=False)
    return w[:, :q], s, vt


def _cholesky_qr2(a: np.ndarray) -> np.ndarray:
    """The orthonormal factor of the tall full-rank panel ``a`` by CholeskyQR2:
    two passes of ``a @ inv(R)``, ``R`` the Cholesky factor of ``a.T @ a``.
    The first pass leaves an orthogonality error of about ``eps * kappa^2``
    and the second takes it to ``eps``, for ``kappa`` well below ``1e8``."""
    for _ in range(2):
        # cholesky(upper=True) needs numpy >= 2.0
        a = a @ np.linalg.inv(np.linalg.cholesky(a.T @ a).T)
    return a


def rank_r_pinv_factors(m, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pseudoinverse of the best rank-``r`` approximation of ``m``, ``V_r
    diag(1/sigma_1..1/sigma_r) W_r.T``, as ``left @ right.T``, each factor
    with ``k <= r`` columns, plus the singular values ``s`` of ``m`` (empty
    when ``r == 0``).  Singular values below ``1e-14 * sigma_1`` are not
    inverted: ``k`` is then silently below ``r``, which avoids dividing by
    numerically-zero values when ``r`` exceeds the numerical rank.

    The leading ``q = min(r, rows, cols)`` left directions ``W_q`` come from
    :func:`_leading_left_vectors`.  When they come from the Gram ``m @ m.T``
    they are tilted towards the trailing ones by up to ``eps * kappa^2``
    (``kappa = sigma_1 / sigma_q``); each pass through ``m`` shrinks the tilt
    by ``rho = sigma_{q+1} / sigma_q``.  One subspace iteration, ``Y =
    cqr2(m.T @ qr(m @ cqr2(m.T @ W_q)))`` (just ``cqr2(m.T @ W_q)`` when ``q
    == rows``), and a Rayleigh-Ritz step, the thin SVD ``m @ Y = W' S' Z'.T``,
    give ``left = Y Z' / S'`` and ``right = W'`` within ``eps * kappa^2 *
    rho^3`` of the SVD's result; ``s`` is ``S'`` followed by the square roots
    of the other Gram eigenvalues.  When they come from the thin SVD of
    ``m``, its factors are used as they are.  Gram-path values sit far above
    the ``1e-14`` floor and a ``1e-6`` rank gate, so both paths invert the
    same rank and pass the same gates.  ``cqr2`` orthonormalizes a tall
    ``cols x q`` panel by CholeskyQR2 from two ``q x q`` Grams: the panels'
    singular values are about ``sigma_1 .. sigma_q``, so ``kappa <= ~1e3``,
    far inside its ``1e8`` limit.
    """
    m = _as_matrix(m)
    if r < 0:
        raise ValueError("rank must be nonnegative")
    rows, cols = m.shape
    if r == 0 or min(rows, cols) == 0:
        return np.zeros((cols, 0)), np.zeros((rows, 0)), np.zeros(0)
    w, s, vt = _leading_left_vectors(m, 0, int(r))
    if vt is None:
        q = w.shape[1]
        # lambda_q >= 1e-6 * lambda_1 here, so the panels have kappa <= ~1e3 and
        # their Cholesky cannot fail; (x.T @ m).T is m.T @ x in BLAS's faster orientation
        y = _cholesky_qr2((w.T @ m).T)
        if q < rows:  # at q == rows, y spans the whole row space already
            y = _cholesky_qr2((np.linalg.qr(m @ y)[0].T @ m).T)
        w, s_q, zt = np.linalg.svd(m @ y, full_matrices=False)
        left, s = y @ zt.T, np.concatenate([s_q, s[q:]])
    else:
        left = vt.T
    k = min(int(r), _count_above(s, _PINV_FLOOR))
    return left[:, :k] / s[:k], w[:, :k], s


def multilinear_rank(t, tol: float | None = None) -> tuple[int, ...]:
    """Numerical rank of every mode unfolding."""
    t = _real(t)
    return tuple(numerical_rank(unfold(t, k), tol) for k in range(t.ndim))
