"""Matrix factorization primitives: pseudoinverses, the factored rank-``r``
pseudoinverse of a sampled intersection, numerical rank.

All factorizations are dense and delegate to LAPACK through ``numpy.linalg``.
The default rank cutoff is the conventional ``max(rows, cols) * eps`` relative
to the largest singular value.
"""

import numpy as np

from .tensor import unfold

__all__ = [
    "pinv",
    "rank_r_pinv_factors",
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


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(m)):
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


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse from the thin SVD, inverting the singular
    values above ``max(rows, cols) * eps * sigma_1``.

    Satisfies the four Penrose identities; ``pinv`` of a zero matrix is the
    zero matrix of transposed shape.
    """
    m = _as_matrix(m)
    if min(m.shape) == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    w, s, vt = np.linalg.svd(m, full_matrices=False)
    k = _count_above(s, max(m.shape) * _EPS)
    return (vt[:k].T / s[:k]) @ w[:, :k].T


def rank_r_pinv_factors(m, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pseudoinverse of the best rank-``r`` approximation of ``m``, ``V_r
    diag(1/sigma_1..1/sigma_r) W_r.T``, as ``left @ right.T``, each factor
    with ``k <= r`` columns, plus the singular values ``s`` of ``m`` (empty
    when ``r == 0``).  Singular values below ``1e-14 * sigma_1`` are not
    inverted: ``k`` is then silently below ``r``, which avoids dividing by
    numerically-zero values when ``r`` exceeds the numerical rank.

    A wide ``m`` (rows <= cols) takes no SVD of ``m``.  With ``q = min(r,
    rows)``, ``eigh`` of the Gram ``m @ m.T`` gives the leading left
    directions ``W_q``, tilted towards the trailing ones by up to ``eps *
    kappa^2`` (``kappa = sigma_1 / sigma_q``); each pass through ``m``
    shrinks the tilt by ``rho = sigma_{q+1} / sigma_q``.  One subspace
    iteration, ``Y = qr(m.T @ qr(m @ qr(m.T @ W_q)))`` (just ``qr(m.T @
    W_q)`` when ``q == rows``), and a Rayleigh-Ritz step, the thin SVD ``m @
    Y = W' S' Z'.T``, give ``left = Y Z' / S'`` and ``right = W'`` within
    ``eps * kappa^2 * rho^3`` of the SVD's result; ``s`` is ``S'`` followed
    by the square roots of the other Gram eigenvalues.  A tall ``m``, a Gram
    whose diagonal overflows, and ``sigma_q / sigma_1 < 1e-3`` take the thin
    SVD of ``m``.  Gram-path values sit far above the ``1e-14`` floor and a
    ``1e-6`` rank gate, so both paths invert the same rank and pass the same
    gates.
    """
    m = _as_matrix(m)
    if r < 0:
        raise ValueError("rank must be nonnegative")
    rows, cols = m.shape
    if r == 0 or min(rows, cols) == 0:
        return np.zeros((cols, 0)), np.zeros((rows, 0)), np.zeros(0)
    q = min(int(r), rows)
    with np.errstate(over="ignore", invalid="ignore"):  # _gram_eigh checks the diagonal
        eig = _gram_eigh(m @ m.T, q) if rows <= cols else None
    if eig is not None:
        lam, v = eig
        y = np.linalg.qr(m.T @ v[:, -q:][:, ::-1])[0]
        if q < rows:  # at q == rows, y spans the whole row space already
            y = np.linalg.qr(m.T @ np.linalg.qr(m @ y)[0])[0]
        w, s, zt = np.linalg.svd(m @ y, full_matrices=False)
        left, right = y @ zt.T, w
        s = np.concatenate([s, np.sqrt(np.maximum(lam[-q - 1::-1], 0.0))])
    else:
        w, s, vt = np.linalg.svd(m, full_matrices=False)
        left, right = vt.T, w
    k = min(int(r), _count_above(s, _PINV_FLOOR))
    return left[:, :k] / s[:k], right[:, :k], s


def _gram_eigh(g: np.ndarray, q: int):
    """``eigh`` of the Gram matrix ``g = m @ m.T``, or ``None`` when the leading
    ``q`` directions must come from the thin SVD of ``m``: ``g`` is zero, has
    a non-finite diagonal (a non-finite ``m``, or squares that overflow), or
    has ``lambda_q < 1e-6 * lambda_1``."""
    if not np.isfinite(np.diagonal(g)).all():
        return None
    lam, v = np.linalg.eigh(g)
    if lam[-1] > 0.0 and lam[-q] >= _GRAM_MIN_RATIO * lam[-1]:
        return lam, v
    return None


def multilinear_rank(t, tol: float | None = None) -> tuple[int, ...]:
    """Numerical rank of every mode unfolding."""
    t = np.asarray(t, dtype=np.float64)
    return tuple(numerical_rank(unfold(t, k), tol) for k in range(t.ndim))
