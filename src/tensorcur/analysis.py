"""Coherence, error metrics, and perturbation-bound evaluators.

The bound evaluators compute the right-hand sides of the CUR approximation
error guarantees for the additive-noise model ``observed = exact + noise``,
where the exact tensor has known low multilinear rank.  They need both the
exact tensor and the noise, so they are synthetic-setting diagnostics, not
production estimators: the bounds are stated in terms of singular vectors of
the noiseless unfoldings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cur import CurDecomposition
from .linalg import _EPS, _as_matrix, _count_above
from .tensor import frobenius_norm, select_fibers, spectral_norm, subtensor, unfold

__all__ = [
    "CoherenceReport",
    "BoundReport",
    "coherence",
    "tensor_coherence",
    "evaluate_error_bounds",
    "relative_error",
]

_ORTHONORMALITY_TOL = 1e-6


def coherence(w) -> float:
    """Coherence of an orthonormal-column matrix: ``(d / r) * max_i ||w[i, :]||^2``.

    Always lies in ``[1, d / r]``; 1 for perfectly spread rows, ``d / r``
    when some row carries a whole unit vector.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ValueError("coherence expects a matrix with at least one column")
    d, r = w.shape
    gram_residual = np.linalg.norm(w.T @ w - np.eye(r))
    if gram_residual > _ORTHONORMALITY_TOL:
        raise ValueError(
            f"matrix columns are not orthonormal (residual {gram_residual:.3e})"
        )
    row_norms = np.einsum("ij,ij->i", w, w)
    return float(d / r * row_norms.max())


def _leading_left(t: np.ndarray, k: int, r: int, error: str):
    """The leading ``r`` left singular vectors and all singular values of the
    finite ``unfold(t, k)``; ``error.format(k=k, rank=rank, r=r)`` is raised
    when its numerical rank, counted as by ``numerical_rank``, is below ``r``."""
    m = _as_matrix(unfold(t, k))
    w, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = _count_above(s, max(m.shape) * _EPS)
    if rank < r:
        raise ValueError(error.format(k=k, rank=rank, r=r))
    return w[:, :r], s


@dataclass(frozen=True)
class CoherenceReport:
    """Per-mode coherences and the spectral extremes across unfoldings."""

    mode_coherences: tuple[float, ...]
    coherence: float
    sigma_min: float
    sigma_max: float
    mode_singular_values: tuple[np.ndarray, ...]


def tensor_coherence(a, ranks) -> CoherenceReport:
    """Coherence of the leading ``r_i`` left singular vectors of every mode-i
    unfolding.

    ``sigma_min`` is the smallest retained singular value across modes (the
    r_i-th of each unfolding) and ``sigma_max`` the largest overall.
    """
    a = np.asarray(a, dtype=np.float64)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != a.ndim:
        raise ValueError(f"expected {a.ndim} ranks, got {len(ranks)}")
    mus = []
    svals = []
    smin = math.inf
    smax = 0.0
    for k, r in enumerate(ranks):
        w, s = _leading_left(a, k, r, "mode {k} unfolding has numerical rank {rank} < requested {r}")
        mus.append(coherence(w))
        svals.append(s[:r].copy())
        smin = min(smin, float(s[r - 1]))
        smax = max(smax, float(s[0]))
    return CoherenceReport(tuple(mus), max(mus), smin, smax, tuple(svals))


@dataclass(frozen=True)
class BoundReport:
    """Measured CUR approximation error next to the evaluated bound RHS values.

    ``general_bound`` applies to both variants; ``chidori_bound`` is the
    tighter-premise specialization for composite fiber indices and is ``None``
    for Fiber decompositions.  When every premise flag holds
    (``sigma_r(U_i) > 8 ||E_{I_i,J_i}||_2`` per mode), the measured error is
    guaranteed not to exceed either RHS.
    """

    measured_error: float
    general_bound: float
    chidori_bound: float | None
    premise_ok: tuple[bool, ...]
    guaranteed: bool
    core_noise_norm: float
    core_spectral_norms: tuple[float, ...]
    subfactor_pinv_norms: tuple[float, ...]
    intersection_pinv_norms: tuple[float, ...]
    intersection_sigma_r: tuple[float, ...]
    fiber_noise_norms: tuple[float, ...]
    intersection_noise_norms: tuple[float, ...]


def _inverse_or_inf(x: float) -> float:
    return 1.0 / x if x > 0.0 else math.inf


def evaluate_error_bounds(exact, noise, dec: CurDecomposition) -> BoundReport:
    """Evaluate the approximation-error bound RHS values for ``dec`` built
    from ``exact + noise``.

    ``exact`` must have multilinear rank equal to ``dec.ranks``.  All
    noiseless submatrices (core, fibers, intersections) are re-extracted from
    ``exact`` at the decomposition's indices, and the left singular vectors
    of the noiseless unfoldings supply the subfactor pseudoinverse norms.
    """
    exact = np.asarray(exact, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if exact.shape != noise.shape:
        raise ValueError("exact tensor and noise must have the same shape")
    if exact.shape != dec.dims:
        raise ValueError("decomposition dims do not match the tensor")
    n = exact.ndim
    ranks = dec.ranks

    core_noise = frobenius_norm(subtensor(noise, dec.row_indices))
    clean_core = subtensor(exact, dec.row_indices)
    core_spectral = tuple(spectral_norm(unfold(clean_core, j)) for j in range(n))

    w_pinv = []
    u_pinv = []
    u_sigma_r = []
    a_pinv = []
    e_fiber = []
    e_inter = []
    premise = []
    for i in range(n):
        r = ranks[i]
        w, s = _leading_left(exact, i, r, "exact tensor has mode-{k} rank {rank}, below target {r}")
        w_sub = w[dec.row_indices[i], :]
        s_w = np.linalg.svd(w_sub, compute_uv=False)
        sigma_r_w = float(s_w[r - 1]) if s_w.size >= r else 0.0
        w_pinv.append(_inverse_or_inf(sigma_r_w))
        a_pinv.append(_inverse_or_inf(float(s[r - 1])))

        clean_u = select_fibers(exact, i, dec.fiber_indices[i])[dec.row_indices[i], :]
        s_u = np.linalg.svd(clean_u, compute_uv=False)
        sigma_r_u = float(s_u[r - 1]) if s_u.size >= r else 0.0
        u_sigma_r.append(sigma_r_u)
        u_pinv.append(_inverse_or_inf(sigma_r_u))

        noise_fibers = select_fibers(noise, i, dec.fiber_indices[i])
        noise_inter = noise_fibers[dec.row_indices[i], :]
        e_fiber.append(frobenius_norm(noise_fibers))
        e_inter.append(frobenius_norm(noise_inter))
        premise.append(sigma_r_u > 8.0 * spectral_norm(noise_inter))

    lead = (9.0 / 4.0) ** n * math.prod(w_pinv) * core_noise
    general = lead
    for j in range(n):
        others = math.prod(w_pinv[i] for i in range(n) if i != j)
        coef = (9.0 / 4.0) ** (n - 1 - j)
        general += coef * core_spectral[j] * others * (
            5.0 * u_pinv[j] * w_pinv[j] * e_inter[j] + 2.0 * u_pinv[j] * e_fiber[j]
        )

    chidori = None
    if dec.variant == "chidori":
        chidori = lead
        for j in range(n):
            others_sq = math.prod(w_pinv[i] ** 2 for i in range(n) if i != j)
            coef = (9.0 / 4.0) ** (n - 1 - j)
            chidori += coef * core_spectral[j] * others_sq * a_pinv[j] * w_pinv[j] * (
                5.0 * w_pinv[j] * e_inter[j] + 2.0 * e_fiber[j]
            )

    measured = frobenius_norm(exact - dec.reconstruct())
    return BoundReport(
        measured_error=measured,
        general_bound=general,
        chidori_bound=chidori,
        premise_ok=tuple(premise),
        guaranteed=all(premise),
        core_noise_norm=core_noise,
        core_spectral_norms=core_spectral,
        subfactor_pinv_norms=tuple(w_pinv),
        intersection_pinv_norms=tuple(u_pinv),
        intersection_sigma_r=tuple(u_sigma_r),
        fiber_noise_norms=tuple(e_fiber),
        intersection_noise_norms=tuple(e_inter),
    )


def relative_error(a, approx) -> float:
    """``||a - approx||_F / ||a||_F``; the reference must be nonzero."""
    a = np.asarray(a, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    norm = frobenius_norm(a)
    if norm == 0.0:
        raise ValueError("relative error undefined for a zero reference tensor")
    return frobenius_norm(a - approx) / norm
