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

from .cur import CurDecomposition, cur_with_indices
from .linalg import _EPS, _count_above, _leading_left_vectors
from .tensor import (_contiguous, _difference_norm, _real, check_ranks, frobenius_norm, residual,
                     unfold)

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
    """The shared kernel's leading ``r`` left singular vectors and singular
    values of ``unfold(t, k)``; ``error.format(k=k, rank=rank, r=r)`` is raised
    when its numerical rank, counted as by ``numerical_rank``, is below ``r``."""
    w, s, _ = _leading_left_vectors(t, k, r)
    rank = _count_above(s, max(t.shape[k], t.size // t.shape[k]) * _EPS)
    if rank < r:
        raise ValueError(error.format(k=k, rank=rank, r=r))
    return w, s


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
    a = _contiguous(a)
    ranks = check_ranks(ranks, a.shape)
    mus = []
    svals = []
    for k, r in enumerate(ranks):
        w, s = _leading_left(a, k, r, "mode {k} unfolding has numerical rank {rank} < requested {r}")
        mus.append(coherence(w))
        svals.append(s[:r].copy())
    smin = min(float(s[-1]) for s in svals)
    smax = max(float(s[0]) for s in svals)
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

    ``exact`` must have multilinear rank equal to ``dec.ranks``.  The core,
    fibers and intersections of ``exact`` and of ``noise`` are gathered by
    :func:`~tensorcur.cur.cur_with_indices` at the decomposition's indices,
    which rejects non-finite values among them; no other entry of ``noise``
    is read.  The left singular vectors of the noiseless unfoldings supply
    the subfactor pseudoinverse norms.  A strided ``exact`` is copied once.
    """
    exact = _contiguous(exact)
    noise = _real(noise)
    if exact.shape != noise.shape:
        raise ValueError("exact tensor and noise must have the same shape")
    if exact.shape != dec.dims:
        raise ValueError("decomposition dims do not match the tensor")
    n = exact.ndim
    ranks = dec.ranks
    clean = cur_with_indices(exact, dec.row_indices, ranks, dec.fiber_indices)
    sampled_noise = cur_with_indices(noise, dec.row_indices, ranks, dec.fiber_indices)

    core_noise = frobenius_norm(sampled_noise.core)
    core_spectral = tuple(float(np.linalg.norm(unfold(clean.core, j), 2)) for j in range(n))

    w_pinv = []
    u_pinv = []
    u_sigma_r = []
    a_pinv = []
    e_fiber = []
    e_inter = []
    premise = []
    for i, r in enumerate(ranks):
        w, s = _leading_left(exact, i, r, "exact tensor has mode-{k} rank {rank}, below target {r}")
        w_sub = w[dec.row_indices[i], :]
        s_w = np.linalg.svd(w_sub, compute_uv=False)
        sigma_r_w = float(s_w[r - 1]) if s_w.size >= r else 0.0
        w_pinv.append(_inverse_or_inf(sigma_r_w))
        a_pinv.append(_inverse_or_inf(float(s[r - 1])))

        s_u = np.linalg.svd(clean.intersections[i], compute_uv=False)
        sigma_r_u = float(s_u[r - 1]) if s_u.size >= r else 0.0
        u_sigma_r.append(sigma_r_u)
        u_pinv.append(_inverse_or_inf(sigma_r_u))

        e_fiber.append(frobenius_norm(sampled_noise.fibers[i]))
        e_inter.append(frobenius_norm(sampled_noise.intersections[i]))
        premise.append(sigma_r_u > 8.0 * float(np.linalg.norm(sampled_noise.intersections[i], 2)))

    general = chidori = (9.0 / 4.0) ** n * math.prod(w_pinv) * core_noise
    for j in range(n):
        others = [w_pinv[i] for i in range(n) if i != j]
        coef = (9.0 / 4.0) ** (n - 1 - j)
        general += coef * core_spectral[j] * math.prod(others) * (
            5.0 * u_pinv[j] * w_pinv[j] * e_inter[j] + 2.0 * u_pinv[j] * e_fiber[j]
        )
        # float ** raises OverflowError where * gives inf: Fiber squares nothing
        if dec.variant == "chidori":
            sq = math.prod(w**2 for w in others)
            chidori += coef * core_spectral[j] * sq * a_pinv[j] * w_pinv[j] * (
                5.0 * w_pinv[j] * e_inter[j] + 2.0 * e_fiber[j]
            )

    return BoundReport(
        measured_error=residual(exact, *dec.tucker_form()),
        general_bound=general,
        chidori_bound=chidori if dec.variant == "chidori" else None,
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
    """``||a - approx||_F / ||a||_F``; the reference must be nonzero and
    ``approx`` of its shape.  The difference is streamed, never held whole, by
    the kernel of :func:`~tensorcur.tensor.residual`, in chunks along the last
    mode of ``a``'s storage, or its middle mode against an opposite layout."""
    a = _contiguous(a)  # a strided reference is copied once, as its norm would copy it
    approx = _real(approx)
    if a.shape != approx.shape:
        raise ValueError(f"approximation shape {approx.shape} differs from the reference's {a.shape}")
    norm = frobenius_norm(a)
    if norm == 0.0:
        raise ValueError("relative error undefined for a zero reference tensor")
    (a, approx), order = np.atleast_1d(a.T, approx.T) if a.flags.c_contiguous else (a, approx), "F"
    if a.flags.f_contiguous and approx.flags.c_contiguous:
        k = a.ndim // 2
        a, approx, order = np.moveaxis(a, k, -1), np.moveaxis(approx, k, -1), "C"
    return _difference_norm(a, lambda start, m: approx[..., start : start + m], order) / norm
