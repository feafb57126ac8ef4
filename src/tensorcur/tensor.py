"""Dense tensor algebra: unfolding, folding, mode products, Gram matrices, and
subtensor extraction.

Conventions used throughout the package:

* A tensor is a ``numpy.ndarray`` of 64-bit floats with ``ndim >= 1``.
* Flat storage order is first-index-fastest (Fortran order).  Every
  flatten/reshape in this module uses ``order="F"``, so the mode-0
  unfolding is a plain reshape.
* Modes and index sets are 0-based.
* ``unfold(t, k)`` is the ``d_k x prod(d_j, j != k)`` matrix whose column
  for multi-index ``(i_0, ..., i_{n-1})`` is ``sum_{m != k} i_m * s_m``
  with stride ``s_m = prod_{l < m, l != k} d_l`` (remaining indices,
  first varying fastest).  ``composite_index`` linearizes per-mode index
  sets with exactly this column convention.
* ``unfold`` and ``fold`` are reference operations: they copy.  The hot path
  never builds an unfolding.  :func:`mode_product` and :func:`gram` view a
  C-contiguous tensor as ``(prod(d_<k), d_k, prod(d_>k))`` (an F-contiguous
  one through its transpose, whose modes are reversed) and multiply on
  that view; only other layouts are copied, once per call.
"""

import math

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "mode_product",
    "multi_mode_product",
    "gram",
    "subtensor",
    "select_fibers",
    "composite_index",
    "frobenius_norm",
    "spectral_norm",
]


def _as_tensor(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 1:
        raise ValueError("tensor must have at least one mode")
    return t


def _check_mode(t: np.ndarray, k: int) -> None:
    if not 0 <= k < t.ndim:
        raise ValueError(f"mode {k} out of range for a {t.ndim}-mode tensor")


def _c_contiguous(t: np.ndarray, k: int) -> tuple[np.ndarray, int, bool]:
    """``(c, j, flipped)``: a C-contiguous tensor ``c`` whose mode ``j`` is
    ``t``'s mode ``k``.  An F-contiguous ``t`` is read as ``c = t.T``
    (``flipped``); any other layout is copied once."""
    if t.flags.c_contiguous:
        return t, k, False
    if t.flags.f_contiguous:
        return t.T, t.ndim - 1 - k, True
    return np.ascontiguousarray(t), k, False


def _slab_view(c: np.ndarray, j: int) -> np.ndarray:
    """The ``(prod(d_<j), d_j, prod(d_>j))`` view of a C-contiguous tensor."""
    return c.reshape(math.prod(c.shape[:j]), c.shape[j], math.prod(c.shape[j + 1 :]))


def as_index_array(indices, extent: int) -> np.ndarray:
    """Validate a 0-based index set: in range, strictly increasing, no duplicates."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("index set must be a nonempty 1-d sequence")
    if idx[0] < 0 or idx[-1] >= extent:
        raise ValueError(f"index out of range for extent {extent}")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("index set must be strictly increasing")
    return idx


def check_ranks(ranks, dims) -> tuple[int, ...]:
    """Validate one target rank per mode, each between 1 and the mode's extent."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"expected {len(dims)} ranks, got {len(ranks)}")
    for k, (r, d) in enumerate(zip(ranks, dims)):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} out of range for extent {d} at mode {k}")
    return ranks


def unfold(t, k: int) -> np.ndarray:
    """Mode-k unfolding: rows are indexed by mode k, columns by the remaining
    modes with the first remaining index varying fastest."""
    t = _as_tensor(t)
    _check_mode(t, k)
    return np.reshape(np.moveaxis(t, k, 0), (t.shape[k], -1), order="F")


def fold(m, k: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold`: ``fold(unfold(t, k), k, t.shape) == t``."""
    m = np.asarray(m, dtype=np.float64)
    dims = tuple(int(d) for d in dims)
    if m.ndim != 2:
        raise ValueError("fold expects a matrix")
    if not 0 <= k < len(dims):
        raise ValueError(f"mode {k} out of range for dims {dims}")
    rest = tuple(d for j, d in enumerate(dims) if j != k)
    expected = (dims[k], int(np.prod(rest)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} at mode {k}")
    return np.moveaxis(np.reshape(m, (dims[k],) + rest, order="F"), 0, k)


def mode_product(t, a, k: int) -> np.ndarray:
    """Multiply tensor ``t`` along mode ``k`` by matrix ``a``.

    The result satisfies ``unfold(result, k) == a @ unfold(t, k)``; mode k's
    extent is replaced by ``a.shape[0]``.  It is computed on a view of ``t``
    and keeps its memory order: a C-contiguous input gives a C-contiguous
    result, an F-contiguous one an F-contiguous result.
    """
    t = _as_tensor(t)
    a = np.asarray(a, dtype=np.float64)
    _check_mode(t, k)
    if a.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    if a.shape[1] != t.shape[k]:
        raise ValueError(
            f"matrix has {a.shape[1]} columns but mode {k} has extent {t.shape[k]}"
        )
    c, j, flipped = _c_contiguous(t, k)
    v = _slab_view(c, j)
    if v.shape[2] == 1:
        out = v[:, :, 0] @ a.T
    else:
        # one GEMM per leading index, a single one when mode k leads
        out = a @ v
    out = out.reshape(c.shape[:j] + (a.shape[0],) + c.shape[j + 1 :])
    return out.T if flipped else out


def multi_mode_product(t, matrices) -> np.ndarray:
    """Apply :func:`mode_product` for every non-``None`` entry of ``matrices``
    (one optional matrix per mode), in ascending mode order.

    The result does not depend on the application order because the modes
    are distinct.
    """
    t = _as_tensor(t)
    matrices = list(matrices)
    if len(matrices) != t.ndim:
        raise ValueError(f"expected {t.ndim} per-mode entries, got {len(matrices)}")
    out = t
    for k, a in enumerate(matrices):
        if a is not None:
            out = mode_product(out, a, k)
    return out


# bytes of tensor slabs copied per chunk when a middle mode's Gram is summed
_GRAM_CHUNK_BYTES = 1 << 22


def gram(t, k: int) -> np.ndarray:
    """The Gram matrix ``unfold(t, k) @ unfold(t, k).T`` of the mode-k unfolding.

    The Gram does not depend on the column order, so no unfolding is built.
    For the first and last mode of the C-contiguous view it is one product
    on a reshape.  A middle mode sums the slab products ``X_p @ X_p.T`` over
    chunks of slabs, each chunk at most an eighth of the tensor and 4 MB.
    """
    t = _as_tensor(t)
    _check_mode(t, k)
    c, j, _ = _c_contiguous(t, k)
    v = _slab_view(c, j)
    p, d, s = v.shape
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the diagonal
        if p == 1:
            return v[0] @ v[0].T
        if s == 1:
            return v[:, :, 0].T @ v[:, :, 0]
        step = max(1, min(-(-p // 8), _GRAM_CHUNK_BYTES // v[0].nbytes))
        g = np.zeros((d, d))
        for start in range(0, p, step):
            x = v[start : start + step].transpose(1, 0, 2).reshape(d, -1)
            g += x @ x.T
            del x  # one chunk copy at a time
    return g


def subtensor(t, index_sets) -> np.ndarray:
    """Extract ``t[I_0, I_1, ..., I_{n-1}]`` for per-mode index sets."""
    t = _as_tensor(t)
    if len(index_sets) != t.ndim:
        raise ValueError(f"expected {t.ndim} index sets, got {len(index_sets)}")
    idx = [as_index_array(ind, t.shape[m]) for m, ind in enumerate(index_sets)]
    return t[np.ix_(*idx)]


def select_fibers(t, k: int, cols) -> np.ndarray:
    """Columns ``cols`` of ``unfold(t, k)``; each column is a mode-k fiber.

    Only the selected fibers are read: each column id is converted to its
    multi-index over the remaining modes (first remaining index fastest) and
    gathered from a ``moveaxis`` view of ``t``, so no unfolding is built.
    The result equals ``unfold(t, k)[:, cols]`` bit for bit, with the same
    memory layout, for any memory layout of ``t``.
    """
    t = _as_tensor(t)
    _check_mode(t, k)
    total = t.size // t.shape[k]
    cols = as_index_array(cols, total)
    # a 1-mode tensor is its own single fiber
    view = np.moveaxis(t, k, 0) if t.ndim > 1 else t[:, None]
    return view[(slice(None),) + np.unravel_index(cols, view.shape[1:], order="F")]


def composite_index(index_sets, k: int, dims) -> np.ndarray:
    """Linearize per-mode index sets ``{I_j}_{j != k}`` into column indices of
    the mode-k unfolding.

    ``index_sets`` has one entry per mode; the entry at position ``k`` is
    ignored (``None`` is accepted).  The output is sorted ascending and
    satisfies ``select_fibers(t, k, composite_index(I, k, t.shape)) ==
    unfold(subtensor(t with mode k full), k)``.  Only the index sets are
    used, never the tensor, so the linearization costs ``O(prod |I_j|)``
    and :func:`select_fibers` then reads just those fibers.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= k < len(dims):
        raise ValueError(f"mode {k} out of range for dims {dims}")
    if len(index_sets) != len(dims):
        raise ValueError(f"expected {len(dims)} index-set entries, got {len(index_sets)}")
    offsets = np.zeros(1, dtype=np.intp)
    stride = 1
    for m, d in enumerate(dims):
        if m == k:
            continue
        im = as_index_array(index_sets[m], d)
        # offsets so far are < stride, so iterating im slowest keeps ascending order
        offsets = (stride * im[:, None] + offsets[None, :]).ravel()
        stride *= d
    return offsets


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries.

    When the sum of squares overflows for finite entries, it is taken again
    in units of ``max|t|``; other inputs are summed once, unscaled.
    """
    # order="K" reads C- and F-contiguous inputs in place instead of copying them
    flat = np.asarray(t, dtype=np.float64).ravel(order="K")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(flat))
    if math.isinf(norm) and np.isfinite(flat).all():
        scale = max(float(flat.max()), -float(flat.min()))
        norm = scale * float(np.linalg.norm(flat / scale))
    return norm


def spectral_norm(m) -> float:
    """Largest singular value of a matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))
