"""Dense tensor algebra: unfolding, mode products, Gram matrices, fiber
extraction, and the residual norm of a Tucker form.

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
* ``unfold`` is a reference operation: it copies.  The hot path never
  builds an unfolding.  :func:`mode_product` and :func:`gram` view a
  C-contiguous tensor as ``(prod(d_<k), d_k, prod(d_>k))`` (an F-contiguous
  one through its transpose, whose modes are reversed) and multiply on
  that view; only other layouts are copied, once per call.
  ``_select_fibers`` reads only the selected fibers, into a given ``out``.
"""

import math
import operator

import numpy as np

__all__ = [
    "unfold",
    "mode_product",
    "multi_mode_product",
    "frobenius_norm",
]


def _real(t) -> np.ndarray:
    """``t`` as a float64 array.  A complex input raises ``ValueError`` naming
    its dtype, where a cast would keep only its real part."""
    t = np.asarray(t)
    if np.iscomplexobj(t):
        raise ValueError(f"expected a real tensor, got dtype {t.dtype}")
    return t.astype(np.float64, copy=False)


def _as_tensor(t) -> np.ndarray:
    t = _real(t)
    if t.ndim < 1:
        raise ValueError("tensor must have at least one mode")
    return t


def _check_mode(t: np.ndarray, k: int) -> None:
    if not 0 <= k < t.ndim:
        raise ValueError(f"mode {k} out of range for a {t.ndim}-mode tensor")


def _contiguous(t) -> np.ndarray:
    """``t`` as a float64 array that is C- or F-contiguous: any other layout
    is copied to C order, once, by a caller that takes many views of it."""
    t = _real(t)
    return t if t.flags.c_contiguous or t.flags.f_contiguous else np.ascontiguousarray(t)


def _c_contiguous(t: np.ndarray, k: int) -> tuple[np.ndarray, int, bool]:
    """``(c, j, flipped)``: a C-contiguous tensor ``c`` whose mode ``j`` is
    ``t``'s mode ``k``.  An F-contiguous ``t`` is read as ``c = t.T``
    (``flipped``); any other layout is copied once, by :func:`_contiguous`."""
    t = _contiguous(t)
    return (t, k, False) if t.flags.c_contiguous else (t.T, t.ndim - 1 - k, True)


def _slab_view(c: np.ndarray, j: int) -> np.ndarray:
    """The ``(prod(d_<j), d_j, prod(d_>j))`` view of a C-contiguous tensor."""
    return c.reshape(math.prod(c.shape[:j]), c.shape[j], math.prod(c.shape[j + 1 :]))


def as_index_array(indices, extent: int) -> np.ndarray:
    """Validate a 0-based index set: in range, strictly increasing, no
    duplicates.  One that is not of an integer dtype raises ``TypeError``, as
    a fractional rank does (:func:`check_ranks`), instead of being cut."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("index set must be a nonempty 1-d sequence")
    if idx.dtype.kind not in "iu":
        raise TypeError(f"index set must hold integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx[0] < 0 or idx[-1] >= extent:
        raise ValueError(f"index out of range for extent {extent}")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("index set must be strictly increasing")
    return idx


def check_ranks(ranks, dims) -> tuple[int, ...]:
    """Validate one target rank per mode, each an integer between 1 and the
    mode's extent; a non-integer rank raises ``TypeError``."""
    ranks = tuple(map(operator.index, ranks))
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
    For the last mode of the C-contiguous view it is one product on a
    reshape.  Any other mode sums the slab products ``X_p @ X_p.T`` over
    chunks of slabs, each chunk at most an eighth of the tensor and 4 MB or
    else one slab; the first mode is a single slab, so a single product.
    """
    t = _as_tensor(t)
    _check_mode(t, k)
    c, j, _ = _c_contiguous(t, k)
    v = _slab_view(c, j)
    p, d, s = v.shape
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the diagonal
        if s == 1:
            return v[:, :, 0].T @ v[:, :, 0]
        step = max(1, min(-(-p // 8), _GRAM_CHUNK_BYTES // v[0].nbytes))
        g = np.zeros((d, d))
        for start in range(0, p, step):
            x = v[start : start + step].transpose(1, 0, 2).reshape(d, -1)
            g += x @ x.T
            del x  # one chunk copy at a time
    return g


# bytes of fibers taken at a time from the rows of the outermost mode's view,
# or by index into the output
_TAKE_BLOCK_BYTES = 1 << 18


def _select_fibers(t: np.ndarray, k: int, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write columns ``cols`` (checked) of ``unfold(t, k)`` of a float64 ``t``,
    each a mode-k fiber, into and return ``out``, an F-ordered ``(d_k,
    cols.size)`` matrix.

    Only the selected fibers are read, and no unfolding is built.  Memory
    order decides how.  In a C- or F-contiguous ``t`` the mode with the
    largest stride (mode 0 of a C-contiguous ``t``, the last mode of an
    F-contiguous one) is read from the ``(d_k, rest)`` view whose rows are
    contiguous, a block of rows of at most ``_TAKE_BLOCK_BYTES`` at a time,
    and the mode with the smallest stride takes its fibers whole as rows of
    the ``(rest, d_k)`` view; each column id is converted to that view's
    order.  Every other mode, and any other layout, converts each column id
    to its multi-index over the remaining modes (first remaining index
    fastest) and gathers it from a ``moveaxis`` view of ``t``, a block of
    columns of at most ``_TAKE_BLOCK_BYTES`` at a time.  ``out`` then equals
    ``unfold(t, k)[:, cols]`` bit for bit, for any memory layout of ``t``.
    """
    n = t.ndim
    if n > 1 and (t.flags.c_contiguous or t.flags.f_contiguous):
        c, j = (t, k) if t.flags.c_contiguous else (t.T, n - 1 - k)
        if j in (0, n - 1):
            ids = cols
            if c is t:  # its other modes run last index fastest, unfold's columns first
                other = c.shape[:j] + c.shape[j + 1 :]
                ids = np.ravel_multi_index(np.unravel_index(cols, other, order="F"), other)
            if j == 0:
                m = c.reshape(c.shape[0], -1)
                step = max(1, _TAKE_BLOCK_BYTES // (8 * ids.size))
                for start in range(0, m.shape[0], step):
                    out[start : start + step] = np.take(m[start : start + step], ids, axis=1)
                return out
            # the indices are checked, so "clip" only spares take a buffered copy
            np.take(c.reshape(-1, c.shape[-1]), ids, axis=0, out=out.T, mode="clip")
            return out
    # a 1-mode tensor is its own single fiber
    view = np.moveaxis(t, k, 0) if n > 1 else t[:, None]
    idx = np.unravel_index(cols, view.shape[1:], order="F")
    step = max(1, _TAKE_BLOCK_BYTES // (8 * t.shape[k]))
    for start in range(0, cols.size, step):
        part = tuple(i[start : start + step] for i in idx)
        out[:, start : start + step] = view[(slice(None),) + part]
    return out


def composite_index(index_sets, k: int, dims) -> np.ndarray:
    """Linearize per-mode index sets ``{I_j}_{j != k}`` into column indices of
    the mode-k unfolding.

    ``index_sets`` has one entry per mode; the entry at position ``k`` is
    ignored (``None`` is accepted).  The output is sorted ascending, and
    ``_select_fibers(t, k, composite_index(I, k, t.shape), out)`` fills
    ``out`` with ``unfold(t[np.ix_(*I with mode k full)], k)``.  Only the
    index sets are used, never the tensor, so the linearization costs
    ``O(prod |I_j|)`` and ``_select_fibers`` then reads just those fibers.
    It is the inverse of that function's ``unravel_index``:
    ``ravel_multi_index`` over the index grid, read first index fastest.
    """
    dims = tuple(map(operator.index, dims))
    if not 0 <= k < len(dims):
        raise ValueError(f"mode {k} out of range for dims {dims}")
    if len(index_sets) != len(dims):
        raise ValueError(f"expected {len(dims)} index-set entries, got {len(index_sets)}")
    other = [m for m in range(len(dims)) if m != k]
    if not other:  # a 1-mode tensor is its own single fiber
        return np.zeros(1, dtype=np.intp)
    grid = np.ix_(*(as_index_array(index_sets[m], dims[m]) for m in other))
    return np.ravel_multi_index(grid, [dims[m] for m in other], order="F").ravel(order="F")


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries.

    When the sum of squares of a nonzero finite ``t`` overflows or falls
    below the smallest normal float, it is taken again in units of
    ``max|t|``; other inputs are summed once, unscaled.
    """
    # order="K" reads C- and F-contiguous inputs in place instead of copying them
    flat = _real(t).ravel(order="K")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(flat))
    if (math.isinf(norm) or norm**2 < np.finfo(np.float64).tiny) and np.isfinite(flat).all():
        scale = max(float(flat.max(initial=0.0)), -float(flat.min(initial=0.0)))
        if scale > 0.0:
            norm = scale * float(np.linalg.norm(flat / scale))
    return norm


# bytes of last-mode slabs reconstructed, written and differenced at a time,
# and of the chunks a tensor file is read in
_STREAM_CHUNK_BYTES = 1 << 22


def _slab_step(shape) -> int:
    """Last-mode slabs of a float64 tensor of ``shape`` per stream chunk: as
    many as fit in ``_STREAM_CHUNK_BYTES``, and at least one."""
    return max(1, _STREAM_CHUNK_BYTES // (8 * math.prod(shape[:-1])))


def _is_slab_source(x) -> bool:
    """Whether ``x`` is a source of a tensor's last-mode slabs rather than a
    tensor: an object with the tensor's ``shape`` whose iteration yields
    ``(start, chunk)`` pairs in order, ``chunk`` holding slabs ``start,
    start + 1, ...`` (e.g. :class:`~tensorcur.tensorfile.SlabReader`).  An
    object numpy converts (one with ``__array__``, an ndarray too) is a
    tensor."""
    return hasattr(x, "shape") and not hasattr(x, "__array__")


def _source_slabs(source):
    """The ``(start, chunk)`` pairs of a slab source, checked to tile its
    last mode in order with chunks of ``shape[:-1]`` slabs; a skipped,
    repeated, reordered or misshapen chunk raises ``ValueError``."""
    shape, stop = tuple(source.shape), 0
    for start, chunk in source:
        m = chunk.shape[-1]
        if start != stop or chunk.shape[:-1] != shape[:-1] or start + m > shape[-1]:
            raise ValueError(f"a chunk of shape {chunk.shape} at slab {start} does not "
                             f"continue slab {stop} of a tensor of shape {shape}")
        stop = start + m
        yield start, chunk
    if stop != shape[-1]:
        raise ValueError(f"{stop} of {shape[-1]} slabs read")


def _difference_norm(x, slabs, order=None) -> float:
    """``||x - y||_F`` over chunks of last-mode slabs of ``x``, a tensor or a
    slab source, where ``slabs(start, m)`` gives ``y``'s ``m`` slabs from
    ``start``: each chunk's difference, taken in place into ``y``'s or into one
    buffer of ``order``, is measured by :func:`frobenius_norm`, and the norms
    combine by ``hypot``, NaN if one is, as the whole sum of squares would."""
    shape = tuple(x.shape)
    step = _slab_step(shape)
    chunks = _source_slabs(x) if _is_slab_source(x) else (
        (s, x[..., s : s + step]) for s in range(0, shape[-1], step))
    buffer = np.empty(0 if order is None else math.prod(shape[:-1]) * min(step, shape[-1]))
    norms = []
    for start, part in chunks:
        y = slabs(start, part.shape[-1])
        diff = y if order is None else buffer[: part.size].reshape(part.shape, order=order)
        norms.append(frobenius_norm(np.subtract(y, part, out=diff)))
        del y, diff  # one chunk at a time
    return math.nan if math.isnan(sum(norms)) else math.hypot(*norms)  # hypot(inf, nan) is inf


def residual(x, core, factors, writer=None) -> float:
    """``frobenius_norm(x - multi_mode_product(core, factors))``, streamed.

    ``x`` is a tensor or a source of its last-mode slabs, read once.  The
    inner core ``g = core x_1 F_1 ... x_{n-2} F_{n-2}``, ``k_0 x d_1 x ... x
    d_{n-2} x k_{n-1}``, is formed once (a vector is read as a ``1 x d``
    tensor).  Last-mode slab ``l`` is ``F_0 @ S_l``, where ``S_l = g x_{n-1}
    F_{n-1}[l]`` is ``k_0 x prod(d_1 ... d_{n-2})``: stacked products take
    ``S_l`` and then ``S_l.T @ F_0.T``, one small GEMM into the slab's F
    order, slab by slab, so a chunk's bytes do not depend on the chunk size.
    Each chunk is passed to ``writer.write`` if given and differenced from
    ``x`` by :func:`_difference_norm`, which ``relative_error`` shares.
    Without a writer a C-contiguous tensor is read as ``x.T`` against the
    reversed form, so its chunks are contiguous.  A source whose chunks do
    not tile the last mode in order raises ``ValueError``.
    """
    source = _is_slab_source(x)
    x = x if source else _as_tensor(x)
    core = _as_tensor(core)
    if core.ndim != len(factors) or tuple(len(f) for f in factors) != tuple(x.shape):
        raise ValueError(f"the Tucker form does not have the tensor's dims {tuple(x.shape)}")
    if not source and writer is None and x.flags.c_contiguous:
        x, core, factors = x.T, core.T, factors[::-1]
    shape = tuple(x.shape)
    if core.ndim == 1:
        core, factors = core[None], [np.ones((1, 1)), *factors]
    g = multi_mode_product(core, [None, *factors[1:-1], None])
    k, inner = g.shape[0], math.prod(g.shape[1:-1])
    g = g.reshape(k * inner, g.shape[-1], order="F")
    # a reversed-column view would send the batched products down numpy's non-BLAS loop
    first, last = (np.ascontiguousarray(f, dtype=np.float64) for f in (factors[0], factors[-1]))

    def reconstruct(start, m):
        # row l of the (m, inner, k_0) stack is S_l.T; row l of the product is
        # slab l, first index fastest
        s = np.matmul(g, last[start : start + m, :, None]).reshape(m, inner, k)
        chunk = np.matmul(s, first.T).T.reshape(shape[:-1] + (m,), order="F")
        if writer is not None:
            writer.write(chunk)
        return chunk
    return _difference_norm(x, reconstruct)
