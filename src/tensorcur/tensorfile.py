"""Binary tensor container.

Layout (all integers little-endian):

    bytes 0-3    magic "TNSR"
    bytes 4-7    format version, uint32, currently 1
    byte  8      dtype code, uint8: 1 = float64, 2 = float32
    byte  9      number of modes, uint8
    bytes 10-11  reserved, written as zero
    then         ndims extents, uint64 each
    then         prod(dims) payload values, first index varying fastest

float32 payloads are widened to float64 on load; float64 round trips are
bit-exact.  The last-mode slabs follow one another in the payload, so
:class:`SlabWriter` and :class:`SlabReader` write and read a tensor in
chunks of them without holding it whole; the reader's first pass also
checks that every value is finite and measures ``||x||_F``.

Writing replaces a regular file at the path that the writer may write: it
is unlinked and a new file created, not truncated, because ext4 (default
``auto_da_alloc``) flushes a truncated file's delayed blocks to disk first and
starts writing the new ones back when it is closed.  The new file has the
writer's owner and group and its mode from the umask, whatever the old one's
were, and none of its ACLs or extended attributes; a hard link to the old file
keeps the old bytes.  A file the writer may not write is opened in place, so
that it raises ``PermissionError`` as before, and so is one that it may not
unlink (another user's file in a sticky directory such as ``/tmp``).  A
symlink, FIFO or device at the path is written through.
"""

import math
import os
import stat
import struct

import numpy as np

from .tensor import _slab_step, frobenius_norm

__all__ = ["TensorFileError", "SlabWriter", "read_tensor", "write_tensor"]

MAGIC = b"TNSR"
VERSION = 1
_HEADER = struct.Struct("<4sIBB2s")
_DTYPES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_CODES = {"float64": 1, "float32": 2}


class TensorFileError(ValueError):
    """Raised for malformed tensor files: bad magic, version, dtype, or length."""


def _create(path):
    """Open ``path`` for binary writing; a writable regular file there is
    unlinked, not truncated, unless it may not be unlinked."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except (FileNotFoundError, PermissionError):  # gone meanwhile, or a sticky directory
        pass
    return open(path, "wb")


def write_tensor(path, array, dtype: str = "float64") -> None:
    """Write ``array`` to ``path``, replacing a regular file there (a hard
    link to it keeps the old bytes; see the module docstring); ``dtype``
    selects the payload precision."""
    array = np.asarray(array, dtype=np.float64)
    with SlabWriter(path, array.shape, dtype) as out:
        out.write(array)


class SlabWriter:
    """Write a tensor of a given shape to ``path`` in chunks of last-mode slabs.

    Each :meth:`write` takes ``shape[:-1] + (m,)`` values, the next ``m``
    slabs; the payload is first index fastest, so the slabs follow one
    another in the file.  Closing after fewer or more than ``shape[-1]``
    slabs raises ``ValueError``.  The file is the one :func:`write_tensor`
    writes for the assembled tensor, byte for byte.  A writable regular file
    at ``path`` is unlinked before the new one is created, so a hard link to
    it keeps the old bytes and the new file takes the writer's owner and
    umask mode; a symlink, FIFO or device is written through (see the module
    docstring).
    """

    def __init__(self, path, shape, dtype: str = "float64"):
        shape = tuple(int(d) for d in shape)
        if len(shape) < 1 or len(shape) > 255:
            raise ValueError("tensor must have between 1 and 255 modes")
        if any(d < 1 for d in shape):
            raise ValueError("every extent must be positive")
        try:
            code = _CODES[dtype]
        except KeyError:
            raise ValueError(f"unsupported dtype {dtype!r}") from None
        self.shape = shape
        self._dtype = _DTYPES[code]
        self._slabs = 0
        self._fh = _create(path)
        self._fh.write(_HEADER.pack(MAGIC, VERSION, code, len(shape), b"\x00\x00"))
        self._fh.write(np.asarray(shape, dtype="<u8").tobytes())

    def write(self, chunk) -> None:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != len(self.shape) or chunk.shape[:-1] != self.shape[:-1]:
            raise ValueError(f"chunk of shape {chunk.shape} does not hold slabs of {self.shape}")
        if self._slabs + chunk.shape[-1] > self.shape[-1]:
            raise ValueError(f"more than {self.shape[-1]} slabs written")
        payload = chunk.ravel(order="F").astype(self._dtype, copy=False)
        self._fh.write(memoryview(payload))
        self._slabs += chunk.shape[-1]

    def close(self) -> None:
        self._fh.close()
        if self._slabs != self.shape[-1]:
            raise ValueError(f"{self._slabs} of {self.shape[-1]} slabs written")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()


def _read_header(fh, path) -> tuple[tuple[int, ...], np.dtype]:
    """Check the header and the payload length of the open tensor file ``fh``,
    leaving it at the payload, and return ``(shape, payload dtype)``; a
    malformed file raises :class:`TensorFileError` naming ``path``."""

    def bad(reason):
        return TensorFileError(f"{os.fspath(path)}: {reason}")

    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise bad("file too short for a tensor header")
    magic, version, code, ndims, _reserved = _HEADER.unpack(head)
    if magic != MAGIC:
        raise bad(f"bad magic {magic!r}")
    if version != VERSION:
        raise bad(f"unsupported version {version}")
    if code not in _DTYPES:
        raise bad(f"unknown dtype code {code}")
    if ndims < 1:
        raise bad("tensor must have at least one mode")
    extents = fh.read(8 * ndims)
    if len(extents) < 8 * ndims:
        raise bad("file truncated in the extents block")
    dims = np.frombuffer(extents, dtype="<u8")
    if np.any(dims == 0):
        raise bad("zero extent in tensor header")
    shape = tuple(int(d) for d in dims)
    want = math.prod(shape) * _DTYPES[code].itemsize
    got = os.fstat(fh.fileno()).st_size - fh.tell()
    if got != want:
        raise bad(f"payload length mismatch: file has {got} bytes, expected {want}")
    return shape, _DTYPES[code]


def read_tensor(path) -> np.ndarray:
    """Load a tensor written by :func:`write_tensor` as float64; a malformed
    file raises :class:`TensorFileError` naming the file."""
    with open(path, "rb") as fh:
        shape, dtype = _read_header(fh, path)
        payload = np.fromfile(fh, dtype=dtype, count=math.prod(shape))
    return payload.astype(np.float64, copy=False).reshape(shape, order="F")


class SlabReader:
    """Read a tensor file in chunks of last-mode slabs, never holding it whole.

    The header is checked on construction, which raises
    :class:`TensorFileError` naming a malformed file.  Each iteration reads
    the file once and yields ``(start, chunk)``: ``chunk`` is the float64
    ``shape[:-1] + (m,)`` tensor of slabs ``start`` to ``start + m - 1``, an
    F-ordered view of one buffer of at most ``tensor._STREAM_CHUNK_BYTES``
    that the next chunk overwrites.  The payload is first index fastest, so
    each chunk is one contiguous read; a float32 payload is widened one chunk
    at a time.

    Until a pass reaches the last chunk, each chunk is checked before it is
    yielded (a non-finite value raises ``ValueError``: ``<path> holds
    non-finite values``); that pass sets ``norm``, ``||x||_F`` as the
    ``hypot`` of the chunk norms, and later ones check only the header.
    """

    def __init__(self, path):
        self.path = path
        self.norm = None
        with open(path, "rb") as fh:
            self.shape, self._dtype = _read_header(fh, path)

    def __iter__(self):
        with open(self.path, "rb") as fh:
            if _read_header(fh, self.path) != (self.shape, self._dtype):
                raise TensorFileError(f"{os.fspath(self.path)}: header changed while reading")
            slab = math.prod(self.shape[:-1])
            step = _slab_step(self.shape)
            buf = np.empty(step * slab)
            raw = buf if self._dtype == buf.dtype else np.empty(step * slab, self._dtype)
            norms = []
            for start in range(0, self.shape[-1], step):
                m = min(step, self.shape[-1] - start)
                if fh.readinto(raw[: m * slab]) != m * slab * raw.itemsize:
                    raise TensorFileError(f"{os.fspath(self.path)}: file truncated while reading")
                if raw is not buf:
                    buf[: m * slab] = raw[: m * slab]
                chunk = buf[: m * slab].reshape(self.shape[:-1] + (m,), order="F")
                if self.norm is None:
                    norms.append(frobenius_norm(chunk))
                    if not math.isfinite(norms[-1]):
                        raise ValueError(f"{os.fspath(self.path)} holds non-finite values")
                    if start + m == self.shape[-1]:  # set before a consumer can stop
                        self.norm = math.hypot(*norms)
                yield start, chunk
