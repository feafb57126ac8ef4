import os
import re
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import TensorFileError, frobenius_norm, read_tensor, write_tensor
from tensorcur import tensor, tensorfile
from tensorcur.tensorfile import SlabReader, SlabWriter


def test_round_trip_bit_exact_random_shapes(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(30):
        n = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(1, 7, size=n))
        t = rng.standard_normal(dims)
        path = tmp_path / f"t{i}.tnsr"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)  # bit-exact for float64 payloads


def test_payload_is_first_index_fastest(tmp_path):
    t = np.reshape(np.arange(1.0, 9.0), (2, 2, 2), order="F")
    path = tmp_path / "cube.tnsr"
    write_tensor(path, t)
    raw = path.read_bytes()
    header = 12 + 8 * 3
    payload = np.frombuffer(raw[header:], dtype="<f8")
    assert payload.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_float32_payload_widens_on_load(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4))
    path = tmp_path / "single.tnsr"
    write_tensor(path, t, dtype="float32")
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, t.astype(np.float32).astype(np.float64))


def test_header_fields(tmp_path):
    path = tmp_path / "h.tnsr"
    write_tensor(path, np.ones((2, 3)))
    magic, version, code, ndims, reserved = struct.unpack_from("<4sIBB2s", path.read_bytes())
    assert magic == b"TNSR"
    assert version == 1
    assert code == 1
    assert ndims == 2
    assert reserved == b"\x00\x00"


def _valid_bytes():
    import io

    t = np.arange(6.0).reshape(2, 3)
    buf = io.BytesIO()
    buf.write(struct.pack("<4sIBB2s", b"TNSR", 1, 1, 2, b"\x00\x00"))
    buf.write(np.asarray([2, 3], dtype="<u8").tobytes())
    buf.write(t.ravel(order="F").astype("<f8").tobytes())
    return bytearray(buf.getvalue())


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda b: b.__setitem__(slice(0, 4), b"XNSR"), "magic"),
        (lambda b: b.__setitem__(4, 9), "version"),
        (lambda b: b.__setitem__(8, 7), "dtype"),
        (lambda b: b.extend(b"\x00" * 4), "length"),
        (lambda b: b.__delitem__(slice(-8, None)), "length"),
    ],
)
def test_malformed_files_are_rejected(tmp_path, mutate, message):
    data = _valid_bytes()
    mutate(data)
    path = tmp_path / "bad.tnsr"
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError):
        read_tensor(path)


def test_zero_extent_rejected(tmp_path):
    data = _valid_bytes()
    data[12:20] = np.asarray([0], dtype="<u8").tobytes()
    path = tmp_path / "zero.tnsr"
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError):
        read_tensor(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.tnsr"
    path.write_bytes(b"TNSR\x01")
    with pytest.raises(TensorFileError):
        read_tensor(path)


@st.composite
def valid_files(draw):
    """The bytes of a valid TNSR file of a 1- to 3-mode tensor, and its
    header-plus-extents length."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    t = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(dims)
    head = struct.pack("<4sIBB2s", b"TNSR", 1, 1, len(dims), b"\x00\x00")
    head += np.asarray(dims, dtype="<u8").tobytes()
    return head + t.ravel(order="F").tobytes(), len(head)


def _rejects(tmp_path, data):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(data)
    with pytest.raises(TensorFileError):
        read_tensor(path)


@settings(max_examples=50, deadline=None)
@given(valid_files(), st.data())
def test_truncated_files_are_rejected(tmp_path_factory, case, data):
    full, head = case
    tmp_path = tmp_path_factory.mktemp("cut")
    # every cut inside the header and extents, and one inside the payload
    cuts = list(range(head + 1)) + [data.draw(st.integers(head, len(full) - 1))]
    for cut in cuts:
        _rejects(tmp_path, full[:cut])


@settings(max_examples=100, deadline=None)
@given(valid_files(), st.sampled_from(range(10)), st.integers(0, 255))
def test_corrupted_header_bytes_are_rejected(tmp_path_factory, case, offset, value):
    # offsets 0-3 magic, 4-7 version, 8 dtype code, 9 mode count
    full, _ = case
    data = bytearray(full)
    if data[offset] == value:
        value ^= 0xFF
    data[offset] = value
    _rejects(tmp_path_factory.mktemp("flip"), bytes(data))


def test_unknown_write_dtype():
    with pytest.raises(ValueError):
        write_tensor("/dev/null", np.ones(2), dtype="float16")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a float32 payload is widened a chunk at a time: a file of one chunk stages
# its whole float32 payload (half the output again), 64 kB chunks next to none
@pytest.mark.parametrize("dtype,chunk_bytes,bound", [("float64", 1 << 22, 1.2),
                                                     ("float32", 1 << 22, 1.6),
                                                     ("float32", 1 << 16, 1.2)])
def test_read_allocates_only_the_output(tmp_path, monkeypatch, dtype, chunk_bytes, bound):
    monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
    t = np.random.default_rng(2).standard_normal((64, 64, 64))
    path = tmp_path / "big.tnsr"
    write_tensor(path, t, dtype=dtype)
    peak = _traced_peak(lambda: read_tensor(path))
    assert peak < bound * t.nbytes
    assert np.array_equal(read_tensor(path), t.astype(dtype).astype(np.float64))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_values_by_name(tmp_path, dtype, bad):
    t = np.ones((4, 3, 5))
    t[2, 1, 3] = bad
    path = tmp_path / "t.tnsr"
    write_tensor(path, t, dtype=dtype)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds non-finite values$"):
        read_tensor(path)


def test_read_takes_a_finite_file_whose_squares_overflow(tmp_path):
    t = 1e200 * np.random.default_rng(6).standard_normal((5, 4, 3))
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    assert np.array_equal(read_tensor(path), t)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("chunk_bytes", [1, 200, 1 << 30])  # one slab, some, all
def test_the_whole_read_is_the_iterated_pass(tmp_path, monkeypatch, dtype, chunk_bytes):
    monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "t.tnsr"
    write_tensor(path, np.random.default_rng(7).standard_normal((4, 3, 11)), dtype=dtype)
    iterated = SlabReader(path)
    chunks = [chunk.copy() for _, chunk in iterated]  # the pass refills one buffer
    reader = SlabReader(path)
    whole = reader.read()
    assert whole.dtype == np.float64 and whole.flags.f_contiguous and whole.shape == (4, 3, 11)
    assert whole.tobytes(order="F") == np.concatenate(chunks, axis=-1).tobytes(order="F")
    assert reader.norm == iterated.norm  # the same chunk norms, in the same order
    assert np.array_equal(reader.read(), whole)  # a later read checks only the header


def test_write_of_fortran_ordered_input_is_not_copied(tmp_path):
    t = np.asfortranarray(np.random.default_rng(3).standard_normal((64, 64, 64)))
    path = tmp_path / "big.tnsr"
    peak = _traced_peak(lambda: write_tensor(path, t))
    assert peak < 0.1 * t.nbytes
    assert np.array_equal(read_tensor(path), t)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.sampled_from(["C", "F"]),
    st.sampled_from(["float64", "float32"]),
    st.data(),
)
def test_slab_writer_matches_write_tensor(tmp_path_factory, dims, order, dtype, data):
    tmp_path = tmp_path_factory.mktemp("slabs")
    t = np.random.default_rng(len(dims)).standard_normal(dims)
    t = np.asfortranarray(t) if order == "F" else np.ascontiguousarray(t)
    whole, slabs = tmp_path / "whole.tnsr", tmp_path / "slabs.tnsr"
    write_tensor(whole, t, dtype=dtype)
    with SlabWriter(slabs, t.shape, dtype) as out:
        start = 0
        while start < t.shape[-1]:
            stop = data.draw(st.integers(start + 1, t.shape[-1]))
            out.write(t[..., start:stop])
            start = stop
    assert slabs.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize(
    "chunks,message",
    [
        ([np.ones((2, 3, 2)), np.ones((2, 3, 2))], "more than 3 slabs"),
        ([np.ones((2, 3, 2))], "2 of 3 slabs"),
        ([np.ones((3, 3, 1))], "does not hold slabs"),
        ([np.ones((2, 3))], "does not hold slabs"),
    ],
)
def test_slab_writer_rejects_a_wrong_slab_count_or_shape(tmp_path, chunks, message):
    with pytest.raises(ValueError, match=message):
        with SlabWriter(tmp_path / "t.tnsr", (2, 3, 3)) as out:
            for chunk in chunks:
                out.write(chunk)


@pytest.mark.parametrize("shape", [(), (2, 0, 3)])
def test_slab_writer_rejects_shapes_write_tensor_rejects(tmp_path, shape):
    for write in (lambda p: write_tensor(p, np.ones(shape)), lambda p: SlabWriter(p, shape)):
        with pytest.raises(ValueError, match="mode|extent"):
            write(tmp_path / "t.tnsr")


@pytest.mark.parametrize("dims", [(7,), (5, 9), (4, 3, 11), (3, 2, 2, 5)])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("chunk_bytes", [1, 200, 1 << 30])  # one slab, some, all
def test_slab_reader_yields_the_file_chunk_by_chunk(tmp_path, monkeypatch, dims, dtype,
                                                    chunk_bytes):
    monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", chunk_bytes)
    measured = []
    monkeypatch.setattr(tensorfile, "frobenius_norm",
                        lambda t: measured.append(t.shape[-1]) or frobenius_norm(t))
    path = tmp_path / "t.tnsr"
    write_tensor(path, np.random.default_rng(4).standard_normal(dims), dtype=dtype)
    whole = read_tensor(path)
    reader = SlabReader(path)
    assert reader.shape == dims and reader.norm is None
    for first in (True, False):  # every iteration reads the file afresh
        starts, buffers = [], set()
        measured.clear()
        for start, chunk in reader:
            assert chunk.dtype == np.float64 and chunk.flags.f_contiguous
            assert np.array_equal(chunk, whole[..., start : start + chunk.shape[-1]])
            starts.append(start)
            buffers.add(chunk.base.ctypes.data)
        step = max(1, chunk_bytes // (8 * int(np.prod(dims[:-1]))))
        assert starts == list(range(0, dims[-1], step))
        assert len(buffers) == 1  # one buffer, refilled
        # the first pass measures every chunk once, a later pass none
        assert len(measured) == (len(starts) if first else 0)
        assert reader.norm == pytest.approx(frobenius_norm(whole), rel=1e-14, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_slab_reader_rejects_non_finite_values_before_yielding_them(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)  # one slab a chunk
    t = np.ones((4, 3, 5))
    t[2, 1, -1] = bad
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    reader = SlabReader(path)
    assert next(iter(reader))[0] == 0  # a pass that stops early checks only what it read
    for _ in range(2):  # so every later pass checks until one reaches the last slab
        starts = []
        with pytest.raises(ValueError, match=re.escape(f"{path} holds non-finite values")):
            for start, _ in reader:
                starts.append(start)
        assert starts == [0, 1, 2, 3]
    assert reader.norm is None


@pytest.mark.parametrize("cut", [8, 1])
def test_slab_reader_rejects_a_truncated_file_by_name(tmp_path, cut):
    path = tmp_path / "cut.tnsr"
    write_tensor(path, np.ones((4, 3, 5)))
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(TensorFileError, match=f"{path}: payload length mismatch"):
        SlabReader(path)


def test_slab_reader_rejects_a_file_changed_between_passes(tmp_path):
    path = tmp_path / "t.tnsr"
    write_tensor(path, np.ones((4, 3, 5)))
    reader = SlabReader(path)
    write_tensor(path, np.ones((4, 3, 6)))
    with pytest.raises(TensorFileError, match="header changed"):
        list(reader)


def test_slab_reader_rejects_a_file_that_shrinks_during_a_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)  # one slab a chunk
    path = tmp_path / "t.tnsr"
    # 12.8 kB slabs, beyond the file object's read-ahead, so the cut is seen
    write_tensor(path, np.ones((40, 40, 4)))
    chunks = iter(SlabReader(path))
    assert next(chunks)[0] == 0
    os.truncate(path, path.stat().st_size - 8)
    message = f"^{re.escape(str(path))}: file truncated while reading$"
    with pytest.raises(TensorFileError, match=message):
        list(chunks)


def test_read_tensor_rejects_a_file_that_shrinks_while_it_reads(tmp_path, monkeypatch):
    monkeypatch.setattr(tensor, "_STREAM_CHUNK_BYTES", 1)  # one slab a chunk
    path = tmp_path / "t.tnsr"
    write_tensor(path, np.ones((40, 40, 4)))
    size = path.stat().st_size
    # the first chunk's check cuts the file short before the second is read
    monkeypatch.setattr(tensorfile, "frobenius_norm",
                        lambda t: os.truncate(path, size - 8) or frobenius_norm(t))
    message = f"^{re.escape(str(path))}: file truncated while reading$"
    with pytest.raises(TensorFileError, match=message):
        read_tensor(path)


def test_a_rewrite_over_a_longer_file_is_a_fresh_write(tmp_path):
    small = np.random.default_rng(5).standard_normal((3, 4, 2))
    fresh, reused = tmp_path / "fresh.tnsr", tmp_path / "reused.tnsr"
    write_tensor(fresh, small)
    write_tensor(reused, np.ones((9, 8, 7)))
    write_tensor(reused, small)
    assert reused.read_bytes() == fresh.read_bytes()


def test_a_symlink_is_written_through(tmp_path):
    target, link = tmp_path / "target.tnsr", tmp_path / "link.tnsr"
    write_tensor(target, np.ones((5, 5)))
    link.symlink_to(target)
    t = np.random.default_rng(6).standard_normal((2, 3))
    write_tensor(link, t)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert np.array_equal(read_tensor(target), t)


def test_a_fifo_is_written_through_and_kept(tmp_path):
    t = np.random.default_rng(7).standard_normal((3, 2, 2))
    fresh, fifo = tmp_path / "fresh.tnsr", tmp_path / "pipe"
    write_tensor(fresh, t)
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_tensor(fifo, t)
    reader.join(timeout=10)
    assert received == [fresh.read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_a_hard_link_to_the_old_file_keeps_the_old_bytes(tmp_path):
    path, link = tmp_path / "t.tnsr", tmp_path / "old.tnsr"
    write_tensor(path, np.ones((4, 3)))
    old = path.read_bytes()
    os.link(path, link)
    t = np.random.default_rng(8).standard_normal((4, 3))
    with SlabWriter(path, t.shape) as out:
        out.write(t)
    assert link.read_bytes() == old
    assert np.array_equal(read_tensor(path), t)


def test_a_file_the_writer_may_not_write_is_opened_in_place(tmp_path, monkeypatch):
    path = tmp_path / "t.tnsr"
    write_tensor(path, np.ones((4, 3)))
    old, inode = path.read_bytes(), path.stat().st_ino
    path.chmod(0o444)
    monkeypatch.setattr(tensorfile.os, "access", lambda p, mode: False)
    t = np.random.default_rng(9).standard_normal((2, 2))
    try:
        write_tensor(path, t)
    except PermissionError:  # without write access: the file is left as it was
        assert path.read_bytes() == old
    else:  # a superuser writes through the mode bits
        assert np.array_equal(read_tensor(path), t)
    assert path.stat().st_ino == inode and stat.S_IMODE(path.stat().st_mode) == 0o444


def test_a_file_that_may_not_be_unlinked_is_truncated(tmp_path, monkeypatch):
    path, fresh = tmp_path / "t.tnsr", tmp_path / "fresh.tnsr"
    write_tensor(path, np.ones((9, 8, 7)))
    inode = path.stat().st_ino

    def refuse(p):
        raise PermissionError(1, "Operation not permitted", str(p))

    monkeypatch.setattr(tensorfile.os, "unlink", refuse)
    t = np.random.default_rng(10).standard_normal((3, 2))
    write_tensor(path, t)
    monkeypatch.undo()
    write_tensor(fresh, t)
    assert path.stat().st_ino == inode and path.read_bytes() == fresh.read_bytes()
