import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcur import TensorFileError, read_tensor, write_tensor


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


def test_read_allocates_only_the_output(tmp_path):
    t = np.random.default_rng(2).standard_normal((64, 64, 64))
    path = tmp_path / "big.tnsr"
    write_tensor(path, t)
    peak = _traced_peak(lambda: read_tensor(path))
    assert peak < 1.2 * t.nbytes
    assert np.array_equal(read_tensor(path), t)


def test_write_of_fortran_ordered_input_is_not_copied(tmp_path):
    t = np.asfortranarray(np.random.default_rng(3).standard_normal((64, 64, 64)))
    path = tmp_path / "big.tnsr"
    peak = _traced_peak(lambda: write_tensor(path, t))
    assert peak < 0.1 * t.nbytes
    assert np.array_equal(read_tensor(path), t)
