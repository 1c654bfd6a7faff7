import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocon.container import MAGIC, read_container, write_container
from ocon.errors import CorruptPayload, VersionMismatch


def test_roundtrip_preserves_dtypes_and_bits(tmp_path):
    path = str(tmp_path / "blob.bin")
    arrays = {
        "f": np.array([[1.5, -0.0], [np.pi, 1e-300]]),
        "i": np.arange(7, dtype=np.int64),
    }
    write_container(path, "unit_test", 2, {"answer": 42}, arrays)
    version, meta, back = read_container(path, "unit_test", 2)
    assert version == 2 and meta == {"answer": 42}
    assert np.array_equal(back["f"].view(np.uint64), arrays["f"].view(np.uint64))
    assert back["i"].dtype == np.int64 and np.array_equal(back["i"], arrays["i"])


def test_wrong_kind(tmp_path):
    path = str(tmp_path / "blob.bin")
    write_container(path, "alpha", 1, {}, {"x": np.zeros(3)})
    with pytest.raises(CorruptPayload):
        read_container(path, "beta", 1)


def test_future_version(tmp_path):
    path = str(tmp_path / "blob.bin")
    write_container(path, "alpha", 5, {}, {"x": np.zeros(3)})
    with pytest.raises(VersionMismatch):
        read_container(path, "alpha", 4)


def test_not_a_container(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a container at all")
    with pytest.raises(CorruptPayload):
        read_container(str(path), "alpha", 1)


def test_corrupted_byte(tmp_path):
    path = tmp_path / "blob.bin"
    write_container(str(path), "alpha", 1, {"k": [1, 2]}, {"x": np.ones(5)})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptPayload):
        read_container(str(path), "alpha", 1)


def write_raw(path, header, payload=b"", kind=b"alpha", version=1):
    """A container with a hand-made header (any JSON value, or raw bytes)
    and a valid checksum, so only the header can be at fault."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    body = b"".join([MAGIC, kind.ljust(16, b"\x00"), struct.pack("<B", version),
                     struct.pack("<I", len(header)), header, payload])
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


PAYLOAD = np.arange(4, dtype="<f8").tobytes()
GOOD_ENTRY = {"name": "x", "dtype": "f8", "shape": [4], "offset": 0, "nbytes": 32}

MALFORMED_HEADERS = {
    "no_arrays": {"meta": {}},
    "no_meta": {"arrays": [GOOD_ENTRY]},
    "header_is_a_list": [GOOD_ENTRY],
    "meta_is_a_list": {"meta": [], "arrays": [GOOD_ENTRY]},
    "entry_is_a_string": {"meta": {}, "arrays": ["x"]},
    "entry_without_offset": {"meta": {}, "arrays": [
        {k: v for k, v in GOOD_ENTRY.items() if k != "offset"}]},
    "unknown_dtype": {"meta": {}, "arrays": [{**GOOD_ENTRY, "dtype": "zz"}]},
    "object_dtype": {"meta": {}, "arrays": [{**GOOD_ENTRY, "dtype": "O"}]},
    "structured_dtype": {"meta": {}, "arrays": [{**GOOD_ENTRY, "dtype": "(2,)f8"}]},
    "dtype_not_a_string": {"meta": {}, "arrays": [{**GOOD_ENTRY, "dtype": 8}]},
    "shape_does_not_fit_nbytes": {"meta": {}, "arrays": [{**GOOD_ENTRY, "shape": [3]}]},
    "negative_dimension": {"meta": {}, "arrays": [{**GOOD_ENTRY, "shape": [-4]}]},
    "negative_offset": {"meta": {}, "arrays": [{**GOOD_ENTRY, "offset": -8}]},
    "offset_past_payload": {"meta": {}, "arrays": [{**GOOD_ENTRY, "offset": 8}]},
    "float_nbytes": {"meta": {}, "arrays": [{**GOOD_ENTRY, "nbytes": 32.0}]},
    "name_not_a_string": {"meta": {}, "arrays": [{**GOOD_ENTRY, "name": 1}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_corrupt(tmp_path, case):
    path = str(tmp_path / "blob.bin")
    write_raw(path, MALFORMED_HEADERS[case], PAYLOAD)
    with pytest.raises(CorruptPayload):
        read_container(path, "alpha", 1)


def test_hand_made_header_reads(tmp_path):
    path = str(tmp_path / "blob.bin")
    write_raw(path, {"meta": {"k": 1}, "arrays": [GOOD_ENTRY]}, PAYLOAD)
    _, meta, arrays = read_container(path, "alpha", 1)
    assert meta == {"k": 1} and np.array_equal(arrays["x"], np.arange(4.0))


@pytest.mark.parametrize("raw", [b"\xff\xfe", b"[" * 100_000, b"{"])
def test_undecodable_header_is_corrupt(tmp_path, raw):
    path = str(tmp_path / "blob.bin")
    write_raw(path, raw, PAYLOAD)
    with pytest.raises(CorruptPayload):
        read_container(path, "alpha", 1)


def test_header_length_past_end_is_corrupt(tmp_path):
    path = tmp_path / "blob.bin"
    write_raw(str(path), {"meta": {}, "arrays": []})
    blob = bytearray(path.read_bytes()[:-4])
    blob[25:29] = struct.pack("<I", 10_000)
    path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF))
    with pytest.raises(CorruptPayload):
        read_container(str(path), "alpha", 1)


def test_kind_that_is_not_text_is_corrupt(tmp_path):
    path = str(tmp_path / "blob.bin")
    write_raw(path, {"meta": {}, "arrays": []}, kind=b"\xff" * 8)
    with pytest.raises(CorruptPayload):
        read_container(path, "alpha", 1)


def test_only_float64_and_int64_arrays(tmp_path):
    """An index entry of any other dtype is corrupt even when its bytes fit
    the payload, and the writer refuses such an array."""
    path = str(tmp_path / "blob.bin")
    for dtype in ("b1", "u1", "c16", "f4"):
        entry = {**GOOD_ENTRY, "dtype": dtype, "nbytes": 4 * np.dtype(dtype).itemsize}
        write_raw(path, {"meta": {}, "arrays": [entry]}, bytes(64))
        with pytest.raises(CorruptPayload, match="unsupported dtype"):
            read_container(path, "alpha", 1)
    for arr in (np.array([True, False]), np.zeros(3, dtype=np.float32)):
        with pytest.raises(ValueError, match="dtype"):
            write_container(path, "alpha", 1, {}, {"x": arr})


def test_writer_rejects_object_arrays(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        write_container(str(tmp_path / "blob.bin"), "alpha", 1, {},
                        {"x": np.array([{}, 1], dtype=object)})


JSON_SCALARS = st.none() | st.booleans() | st.integers(-80, 80) | st.floats() | st.text(max_size=6)
FIELD_VALUES = {
    "name": st.text(max_size=4) | JSON_SCALARS,
    "dtype": st.sampled_from(["f8", "i8", "u1", "b1", "c16", "f4", "zz", "O", "U3", "V8"])
    | JSON_SCALARS,
    "shape": st.lists(st.integers(-3, 40), max_size=3) | JSON_SCALARS,
    "offset": st.integers(-40, 80) | JSON_SCALARS,
    "nbytes": st.integers(-8, 80) | JSON_SCALARS,
}
ENTRIES = st.fixed_dictionaries({}, optional=FIELD_VALUES) | JSON_SCALARS
HEADERS = (st.fixed_dictionaries({}, optional={"meta": st.dictionaries(st.text(max_size=3),
                                                                        JSON_SCALARS, max_size=2)
                                               | JSON_SCALARS,
                                               "arrays": st.lists(ENTRIES, max_size=3)
                                               | JSON_SCALARS})
           | st.lists(ENTRIES, max_size=2) | JSON_SCALARS)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "blob.bin")


@settings(max_examples=300, deadline=None)
@given(header=HEADERS)
def test_fuzzed_header_reads_payload_or_is_corrupt(fuzz_path, header):
    """Any header either reads arrays that lie inside the payload or raises
    CorruptPayload; no other exception escapes."""
    payload = bytes(range(64))
    write_raw(fuzz_path, header, payload)
    try:
        _, meta, arrays = read_container(fuzz_path, "alpha", 1)
    except CorruptPayload:
        return
    assert isinstance(meta, dict)
    last_entry = {entry["name"]: entry for entry in header["arrays"]}
    assert arrays.keys() == last_entry.keys()
    for name, entry in last_entry.items():
        arr = arrays[name]
        start = entry["offset"]
        assert arr.nbytes == entry["nbytes"]
        assert arr.astype(arr.dtype.newbyteorder("<")).tobytes() == \
            payload[start: start + entry["nbytes"]]
