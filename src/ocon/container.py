"""Versioned binary container used by matrix and checkpoint files.

Layout (all integers little-endian)::

    magic      8 bytes   b"OCONBIN\\0"
    kind      16 bytes   ASCII tag, NUL padded (e.g. "feature_matrix")
    version    1 byte
    header    u32 length + UTF-8 JSON metadata (includes the array index)
    payload    raw array bytes, C order, little-endian float64 or int64
    crc32      u32 over everything above

The header is ``{"meta": {...}, "arrays": [entry, ...]}``; each entry names
an array's dtype ("f8" or "i8", the only two that matrix and checkpoint
files hold), shape, and byte offset and length within the payload.
Round-trips are bit-exact.  Truncation, corruption, another dtype, or a
header whose entries do not describe arrays lying wholly inside the payload
raises CorruptPayload; a version byte newer than the reader raises
VersionMismatch.
"""

import json
import math
import struct
import zlib

import numpy as np

from .errors import CorruptPayload, VersionMismatch

MAGIC = b"OCONBIN\x00"
_KIND_LEN = 16
#: Array dtypes a container holds, written without byte-order mark: float64
#: and int64.
_DTYPES = ("f8", "i8")


def write_container(path, kind, version, meta, arrays):
    """Write metadata plus named arrays to ``path``.

    ``meta`` must be JSON-serializable; ``arrays`` is an ordered mapping of
    name -> float64 or int64 ndarray, stored little-endian; another dtype
    raises ValueError.
    """
    index = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.str.lstrip("<>=|")
        if dtype not in _DTYPES:
            raise ValueError(f"array {name!r}: unsupported dtype {arr.dtype}")
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        index.append({
            "name": name,
            "dtype": dtype,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)

    header = json.dumps({"meta": meta, "arrays": index}, sort_keys=True).encode()
    kind_b = kind.encode().ljust(_KIND_LEN, b"\x00")
    if len(kind_b) != _KIND_LEN:
        raise ValueError(f"container kind too long: {kind!r}")

    body = b"".join([
        MAGIC, kind_b, struct.pack("<B", version),
        struct.pack("<I", len(header)), header, *chunks,
    ])
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", crc))


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_array(path, entry, body, payload_at):
    """(name, array) of one index entry, checked against the payload."""
    if not isinstance(entry, dict):
        raise CorruptPayload(f"{path}: array index entry is not a JSON object")
    name, dtype, shape = entry.get("name"), entry.get("dtype"), entry.get("shape")
    offset, nbytes = entry.get("offset"), entry.get("nbytes")
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(_is_count(n) for n in shape)
            and _is_count(offset) and _is_count(nbytes)):
        raise CorruptPayload(f"{path}: malformed index entry for array {name!r}")
    if dtype not in _DTYPES:
        raise CorruptPayload(f"{path}: array {name!r} has unsupported dtype {dtype!r}")
    dtype = np.dtype("<" + dtype)
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise CorruptPayload(f"{path}: array {name!r} shape {shape} does not fit {nbytes} bytes")
    start = payload_at + offset
    if start + nbytes > len(body):
        raise CorruptPayload(f"{path}: array {name!r} truncated")
    arr = np.frombuffer(body[start: start + nbytes], dtype=dtype)
    return name, arr.reshape(shape).astype(dtype.newbyteorder("="))


def read_container(path, kind, max_version, blob=None):
    """Validate a container (``blob``: its bytes, if read) into ``(version, meta, arrays)``."""
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    min_len = len(MAGIC) + _KIND_LEN + 1 + 4 + 4
    if len(blob) < min_len or blob[: len(MAGIC)] != MAGIC:
        raise CorruptPayload(f"{path}: not a container file")
    body, crc_raw = blob[:-4], blob[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", crc_raw)[0]:
        raise CorruptPayload(f"{path}: checksum mismatch")

    pos = len(MAGIC)
    found_kind = body[pos: pos + _KIND_LEN].rstrip(b"\x00").decode("ascii", "replace")
    pos += _KIND_LEN
    if found_kind != kind:
        raise CorruptPayload(f"{path}: expected kind {kind!r}, found {found_kind!r}")
    version = body[pos]
    pos += 1
    if version > max_version:
        raise VersionMismatch(f"{path}: version {version} > supported {max_version}")
    (header_len,) = struct.unpack_from("<I", body, pos)
    pos += 4
    if pos + header_len > len(body):
        raise CorruptPayload(f"{path}: header runs past the end of the file")
    try:
        header = json.loads(body[pos: pos + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise CorruptPayload(f"{path}: bad header ({err})") from err
    pos += header_len
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise CorruptPayload(f"{path}: header needs a 'meta' object and an 'arrays' list")

    arrays = dict(_read_array(path, entry, body, pos) for entry in header["arrays"])
    return version, header["meta"], arrays
