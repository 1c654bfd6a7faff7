"""Small shared helpers: deterministic seed derivation, content hashing,
text reading and the class-id check."""

import codecs
import hashlib
import json

from .errors import MalformedRow, UnknownClass

_SEED_MASK = (1 << 63) - 1


def derive_seed(*parts):
    """Derive a child seed from a master seed and a context path.

    Parts may be ints or short strings (e.g. ``derive_seed(master, "subset", 3)``).
    The derivation is a SHA-256 hash of the canonical part encoding, so child
    streams are statistically independent and stable across platforms and
    process/thread scheduling.
    """
    enc = "\x1f".join(f"{type(p).__name__}:{p}" for p in parts).encode()
    digest = hashlib.sha256(enc).digest()
    return int.from_bytes(digest[:8], "little") & _SEED_MASK


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path, chunk=1 << 20):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def sha256_json(obj):
    """Hash of the canonical JSON encoding of a plain structure."""
    return sha256_bytes(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def read_text(path):
    """A file's text without a leading UTF-8 byte-order mark; bytes that are
    not UTF-8 raise MalformedRow naming their line."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise MalformedRow(data.count(b"\n", 0, err.start) + 1, "not UTF-8 text") from None


def check_class_id(labelled, class_id):
    """Raise UnknownClass unless ``class_id`` indexes ``labelled.class_names``
    (of a matrix or an ensemble)."""
    k = len(labelled.class_names)
    if not 0 <= class_id < k:
        raise UnknownClass(f"label id {class_id} outside 0..{k - 1}")
