"""Hash keys: every shard, order and sketch key of the engine and its
operators, and the DuckDB SQL that computes the same bits.

Each helper takes a sequence of values (a list, a NumPy array or an Arrow
array), hashes the UTF-8 bytes of ``str(value)`` and returns one key per
value.  Next to each md5 helper is the SQL fragment that yields the same
value in DuckDB: ``md5(x)`` there is the lowercase hex digest of x's UTF-8
bytes, and ``CAST(x AS VARCHAR)`` of an integer id is ``str(id)``.

The formats are pinned.  Checkpoint resume depends on
``crc32_mod(doc_ids, P)`` (the ``pid``; P is kept in
``_manifest/meta.json``), and every SQL twin depends on its md5 slice, so
no bit here may change.  crc32 and md5, never Python's ``hash()``: they are
stable across worker processes (PYTHONHASHSEED), runs and machines.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np


def _utf8(values) -> list[bytes]:
    if hasattr(values, "to_pylist"):
        values = values.to_pylist()
    elif isinstance(values, np.ndarray):
        values = values.tolist()
    return [str(v).encode("utf-8") for v in values]


def crc32_u32(values) -> np.ndarray:
    """crc32 of each value (uint32)."""
    return np.array([zlib.crc32(b) for b in _utf8(values)], dtype=np.uint32)


def crc32_mod(values, n: int) -> np.ndarray:
    """``crc32 % n`` of each value (int32): the shard key of every stage
    that co-locates rows by a key — the checkpoint ``pid``, the pair-join
    shard, the operators' coarse shards."""
    if not 0 < n <= 1 << 31:
        raise ValueError(f"shard count must be in [1, 2^31], got {n}")
    return (crc32_u32(values) % np.uint32(n)).astype(np.int32)


def md5_hex(values) -> list[str]:
    """md5 hex digest of each value; DuckDB ``md5(x)``.  As a sort key,
    ``(md5_hex(x), x)`` is the order of :func:`md5_order_sql`."""
    return [hashlib.md5(b).hexdigest() for b in _utf8(values)]


def md5_order_sql(expr: str) -> str:
    """``ORDER BY`` keys sorting as ``(md5_hex(x), x)``."""
    return f"md5(CAST({expr} AS VARCHAR)), {expr}"


def _md5_words(values, dtype: str) -> np.ndarray:
    buf = b"".join(hashlib.md5(b).digest() for b in _utf8(values))
    return np.frombuffer(buf, dtype=dtype).reshape(-1, 16 // np.dtype(dtype).itemsize)


def md5_u32(values) -> np.ndarray:
    """Bytes 0:4 of each md5, big-endian (uint32), which is
    ``int(hexdigest()[:8], 16)``; SQL :func:`md5_u32_sql`."""
    return _md5_words(values, ">u4")[:, 0].astype(np.uint32)


def md5_u32_sql(expr: str) -> str:
    return f"('0x' || substr(md5(CAST({expr} AS VARCHAR)), 1, 8))::UBIGINT"


def md5_u64(values, word: int = 0) -> np.ndarray:
    """Bytes 0:8 (``word=0``) or 8:16 (``word=1``) of each md5,
    big-endian (uint64); SQL :func:`md5_u64_sql`."""
    if word not in (0, 1):
        raise ValueError(f"md5 has two 64-bit words, got word={word}")
    return _md5_words(values, ">u8")[:, word].astype(np.uint64)


def md5_u64_sql(expr: str, word: int = 0) -> str:
    return (f"('0x' || substr(md5(CAST({expr} AS VARCHAR)), "
            f"{1 + 16 * word}, 16))::UBIGINT")


def md5_byte_sql(expr: str, i) -> str:
    """Byte ``i`` (an int or a SQL expression) of ``md5(expr)`` as INT:
    the twin of ``hashlib.md5(...).digest()[i]``, for the featurizers that
    use the whole digest."""
    return f"('0x' || substr(md5(CAST({expr} AS VARCHAR)), 2*{i}+1, 2))::INT"


def blake2b_u64(values) -> np.ndarray:
    """8-byte blake2b digest of each value, big-endian (uint64)."""
    buf = b"".join(hashlib.blake2b(b, digest_size=8).digest()
                   for b in _utf8(values))
    return np.frombuffer(buf, dtype=">u8").astype(np.uint64)
