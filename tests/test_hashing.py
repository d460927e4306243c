"""The hash-key formats of ``nmalign_ray.hashing``: pinned to golden values
(checkpoints written earlier must resume to the same pids) and equal, bit
for bit, to the DuckDB fragments the SQL twins use."""

import hashlib
import zlib

import duckdb
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from nmalign_ray.hashing import (
    blake2b_u64,
    crc32_mod,
    crc32_u32,
    md5_byte_sql,
    md5_hex,
    md5_order_sql,
    md5_u32,
    md5_u32_sql,
    md5_u64,
    md5_u64_sql,
)
from nmalign_ray.pipelines.checkpoint import _add_pid

IDS = ["doc-0", "doc-1", "doc-00042", "文書-7", "", 7]

# value -> (crc32, crc32 % 32, crc32 % 7, md5 hex, md5 bytes 0:4, 0:8,
# 8:16, blake2b-64), as computed by zlib and hashlib
GOLDEN = {
    "doc-0": (2243419903, 31, 4, "1d2eb26da92d9183ee102448113ec466",
              489599597, 2102814260088115587, 17154250872599790694,
              16542895334333248288),
    "doc-1": (4071681641, 9, 6, "cabcf89823b377a8e036b70c2e50c0c6",
              3401382040, 14608824623600727976, 16156301976182767814,
              6265767295393789249),
    "doc-00042": (3921490241, 1, 4, "7e49942feca406b153cb7b49985fee6b",
                  2118751279, 9099967455633344177, 6038055281439534699,
                  15102900993096436951),
    "文書-7": (826249339, 27, 6, "42001fd55eaf8f6cb4a3442d74ca8eb1",
              1107304405, 4755836207780302700, 13016322310054514353,
              7198866084012034066),
    "": (0, 0, 0, "d41d8cd98f00b204e9800998ecf8427e",
         3558706393, 15284527576400310788, 16825458760271544958,
         16476032584258269876),
    7: (1790921346, 2, 4, "8f14e45fceea167a5a36dedd4bea2543",
        2400511071, 10310116547102381690, 6500628154198664515,
        16667848380713045890),
}


def _golden(col):
    return [GOLDEN[d][col] for d in IDS]


class TestGolden:
    def test_crc32(self):
        assert crc32_u32(IDS).dtype == np.uint32
        assert crc32_u32(IDS).tolist() == _golden(0)
        for n, col in ((32, 1), (7, 2)):
            got = crc32_mod(IDS, n)
            assert got.dtype == np.int32
            assert got.tolist() == _golden(col)

    def test_pid_of_the_plan(self):
        ids = [d for d in IDS if isinstance(d, str)]
        batch = pa.table({"doc_id": pa.array(ids, pa.string())})
        pid = _add_pid(batch, 32)["pid"]
        assert pid.type == pa.int32()
        assert pid.to_pylist() == [GOLDEN[d][1] for d in ids]

    def test_md5(self):
        assert md5_hex(IDS) == _golden(3)
        assert md5_u32(IDS).dtype == np.uint32
        assert md5_u32(IDS).tolist() == _golden(4)
        assert md5_u64(IDS).dtype == np.uint64
        assert md5_u64(IDS).tolist() == _golden(5)
        assert md5_u64(IDS, 1).tolist() == _golden(6)

    def test_blake2b(self):
        assert blake2b_u64(IDS).dtype == np.uint64
        assert blake2b_u64(IDS).tolist() == _golden(7)

    def test_arrow_numpy_and_list_inputs_agree(self):
        ids = ["a", "b", "ſ"]
        for values in (pa.array(ids), pa.chunked_array([ids[:1], ids[1:]]),
                       np.array(ids, dtype=object)):
            assert md5_u64(values).tolist() == md5_u64(ids).tolist()
            assert crc32_mod(values, 5).tolist() == crc32_mod(ids, 5).tolist()

    def test_empty_input(self):
        for f in (crc32_u32, md5_u32, md5_u64, blake2b_u64):
            assert len(f([])) == 0
        assert crc32_mod([], 3).dtype == np.int32
        assert md5_u64([]).dtype == np.uint64
        assert md5_hex([]) == []

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            crc32_mod(["a"], 0)
        with pytest.raises(ValueError):
            md5_u64(["a"], 2)


_con = None


def _duck(values, sql_type: str, select: str) -> list:
    """``select`` over the table ``t(x, i)`` of ``values`` and their positions."""
    global _con
    if _con is None:
        _con = duckdb.connect()
    arrow_type = pa.string() if sql_type == "VARCHAR" else pa.int64()
    _con.register("t", pa.table({"x": pa.array(values, arrow_type),
                                 "i": pa.array(range(len(values)), pa.int64())}))
    try:
        return [r[0] for r in _con.execute(select).fetchall()]
    finally:
        _con.unregister("t")


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_values = st.one_of(
    st.tuples(st.just("VARCHAR"), st.lists(_text, max_size=12)),
    st.tuples(st.just("BIGINT"),
              st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=12)),
)


@settings(max_examples=60, deadline=None)
@given(_values)
@example(("VARCHAR", ["", "ſäö", "文書-7", "a\x00b", "\U0001F600"]))
@example(("BIGINT", [0, -1, 7, (1 << 63) - 1]))
def test_sql_fragments_equal_helpers(typed):
    sql_type, values = typed

    def col(expr):
        return _duck(values, sql_type, f"SELECT {expr} FROM t ORDER BY i")

    assert col("md5(CAST(x AS VARCHAR))") == md5_hex(values)
    assert col(md5_u32_sql("x")) == md5_u32(values).tolist()
    assert col(md5_u64_sql("x")) == md5_u64(values).tolist()
    assert col(md5_u64_sql("x", 1)) == md5_u64(values, 1).tolist()
    for i in (0, 7, 15):
        assert col(md5_byte_sql("x", i)) == [
            hashlib.md5(str(v).encode("utf-8")).digest()[i] for v in values]
    order = _duck(values, sql_type, f"SELECT x FROM t ORDER BY {md5_order_sql('x')}")
    assert order == [v for _, v in sorted(zip(md5_hex(values), values))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_text, st.integers()), max_size=12), st.integers(1, 1 << 31))
def test_helpers_equal_scalar_forms(values, n):
    utf8 = [str(v).encode("utf-8") for v in values]
    assert crc32_mod(values, n).tolist() == [zlib.crc32(b) % n for b in utf8]
    assert md5_u32(values).tolist() == [
        int(hashlib.md5(b).hexdigest()[:8], 16) for b in utf8]
    assert blake2b_u64(values).tolist() == [
        int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big")
        for b in utf8]
