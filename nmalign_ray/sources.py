"""On-disk corpus sources for the span-document model.

The north rule's input is a columnar table of interleaved documents
(doc_id + spans:list<struct<kind,text,media_ref,offset>>); storage here
is parquet (Lance is unavailable in this environment — SURVEY §3.5), but
real corpora also arrive as JSON-lines exports, so the reader face is
format-pluggable.  Every reader returns a lazy ``ray.data.Dataset``
whose schema is validated (and, where losslessly possible, CAST) to the
canonical ``CORPUS_SCHEMA`` / ``INPUT_SCHEMA`` span types, so the
pipeline stages downstream never see a drifting schema.  Reads stay
streaming: ``override_num_blocks`` splits single-file inputs across the
cluster (a single-row-group parquet file otherwise plans ONE block and
serializes every downstream map stage — measured round 3).

Reference parity: this is the engine-side generalization of the
reference's file/filelist input surface
(``/root/reference/nmalign/cli.py`` ``--files1/--filelist1``), lifted
from per-line text files to span-document tables.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from .schema import CORPUS_SCHEMA, INPUT_SCHEMA, SPAN_TYPE, cluster_cpus

_FORMATS = ("parquet", "jsonl")


class CorpusSchemaError(ValueError):
    """The on-disk table cannot be cast to the span-document schema."""


def _expected(with_refs: bool) -> pa.Schema:
    return CORPUS_SCHEMA if with_refs else INPUT_SCHEMA


def _cast_span_list(arr: pa.Array, target: pa.DataType) -> pa.Array:
    """Cast a list<struct> array to the canonical span type by FIELD
    NAME — Arrow's cast matches struct fields positionally, but JSON
    readers alphabetize fields, so the struct is rebuilt child by
    child (zero-copy for children already at the right type)."""
    la = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    if la.null_count:
        raise CorpusSchemaError("span lists must not be null")
    values = la.values
    tstruct = target.value_type
    children = []
    for i in range(tstruct.num_fields):
        f = tstruct.field(i)
        if f.name not in [sf.name for sf in values.type]:
            raise CorpusSchemaError(
                f"span struct is missing field {f.name!r}")
        child = values.field(f.name)
        if child.type != f.type:
            child = child.cast(f.type)
        children.append(child)
    new_values = pa.StructArray.from_arrays(
        children, fields=[tstruct.field(i) for i in range(tstruct.num_fields)])
    return pa.ListArray.from_arrays(la.offsets, new_values)


def _conform(batch: pa.Table, expected: pa.Schema) -> pa.Table:
    """Validate/cast one batch to the canonical schema (column order
    included).  Raises CorpusSchemaError on missing columns or
    non-castable types — loudly, per batch, instead of letting a
    drifting schema surface as a downstream kernel error."""
    if batch.num_rows == 0:
        # Ray's read splitting can emit zero-row, column-less blocks;
        # return a TYPED empty so downstream schema() stays stable
        return expected.empty_table()
    missing = [n for n in expected.names if n not in batch.column_names]
    if missing:
        raise CorpusSchemaError(
            f"corpus table is missing columns {missing}; "
            f"have {batch.column_names}")
    cols = []
    for field in expected:
        col = batch[field.name]
        if col.type != field.type:
            try:
                if (pa.types.is_list(field.type)
                        and pa.types.is_struct(field.type.value_type)):
                    col = _cast_span_list(col, field.type)
                else:
                    col = col.cast(field.type)
            except (pa.ArrowInvalid, pa.ArrowTypeError) as exc:
                raise CorpusSchemaError(
                    f"column {field.name!r}: cannot cast {col.type} "
                    f"to {field.type}") from exc
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols.append(col)
    return pa.Table.from_arrays(cols, schema=expected)


def read_corpus(
    path: str,
    format: str = "parquet",
    with_refs: bool = True,
    override_num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Read a span-document corpus into a lazy, schema-conformed Dataset.

    ``format``: 'parquet' (canonical storage) or 'jsonl' (one document
    object per line, spans as arrays of objects).  ``with_refs``
    selects CORPUS_SCHEMA (spans + ref_spans, the alignment input) vs
    INPUT_SCHEMA (spans only).
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown corpus format {format!r}; "
                         f"expected one of {_FORMATS}")
    expected = _expected(with_refs)
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if format == "parquet":
        ds = ray.data.read_parquet(
            path, columns=list(expected.names), **kwargs)
    else:
        ds = ray.data.read_json(path, **kwargs)
    return ds.map_batches(
        lambda b: _conform(b, expected), batch_format="pyarrow")


def write_corpus(ds: ray.data.Dataset, path: str,
                 format: str = "parquet") -> None:
    """Write a span-document corpus as partitioned parquet (canonical)
    or JSON-lines (interchange)."""
    if format == "parquet":
        ds.write_parquet(path)
    elif format == "jsonl":
        ds.write_json(path)
    else:
        raise ValueError(f"unknown corpus format {format!r}")


def read_flat_corpus(
    path: str,
    format: str = "csv",
    with_refs: bool = True,
    override_num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Read a FLAT one-row-per-span export and assemble span documents.

    Real corpora are often exported flat (CSV has no nested types):
    columns ``doc_id, side ('input'|'ref'), kind, text, media_ref,
    offset``.  Documents are assembled with ONE hash shuffle on a COARSE
    shard key (``crc32(doc_id) % (cpus*4)``; documents walked inside the
    shard task — never one Ray group per doc_id, whose dispatch cost is
    corpus-cardinality-scaled), then conformed to the canonical schema.
    CSV nulls (empty strings) are restored to ``""``."""
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if format == "csv":
        ds = ray.data.read_csv(path, **kwargs)
    elif format == "parquet":
        ds = ray.data.read_parquet(path, **kwargs)
    else:
        raise ValueError(f"unknown flat-corpus format {format!r}")
    expected = _expected(with_refs)

    from .hashing import crc32_mod

    nshards = max(32, cluster_cpus() * 4)

    def tag_shard(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "shard", pa.array(crc32_mod(batch["doc_id"], nshards)))

    def assemble_shard(group: pa.Table) -> pa.Table:
        by_doc: dict[str, list] = {}
        for did, s, k, t, m, o in zip(
            group["doc_id"].to_pylist(), group["side"].to_pylist(),
            group["kind"].to_pylist(), group["text"].to_pylist(),
            group["media_ref"].to_pylist(), group["offset"].to_pylist(),
        ):
            by_doc.setdefault(str(did), []).append((str(s), k, t, m, o))
        out = {"doc_id": [], "spans": []}
        if with_refs:
            out["ref_spans"] = []
        for doc_id in sorted(by_doc):
            rows = sorted(by_doc[doc_id], key=lambda r: (int(r[4]), r[0]))
            out["doc_id"].append(doc_id)
            out["spans"].append([
                {"kind": k or "", "text": t or "", "media_ref": m or "",
                 "offset": int(o)}
                for s, k, t, m, o in rows if s == "input"
            ])
            if with_refs:
                out["ref_spans"].append([
                    {"kind": k or "", "text": t or "", "media_ref": m or "",
                     "offset": int(o)}
                    for s, k, t, m, o in rows if s == "ref"
                ])
        return pa.Table.from_pydict(out, schema=expected)

    return (ds.map_batches(tag_shard, batch_format="pyarrow")
            .groupby("shard").map_groups(assemble_shard, batch_format="pyarrow"))


def explode_corpus(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Inverse of ``read_flat_corpus``'s assembly: span documents to flat
    one-row-per-span rows (the CSV-exportable shape)."""

    def explode(batch: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "side": [], "kind": [], "text": [],
                "media_ref": [], "offset": []}
        has_refs = "ref_spans" in batch.schema.names
        for i, did in enumerate(batch["doc_id"].to_pylist()):
            sides = [("input", batch["spans"][i].as_py() or [])]
            if has_refs:
                sides.append(("ref", batch["ref_spans"][i].as_py() or []))
            for side, spans in sides:
                for s in spans:
                    rows["doc_id"].append(did)
                    rows["side"].append(side)
                    rows["kind"].append(s["kind"])
                    rows["text"].append(s["text"])
                    rows["media_ref"].append(s["media_ref"])
                    rows["offset"].append(s["offset"])
        return pa.Table.from_pydict(rows, schema=pa.schema(
            [("doc_id", pa.string()), ("side", pa.string()),
             ("kind", pa.string()), ("text", pa.string()),
             ("media_ref", pa.string()), ("offset", pa.int32())]))

    return ds.map_batches(explode, batch_format="pyarrow")


def spans_from_lines(lines: list[str], kind: str = "text") -> list[dict]:
    """Lift a plain line list (the reference's native input unit) into
    span rows — offset is the line index, media_ref empty."""
    return [
        {"kind": kind, "text": ln, "media_ref": "", "offset": i}
        for i, ln in enumerate(lines)
    ]


__all__ = [
    "CorpusSchemaError",
    "read_corpus",
    "write_corpus",
    "read_flat_corpus",
    "explode_corpus",
    "spans_from_lines",
    "SPAN_TYPE",
]
