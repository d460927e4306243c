"""Stateless extract+salt stage: documents -> alignment chunk rows.

One input row (``doc_id, spans, ref_spans``) becomes one or more chunk
rows — documents whose candidate count exceeds the salt threshold are
split into contiguous ``(doc_id, salt)`` windows (north rule skew
handling; SURVEY §4.2) so no single alignment call exceeds the bound
(the reference holds a whole page in RAM instead, its
``nmalign/lib/align.py:60-61``).  Salting bounds the size
of each kernel call; it does not spread one giant document across CPUs,
because all of a document's chunks are aligned in one task: its range's
task, or, for most documents over
``pipelines/checkpoint.py::REMOTE_CELLS``, a task of their own, so that
heavy documents of one range align in parallel.

The per-document work (DOM parsing, layout re-sort) is inherently
row-wise; the engine's vectorization budget is spent where it matters —
the alignment DP — while this stage's batches stay Arrow in/out.
"""

from __future__ import annotations

import pyarrow as pa

from ..document import media_spans, reference_segments, salt_chunks
from ..extract import classify_spans
from ..schema import SALT_THRESHOLD, SPAN_TYPE

CHUNK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        # the document's partition, computed once at the read
        # (pipelines/checkpoint.py::_add_pid) and carried to the sink
        ("pid", pa.int32()),
        ("salt", pa.int32()),
        ("cand_kind", pa.list_(pa.string())),
        ("cand_text", pa.list_(pa.string())),
        ("ref_text", pa.list_(pa.string())),
        ("ref_offset", pa.list_(pa.int32())),
        # media markers ride on salt 0 only (they skip alignment)
        ("media", pa.list_(SPAN_TYPE)),
    ]
)


def extract_and_salt(batch: pa.Table, salt_threshold: int = SALT_THRESHOLD) -> pa.Table:
    if "pid" not in batch.column_names:
        raise ValueError(
            "extract_and_salt needs the partition column 'pid' "
            "(pipelines.checkpoint._add_pid adds it at the read)")
    doc_ids = batch["doc_id"].to_pylist()
    pids = batch["pid"].to_pylist()
    spans_col = batch["spans"].to_pylist()
    refs_col = batch["ref_spans"].to_pylist()

    rows = {name: [] for name in CHUNK_SCHEMA.names}
    for did, pid, spans, ref_spans in zip(doc_ids, pids, spans_col, refs_col):
        spans = spans or []
        candidates, media = classify_spans(
            [s["kind"] for s in spans],
            [s["text"] for s in spans],
            [s["media_ref"] for s in spans],
            [s["offset"] for s in spans],
        )
        refs = reference_segments(ref_spans or [])
        media_dicts = media_spans(media)
        for salt, (c_lo, c_hi, r_lo, r_hi) in enumerate(
            salt_chunks(len(candidates), len(refs), salt_threshold)
        ):
            rows["doc_id"].append(did)
            rows["pid"].append(pid)
            rows["salt"].append(salt)
            rows["cand_kind"].append([c.kind for c in candidates[c_lo:c_hi]])
            rows["cand_text"].append([c.text for c in candidates[c_lo:c_hi]])
            rows["ref_text"].append([r["text"] for r in refs[r_lo:r_hi]])
            rows["ref_offset"].append([r["offset"] for r in refs[r_lo:r_hi]])
            rows["media"].append(media_dicts if salt == 0 else [])
    return pa.Table.from_pydict(rows, schema=CHUNK_SCHEMA)
