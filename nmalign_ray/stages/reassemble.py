"""Reassembly stage: merge aligned chunks back into documents by offset.

Each pid range's task (``pipelines/checkpoint.py``) extracts and aligns
each partition's documents slice by slice, and every chunk of a document
lands in its document's slice — so salted chunk outputs and media markers meet here,
are merged and sorted by ``offset`` (the per-slice sort replaces a global
``Dataset.sort``, SURVEY §4.2), and the reference's global-stats
reduction (``mp.Manager`` dict,
``/root/reference/nmalign/ocrd/cli.py:110-118``) becomes per-document
metric columns aggregated downstream by dataflow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import OUTPUT_SCHEMA, SPAN_TYPE


def _flat_spans(col: pa.ChunkedArray):
    """(span values, parent row of each) of a list<span> column; null
    lists contribute nothing, like empty ones."""
    col = col.combine_chunks()
    return (pc.list_flatten(col).cast(SPAN_TYPE),
            pc.list_parent_indices(col).to_numpy())


def reassemble_group(group: pa.Table) -> pa.Table:
    """Aligned chunk rows of any number of documents, in any row order ->
    one ``OUTPUT_SCHEMA`` row per document, sorted by ``doc_id``.

    Per document, its chunks are taken in ``salt`` order, each chunk's
    ``media`` before its ``out_spans``, and the concatenation is stably
    sorted by ``offset`` — so a media marker precedes a text span at the
    same offset.  ``score_sum`` is a left fold in salt order, the serial
    oracle's summation order (float sums are order-sensitive)."""
    if group.num_rows == 0:
        return OUTPUT_SCHEMA.empty_table()
    group = group.take(pc.sort_indices(
        group, sort_keys=[("doc_id", "ascending"), ("salt", "ascending")]))
    doc_ids = group["doc_id"].combine_chunks()
    new_doc = np.ones(group.num_rows, dtype=bool)
    new_doc[1:] = pc.not_equal(doc_ids[1:], doc_ids[:-1]).to_numpy(
        zero_copy_only=False)
    starts = np.flatnonzero(new_doc)
    doc_of_row = np.cumsum(new_doc) - 1
    ndocs = len(starts)

    # np.add.at applies its additions one index at a time in row order,
    # i.e. a left fold per document (np.add.reduceat is not one)
    score_sum = np.zeros(ndocs)
    np.add.at(score_sum, doc_of_row, group["score_sum"].to_numpy())
    sums = {name: np.add.reduceat(group[name].to_numpy().astype(np.int64), starts)
            for name in ("matched", "total", "unmatched_cands")}
    matched = sums["matched"]
    mean_score = np.divide(score_sum, matched, out=np.zeros(ndocs),
                           where=matched != 0)

    media, media_row = _flat_spans(group["media"])
    out, out_row = _flat_spans(group["out_spans"])
    spans = pa.concat_arrays([media, out])
    row = np.concatenate([media_row, out_row])
    side = np.repeat([0, 1], [len(media), len(out)])
    doc = doc_of_row[row]
    offset = pc.struct_field(spans, "offset").to_numpy(zero_copy_only=False)
    # stable sort, last key first: document, then offset; ties keep the
    # concatenation order (chunk in salt order, media before out_spans)
    order = np.lexsort((side, row, offset, doc))
    counts = np.bincount(doc, minlength=ndocs)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    return pa.Table.from_arrays(
        [
            doc_ids.take(pa.array(starts)),
            pa.ListArray.from_arrays(pa.array(offsets), spans.take(pa.array(order))),
            pa.array(mean_score, pa.float64()),
            pa.array(matched, pa.int32()),
            pa.array(sums["total"], pa.int32()),
            pa.array(sums["unmatched_cands"], pa.int32()),
        ],
        schema=OUTPUT_SCHEMA,
    )
