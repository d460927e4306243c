"""The Arrow-native reassembly kernel against the per-document loop it
replaced (kept here as the oracle), on shuffled multi-document tables."""

import io

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings, strategies as st

from nmalign_ray.schema import OUTPUT_SCHEMA
from nmalign_ray.stages.aligner import ALIGNED_SCHEMA
from nmalign_ray.stages.reassemble import reassemble_group


def oracle_document(group: pa.Table) -> pa.Table:
    """One document's chunks -> its output row, by per-row Python."""
    salts = group["salt"].to_pylist()
    media_col = group["media"].to_pylist()
    spans_col = group["out_spans"].to_pylist()
    score_col = group["score_sum"].to_pylist()
    order = sorted(range(group.num_rows), key=lambda k: salts[k])
    spans = []
    score_sum = 0.0
    for k in order:
        spans.extend(media_col[k] or [])
        spans.extend(spans_col[k] or [])
        score_sum += score_col[k]
    spans.sort(key=lambda s: s["offset"])
    matched = sum(group["matched"].to_pylist())
    return pa.Table.from_pydict(
        {
            "doc_id": group["doc_id"].to_pylist()[:1],
            "spans": [spans],
            "mean_score": [score_sum / matched if matched else 0.0],
            "matched": [matched],
            "total": [sum(group["total"].to_pylist())],
            "unmatched_ref_count": [sum(group["unmatched_cands"].to_pylist())],
        },
        schema=OUTPUT_SCHEMA,
    )


def oracle(table: pa.Table) -> pa.Table:
    by_doc: dict[str, list[int]] = {}
    for k, did in enumerate(table["doc_id"].to_pylist()):
        by_doc.setdefault(did, []).append(k)
    return pa.concat_tables(
        [oracle_document(table.take(rows)) for _, rows in sorted(by_doc.items())])


# values whose float sum depends on the order it is taken in
SCORES = [0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 0.95, 1e-3, 12.345678]


def span(kind, offset, draw):
    media = kind != "text"
    return {"kind": kind, "offset": offset,
            "text": "" if media else draw(st.sampled_from(["a", "bc", "ſ", ""])),
            "media_ref": draw(st.sampled_from(["img-1", "a.wav"])) if media else ""}


@st.composite
def span_lists(draw, kinds):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([None, []]))
    n = draw(st.integers(1, 4))
    # few offsets, so media markers and text spans tie
    return [span(draw(st.sampled_from(kinds)), draw(st.integers(0, 3)), draw)
            for _ in range(n)]


@st.composite
def aligned_tables(draw):
    rows = []
    for d in range(draw(st.integers(1, 5))):
        doc_id = draw(st.sampled_from(["doc-α", "doc-b", "007", "", "Z"])) + f"/{d}"
        n_chunks = draw(st.sampled_from([1, 2, 3, 5, 8, 12]))
        for salt in range(n_chunks):
            rows.append({
                "doc_id": doc_id, "pid": 0, "salt": salt,
                "out_spans": draw(span_lists(["text"])),
                "media": draw(span_lists(["image", "audio", "text"])),
                "matched": draw(st.integers(0, 3)),
                "total": draw(st.integers(0, 4)),
                "score_sum": draw(st.sampled_from(SCORES)),
                "unmatched_cands": draw(st.integers(0, 2)),
            })
    rows = draw(st.permutations(rows))
    table = pa.Table.from_pylist(rows, schema=ALIGNED_SCHEMA)
    if draw(st.booleans()):
        # a parquet round trip names the list fields "element", not "item"
        buf = io.BytesIO()
        pq.write_table(table, buf)
        table = pq.read_table(io.BytesIO(buf.getvalue()))
        assert table.schema.field("media").type.value_field.name == "element"
    return table


@settings(max_examples=150, deadline=None)
@given(table=aligned_tables())
def test_kernel_equals_per_document_loop(table):
    assert reassemble_group(table).equals(oracle(table))


def test_media_precedes_text_at_equal_offset_and_fold_is_left():
    marker = {"kind": "image", "text": "", "media_ref": "m", "offset": 1}
    text = {"kind": "text", "text": "t", "media_ref": "", "offset": 1}
    table = pa.Table.from_pylist(
        [{"doc_id": "d", "pid": 0, "salt": s, "out_spans": [text] if s == 0 else [],
          "media": [marker] if s == 0 else None, "matched": 1, "total": 1,
          "score_sum": x, "unmatched_cands": 0}
         for s, x in reversed(list(enumerate([0.1, 0.2, 0.3])))],
        schema=ALIGNED_SCHEMA)
    out = reassemble_group(table).to_pylist()[0]
    assert [s["kind"] for s in out["spans"]] == ["image", "text"]
    assert out["mean_score"] == ((0.0 + 0.1) + 0.2 + 0.3) / 3
    assert reassemble_group(table.slice(0, 0)).equals(OUTPUT_SCHEMA.empty_table())
