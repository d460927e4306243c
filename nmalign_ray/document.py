"""Per-document extraction + forced-alignment kernel, and the oracle.

``process_document`` is the complete per-document semantics of the
engine: classify/extract spans (the parse cascade), salt-chunk oversized
documents, force-align candidates against the reference segmentation
(``align.core.match``, one chunk at a time), and emit the canonical
extracted span sequence plus metrics.  ``oracle_table`` runs
``process_document`` serially over a corpus table to produce golden
outputs.  The aligner kernel (``stages/aligner.py``), which each range
task of the Ray pipeline calls in process, aligns all of a slice's
chunks in one ``align.core.match_many`` call instead, and shares only
the span conversion (``chunk_spans``) with this module; so the oracle
stays independent of the batched greedy loop, and the tests pin that
both give the same bits.

Output contract (judged on span-sequence equality of
``(kind, text, media_ref, order)`` per BASELINE.json):

* one output span per MATCHED reference segment, in reference order:
  ``kind`` = source kind of the matched candidate (provenance),
  ``text`` = the matched candidate's RAW text — sliced ``[beg:end]``
  for subsegmentation splits, reproducing the reference's raw-slice
  semantics (``/root/reference/nmalign/scripts/cli.py:105-106``,
  ``nmalign/ocrd/cli.py:261-263``) — ``media_ref`` = "",
  ``offset`` = the reference segment's offset;
* unmatched reference segments are omitted (the reference CLI omits
  unmatched rows in string mode, ``scripts/cli.py:100-102``; its OCR-D
  merge leaves such lines untouched, ``ocrd/cli.py:253-255``);
* media spans of the input pass through verbatim as
  ``(kind, "", media_ref, offset)`` markers, re-interleaved by offset;
* metrics mirror the reference's aggregates (``scripts/cli.py:123-126``,
  ``ocrd/cli.py:269-276``): ``mean_score`` over matched pairs,
  ``matched``/``total`` on the reference side, ``unmatched_ref_count`` =
  candidates never assigned (the reference's side-2 warning O6,
  ``ocrd/cli.py:235-236``).
"""

from __future__ import annotations

import pyarrow as pa

from .align.core import AlignConfig, match
from .extract import classify_spans, is_media
from .schema import OUTPUT_SCHEMA, SALT_THRESHOLD


def salt_chunks(n_cands: int, n_refs: int, threshold: int):
    """Contiguous (cand_lo, cand_hi, ref_lo, ref_hi) windows bounding each
    alignment call to <= ``threshold`` candidates (skew handling; the
    reference instead holds one whole page in RAM,
    ``/root/reference/nmalign/lib/align.py:60-61``).  Boundaries are
    proportional on both sides; fixture documents place unambiguous
    anchors so chunk-local greedy assignment equals whole-document
    assignment (SURVEY §7.3)."""
    if threshold <= 0 or n_cands <= threshold:
        return [(0, n_cands, 0, n_refs)]
    nchunks = -(-n_cands // threshold)  # ceil
    out = []
    for k in range(nchunks):
        c_lo = k * n_cands // nchunks
        c_hi = (k + 1) * n_cands // nchunks
        r_lo = k * n_refs // nchunks
        r_hi = (k + 1) * n_refs // nchunks
        out.append((c_lo, c_hi, r_lo, r_hi))
    return out


def reference_segments(ref_spans: list[dict]) -> list[dict]:
    """One document's reference segments to align against: its
    ``ref_spans`` without media spans (``extract.is_media``), stably
    sorted by offset."""
    refs = [r for r in ref_spans
            if not is_media(r["kind"], r["text"], r["media_ref"])]
    refs.sort(key=lambda r: r["offset"])
    return refs


def media_spans(media) -> list[dict]:
    """``classify_spans``' media markers as output span dicts
    ``(kind, "", media_ref, offset)``."""
    return [{"kind": m.kind, "text": "", "media_ref": m.media_ref, "offset": m.offset}
            for m in media]


def align_chunk(
    ref_texts: list[str],
    ref_offsets: list[int],
    cand_kinds: list[str],
    cand_texts: list[str],
    config: AlignConfig,
):
    """Align one (salt-)chunk of candidates against its reference window
    with the unbatched ``match``: the inner loop of ``process_document``.
    Returns ``(out_spans, matched, score_sum, unmatched_cands)``, as
    :func:`chunk_spans` does."""
    if not cand_texts or not ref_texts:
        return [], 0, 0.0, len(cand_texts)
    res, scores = match(ref_texts, cand_texts, config=config)
    return chunk_spans(res, scores, ref_offsets, cand_kinds, cand_texts)


def chunk_spans(res, scores, ref_offsets, cand_kinds, cand_texts):
    """One chunk's ``match`` result ``(res, scores)`` as
    ``(out_spans, matched, score_sum, unmatched_cands)``: one span per
    matched reference segment, in reference order.  Shared by
    :func:`align_chunk` and the aligner kernel
    (``stages/aligner.AlignChunks``, which gets ``res, scores`` from
    ``align.core.match_many``)."""
    if res.ndim == 2:  # try_subseg: (idx, beg, end)
        idx, beg, end = res.tolist()
    else:
        idx = res.tolist()
        beg = end = [-1] * len(idx)
    scores = scores.tolist()
    out = []
    assigned = set()
    score_sum = 0.0
    for i, j in enumerate(idx):
        if j < 0:
            continue
        assigned.add(j)
        text = cand_texts[j]
        if beg[i] >= 0 and end[i] >= 0:
            text = text[beg[i] : end[i]]
        out.append(
            {
                "kind": cand_kinds[j],
                "text": text,
                "media_ref": "",
                "offset": int(ref_offsets[i]),
            }
        )
        score_sum += scores[i]
    return out, len(out), score_sum, len(cand_texts) - len(assigned)


def process_document(
    spans: list[dict],
    ref_spans: list[dict],
    config: AlignConfig | None = None,
    salt_threshold: int = SALT_THRESHOLD,
):
    """Extract + align one document.

    ``spans``/``ref_spans`` are lists of ``{kind, text, media_ref, offset}``
    dicts.  Returns ``(out_spans, metrics)`` with ``out_spans`` in the same
    dict shape sorted by offset and ``metrics`` a dict matching
    OUTPUT_SCHEMA's metric columns.
    """
    if config is None:
        config = AlignConfig()
    candidates, media = classify_spans(
        [s["kind"] for s in spans],
        [s["text"] for s in spans],
        [s["media_ref"] for s in spans],
        [s["offset"] for s in spans],
    )
    refs = reference_segments(ref_spans)
    out = media_spans(media)
    n_matched = 0
    score_sum = 0.0
    unmatched_cands = 0

    for c_lo, c_hi, r_lo, r_hi in salt_chunks(
        len(candidates), len(refs), salt_threshold
    ):
        cands = candidates[c_lo:c_hi]
        ref_win = refs[r_lo:r_hi]
        chunk_out, m, ssum, unmatched = align_chunk(
            [r["text"] for r in ref_win],
            [r["offset"] for r in ref_win],
            [c.kind for c in cands],
            [c.text for c in cands],
            config,
        )
        out.extend(chunk_out)
        n_matched += m
        score_sum += ssum
        unmatched_cands += unmatched

    out.sort(key=lambda s: s["offset"])
    metrics = {
        "mean_score": score_sum / n_matched if n_matched else 0.0,
        "matched": n_matched,
        "total": len(refs),
        "unmatched_ref_count": unmatched_cands,
    }
    return out, metrics


def oracle_table(
    corpus: pa.Table,
    config: AlignConfig | None = None,
    salt_threshold: int = SALT_THRESHOLD,
) -> pa.Table:
    """Golden output for a corpus table: ``process_document`` run serially
    (the single-process fixture oracle of SURVEY §5.2)."""
    doc_ids = corpus["doc_id"].to_pylist()
    spans_col = corpus["spans"].to_pylist()
    refs_col = corpus["ref_spans"].to_pylist()
    rows = {
        "doc_id": [],
        "spans": [],
        "mean_score": [],
        "matched": [],
        "total": [],
        "unmatched_ref_count": [],
    }
    for did, spans, refs in zip(doc_ids, spans_col, refs_col):
        out, metrics = process_document(
            spans, refs, config=config, salt_threshold=salt_threshold
        )
        rows["doc_id"].append(did)
        rows["spans"].append(out)
        for k, v in metrics.items():
            rows[k].append(v)
    return pa.Table.from_pydict(rows, schema=OUTPUT_SCHEMA)
