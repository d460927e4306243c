"""Aligner kernel: chunk rows -> aligned span rows, in process.

``AlignChunks(config)(chunks)`` aligns every chunk of a batch with ONE
batched similarity pass (``levenshtein_cdist_many``) and ONE lock-step
greedy pass (``align.core.match_many``) over all of the batch's chunks,
then turns each chunk's result into spans with ``document.chunk_spans``,
the conversion the serial oracle uses.  The oracle itself aligns one
chunk at a time with ``match``; the tests hold both to the same bits.
The extraction plan calls it inside each
pid range's task, once per slice of one partition's documents
(``pipelines/checkpoint.py::_partition_slices``), and in the task of
a heavy document sent off on its own (``checkpoint.py::_align_alone``);
there is no separate aligner operator or actor pool.  Its only state is the compiled regex
program, which ``make_preprocessor`` caches per process, and Ray reuses
task worker processes across rounds, so the program is compiled once
per worker.

This is the counterpart of the reference's per-page ``align.match``
invocation (``/root/reference/nmalign/ocrd/cli.py:227-234``,
``workers=1`` per page); one Ray task per partition replaces page-level
multiprocessing.
"""

from __future__ import annotations

import pyarrow as pa

from ..align.core import AlignConfig, make_preprocessor, match_many
from ..document import chunk_spans
from ..fuzzy.levenshtein import levenshtein_cdist_many
from ..schema import SPAN_TYPE

ALIGNED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("pid", pa.int32()),
        ("salt", pa.int32()),
        ("out_spans", pa.list_(SPAN_TYPE)),
        ("media", pa.list_(SPAN_TYPE)),
        ("matched", pa.int32()),
        ("total", pa.int32()),
        ("score_sum", pa.float64()),
        ("unmatched_cands", pa.int32()),
    ]
)


class AlignChunks:
    def __init__(self, config: AlignConfig | None = None):
        self.config = config if config is not None else AlignConfig()
        # warm the process's compiled-regex cache
        make_preprocessor(self.config.normalization)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = {name: [] for name in ALIGNED_SCHEMA.names}
        doc_ids = batch["doc_id"].to_pylist()
        pids = batch["pid"].to_pylist()
        salts = batch["salt"].to_pylist()
        cand_kinds = batch["cand_kind"].to_pylist()
        cand_texts = batch["cand_text"].to_pylist()
        ref_texts = batch["ref_text"].to_pylist()
        ref_offsets = batch["ref_offset"].to_pylist()
        media = batch["media"].to_pylist()
        # One batched similarity pass and one lock-step greedy pass over
        # every chunk of the batch: the per-chunk matrices are tiny, so
        # one kernel call per chunk would be bound by numpy call
        # overhead.  Both are bit-identical to the per-chunk ``match``
        # (integer distances, elementwise normalization, the same greedy
        # arithmetic), pinned by tests/test_kernel_equivalence.py and
        # tests/test_lockstep.py.
        jobs = []
        job_of_row = []
        for k in range(batch.num_rows):
            if ref_texts[k] and cand_texts[k]:
                job_of_row.append(len(jobs))
                jobs.append((ref_texts[k], cand_texts[k]))
            else:
                job_of_row.append(-1)
        sims = levenshtein_cdist_many(
            jobs, score_cutoff=self.config.cutoff,
            processor=make_preprocessor(self.config.normalization),
        ) if jobs else []
        results = match_many(jobs, sims, self.config)
        for k in range(batch.num_rows):
            if job_of_row[k] >= 0:
                res, scores = results[job_of_row[k]]
                out, matched, score_sum, unmatched = chunk_spans(
                    res, scores, ref_offsets[k], cand_kinds[k], cand_texts[k])
            else:
                out, matched, score_sum, unmatched = [], 0, 0.0, len(cand_texts[k])
            rows["doc_id"].append(doc_ids[k])
            rows["pid"].append(pids[k])
            rows["salt"].append(salts[k])
            rows["out_spans"].append(out)
            rows["media"].append(media[k] or [])
            rows["matched"].append(matched)
            rows["total"].append(len(ref_texts[k]))
            rows["score_sum"].append(score_sum)
            rows["unmatched_cands"].append(unmatched)
        return pa.Table.from_pydict(rows, schema=ALIGNED_SCHEMA)

