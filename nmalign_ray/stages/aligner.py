"""Aligner stage: chunk rows -> aligned span rows (tasks or actor pool).

Two physical forms over the same kernel (``document.align_chunk`` — the
function the serial oracle uses, which is what guarantees fixture
parity):

* ``AlignChunks`` — the ACTOR-POOL form and the default
  (``map_batches(AlignChunks, concurrency=N)``): a fixed pool PIPELINES
  against the read/extract and shuffle stages, which wins every LONG
  corpus-scale run once pool startup amortizes.  Same-session A/B over
  20k-100k docs: 4 cpus 65-72 s (pool) vs 105-115 s (tasks); 8 cpus
  29-30 vs 37-38; 32 cpus at 100k docs 35.2 vs 47.4.
* ``align_chunks_batch`` — the TASK form, selected via
  ``EngineConfig.align_mode='tasks'``: the stage's only "state" is the
  compiled regex program, and ``make_preprocessor`` caches compiled
  patterns per PROCESS; Ray task workers are reused processes, so the
  warm-once property holds with zero pool semantics.  The right form
  for SHORT verification pipelines run back to back, where pool
  startup/churn dominates: ten sf0.1 family queries ran 21 s as tasks
  vs 64-87 s as pools (with intermittent 15-20 s churn stalls), and a
  30k-doc one-shot headline in a shared session read 13.7-14.4 s vs
  16.3-23.3 — short-run numbers that INVERT on long runs, which is why
  the default is the pool.

This is the counterpart of the reference's per-page ``align.match``
invocation (``/root/reference/nmalign/ocrd/cli.py:227-234``,
``workers=1`` per page — each worker processes one chunk row; Ray task
scheduling replaces page-level multiprocessing).
"""

from __future__ import annotations

import pyarrow as pa

from ..align.core import AlignConfig, make_preprocessor
from ..document import align_chunk
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
        # warm the compiled-regex cache once per actor
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
        # ONE batched similarity pass across every chunk in the batch: the
        # per-document matrices are tiny and numpy-call-overhead-bound, so
        # batching them amortizes ~55% of the aligner CPU (round-5
        # profile).  Bit-identical to the per-chunk path (integer
        # distances, same elementwise normalization), and a pair costs
        # its own length, not the batch's longest — pinned by
        # tests/test_kernel_equivalence.py and the family hash oracles.
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
        for k in range(batch.num_rows):
            out, matched, score_sum, unmatched = align_chunk(
                ref_texts[k], ref_offsets[k], cand_kinds[k], cand_texts[k],
                self.config,
                sim=sims[job_of_row[k]] if job_of_row[k] >= 0 else None,
            )
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


def align_chunks_batch(batch: pa.Table, config: AlignConfig | None = None
                       ) -> pa.Table:
    """Task-form aligner (``align_mode='tasks'``; the engine default is
    the AlignChunks actor pool — see module docstring)."""
    return AlignChunks(config)(batch)
