"""Seeded benchmark inputs, written as parquet into a per-run directory.

Every input derives from the ``--seed`` argument and a few constants of
this file; nothing is read from outside the checkout and nothing is
cached between runs.

* ``mix``: a fixed base of ``MIX_BASE_DOCS`` word-salad
  documents (shape of the sf0.1 ``documents`` test table: 10-100 words
  drawn from a 31-word vocabulary), replicated ``MIX_REPLICAS`` times.
  The seed picks the replica tags and the row order.  A replica keeps
  ``doc_id % 10`` of its base row, so every replica falls into the same
  corpus family (``corpus.DETERMINISTIC_FAMILIES`` keys on it) and every
  seed carries exactly the same multiset of texts.
* ``giant``: ``SKEWED_DOCS`` documents of ``SKEWED_SPANS`` one-line spans
  (``corpus.make_skewed_document``), salted into chunks, plus
  ``LONGSEG_DOCS`` documents under the salt threshold whose candidates
  each merge ``LONGSEG_GROUP`` reference lines into one long segment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join "
    "key line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()

BASE_SEED = 20240917  # fixed: the mix texts do not change with --seed
MIX_BASE_DOCS = 1000  # a multiple of 10: replicas keep their family
MIX_REPLICAS = 2
WARM_UP_DOCS = 20

SKEWED_DOCS = 2
SKEWED_SPANS = 300
LONGSEG_DOCS = 2
LONGSEG_LINES = 40
LONGSEG_GROUP = 20


@dataclass
class Inputs:
    """One workload's generated inputs.

    ``corpus`` is the parquet file the pipeline reads; ``documents`` the
    ``(doc_id, text)`` table the SQL oracle reads (mix only);
    ``spans_per_doc`` the input span count per ``doc_id``;
    ``giant_kinds`` maps a giant ``doc_id`` to ``"skewed"`` or
    ``"longseg"``.
    """

    corpus: str
    num_docs: int
    spans_per_doc: dict[str, int]
    documents: str | None = None
    giant_kinds: dict[str, str] | None = None


def base_texts() -> list[str]:
    rng = np.random.default_rng(BASE_SEED)
    texts = []
    for _ in range(MIX_BASE_DOCS):
        n = int(rng.integers(10, 101))
        texts.append(" ".join(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), n)))
    return texts


def mix_documents(seed: int) -> pa.Table:
    """The replicated ``(doc_id, text)`` table of the mix corpus."""
    rng = np.random.default_rng(seed)
    texts = base_texts()
    tags = rng.choice(1_000_000, size=MIX_REPLICAS, replace=False) + 1
    keys = [int(d + MIX_BASE_DOCS * t) for t in tags for d in range(MIX_BASE_DOCS)]
    order = rng.permutation(len(keys))
    return pa.table({
        "doc_id": pa.array([keys[i] for i in order], pa.int64()),
        "text": pa.array([texts[i % MIX_BASE_DOCS] for i in order], pa.string()),
    })


def _spans_per_doc(corpus: pa.Table) -> dict[str, int]:
    return dict(zip(corpus["doc_id"].to_pylist(),
                    (len(s) for s in corpus["spans"].to_pylist())))


def make_mix(seed: int, out_dir: str) -> Inputs:
    from nmalign_ray.corpus import corpus_from_documents

    docs = mix_documents(seed)
    corpus = corpus_from_documents(docs["text"].to_pylist(),
                                   docs["doc_id"].to_pylist())
    if corpus.num_rows != docs.num_rows:
        raise RuntimeError("corpus derivation dropped documents")
    os.makedirs(out_dir, exist_ok=True)
    documents = os.path.join(out_dir, "documents.parquet")
    corpus_path = os.path.join(out_dir, "corpus.parquet")
    pq.write_table(docs, documents)
    pq.write_table(corpus, corpus_path)
    return Inputs(corpus_path, corpus.num_rows, _spans_per_doc(corpus),
                  documents=documents)


def make_warm_up(out_dir: str) -> Inputs:
    """``WARM_UP_DOCS`` mix documents, two of each corpus family."""
    from nmalign_ray.corpus import corpus_from_documents

    texts = base_texts()[:WARM_UP_DOCS]
    corpus = corpus_from_documents(texts, list(range(WARM_UP_DOCS)))
    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.parquet")
    pq.write_table(corpus, corpus_path)
    return Inputs(corpus_path, corpus.num_rows, _spans_per_doc(corpus))


def longseg_document(doc_index: int, seed: int):
    """One document whose candidates each merge ``LONGSEG_GROUP`` noised
    reference lines into one segment, with an image marker between the
    groups.  Returns ``(doc_id, spans, ref_spans)``."""
    from nmalign_ray.corpus import _corrupt, _sentence

    rng = np.random.default_rng(seed * 4_000_037 + doc_index)
    doc_id = f"doc-longseg-{doc_index:06d}"
    lines = [f"zeile {k:05d} " + _sentence(rng) for k in range(LONGSEG_LINES)]
    spans, refs = [], []
    offset = 0
    for g in range(0, LONGSEG_LINES, LONGSEG_GROUP):
        if g:
            marker = {"kind": "image", "text": "",
                      "media_ref": f"media://{doc_id}/{g}", "offset": offset}
            spans.append(dict(marker))
            refs.append(dict(marker))
            offset += 1
        group = lines[g:g + LONGSEG_GROUP]
        spans.append({"kind": "text", "media_ref": "", "offset": offset,
                      "text": " ".join(_corrupt(t, rng) for t in group)})
        for t in group:
            refs.append({"kind": "text", "text": t, "media_ref": "",
                         "offset": offset})
            offset += 1
    return doc_id, spans, refs


def make_giant(seed: int, out_dir: str) -> Inputs:
    from nmalign_ray.corpus import make_skewed_document
    from nmalign_ray.schema import CORPUS_SCHEMA

    docs = [(make_skewed_document(k, seed, SKEWED_SPANS), "skewed")
            for k in range(SKEWED_DOCS)]
    docs += [(longseg_document(k, seed), "longseg") for k in range(LONGSEG_DOCS)]
    order = np.random.default_rng(seed).permutation(len(docs))
    docs = [docs[i] for i in order]
    corpus = pa.Table.from_pydict(
        {"doc_id": [d[0][0] for d in docs], "spans": [d[0][1] for d in docs],
         "ref_spans": [d[0][2] for d in docs]},
        schema=CORPUS_SCHEMA,
    )
    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.parquet")
    pq.write_table(corpus, corpus_path)
    return Inputs(corpus_path, corpus.num_rows, _spans_per_doc(corpus),
                  giant_kinds={d[0]: kind for d, kind in docs})
