"""Text analysis operators: normalize, tokens, quality, language-ID, fingerprint.

All per-document transforms are single stateless ``map_batches`` passes,
fully vectorized with pyarrow.compute / numpy (token membership tests run
on the FLATTENED token array once, then segment-sum back per document via
``np.add.reduceat`` — no per-row Python).  Each operator has an exact
DuckDB twin (the ``*_SQL`` constants) used as the correctness oracle.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..hashing import (md5_hex, md5_order_sql, md5_u32, md5_u32_sql, md5_u64,
                       md5_u64_sql)
from ..tokens import (NORM_TEXT_SQL, doc_tokens_sql, norm_text, split,
                      token_lists, tokens_sql)

# Gate on driver-side collects of VOCABULARY-sized aggregates (top_terms,
# tfidf df map, cms final cut) — same convention as LABEL_DRIVER_MAX /
# MEMBER_BROADCAST_MAX elsewhere in the repo: fail loudly instead of
# silently OOMing the driver on a pathological high-cardinality corpus.
VOCAB_BROADCAST_MAX = int(
    os.environ.get("GRAFT_VOCAB_BROADCAST_MAX", "5000000"))

# int64 budget for gopher's packed 2-gram keys (doc_idx*vocab^2 + pair);
# batches beyond it fall back to a structured unique (module-level so the
# fallback branch is testable without a 2M-token batch)
GOPHER_PACK_LIMIT = 2 ** 62


def _vocab_pandas(agg: ray.data.Dataset, what: str, empty_cols=None):
    """Bounded collect of a vocabulary-sized aggregate.  ``to_pandas``'s
    ``limit`` raises (does not truncate) when exceeded — exactly the loud
    failure the gate wants; this wrapper adds the remediation hint.

    ``empty_cols`` (name -> pandas dtype) guards the zero-row case: Ray's
    ``to_pandas`` on an empty dataset returns a COLUMN-LESS frame (even
    from typed empty blocks), which would KeyError every downstream
    column access on an all-empty corpus."""
    try:
        df = agg.to_pandas(limit=VOCAB_BROADCAST_MAX)
    except ValueError as e:
        raise ValueError(
            f"{what}: distinct-term aggregate exceeds VOCAB_BROADCAST_MAX="
            f"{VOCAB_BROADCAST_MAX} rows; raise GRAFT_VOCAB_BROADCAST_MAX "
            "or pre-prune the vocabulary (e.g. a min-count filter before "
            "the collect)") from e
    if empty_cols is not None and len(df) == 0:
        import pandas as pd

        df = pd.DataFrame(
            {c: pd.Series(dtype=t) for c, t in empty_cols.items()})
    return df

# deterministic, tiny stoplists (parity with the SQL oracles matters, not
# linguistic quality)
STOPWORDS = {
    "de": ("der", "die", "das", "und", "ist", "ein", "mit", "von"),
    "en": ("the", "and", "of", "a", "to", "is", "in", "it"),
    "es": ("el", "los", "y", "es", "de", "que", "en", "un"),
    "fr": ("le", "les", "et", "est", "un", "une", "dans", "que"),
}
PUNCT_CLASS = r"[.,;:!?]"
# BPE-ish token regex: letter runs | digit runs | single non-space symbol
BPE_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def round_half_away(x, ndigits: int = 6):
    """Round half away from zero (DuckDB's round semantics; numpy/pandas
    round half-to-even and diverge at exact .5 boundaries, e.g. k/128
    ratios or binary-exact sums).  Sign-aware."""
    arr = np.asarray(x, dtype=np.float64)
    k = 10.0 ** ndigits
    return np.sign(arr) * np.floor(np.abs(arr) * k + 0.5) / k


def round6(x) -> np.ndarray:
    return round_half_away(x, 6)


def _segment_count(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum a boolean mask over the flat-token array per document segment."""
    if len(mask) == 0:
        return np.zeros(len(offsets) - 1, dtype=np.int64)
    cums = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    return cums[offsets[1:]] - cums[offsets[:-1]]


NORMALIZE_SQL = f"""
SELECT doc_id, {NORM_TEXT_SQL} AS norm_text
FROM documents
"""


def normalize_batch(batch: pa.Table) -> pa.Table:
    """The engine's stateless normalize operator (reference A2,
    ``/root/reference/nmalign/lib/align.py:54-59``) in its SQL-checkable
    form: lowercase + whitespace collapse (NFKC has no DuckDB twin; the
    full regex+NFKC program runs inside the aligner via
    ``make_preprocessor``)."""
    norm = norm_text(batch)
    return pa.Table.from_arrays([batch["doc_id"], norm], ["doc_id", "norm_text"])


def normalize_docs(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(normalize_batch, batch_format="pyarrow")


TOKEN_COUNT_SQL = f"""
SELECT doc_id,
       len({tokens_sql()}) AS n_tokens,
       len(regexp_extract_all(text, '{BPE_TOKEN_RE}')) AS n_bpe_tokens
FROM documents
"""


def token_count_batch(batch: pa.Table) -> pa.Table:
    counts = split(batch).counts
    bpe = pc.count_substring_regex(batch["text"], BPE_TOKEN_RE).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(counts, type=pa.int64()),
            "n_bpe_tokens": pa.array(bpe, type=pa.int64()),
        }
    )


def token_counts(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(token_count_batch, batch_format="pyarrow")


_EN = ", ".join(f"'{w}'" for w in STOPWORDS["en"])

# stop_ratio over the lowercased tokens toks (0.0 without tokens)
_STOP_RATIO_SQL = f"""round(CASE WHEN len(toks) = 0 THEN 0.0 ELSE
         len(list_filter(toks, t -> t IN ({_EN})))
         / CAST(len(toks) AS DOUBLE) END, 6)"""
_PUNCT_RATIO_SQL = """round(CASE WHEN length(text) = 0 THEN 0.0 ELSE
         length(regexp_replace(text, '[^.,;:!?]', '', 'g'))
         / CAST(length(text) AS DOUBLE) END, 6)"""

QUALITY_SQL = f"""
WITH d AS (SELECT doc_id, text, {tokens_sql(lower=True)} AS toks FROM documents)
SELECT doc_id,
       length(text) AS n_chars,
       len(toks) AS n_tokens,
       {_STOP_RATIO_SQL} AS stop_ratio,
       {_PUNCT_RATIO_SQL} AS punct_ratio,
       len(toks) BETWEEN 5 AND 10000
       AND {_PUNCT_RATIO_SQL} < 0.2 AS quality_ok
FROM d
"""


def quality_batch(batch: pa.Table) -> pa.Table:
    flat, offsets, counts = split(batch, lower=True)
    text = batch["text"]
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
    stop_hits = _segment_count(
        pc.is_in(flat, value_set=pa.array(STOPWORDS["en"])).to_numpy(
            zero_copy_only=False
        ),
        offsets,
    )
    stop_ratio = round6(
        np.where(counts > 0, stop_hits / np.maximum(counts, 1), 0.0)
    )
    punct = pc.utf8_length(
        pc.replace_substring_regex(text, "[^.,;:!?]", "")
    ).to_numpy(zero_copy_only=False)
    punct_ratio = round6(
        np.where(n_chars > 0, punct / np.maximum(n_chars, 1), 0.0)
    )
    quality_ok = ((counts >= 5) & (counts <= 10000)) & (punct_ratio < 0.2)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(n_chars),
            "n_tokens": pa.array(counts.astype(np.int64)),
            "stop_ratio": pa.array(stop_ratio, type=pa.float64()),
            "punct_ratio": pa.array(punct_ratio, type=pa.float64()),
            "quality_ok": pa.array(quality_ok),
        }
    )


def quality_scores(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(quality_batch, batch_format="pyarrow")


def _lang_hits_sql(lang: str) -> str:
    words = ", ".join(f"'{w}'" for w in STOPWORDS[lang])
    return f"len(list_filter(toks, t -> t IN ({words})))"


LANG_ID_SQL = f"""
WITH d AS (SELECT doc_id, {tokens_sql(lower=True)} AS toks FROM documents)
SELECT doc_id,
       CASE
         WHEN greatest({_lang_hits_sql('de')}, {_lang_hits_sql('en')},
                       {_lang_hits_sql('es')}, {_lang_hits_sql('fr')}) = 0
           THEN 'und'
         WHEN {_lang_hits_sql('de')} >= {_lang_hits_sql('en')}
          AND {_lang_hits_sql('de')} >= {_lang_hits_sql('es')}
          AND {_lang_hits_sql('de')} >= {_lang_hits_sql('fr')} THEN 'de'
         WHEN {_lang_hits_sql('en')} >= {_lang_hits_sql('es')}
          AND {_lang_hits_sql('en')} >= {_lang_hits_sql('fr')} THEN 'en'
         WHEN {_lang_hits_sql('es')} >= {_lang_hits_sql('fr')} THEN 'es'
         ELSE 'fr'
       END AS pred_lang
FROM d
"""


def lang_id_batch(batch: pa.Table) -> pa.Table:
    flat, offsets, _ = split(batch, lower=True)
    hits = {}
    for lang, words in STOPWORDS.items():
        mask = pc.is_in(flat, value_set=pa.array(words)).to_numpy(
            zero_copy_only=False
        )
        hits[lang] = _segment_count(mask, offsets)
    de, en, es, fr = hits["de"], hits["en"], hits["es"], hits["fr"]
    pred = np.where(
        np.maximum.reduce([de, en, es, fr]) == 0,
        "und",
        np.where(
            (de >= en) & (de >= es) & (de >= fr),
            "de",
            np.where((en >= es) & (en >= fr), "en", np.where(es >= fr, "es", "fr")),
        ),
    )
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "pred_lang": pa.array(pred.tolist())}
    )


def lang_id(ds: ray.data.Dataset) -> ray.data.Dataset:
    """N-gram/stopword-heuristic language identification (deterministic
    argmax with fixed de>en>es>fr tie order)."""
    return ds.map_batches(lang_id_batch, batch_format="pyarrow")


FINGERPRINT_SQL = f"""
SELECT doc_id, md5({NORM_TEXT_SQL}) AS fingerprint
FROM documents
"""


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    fps = md5_hex(norm_text(batch))
    return pa.Table.from_pydict({"doc_id": batch["doc_id"], "fingerprint": fps})


def fingerprints(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Content fingerprint (md5 of normalized text) — the exact-dedup key
    and the SQL-checkable stand-in for a rolling hash."""
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


QUALITY_FILTER_SQL = f"""
SELECT doc_id, length(text) AS n_chars
FROM documents
WHERE len({tokens_sql()}) BETWEEN 5 AND 10000 AND {_PUNCT_RATIO_SQL} < 0.2
"""


def quality_filter(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Training-data quality gate: keep only documents passing the quality
    heuristics (filter pushed into the same vectorized pass)."""

    def keep(batch: pa.Table) -> pa.Table:
        scored = quality_batch(batch)
        mask = scored["quality_ok"]
        return pa.Table.from_pydict(
            {
                "doc_id": pc.filter(scored["doc_id"], mask),
                "n_chars": pc.filter(scored["n_chars"], mask),
            }
        )

    return ds.map_batches(keep, batch_format="pyarrow")


TOP_TERMS_K = 20

TOP_TERMS_SQL = f"""
SELECT t AS term, count(*) AS cnt
FROM (SELECT unnest({tokens_sql(lower=True)}) AS t FROM documents)
GROUP BY t
ORDER BY cnt DESC, term
LIMIT {TOP_TERMS_K}
"""


def _term_counts(batch: pa.Table) -> pa.Table:
    """(term, cnt) of the batch's lowercased tokens: the vocabulary-sized
    partial of every corpus term count."""
    vc = pc.value_counts(split(batch, lower=True).flat)
    return pa.Table.from_arrays([vc.field("values"), vc.field("counts")],
                                ["term", "cnt"])


def top_terms(ds: ray.data.Dataset, k: int = TOP_TERMS_K) -> ray.data.Dataset:
    """Corpus-level top-k term frequencies — the canonical
    partial-pre-aggregation shape: each batch collapses its tokens into
    (term, cnt) partial counts BEFORE the shuffle, so the global
    ``groupby(term)`` exchange moves one row per distinct term per batch
    (vocabulary-sized), never one row per token (corpus-sized).  The
    final top-k cut orders by (cnt DESC, term ASC) — the SQL twin's
    total order — over the distinct-term aggregate, which is
    vocabulary-small by construction."""
    from ray.data.aggregate import Sum

    agg = ds.map_batches(_term_counts, batch_format="pyarrow").groupby(
        "term"
    ).aggregate(Sum("cnt", alias_name="cnt"))

    def cut(df):
        out = df.sort_values(["cnt", "term"], ascending=[False, True]).head(k)
        out["cnt"] = out["cnt"].astype(np.int64)
        return out.reset_index(drop=True)

    # the aggregate is vocabulary-sized; one gated driver-side cut
    return ray.data.from_pandas(cut(_vocab_pandas(
        agg, "top_terms", empty_cols={"term": "object", "cnt": "int64"})))


# ---------------------------------------------------------------------------
# Gopher-style repetition signals (Rae et al. 2021, arXiv:2112.11446 §A1.1):
# documents dominated by repeated tokens / n-grams are low-quality training
# data.  Per-document fractions, fully vectorized: one dictionary-encode of
# the batch's flattened token array, then distinct/top counts per document
# via a single np.unique over (doc, code) composite keys — no per-row
# Python, no shuffle (the signals are per-document).
# ---------------------------------------------------------------------------

GOPHER_SIGNALS_SQL = f"""
WITH d AS (SELECT doc_id, {tokens_sql(lower=True)} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t FROM d),
tc AS (SELECT doc_id, t, count(*) AS c FROM tok GROUP BY 1, 2),
uni AS (SELECT doc_id, sum(c) AS n_tokens, count(*) AS n_distinct,
               max(c) AS top_c
        FROM tc GROUP BY 1),
bg AS (SELECT doc_id,
              unnest([toks[i] || ' ' || toks[i + 1]
                      for i in generate_series(1, len(toks) - 1)]) AS g
       FROM d),
bgc AS (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY 1, 2),
bi AS (SELECT doc_id, sum(c) AS n_2grams, count(*) AS n_distinct2
       FROM bgc GROUP BY 1)
SELECT d.doc_id,
       CAST(coalesce(uni.n_tokens, 0) AS BIGINT) AS n_tokens,
       round(CASE WHEN coalesce(uni.n_tokens, 0) = 0 THEN 0.0
             ELSE 1.0 - uni.n_distinct / CAST(uni.n_tokens AS DOUBLE) END,
             6) AS dup_token_frac,
       round(CASE WHEN coalesce(uni.n_tokens, 0) = 0 THEN 0.0
             ELSE uni.top_c / CAST(uni.n_tokens AS DOUBLE) END,
             6) AS top_token_frac,
       round(CASE WHEN coalesce(bi.n_2grams, 0) = 0 THEN 0.0
             ELSE 1.0 - bi.n_distinct2 / CAST(bi.n_2grams AS DOUBLE) END,
             6) AS dup_2gram_frac
FROM d LEFT JOIN uni USING (doc_id) LEFT JOIN bi USING (doc_id)
"""


def gopher_signals_batch(batch: pa.Table) -> pa.Table:
    flat, _, counts = split(batch, lower=True)
    ndocs = len(counts)
    n_tokens = counts.astype(np.int64)
    n_distinct = np.zeros(ndocs, dtype=np.int64)
    top_c = np.zeros(ndocs, dtype=np.int64)
    n_2grams = np.maximum(n_tokens - 1, 0)
    n_distinct2 = np.zeros(ndocs, dtype=np.int64)
    if len(flat) > 0:
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = len(enc.dictionary)
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), n_tokens)
        uk, uc = np.unique(doc_idx * vocab + codes, return_counts=True)
        doc_of = uk // vocab
        n_distinct = np.bincount(doc_of, minlength=ndocs)
        np.maximum.at(top_c, doc_of, uc)
        # adjacent within-document 2-grams; batch-local vocab keeps
        # vocab**2 * ndocs far inside int64 (vocab <= tokens-per-batch)
        adj = doc_idx[1:] == doc_idx[:-1]
        if adj.any():
            if ndocs * vocab * vocab < GOPHER_PACK_LIMIT:
                pair = codes[:-1][adj] * vocab + codes[1:][adj]
                k2 = np.unique(doc_idx[:-1][adj] * (vocab * vocab) + pair)
                n_distinct2 = np.bincount(
                    k2 // (vocab * vocab), minlength=ndocs)
            else:
                # packed-key budget would wrap int64 (a >2M-distinct-token
                # batch); structured unique over (doc, c1, c2) triples is
                # slower but exact — same guard convention as _chunk_rows
                tri = np.stack([doc_idx[:-1][adj], codes[:-1][adj],
                                codes[1:][adj]], axis=1)
                uniq_docs = np.unique(tri, axis=0)[:, 0]
                n_distinct2 = np.bincount(uniq_docs, minlength=ndocs)
    dup_token_frac = round6(
        np.where(n_tokens > 0, 1.0 - n_distinct / np.maximum(n_tokens, 1), 0.0)
    )
    top_token_frac = round6(
        np.where(n_tokens > 0, top_c / np.maximum(n_tokens, 1), 0.0)
    )
    dup_2gram_frac = round6(
        np.where(n_2grams > 0, 1.0 - n_distinct2 / np.maximum(n_2grams, 1), 0.0)
    )
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens),
            "dup_token_frac": pa.array(dup_token_frac, type=pa.float64()),
            "top_token_frac": pa.array(top_token_frac, type=pa.float64()),
            "dup_2gram_frac": pa.array(dup_2gram_frac, type=pa.float64()),
        }
    )


def gopher_signals(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-document repetition quality signals (duplicate-token fraction,
    top-token fraction, duplicate-2-gram fraction), Gopher-rule style.
    Stateless vectorized ``map_batches``; embarrassingly parallel."""
    return ds.map_batches(gopher_signals_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PII redaction (training-data scrubbing).
#
# The synthetic corpus carries no PII, so the query PLANTS a deterministic
# contact sentence per document (pure doc_id arithmetic — the same pattern
# as the planted embedding pairs in simsearch.augment_with_planted) and
# the operator must scrub it back out.  Both sides speak RE2: pyarrow's
# replace_substring_regex and DuckDB's regexp_replace share the engine,
# so the patterns below behave identically and the hash check is exact.
# ---------------------------------------------------------------------------

PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+[0-9]{1,3}-[0-9]{3}-[0-9]{4}"
PII_IP_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"

PII_PLANT_SQL = (
    "text || ' contact user' || CAST(doc_id AS VARCHAR) || '@example.com'"
    " || ' or +1-555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')"
    " || ' at 10.' || CAST(doc_id % 256 AS VARCHAR)"
    " || '.' || CAST((doc_id * 7) % 256 AS VARCHAR)"
    " || '.' || CAST((doc_id * 13) % 256 AS VARCHAR)"
)

PII_REDACT_SQL = f"""
WITH planted AS (
  SELECT doc_id, {PII_PLANT_SQL} AS text
  FROM documents
)
SELECT doc_id,
       len(regexp_extract_all(text, '{PII_EMAIL_RE}')) AS n_emails,
       len(regexp_extract_all(text, '{PII_PHONE_RE}')) AS n_phones,
       len(regexp_extract_all(text, '{PII_IP_RE}')) AS n_ips,
       regexp_replace(
         regexp_replace(
           regexp_replace(text, '{PII_EMAIL_RE}', '<EMAIL>', 'g'),
           '{PII_PHONE_RE}', '<PHONE>', 'g'),
         '{PII_IP_RE}', '<IP>', 'g') AS clean_text
FROM planted
"""


def plant_pii_batch(batch: pa.Table) -> pa.Table:
    """Append the deterministic contact sentence (query fixture, mirrors
    PII_PLANT_SQL exactly)."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    suffix = [
        f" contact user{d}@example.com or +1-555-{d % 10000:04d}"
        f" at 10.{d % 256}.{(d * 7) % 256}.{(d * 13) % 256}"
        for d in ids
    ]
    planted = pc.binary_join_element_wise(
        pc.cast(batch["text"], pa.string()), pa.array(suffix, pa.string()), ""
    )
    return pa.Table.from_pydict({"doc_id": batch["doc_id"], "text": planted})


def plant_pii(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(plant_pii_batch, batch_format="pyarrow")


def pii_redact_batch(batch: pa.Table) -> pa.Table:
    text = batch["text"]

    def count(pat):
        return pc.cast(pc.count_substring_regex(text, pat), pa.int64())

    n_emails = count(PII_EMAIL_RE)
    n_phones = count(PII_PHONE_RE)
    n_ips = count(PII_IP_RE)
    clean = pc.replace_substring_regex(text, PII_EMAIL_RE, "<EMAIL>")
    clean = pc.replace_substring_regex(clean, PII_PHONE_RE, "<PHONE>")
    clean = pc.replace_substring_regex(clean, PII_IP_RE, "<IP>")
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_emails": n_emails,
            "n_phones": n_phones,
            "n_ips": n_ips,
            "clean_text": clean,
        }
    )


def pii_redact(ds: ray.data.Dataset) -> ray.data.Dataset:
    """PII scrubbing (emails, phone numbers, IPv4 addresses -> typed mask
    tokens) with per-document redaction counts — the standard
    training-data cleaning pass (cf. C4/CCNet-style pipelines).  A single
    stateless vectorized ``map_batches``: three RE2 scans + three RE2
    replaces per batch, no shuffle, no per-row Python.  At 100 TB this is
    embarrassingly parallel and I/O-bound; redaction counts ride along so
    a downstream audit needs no second scan."""
    return ds.map_batches(pii_redact_batch, batch_format="pyarrow")


HASH_SAMPLE_MOD = 5

HASH_SAMPLE_SQL = f"""
SELECT doc_id, n_chars
FROM documents
WHERE {md5_u32_sql("doc_id")} % {HASH_SAMPLE_MOD} = 0
"""


def hash_sample(ds: ray.data.Dataset, mod: int = HASH_SAMPLE_MOD) -> ray.data.Dataset:
    """Deterministic hash-based sampling (keep doc iff
    md5(doc_id) % mod == 0): the reproducible subsampling primitive a
    training-data pipeline needs — stable across runs, machines and
    partitionings, unlike ``Dataset.random_sample``.  Stateless
    map-side filter; no shuffle."""

    def keep(batch: pa.Table) -> pa.Table:
        mask = pa.array(md5_u32(batch["doc_id"]) % mod == 0)
        return pa.Table.from_pydict(
            {"doc_id": pc.filter(batch["doc_id"], mask),
             "n_chars": pc.filter(batch["n_chars"], mask)}
        )

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# TF-IDF top terms per document: the canonical two-pass
# aggregate-then-broadcast shape.  Pass 1 computes document frequencies as
# vocabulary-sized partials (one (term, df) row per distinct term per
# batch, with the non-empty-doc count riding along as explicit is_marker
# rows — never a NULL sentinel) and collapses them in ONE small
# groupby(term).  The resulting DF map is ray.put once and probed map-side
# in pass 2, so the corpus-sized pass never shuffles: each batch scores
# its own (doc, term) pairs and emits its top-k rows.  At 100 TB the DF
# map is vocabulary-bounded (~10^7 rows), orders of magnitude under the
# corpus, which is exactly when broadcast beats a join.
# ---------------------------------------------------------------------------

TFIDF_TOP_K = 3

TFIDF_TOP_TERMS_SQL = f"""
WITH d AS ({doc_tokens_sql(lower=True)}),
tok AS (SELECT doc_id, unnest(toks) AS term FROM d),
tc AS (SELECT doc_id, term, count(*) AS cnt FROM tok GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tc GROUP BY 1),
n AS (SELECT count(*) AS n FROM d),
sc AS (
  SELECT tc.doc_id, tc.term,
         round(CAST(tc.cnt AS DOUBLE) * ln((n.n + 1.0) / (df.df + 1.0)),
               6) AS tfidf
  FROM tc JOIN df USING (term) CROSS JOIN n
)
SELECT doc_id, term, tfidf, CAST(rank AS BIGINT) AS rank
FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY tfidf DESC, term) AS rank
      FROM sc)
WHERE rank <= {TFIDF_TOP_K}
"""


def _doc_term_counts(batch: pa.Table):
    """Per-batch (doc_row, term_code, count) triples plus the batch
    dictionary, via one dictionary-encode + one np.unique — no per-row
    Python."""
    flat, _, counts = split(batch, lower=True)
    ndocs = len(counts)
    if len(flat) == 0:
        return (np.array([], np.int64), np.array([], np.int64),
                np.array([], np.int64), [], counts.astype(np.int64))
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary.to_pylist()
    doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64),
                        counts.astype(np.int64))
    uk, uc = np.unique(doc_idx * len(vocab) + codes, return_counts=True)
    return (uk // len(vocab), uk % len(vocab), uc.astype(np.int64),
            vocab, counts.astype(np.int64))


def tfidf_top_terms(ds: ray.data.Dataset, k: int = TFIDF_TOP_K
                    ) -> ray.data.Dataset:
    """Top-k distinguishing terms per document by tf-idf
    (score = count * ln((N+1)/(df+1)); ties and the cut resolved on the
    6-dp-rounded score then term, the SQL twin's total order)."""

    def df_partial(batch: pa.Table) -> pa.Table:
        doc_of, code_of, _, vocab, counts = _doc_term_counts(batch)
        # df partial: number of docs (in this batch) containing each term
        term_rows = [vocab[c] for c in code_of]
        uterm, udf = np.unique(np.asarray(term_rows, dtype=object),
                               return_counts=True) if term_rows else ([], [])
        terms = list(uterm) + [""]
        dfs = [int(x) for x in udf] + [int((counts > 0).sum())]
        marker = [False] * len(uterm) + [True]
        return pa.Table.from_pydict(
            {"term": pa.array(terms, pa.string()),
             "df": pa.array(dfs, pa.int64()),
             "is_marker": pa.array(marker, pa.bool_())})

    from ray.data.aggregate import Sum

    agg = ds.map_batches(df_partial, batch_format="pyarrow").groupby(
        ["term", "is_marker"]).aggregate(Sum("df", alias_name="df"))

    df_map: dict = {}
    n_docs = 0
    for b in agg.iter_batches(batch_format="pyarrow"):
        for term, dfv, mk in zip(b["term"].to_pylist(),
                                 b["df"].to_pylist(),
                                 b["is_marker"].to_pylist()):
            if mk:
                n_docs += int(dfv)
            else:
                df_map[term] = int(dfv)
        if len(df_map) > VOCAB_BROADCAST_MAX:
            raise ValueError(
                "tfidf_top_terms: document-frequency map exceeds "
                f"VOCAB_BROADCAST_MAX={VOCAB_BROADCAST_MAX} terms; raise "
                "GRAFT_VOCAB_BROADCAST_MAX or pre-prune the vocabulary")
    df_ref = ray.put(df_map)

    def score(batch: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        doc_of, code_of, cnt, vocab, _ = _doc_term_counts(batch)
        if len(doc_of) == 0:
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], pa.int64()),
                 "term": pa.array([], pa.string()),
                 "tfidf": pa.array([], pa.float64()),
                 "rank": pa.array([], pa.int64())})
        df_dict = np.array([dfm[t] for t in vocab], dtype=np.float64)
        scores = round6(cnt.astype(np.float64)
                        * np.log((n_docs + 1.0) / (df_dict[code_of] + 1.0)))
        terms = np.array([vocab[c] for c in code_of])
        order = np.lexsort((terms, -scores, doc_of))
        doc_s = doc_of[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(doc_s) != 0) + 1])
        sizes = np.diff(np.concatenate([starts, [len(doc_s)]]))
        rank = np.arange(len(doc_s)) - np.repeat(starts, sizes)
        keep = order[rank < k]
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids[doc_of[keep]], pa.int64()),
             "term": pa.array(terms[keep].tolist(), pa.string()),
             "tfidf": pa.array(scores[keep], pa.float64()),
             "rank": pa.array((rank[rank < k] + 1).astype(np.int64))})

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Deterministic stratified sampling: k documents per group (language),
# chosen by md5(doc_id) order — reproducible across runs, machines and
# partitionings.  Shape: per-batch PARTIAL top-k per group (each batch
# forwards at most k rows per language it saw), then one group-wise final
# selection — the shuffle carries at most k * n_groups * n_batches skinny
# rows, never the corpus.
# ---------------------------------------------------------------------------

GROUP_SAMPLE_K = 25

GROUP_SAMPLE_SQL = f"""
SELECT lang, doc_id, n_chars
FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY {md5_order_sql("doc_id")}) AS rn
  FROM documents
)
WHERE rn <= {GROUP_SAMPLE_K}
"""


def _grouped_hash_head(groups: np.ndarray, ids: np.ndarray, k: int):
    """Original-row indices of the k smallest (md5(id), id) per group, in
    (group, md5, id) order, plus their 1-based in-group ranks — THE
    shared deterministic-sampling kernel (group_sample per lang,
    simsearch.cluster_sample per k-means cluster).  Empty-input safe."""
    keys = np.array(md5_hex(ids))
    order = np.lexsort((ids, keys, groups))
    g_s = groups[order]
    starts = np.concatenate([[0], np.flatnonzero(g_s[1:] != g_s[:-1]) + 1])
    sizes = np.diff(np.concatenate([starts, [len(g_s)]]))
    rank = np.arange(len(g_s)) - np.repeat(starts, sizes)
    sel = rank < k
    return order[sel], (rank[sel] + 1).astype(np.int64)


def _sample_cut(tbl: pa.Table, k: int) -> pa.Table:
    idx, _ = _grouped_hash_head(
        np.array(tbl["lang"].to_pylist()),
        tbl["doc_id"].to_numpy(zero_copy_only=False), k)
    return tbl.take(pa.array(idx))


def group_sample(ds: ray.data.Dataset, k: int = GROUP_SAMPLE_K
                 ) -> ray.data.Dataset:
    """Stratified sample: the k documents per language with the smallest
    md5(doc_id), ties by doc_id (the SQL twin's exact order)."""

    def partial(batch: pa.Table) -> pa.Table:
        return _sample_cut(
            batch.select(["lang", "doc_id", "n_chars"]), k)

    def final(group: pa.Table) -> pa.Table:
        return _sample_cut(group, k)

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "lang").map_groups(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Inverted-index build (term -> document posting list): the classic
# corpus-scale search-index shape.  Per-batch partials collapse each
# batch's tokens into one (term, sorted posting run) row per distinct
# term (vocabulary-sized, never token-sized), the groupby(term) exchange
# merges runs, and each posting list is emitted sorted and capped at
# MAX_POSTINGS with the true document frequency kept alongside — a capped
# list plus the exact df, so truncation is visible, not silent.  Postings
# serialize as a comma-joined string for byte-exact oracle comparison.
# ---------------------------------------------------------------------------

MAX_POSTINGS = 32

INVERTED_INDEX_SQL = f"""
SELECT term,
       count(*) AS df,
       array_to_string(list_sort(list(doc_id))[1:{MAX_POSTINGS}], ',')
         AS postings
FROM (SELECT DISTINCT doc_id, unnest({tokens_sql(lower=True)}) AS term FROM documents)
GROUP BY term
"""


def inverted_index(ds: ray.data.Dataset, max_postings: int = MAX_POSTINGS
                   ) -> ray.data.Dataset:
    """Term -> (document frequency, capped sorted posting list).

    The exchange key is a COARSE shard (hash(term) % width), not the term
    itself: one Ray group per distinct term pays per-group dispatch on a
    vocabulary-sized group count (measured 5.7 s of a 6 s stage at sf0.1
    for the LSH buckets — same lesson), while a few hundred shard groups
    amortize it; terms are then merged inside the shard task with one
    numpy sort."""
    from ..schema import cluster_cpus

    width = max(64, cluster_cpus() * 4)

    def partial(batch: pa.Table) -> pa.Table:
        doc_of, code_of, _, vocab, _ = _doc_term_counts(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        terms, runs = [], []
        # group the (already unique) doc-term pairs by term code
        order = np.argsort(code_of, kind="stable")
        cs = code_of[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(cs) != 0) + 1]) if len(cs) else []
        bounds = list(starts) + [len(cs)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            terms.append(vocab[cs[s]])
            runs.append(np.sort(ids[doc_of[order[s:e]]]).tolist())
        return pa.Table.from_pydict(
            {"shard": pa.array((md5_u32(terms) % width).astype(np.int64)),
             "term": pa.array(terms, pa.string()),
             "postings": pa.array(runs, pa.list_(pa.int64()))})

    def merge_shard(group: pa.Table) -> pa.Table:
        terms = np.array(group["term"].to_pylist())
        runs = group["postings"].to_pylist()
        out_t, out_df, out_p = [], [], []
        order = np.argsort(terms, kind="stable")
        ts = terms[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(ts[1:] != ts[:-1]) + 1]) if len(ts) else []
        bounds = list(starts) + [len(ts)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            all_ids = np.sort(np.concatenate(
                [np.asarray(runs[i], dtype=np.int64) for i in order[s:e]]))
            out_t.append(ts[s])
            out_df.append(len(all_ids))
            out_p.append(",".join(map(str, all_ids[:max_postings])))
        return pa.Table.from_pydict(
            {"term": pa.array(out_t, pa.string()),
             "df": pa.array(out_df, pa.int64()),
             "postings": pa.array(out_p, pa.string())})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "shard").map_groups(merge_shard, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# KMV (k-minimum-values) distinct-token cardinality sketch (Bar-Yossef et
# al. 2002; Beyer et al. 2007 "On synopses for distinct-value estimation"):
# the streaming answer to "how many distinct tokens does the corpus hold"
# without a vocabulary-wide exchange.  Each batch collapses to at most k
# hash values (its k smallest distinct md5-low64 token hashes), the merge
# keeps the k smallest overall, and the unbiased estimator is
# (k-1) * 2^64 / h_k.  At 100 TB the shuffle volume is k x num_batches
# tiny uint64 rows — constant per batch — versus the vocabulary-sized
# groupby an exact count needs.  The estimate itself is DETERMINISTIC
# arithmetic over integers, so the DuckDB twin recomputes the identical
# sketch and matches bit-for-bit (same float expression shape both sides).
# ---------------------------------------------------------------------------

KMV_K = 16

KMV_DISTINCT_SQL = f"""
WITH h AS (
  SELECT DISTINCT {md5_u64_sql("t")} AS hv
  FROM (SELECT unnest({tokens_sql(lower=True)}) AS t FROM documents)
),
k AS (SELECT hv FROM h ORDER BY hv LIMIT {KMV_K})
SELECT CAST({KMV_K} AS BIGINT) AS k,
       count(*) AS n_kept,
       max(hv) AS kth_min_hash,
       CASE WHEN count(*) < {KMV_K} THEN CAST(count(*) AS DOUBLE)
            ELSE ({KMV_K} - 1) * (18446744073709551616.0 / max(hv))
       END AS estimate_distinct
FROM k
"""


def kmv_distinct(ds: ray.data.Dataset, k: int = KMV_K) -> ray.data.Dataset:
    """Distinct-token cardinality estimate via the KMV sketch.

    Per-batch partials emit that batch's k smallest distinct token
    hashes (bounded rows per batch — no token-sized or vocabulary-sized
    exchange); the driver merge is provably bounded at k x num_batches
    uint64s.  Estimator and tie/edge conventions mirror
    ``KMV_DISTINCT_SQL`` exactly: fewer than k distinct hashes means the
    sketch IS the exact count.
    """

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.unique(split(batch, lower=True).flat)
        hv = np.unique(md5_u64(toks))[:k]
        return pa.Table.from_pydict({"hv": pa.array(hv, pa.uint64())})

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # zero-row datasets collect to a COLUMN-LESS frame — rebuild typed empty
    raw = (partials["hv"].to_numpy(dtype=np.uint64)
           if "hv" in partials.columns else np.array([], dtype=np.uint64))
    hv = np.unique(raw)[:k]
    n_kept = len(hv)
    if n_kept == 0:
        kth, est = None, 0.0
    else:
        kth = int(hv[-1])
        est = float(n_kept) if n_kept < k else (
            (k - 1) * (18446744073709551616.0 / kth))
    return ray.data.from_arrow(pa.Table.from_pydict({
        "k": pa.array([k], pa.int64()),
        "n_kept": pa.array([n_kept], pa.int64()),
        "kth_min_hash": pa.array([kth], pa.uint64()),
        "estimate_distinct": pa.array([est], pa.float64()),
    }))


# ---------------------------------------------------------------------------
# HyperLogLog distinct-token estimate (Flajolet et al. 2007; small-range
# linear-counting correction per Heule et al. 2013 §4) — the
# fixed-memory industry-standard cardinality sketch, completing the
# sketch family (KMV, CMS, Bloom, sampled quantiles).  Register j =
# top-12 md5-u64 bits, rho = leading-zero run of the remaining 52 bits
# + 1 (integer-exact both sides: python bit_length == DuckDB
# length(bin(w)), never a float log on the hash).  Float contract (the
# char_entropy/doc_perplexity proof): fold pow(2.0, -rho) over SET
# buckets in bucket order (== list_sum(list(... ORDER BY bucket))), add
# the empty-bucket mass as ONE addition, then the alpha expression in
# the identical operation order — the estimate is bit-exact unrounded.
# ---------------------------------------------------------------------------

HLL_P = 12
HLL_M = 1 << HLL_P          # 4096 registers
_HLL_LOW = (1 << (64 - HLL_P)) - 1

HLL_DISTINCT_SQL = f"""
WITH h AS (
  SELECT DISTINCT {md5_u64_sql("t")} AS hv
  FROM (SELECT unnest({tokens_sql(lower=True)}) AS t FROM documents)
),
reg AS (
  SELECT CAST(hv >> {64 - HLL_P} AS BIGINT) AS bucket,
         max(CASE WHEN (hv & {_HLL_LOW}) = 0 THEN {64 - HLL_P + 1}
                  ELSE {64 - HLL_P + 1}
                       - length(bin(CAST(hv & {_HLL_LOW} AS BIGINT))) END)
           AS rho
  FROM h GROUP BY 1
),
s AS (
  SELECT count(*) AS nb, max(rho) AS mx,
         list_sum(list(pow(2.0, -CAST(rho AS DOUBLE)) ORDER BY bucket)) AS sr
  FROM reg
)
SELECT CAST({HLL_M} AS BIGINT) AS m,
       CAST(coalesce(nb, 0) AS BIGINT) AS n_buckets_set,
       CAST(coalesce(mx, 0) AS BIGINT) AS max_rho,
       CASE WHEN coalesce(nb, 0) = 0 THEN 0.0
            WHEN (0.7213 / (1.0 + 1.079 / {HLL_M}.0)) * {HLL_M}.0 * {HLL_M}.0
                 / (sr + CAST({HLL_M} - nb AS DOUBLE)) <= 2.5 * {HLL_M}.0
                 AND nb < {HLL_M}
              THEN {HLL_M}.0 * ln({HLL_M}.0 / CAST({HLL_M} - nb AS DOUBLE))
            ELSE (0.7213 / (1.0 + 1.079 / {HLL_M}.0)) * {HLL_M}.0 * {HLL_M}.0
                 / (sr + CAST({HLL_M} - nb AS DOUBLE))
       END AS estimate_distinct
FROM s
"""


def _hll_registers(toks) -> dict[int, int]:
    """The HLL registers (bucket -> rho) of the distinct tokens ``toks``.
    Tokens are unioned BEFORE hashing (the kmv_distinct pattern):
    registers merge by max, so one md5 per distinct token gives identical
    output to per-doc hashing."""
    shift = 64 - HLL_P
    regs: dict[int, int] = {}
    for hv in md5_u64(toks).tolist():
        w = hv & _HLL_LOW
        rho = shift + 1 if w == 0 else shift + 1 - w.bit_length()
        if rho > regs.get(hv >> shift, 0):
            regs[hv >> shift] = rho
    return regs


def _hll_estimate(regs: dict[int, int]) -> float:
    """The SQL twin's estimator expression, operation for operation."""
    m = float(HLL_M)
    nb = len(regs)
    if nb == 0:
        return 0.0
    s = 0.0
    for b in sorted(regs):  # fold in bucket order == list(... ORDER BY bucket)
        s += math.pow(2.0, -float(regs[b]))
    s = s + float(HLL_M - nb)
    raw = (0.7213 / (1.0 + 1.079 / m)) * m * m / s
    if raw <= 2.5 * m and nb < HLL_M:
        return m * math.log(m / float(HLL_M - nb))
    return raw


def hll_distinct(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct-token cardinality via a 4096-register HyperLogLog.

    Per-batch partials emit at most m (bucket, rho) rows — never a
    token- or vocabulary-sized exchange; the register merge is the
    built-in Max aggregate over a 4096-bounded key space and the driver
    collects at most m rows to fold the estimate."""
    from ray.data.aggregate import Max

    def partial(batch: pa.Table) -> pa.Table:
        regs = _hll_registers(pc.unique(split(batch, lower=True).flat))
        return pa.Table.from_pydict(
            {"bucket": pa.array(list(regs.keys()), pa.int64()),
             "rho": pa.array(list(regs.values()), pa.int64())})

    merged = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("bucket").aggregate(Max("rho", alias_name="rho"))
              .to_pandas(limit=HLL_M))
    regs = ({int(b): int(r) for b, r in zip(merged["bucket"], merged["rho"])}
            if "bucket" in merged.columns else {})
    return ray.data.from_arrow(pa.Table.from_pydict({
        "m": pa.array([HLL_M], pa.int64()),
        "n_buckets_set": pa.array([len(regs)], pa.int64()),
        "max_rho": pa.array([max(regs.values()) if regs else 0], pa.int64()),
        "estimate_distinct": pa.array([_hll_estimate(regs)], pa.float64()),
    }))


# ---------------------------------------------------------------------------
# Training-mix composition: per-source token-budgeted selection.  Order
# each source's documents by (md5(doc_id), doc_id) — a deterministic
# pseudo-random shuffle — and keep documents while the running token
# total stays within the budget (cumulative sum INCLUDING the current
# document <= budget; empty documents are excluded up front, so selection
# is finite by construction).  This is the data-mixture curation step of
# an LLM pipeline: cap each source's contribution at a token budget.
# Only narrow (source, doc_id, hash, n_tokens) rows reach the
# groupby(source) exchange — the text stays behind — and the in-group
# sort + prefix-sum cut is the same per-key shape as sessionize, with the
# same documented per-source-skew bound.
# ---------------------------------------------------------------------------

MIX_TOKEN_BUDGET = 800


def _narrow_token_rows(batch: pa.Table, with_source: bool = False
                       ) -> pa.Table:
    """Shared narrow projection for the md5-ordered token operators
    (mix_sample, pack_sequences): skip documents without tokens,
    md5(doc_id) order key, token count.  The md5 per doc_id stays a
    Python loop (it IS the determinism contract) over the kept ids only."""
    counts = split(batch).counts
    keep = pa.array(counts > 0)
    ids = batch["doc_id"].combine_chunks().filter(keep)
    out = {"doc_id": ids.cast(pa.int64()),
           "hkey": pa.array(md5_hex(ids), pa.string()),
           "n_tokens": pa.array(counts[counts > 0], pa.int64())}
    if with_source:
        out = {"source": batch["source"].combine_chunks().filter(keep)
               .cast(pa.string()), **out}
    return pa.Table.from_pydict(out)


def block_prefix_offsets(refs, measure):
    """Exact global prefix offsets over a SORTED dataset's blocks: run
    ``measure(table) -> int`` remotely per block (ONE scalar per block
    reaches the driver) and return the exclusive prefix sums.  The
    shared scaffold behind every order-dependent exact value in the repo
    (ranked_docs' row numbers, global_quantiles' index selection,
    pack_sequences' token offsets)."""
    import ray

    @ray.remote
    def _measure(tbl: pa.Table) -> int:
        return int(measure(tbl))

    vals = ray.get([_measure.remote(r) for r in refs])
    return np.concatenate([[0], np.cumsum(vals)[:-1]]).astype(np.int64)

MIX_SAMPLE_SQL = f"""
SELECT source, doc_id, n_tokens, CAST(cum_tokens AS BIGINT) AS cum_tokens
FROM (
  SELECT source, doc_id, n_tokens,
         sum(n_tokens) OVER (
           PARTITION BY source
           ORDER BY {md5_order_sql("doc_id")}
           ROWS UNBOUNDED PRECEDING) AS cum_tokens
  FROM (SELECT source, doc_id, len({tokens_sql()}) AS n_tokens FROM documents)
  WHERE n_tokens > 0
)
WHERE cum_tokens <= {MIX_TOKEN_BUDGET}
"""


def mix_sample(ds: ray.data.Dataset, budget: int = MIX_TOKEN_BUDGET
               ) -> ray.data.Dataset:
    """Token-budgeted per-source document selection (training mix)."""

    def narrow(batch: pa.Table) -> pa.Table:
        return _narrow_token_rows(batch, with_source=True)

    def cut(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        hks = np.array(group["hkey"].to_pylist())
        toks = group["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, hks))
        cum = np.cumsum(toks[order])
        keep = order[cum <= budget]
        t = group.take(pa.array(keep))
        return pa.Table.from_pydict({
            "source": t["source"],
            "doc_id": t["doc_id"],
            "n_tokens": t["n_tokens"],
            "cum_tokens": pa.array(cum[cum <= budget], pa.int64()),
        })

    return ds.map_batches(narrow, batch_format="pyarrow").groupby(
        "source").map_groups(cut, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Quality-weighted deterministic sampling (the CCNet-style "soft filter":
# Wenzek et al. 2020 keep documents with probability tied to a quality
# signal instead of a hard cutoff).  Here keep_prob = min(1, 2*stop_ratio)
# — stop_ratio is already pinned to 6dp by the quality oracle — and the
# coin flip is the doc's md5-low32 fraction, so the sample is
# DETERMINISTIC, reproducible across runs/cluster sizes, and exactly
# recomputable in SQL.  Map-side only: no shuffle, no state.
# ---------------------------------------------------------------------------

SOFT_SAMPLE_SQL = f"""
WITH q AS (
  SELECT doc_id, {_STOP_RATIO_SQL} AS stop_ratio,
         {md5_u32_sql("doc_id")} / 4294967296.0 AS hash_frac
  FROM (SELECT doc_id, {tokens_sql(lower=True)} AS toks FROM documents)
)
SELECT doc_id,
       least(1.0, 2.0 * stop_ratio) AS keep_prob,
       hash_frac
FROM q
WHERE hash_frac < least(1.0, 2.0 * stop_ratio)
"""


def soft_sample(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Keep each document with deterministic probability
    min(1, 2*stop_ratio): md5-low32(doc_id)/2^32 plays the uniform
    draw.  Stateless map — the 100-TB cost is one streaming pass."""

    def keep(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        stop_ratio = q["stop_ratio"].to_numpy(zero_copy_only=False)
        prob = np.minimum(1.0, 2.0 * stop_ratio)
        frac = md5_u32(batch["doc_id"]) / 4294967296.0
        mask = frac < prob
        return pa.Table.from_pydict({
            "doc_id": batch["doc_id"].combine_chunks().filter(
                pa.array(mask, pa.bool_())),
            "keep_prob": pa.array(prob[mask], pa.float64()),
            "hash_frac": pa.array(frac[mask], pa.float64()),
        })

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch heavy hitters (Cormode & Muthukrishnan 2005, "An
# improved data stream summary: the count-min sketch"): approximate
# per-token counts in CMS_DEPTH x CMS_WIDTH cells — the fixed-memory
# answer to token frequency at 100 TB, where an exact per-token groupby
# moves a vocabulary-sized exchange.  The sketch build is distributed
# (per-batch (row, col, cnt) partials -> groupby cell sum; at most
# CMS_DEPTH*CMS_WIDTH rows survive to the driver — provably bounded);
# the heavy-hitter report takes the exact top-k terms (reusing the
# vocabulary-sized top_terms aggregate) and attaches each one's CMS
# point estimate min_i(cell[i, (h1 + i*h2) % W]).  The estimate is
# DETERMINISTIC md5 double-hash arithmetic, so the DuckDB twin
# recomputes the identical sketch and matches bit-for-bit — including
# the overestimation error the sketch's collisions introduce, which is
# exactly the property worth pinning.
# ---------------------------------------------------------------------------

CMS_DEPTH = 4
CMS_WIDTH = 1024
CMS_TOPK = 30

CMS_HEAVY_HITTERS_SQL = f"""
WITH counts AS (
  SELECT t, count(*) AS c
  FROM (SELECT unnest({tokens_sql(lower=True)}) AS t FROM documents)
  GROUP BY t
),
hashed AS (
  SELECT t, c,
         CAST({md5_u64_sql("t")} % {CMS_WIDTH} AS BIGINT) AS h1,
         CAST({md5_u64_sql("t", 1)} % {CMS_WIDTH} AS BIGINT) AS h2
  FROM counts
),
cells AS (
  SELECT g.i, (h1 + g.i * h2) % {CMS_WIDTH} AS col, sum(c) AS cell_sum
  FROM hashed, generate_series(0, {CMS_DEPTH - 1}) AS g(i)
  GROUP BY 1, 2
),
top AS (
  SELECT t, c FROM counts ORDER BY c DESC, t LIMIT {CMS_TOPK}
)
SELECT top.t AS term, top.c AS exact_cnt,
       CAST(min(cells.cell_sum) AS BIGINT) AS cms_estimate
FROM top
JOIN hashed h ON h.t = top.t
JOIN cells ON cells.col = (h.h1 + cells.i * h.h2) % {CMS_WIDTH}
GROUP BY 1, 2
"""


def cms_heavy_hitters(ds: ray.data.Dataset, depth: int = CMS_DEPTH,
                      width: int = CMS_WIDTH, k: int = CMS_TOPK
                      ) -> ray.data.Dataset:
    """Exact top-k terms with their count-min sketch estimates."""
    from ray.data.aggregate import Sum

    def cols(terms) -> np.ndarray:
        """(depth, len(terms)) sketch columns: (h1 + i*h2) % width."""
        h1, h2 = ((md5_u64(terms, w) % np.uint64(width)).astype(np.int64)
                  for w in (0, 1))
        return (h1[None, :] + np.arange(depth)[:, None] * h2[None, :]) % width

    # materialize ONCE: the vocab is consumed twice below (distributed
    # sketch partials + the gated driver cut), and a lazy Dataset re-runs
    # the tokenize map AND the groupby shuffle per consumer — measured as
    # the whole r3->r4 "regression" on this query (two executions, 2.2-4.8 s
    # vs 1.4 s).  The pinned blocks are vocabulary-sized (the aggregate's
    # own output), never corpus-sized.
    vocab = ds.map_batches(_term_counts, batch_format="pyarrow").groupby(
        "term").aggregate(Sum("cnt", alias_name="cnt")).materialize()

    def cell_partial(batch: pa.Table) -> pa.Table:
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        rows, uniqs, sums = [], [], []
        for i, col in enumerate(cols(batch["term"])):
            # collapse this batch's increments per cell before the shuffle
            uniq, inv = np.unique(col, return_inverse=True)
            rows.append(np.full(len(uniq), i, dtype=np.int64))
            uniqs.append(uniq)
            sums.append(np.bincount(inv, weights=cnt).astype(np.int64))
        return pa.Table.from_pydict(
            {"row": pa.array(np.concatenate(rows), pa.int64()),
             "col": pa.array(np.concatenate(uniqs), pa.int64()),
             "cell_sum": pa.array(np.concatenate(sums), pa.int64())})

    # the sketch is merged from per-block (row, col, cell_sum) partials
    # with a single bounded collect — each block contributes at most
    # depth*width rows, and the merged sketch is exactly depth*width
    # cells regardless of corpus size
    parts = vocab.map_batches(cell_partial, batch_format="pyarrow").to_pandas()
    sketch = np.zeros((depth, width), dtype=np.int64)
    if "row" in parts.columns:
        np.add.at(sketch,
                  (parts["row"].to_numpy(), parts["col"].to_numpy()),
                  parts["cell_sum"].to_numpy())

    def cut(df):
        top = df.sort_values(["cnt", "term"], ascending=[False, True]).head(k)
        est = sketch[np.arange(depth)[:, None], cols(top["term"])].min(axis=0)
        import pandas as pd

        return pd.DataFrame(
            {"term": top["term"].to_numpy(),
             "exact_cnt": top["cnt"].to_numpy(dtype=np.int64),
             "cms_estimate": est})

    return ray.data.from_pandas(
        cut(_vocab_pandas(vocab, "cms_heavy_hitters",
                          empty_cols={"term": "object", "cnt": "int64"})))


# ---------------------------------------------------------------------------
# Sample-based quantile sketch: the SCALE path for corpus quantiles
# (relational.global_quantiles is the exact flavor — a full
# range-partitioned sort).  A deterministic md5(doc_id)-ordered sample
# of SAMPLED_QUANTILES_S rows stands in for the corpus: each batch
# contributes its S smallest (md5, doc_id) rows — bounded partials, no
# sort shuffle, no vocabulary/corpus-sized exchange — and the driver
# merge keeps the S smallest overall (provably <= S x num_batches tiny
# rows).  Quantiles are index SELECTION on the sorted sample values, so
# the int64 estimates match the SQL twin bit-for-bit; the estimator
# error vs the exact quantile is the sketch property a consumer
# measures against global_quantiles.  Completes the sketch family: KMV
# (cardinality), Bloom (membership), CMS (frequency), sample
# (quantiles).
# ---------------------------------------------------------------------------

SAMPLED_QUANTILES_S = 256

SAMPLED_QUANTILES_SQL = f"""
WITH s AS (
  SELECT n_chars FROM documents
  ORDER BY {md5_order_sql("doc_id")}
  LIMIT {SAMPLED_QUANTILES_S}
),
g AS (SELECT list_sort(list(n_chars)) AS v, count(*) AS n FROM s)
SELECT CAST(n AS BIGINT) AS sample_n,
       v[CAST(floor((n - 1) * 0.25) AS BIGINT) + 1] AS p25,
       v[CAST(floor((n - 1) * 0.50) AS BIGINT) + 1] AS p50,
       v[CAST(floor((n - 1) * 0.75) AS BIGINT) + 1] AS p75,
       v[CAST(floor((n - 1) * 0.90) AS BIGINT) + 1] AS p90
FROM g
"""


def sampled_quantiles(ds: ray.data.Dataset,
                      s: int = SAMPLED_QUANTILES_S) -> ray.data.Dataset:
    """Quantile estimates of documents.n_chars from a deterministic
    md5-ordered sample of s documents."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        dids = batch["doc_id"].to_pylist()
        keys = md5_hex(dids)
        df = pd.DataFrame(
            {"key": keys, "doc_id": dids,
             "n_chars": batch["n_chars"].to_numpy(zero_copy_only=False)})
        df = df.sort_values(["key", "doc_id"], kind="mergesort").head(s)
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    names = ["sample_n", "p25", "p50", "p75", "p90"]
    if "key" not in parts.columns:  # zero-row collect is column-less
        return ray.data.from_arrow(pa.Table.from_pydict(
            {n: pa.array([0 if n == "sample_n" else None], pa.int64())
             for n in names}))
    top = parts.sort_values(["key", "doc_id"], kind="mergesort").head(s)
    v = np.sort(top["n_chars"].to_numpy(dtype=np.int64))
    n = len(v)
    row = {"sample_n": n}
    for q, name in ((0.25, "p25"), (0.50, "p50"), (0.75, "p75"),
                    (0.90, "p90")):
        row[name] = int(v[int(np.floor((n - 1) * q))]) if n else None
    return ray.data.from_arrow(pa.Table.from_pydict(
        {k: pa.array([row[k]], pa.int64()) for k in names}))


# ---------------------------------------------------------------------------
# Sequence packing (pretraining batch prep): concatenate documents in a
# deterministic pseudo-random order — (md5(doc_id), doc_id), the same
# shuffle mix_sample uses — and assign each document to the fixed-size
# token bin its START offset falls in (documents are never split; a doc
# may run past its bin boundary, the standard concat-then-chunk layout).
# Scale shape: only narrow (doc_id, hkey, n_tokens) rows enter the
# range-partitioned sort; the exact global prefix sum needs ONE number
# per block on the driver (per-block token sums -> prefix offsets ->
# per-block remote cumsum attach — the ranked_docs pattern for
# order-dependent exact values).  All arithmetic is integer, so the SQL
# window-cumsum twin is bit-exact by construction.
# ---------------------------------------------------------------------------

PACK_BIN_TOKENS = 256

PACK_SEQUENCES_SQL = f"""
SELECT doc_id, n_tokens,
       CAST(cum_tokens AS BIGINT) AS cum_tokens,
       CAST((cum_tokens - n_tokens) // {PACK_BIN_TOKENS} AS BIGINT) AS bin_id,
       CAST((cum_tokens - n_tokens) % {PACK_BIN_TOKENS} AS BIGINT)
         AS bin_offset
FROM (
  SELECT doc_id, n_tokens,
         sum(n_tokens) OVER (
           ORDER BY {md5_order_sql("doc_id")}
           ROWS UNBOUNDED PRECEDING) AS cum_tokens
  FROM (SELECT doc_id, len({tokens_sql()}) AS n_tokens FROM documents)
  WHERE n_tokens > 0
)
"""


def pack_sequences(ds: ray.data.Dataset,
                   bin_tokens: int = PACK_BIN_TOKENS) -> ray.data.Dataset:
    """Deterministic sequence packing: (doc_id, n_tokens, cum_tokens,
    bin_id, bin_offset) over the md5(doc_id) concatenation order."""
    import ray

    sorted_ds = ds.map_batches(_narrow_token_rows,
                               batch_format="pyarrow").sort(
        ["hkey", "doc_id"])
    refs = sorted_ds.to_arrow_refs()
    offsets = block_prefix_offsets(
        refs,
        lambda tbl: (pc.sum(tbl["n_tokens"]).as_py() or 0)
        if tbl.num_rows and "n_tokens" in tbl.schema.names else 0)

    @ray.remote
    def _attach(tbl: pa.Table, offset: int, b: int) -> pa.Table:
        empty = pa.Table.from_pydict({
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "cum_tokens": pa.array([], pa.int64()),
            "bin_id": pa.array([], pa.int64()),
            "bin_offset": pa.array([], pa.int64())})
        if tbl.num_rows == 0 or "n_tokens" not in tbl.schema.names:
            return empty
        n = tbl["n_tokens"].to_numpy(zero_copy_only=False)
        cum = offset + np.cumsum(n)
        prev = cum - n
        return pa.Table.from_pydict({
            "doc_id": tbl["doc_id"],
            "n_tokens": tbl["n_tokens"],
            "cum_tokens": pa.array(cum, pa.int64()),
            "bin_id": pa.array(prev // b, pa.int64()),
            "bin_offset": pa.array(prev % b, pa.int64()),
        })

    out = [_attach.remote(r, int(o), bin_tokens)
           for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out)


# ---------------------------------------------------------------------------
# BM25 top-k retrieval (Robertson & Zaragoza 2009; Lucene's idf variant
# ln(1 + (N - df + 0.5)/(df + 0.5))) for a fixed query-term set — the
# retrieval-scoring face of the inverted-index/tf-idf family.  Scale shape:
# ONE tokenizing pass emits a narrow per-doc row (doc_id, dl, tf per term)
# that is materialized once (5 int64s per doc — corpus-independent width);
# the corpus statistics (N, Σdl, df per term) reduce to per-block scalar
# partials, and scoring re-maps the narrow rows with the stats captured in
# the closure, keeping a per-batch partial top-k so the driver only ever
# sees k rows per block.  No shuffle anywhere.  The score expression is
# written with the same association order as the SQL twin, from exact
# integer inputs, so round6 matches bit-for-bit.
# ---------------------------------------------------------------------------

BM25_TERMS = ("hash", "join", "stream")
BM25_K1 = 1.2  # SQL literals 1.2 / 2.2 / 0.75 below mirror these
BM25_B = 0.75
BM25_TOP_K = 20


def _bm25_term_sql(i: int) -> str:
    return (f"ln(1.0 + (g.n - g.df{i} + 0.5) / (g.df{i} + 0.5)) "
            f"* tf{i} * 2.2 / (tf{i} + 1.2 * (1.0 - 0.75 + 0.75 * st.dl "
            f"/ (CAST(g.sum_dl AS DOUBLE) / g.n)))")


BM25_TOPK_SQL = f"""
WITH d AS ({doc_tokens_sql(lower=True)}),
st AS (
  SELECT doc_id, len(toks) AS dl,
         len([t for t in toks if t = '{BM25_TERMS[0]}']) AS tf0,
         len([t for t in toks if t = '{BM25_TERMS[1]}']) AS tf1,
         len([t for t in toks if t = '{BM25_TERMS[2]}']) AS tf2
  FROM d
),
g AS (
  SELECT count(*) AS n, sum(dl) AS sum_dl,
         sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS df0,
         sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
         sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2
  FROM st
),
sc AS (
  SELECT st.doc_id,
         round({_bm25_term_sql(0)}
             + {_bm25_term_sql(1)}
             + {_bm25_term_sql(2)}, 6) AS score
  FROM st CROSS JOIN g
  WHERE tf0 + tf1 + tf2 > 0
)
SELECT doc_id, score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT
            ) AS rank
FROM sc ORDER BY score DESC, doc_id LIMIT {BM25_TOP_K}
"""


def bm25_topk(ds: ray.data.Dataset, terms=BM25_TERMS, k: int = BM25_TOP_K,
              k1: float = BM25_K1, b: float = BM25_B) -> ray.data.Dataset:
    """Top-k documents by BM25 score for a fixed query-term set."""

    def narrow(batch: pa.Table) -> pa.Table:
        flat, offsets, counts = split(batch, lower=True)
        cols = {"doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
                "dl": counts}
        for i, t in enumerate(terms):
            mask = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            cols[f"tf{i}"] = _segment_count(mask, offsets)
        keep = counts > 0  # SQL twin's WHERE len(toks) > 0
        return pa.Table.from_pydict(
            {name: pa.array(v[keep], pa.int64())
             for name, v in cols.items()})

    # materialized ONCE: consumed by the stats pass and the scoring pass
    # (a lazy ds consumed twice re-runs its whole plan — see
    # cms_heavy_hitters' round-4 regression)
    stats_src = ds.map_batches(narrow, batch_format="pyarrow").materialize()

    def stats_partial(batch: pa.Table) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False)
        row = {"n": [len(dl)], "sum_dl": [int(dl.sum())]}
        for i in range(len(terms)):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False)
            row[f"df{i}"] = [int((tf > 0).sum())]
        return pa.Table.from_pydict(
            {kk: pa.array(vv, pa.int64()) for kk, vv in row.items()})

    # one scalar row per block — bounded driver collect
    parts = stats_src.map_batches(
        stats_partial, batch_format="pyarrow").to_pandas()
    # an all-empty corpus yields a zero-row (column-less) frame
    n = int(parts["n"].sum()) if "n" in parts.columns else 0
    empty = pa.Table.from_pydict({"doc_id": pa.array([], pa.int64()),
                                  "score": pa.array([], pa.float64()),
                                  "rank": pa.array([], pa.int64())})
    if n == 0:
        return ray.data.from_arrow(empty)
    sum_dl = int(parts["sum_dl"].sum())
    dfs = [int(parts[f"df{i}"].sum()) for i in range(len(terms))]
    avgdl = sum_dl / n  # CAST(sum_dl AS DOUBLE) / n

    def score_cut(batch: pa.Table) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False)
        score = np.zeros(len(dl), np.float64)
        any_tf = np.zeros(len(dl), np.int64)
        for i in range(len(terms)):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False)
            any_tf = any_tf + tf
            idf = math.log(1.0 + (n - dfs[i] + 0.5) / (dfs[i] + 0.5))
            # association order mirrors _bm25_term_sql exactly
            contrib = (idf * tf * (k1 + 1.0)
                       / (tf + k1 * (1.0 - b + b * dl / avgdl)))
            score = score + contrib
        score = round6(score)
        keep = any_tf > 0
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[keep]
        score = score[keep]
        order = np.lexsort((ids, -score))[:k]  # partial per-batch cut
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids[order], pa.int64()),
             "score": pa.array(score[order], pa.float64())})

    # k rows per block reach the driver; final cut + exact rank
    pool = stats_src.map_batches(score_cut,
                                 batch_format="pyarrow").to_pandas()
    if "score" not in pool.columns:  # no document holds a query term
        return ray.data.from_arrow(empty)
    pool = pool.sort_values(["score", "doc_id"],
                            ascending=[False, True]).head(k)
    pool["rank"] = np.arange(1, len(pool) + 1, dtype=np.int64)
    pool = pool.reset_index(drop=True)
    return ray.data.from_pandas(pool)


# ---------------------------------------------------------------------------
# PMI bigram collocations: pointwise mutual information of adjacent word
# pairs, the classic corpus-analysis signal (Church & Hanks 1990).  Scale
# shape: per-batch partial counts collapse tokens into vocabulary-sized
# (gram, kind) rows BEFORE the one small groupby exchange (same shape as
# top_terms); the driver sees only the distinct-gram aggregate (gated by
# VOCAB_BROADCAST_MAX) and computes PMI from exact integer counts with one
# log per surviving bigram.  Corpus totals (token and bigram counts) are
# the sums of the collected aggregate itself — no marker rows needed.
# ---------------------------------------------------------------------------

PMI_MIN_COUNT = 5
PMI_TOP_K = 30

PMI_BIGRAMS_SQL = f"""
WITH d AS (SELECT {tokens_sql(lower=True)} AS toks FROM documents),
tok AS (SELECT unnest(toks) AS t FROM d),
uni AS (SELECT t, count(*) AS c FROM tok GROUP BY 1),
n1 AS (SELECT count(*) AS n FROM tok),
bg AS (SELECT unnest([toks[i] || ' ' || toks[i + 1]
                      for i in generate_series(1, len(toks) - 1)]) AS g
       FROM d),
bc AS (SELECT g, count(*) AS c2 FROM bg GROUP BY 1),
n2 AS (SELECT count(*) AS n FROM bg),
sp AS (SELECT c2, string_split(g, ' ')[1] AS w1,
              string_split(g, ' ')[2] AS w2
       FROM bc WHERE c2 >= {PMI_MIN_COUNT}),
sc AS (SELECT w1, w2, c2 AS cnt,
              round(ln(CAST(c2 AS DOUBLE) * n1.n * n1.n
                       / (CAST(u1.c AS DOUBLE) * u2.c * n2.n)), 6) AS pmi
       FROM sp JOIN uni u1 ON sp.w1 = u1.t JOIN uni u2 ON sp.w2 = u2.t
       CROSS JOIN n1 CROSS JOIN n2)
SELECT w1, w2, cnt, pmi,
       CAST(row_number() OVER (ORDER BY pmi DESC, w1, w2) AS BIGINT
            ) AS rank
FROM sc ORDER BY pmi DESC, w1, w2 LIMIT {PMI_TOP_K}
"""


def pmi_bigrams(ds: ray.data.Dataset, min_count: int = PMI_MIN_COUNT,
                k: int = PMI_TOP_K) -> ray.data.Dataset:
    """Top-k adjacent-word collocations by PMI with a min-count floor."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets, _ = split(batch, lower=True)
        grams: list = []
        kinds: list = []
        cnts: list = []
        if len(flat):
            enc = pc.dictionary_encode(flat)
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(
                np.int64)
            vocab = enc.dictionary.to_pylist()
            ucode, ucnt = np.unique(codes, return_counts=True)
            grams += [vocab[c] for c in ucode]
            kinds += ["u"] * len(ucode)
            cnts += [int(x) for x in ucnt]
            if len(flat) > 1:
                valid = np.ones(len(codes) - 1, bool)
                # pairs crossing a document boundary are not bigrams
                inner = offsets[1:-1]
                valid[inner[(inner > 0) & (inner < len(codes))] - 1] = False
                if valid.any():
                    v = len(vocab)
                    key = codes[:-1][valid] * v + codes[1:][valid]
                    ukey, uc2 = np.unique(key, return_counts=True)
                    grams += [f"{vocab[kk // v]} {vocab[kk % v]}"
                              for kk in ukey]
                    kinds += ["b"] * len(ukey)
                    cnts += [int(x) for x in uc2]
        return pa.Table.from_pydict(
            {"gram": pa.array(grams, pa.string()),
             "kind": pa.array(kinds, pa.string()),
             "cnt": pa.array(cnts, pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["gram", "kind"]).aggregate(Sum("cnt", alias_name="cnt"))
    rows = _vocab_pandas(agg, "pmi_bigrams")
    empty = pa.Table.from_pydict(
        {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
         "cnt": pa.array([], pa.int64()),
         "pmi": pa.array([], pa.float64()),
         "rank": pa.array([], pa.int64())})
    if "kind" not in rows.columns:  # all-empty corpus: column-less frame
        return ray.data.from_arrow(empty)
    uni = rows[rows["kind"] == "u"]
    big = rows[rows["kind"] == "b"]
    n1 = int(uni["cnt"].sum())
    n2 = int(big["cnt"].sum())
    big = big[big["cnt"] >= min_count]
    if n1 == 0 or n2 == 0 or len(big) == 0:
        return ray.data.from_arrow(empty)
    umap = dict(zip(uni["gram"], uni["cnt"].astype(np.int64)))
    w1 = big["gram"].str.split(" ").str[0].to_numpy()
    w2 = big["gram"].str.split(" ").str[1].to_numpy()
    c2 = big["cnt"].to_numpy(np.int64)
    ca = np.array([umap[w] for w in w1], np.int64)
    cb = np.array([umap[w] for w in w2], np.int64)
    # association order mirrors the SQL: (((c2*n1)*n1) / (((ca*cb)*n2)))
    pmi = round6(np.log(c2.astype(np.float64) * n1 * n1
                        / (ca.astype(np.float64) * cb * n2)))
    order = np.lexsort((w2, w1, -pmi))[:k]
    out = pa.Table.from_pydict(
        {"w1": pa.array(w1[order].tolist(), pa.string()),
         "w2": pa.array(w2[order].tolist(), pa.string()),
         "cnt": pa.array(c2[order], pa.int64()),
         "pmi": pa.array(pmi[order], pa.float64()),
         "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64))})
    return ray.data.from_arrow(out)


# ---------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer, Wilkerson & Aiken, SIGMOD 2003 — the
# MOSS algorithm): hash every K-char gram of the normalized text, slide a
# W-hash window, and record the window minimum (rightmost position on
# ties).  Guarantees every substring match of length >= K + W - 1 shares a
# selected fingerprint, with ~2/(W+1) density — the classic local document
# fingerprint for plagiarism / near-dup detection, complementing the
# whole-document md5 of `fingerprints`.
#
# Scale shape: winnowing is strictly per-document, so the operator is ONE
# stateless `map_batches` pass with no exchange; the (doc_id, pos) output
# is already distinct by construction (one row per selected window
# position).  Window selection is vectorized (numpy sliding_window_view +
# one reversed argmin per window row); the md5 per gram is the
# SQL-replayable determinism contract (same convention as
# `_narrow_token_rows`), bounded by gram count = normalized chars.
# ---------------------------------------------------------------------------

WINNOW_K = 8   # gram size (chars of the normalized text)
WINNOW_W = 4   # window size (hashes); guarantee threshold = K + W - 1

WINNOW_SQL = f"""
WITH d AS (SELECT doc_id, {NORM_TEXT_SQL} AS t FROM documents),
h AS (
  SELECT doc_id,
         [{md5_u64_sql(f"substr(t, i, {WINNOW_K})")}
          for i in generate_series(1, len(t) - {WINNOW_K} + 1)] AS hs
  FROM d WHERE len(t) >= {WINNOW_K}
),
w AS (
  SELECT doc_id,
         unnest([{{pos: j - 1 + len(hs[j:j + {WINNOW_W - 1}])
                        - list_position(
                              list_reverse(hs[j:j + {WINNOW_W - 1}]),
                              list_min(hs[j:j + {WINNOW_W - 1}])),
                   fp: list_min(hs[j:j + {WINNOW_W - 1}])}}
                 for j in generate_series(
                       1, greatest(len(hs) - {WINNOW_W} + 1, 1))]) AS s
  FROM h
)
SELECT DISTINCT doc_id, CAST(s.pos AS BIGINT) AS pos, s.fp AS fp FROM w
"""


def winnow_batch(batch: pa.Table, k: int = WINNOW_K,
                 w: int = WINNOW_W) -> pa.Table:
    norm = norm_text(batch)
    ids_out: list = []
    pos_out: list = []
    fp_out: list = []
    for doc_id, t in zip(batch["doc_id"].to_pylist(), norm.to_pylist()):
        m = len(t) - k + 1
        if m <= 0:
            continue
        h = md5_u64([t[i:i + k] for i in range(m)])
        if m <= w:
            # short doc: a single window over every gram
            pos = np.array([m - 1 - int(np.argmin(h[::-1]))], np.int64)
        else:
            v = np.lib.stride_tricks.sliding_window_view(h, w)
            # rightmost min per window: argmin over the reversed axis
            rarg = (w - 1) - np.argmin(v[:, ::-1], axis=1)
            pos = np.unique(
                np.arange(m - w + 1, dtype=np.int64) + rarg)
        ids_out.append(np.full(len(pos), doc_id, np.int64))
        pos_out.append(pos)
        fp_out.append(h[pos])
    if not ids_out:
        return pa.Table.from_pydict(
            {"doc_id": pa.array([], pa.int64()),
             "pos": pa.array([], pa.int64()),
             "fp": pa.array([], pa.uint64())})
    return pa.Table.from_pydict(
        {"doc_id": pa.array(np.concatenate(ids_out), pa.int64()),
         "pos": pa.array(np.concatenate(pos_out), pa.int64()),
         "fp": pa.array(np.concatenate(fp_out), pa.uint64())})


def winnow_fingerprints(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Winnowed local fingerprints: (doc_id, gram position, u64 hash) of
    each selected window-minimum K-gram.  Embarrassingly parallel — no
    shuffle; output size ~ 2/(W+1) of the gram count."""
    return ds.map_batches(winnow_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Temperature-weighted source mixing (the multilingual-pretraining sampling
# rule, cf. XLM-R §3.1 / mBERT exponent-smoothing, at alpha = 0.5): large
# sources are downsampled by sqrt(n_min / n_source) so the source
# distribution is flattened toward the smallest source (kept in full).
# The uniform draw is the same deterministic md5 fraction as soft_sample,
# so the kept set is reproducible and SQL-replayable.
#
# The shipped corpus's sources are perfectly uniform (rate would be 1.0
# everywhere), so the driver query PLANTS a deterministic 60/30/10 skew
# from doc_id arithmetic (`skewed_sources`, the pii_redact planting
# convention) before mixing; the operator itself is source-agnostic.
#
# Scale shape: pass 1 is a per-batch source-count partial (rows per block =
# source cardinality, tiny) collected to the driver; the rate map is a
# handful of floats broadcast in the filter closure; pass 2 is one
# stateless vectorized filter.  No corpus-wide shuffle at any scale.
# ---------------------------------------------------------------------------

TEMPERATURE_MIX_SQL = f"""
WITH s AS (
  SELECT doc_id,
         CASE WHEN doc_id % 10 < 6 THEN 'head'
              WHEN doc_id % 10 < 9 THEN 'mid'
              ELSE 'tail' END AS source
  FROM documents
),
c AS (
  SELECT source, count(*) AS n FROM s GROUP BY source
),
m AS (SELECT min(n) AS n_min FROM c),
r AS (
  SELECT source, sqrt(CAST(m.n_min AS DOUBLE) / n) AS rate
  FROM c CROSS JOIN m
)
SELECT d.doc_id, d.source, r.rate
FROM s d JOIN r USING (source)
WHERE {md5_u32_sql("d.doc_id")} / 4294967296.0 < r.rate
"""


def skewed_sources(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Replace `source` with a planted 60/30/10 head/mid/tail split from
    doc_id arithmetic — gives temperature_mix real skew to flatten on a
    corpus whose shipped sources are uniform."""

    def remap(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        mod = ids % 10
        src = np.where(mod < 6, "head", np.where(mod < 9, "mid", "tail"))
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"],
             "source": pa.array(src.tolist(), pa.string())})

    return ds.map_batches(remap, batch_format="pyarrow")


def temperature_mix(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Downsample each source to ~sqrt(n_min/n_source) of its documents
    (alpha=0.5 temperature flattening), deterministically by md5(doc_id).
    Returns the kept (doc_id, source, rate) rows."""

    def count_partial(batch: pa.Table) -> pa.Table:
        src, cnt = np.unique(
            np.asarray(batch["source"].to_pylist(), dtype=object),
            return_counts=True)
        return pa.Table.from_pydict(
            {"source": pa.array(src.tolist(), pa.string()),
             "n": pa.array(cnt.astype(np.int64), pa.int64())})

    # materialized ONCE: consumed by the count pass and the filter pass
    # (a lazy ds consumed twice re-runs its whole upstream plan — the
    # cms_heavy_hitters round-4 regression; bm25_topk convention)
    ds = ds.materialize()
    # rows per block = source cardinality (a corpus has a handful of
    # sources) — bounded driver collect, summed locally
    parts = ds.map_batches(count_partial, batch_format="pyarrow").to_pandas()
    if "source" not in parts.columns or len(parts) == 0:
        return ray.data.from_arrow(pa.Table.from_pydict(
            {"doc_id": pa.array([], pa.int64()),
             "source": pa.array([], pa.string()),
             "rate": pa.array([], pa.float64())}))
    counts = parts.groupby("source")["n"].sum()
    n_min = int(counts.min())
    # expression shape mirrors the SQL: sqrt(double(n_min) / n)
    rates = {s: math.sqrt(float(n_min) / int(n)) for s, n in counts.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        # md5 per key is the determinism contract (soft_sample convention)
        frac = md5_u32(ids) / 4294967296.0
        rate = np.array([rates[s] for s in srcs], np.float64)
        m = frac < rate
        return pa.Table.from_pydict(
            {"doc_id": pa.array(np.asarray(ids, np.int64)[m], pa.int64()),
             "source": pa.array(
                 [s for s, k in zip(srcs, m) if k], pa.string()),
             "rate": pa.array(rate[m], pa.float64())})

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Language-model quality scoring (the CCNet shape — Wenzek et al. 2020,
# arXiv:1911.00359): score every document by its perplexity under a
# corpus-trained unigram LM.  Two passes: (1) the vocabulary-sized token
# count aggregate (top_terms' partial-pre-aggregation shape) collects the
# LM driver-side under the vocab gate and broadcasts it ONCE via ray.put
# — exactly how CCNet ships its KenLM binary to workers; (2) a stateless
# vectorized-per-batch scoring map.  No shuffle touches corpus-sized
# rows.
#
# Float parity contract with the DuckDB twin (each piece verified
# bit-exact on this host): log2 must be math.log2 (DuckDB calls libm;
# numpy's SIMD log2 diverges in the last ulp), the per-document sum must
# be SEQUENTIAL over terms ordered by token (DuckDB list_sum is a plain
# left-to-right fold — numpy's pairwise np.sum diverges), and the final
# 2^-avg goes through round6 (DuckDB pow is NOT libm pow).  The per-doc
# Python cost is one dict lookup + one multiply per DISTINCT token —
# vocabulary-bounded, not corpus-bounded.
# ---------------------------------------------------------------------------

DOC_PERPLEXITY_SQL = f"""
WITH d AS (SELECT doc_id, {tokens_sql(lower=True)} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t FROM d),
lm AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM lm),
dt AS (SELECT doc_id, t, count(*) AS nt FROM tok GROUP BY 1, 2),
agg AS (
  SELECT dt.doc_id,
         list_sum(list(CAST(dt.nt AS DOUBLE)
                       * log2(CAST(lm.c AS DOUBLE) / CAST(tot.n AS DOUBLE))
                       ORDER BY dt.t)) AS s,
         CAST(sum(dt.nt) AS BIGINT) AS n_tokens
  FROM dt JOIN lm USING (t), tot
  GROUP BY dt.doc_id
)
SELECT d.doc_id,
       coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.s / CAST(a.n_tokens AS DOUBLE), 0.0) AS avg_logprob2,
       round(CASE WHEN a.doc_id IS NULL THEN 1.0
                  ELSE pow(2.0, -(a.s / CAST(a.n_tokens AS DOUBLE))) END,
             6) AS perplexity
FROM d LEFT JOIN agg a USING (doc_id)
"""


def doc_perplexity(ds: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, n_tokens, avg_logprob2, perplexity) under the corpus
    unigram LM.  Empty documents score avg 0.0 / perplexity 1.0.  The LM
    has no OOV mass because it is trained on the scored corpus itself;
    a held-out deployment would add-one-smooth the counts in ``lm``
    (one line in both twins)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    # the input ds is deliberately consumed TWICE (count pass + score
    # pass) WITHOUT materialize(): these callables receive a plain
    # column-pruned parquet read, so the re-execution is one streaming
    # scan — materializing would pin the whole corpus in the object
    # store at 100-TB scale (the cms_heavy_hitters materialize-once rule
    # applies to SMALL derived aggregates, not corpus-sized inputs)
    vocab = _vocab_pandas(
        ds.map_batches(_term_counts, batch_format="pyarrow")
          .groupby("term").aggregate(Sum("cnt", alias_name="cnt")),
        "doc_perplexity", empty_cols={"term": "object", "cnt": "int64"})
    total = int(vocab["cnt"].sum())
    logp = {t: math.log2(int(c) / float(total))
            for t, c in zip(vocab["term"], vocab["cnt"])}
    ref = ray.put(logp)

    def score(batch: pa.Table) -> pa.Table:
        lm = ray.get(ref)
        ids = batch["doc_id"].to_pylist()
        n_toks, avgs, ppls = [], [], []
        for toks in token_lists(batch, lower=True):
            n = len(toks)
            n_toks.append(n)
            if n == 0:
                avgs.append(0.0)
                ppls.append(1.0)
                continue
            s = 0.0
            # sequential fold over token-sorted terms = DuckDB's
            # list_sum(list(term ORDER BY t)) bit-for-bit
            for t, nt in sorted(Counter(toks).items()):
                s += float(nt) * lm[t]
            avg = s / float(n)
            avgs.append(avg)
            ppls.append(2.0 ** (-avg))
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_tokens": pa.array(n_toks, pa.int64()),
             "avg_logprob2": pa.array(avgs, pa.float64()),
             "perplexity": pa.array(round6(np.array(ppls)), pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Stratified train/val/test split: EXACT 80/10/10 proportions inside
# every stratum (source), not just in expectation — each source's
# documents are totally ordered by md5(doc_id) (the repo's deterministic
# uniform draw) and cut at the integer boundaries rank*10 < n*8 / n*9.
# Scale shape: a narrow (source, doc_id, hkey) projection is globally
# sorted, per-source block prefix counts flow to the driver (sources x
# blocks SCALARS, never rows — the block_prefix_offsets scaffold
# generalized per stratum), and each block assigns its ranks in a
# remote task.  All the split arithmetic is int64, so the twin is exact
# by construction.
# ---------------------------------------------------------------------------

STRATIFIED_SPLIT_SQL = f"""
WITH r AS (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY {md5_order_sql("doc_id")}) - 1 AS strat_rank,
         count(*) OVER (PARTITION BY source) AS n
  FROM documents
)
SELECT doc_id, source, CAST(strat_rank AS BIGINT) AS strat_rank,
       CASE WHEN strat_rank * 10 < n * 8 THEN 'train'
            WHEN strat_rank * 10 < n * 9 THEN 'val'
            ELSE 'test' END AS split
FROM r
"""


def stratified_split(ds: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, source, strat_rank, split) with exact per-source 80/10/10
    proportions; the md5 order makes the assignment stable run-to-run."""
    import ray

    def narrow(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"source": batch["source"].combine_chunks().cast(pa.string()),
             "doc_id": batch["doc_id"].combine_chunks().cast(pa.int64()),
             "hkey": pa.array(md5_hex(batch["doc_id"]), pa.string())})

    sorted_ds = ds.map_batches(narrow, batch_format="pyarrow").sort(
        ["source", "hkey", "doc_id"])
    refs = [r for r in sorted_ds.to_arrow_refs()]

    @ray.remote
    def _src_counts(tbl: pa.Table) -> dict:
        if tbl.num_rows == 0:  # empty shuffle blocks can be COLUMN-LESS
            return {}
        # the block is sorted, so counts per source = run lengths
        src = np.asarray(tbl["source"].to_pylist())
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        ends = np.r_[starts[1:], len(src)]
        return {s: int(e - b) for s, b, e in zip(src[starts], starts, ends)}

    per_block = ray.get([_src_counts.remote(r) for r in refs])
    totals: dict = {}
    prefixes = []
    for counts in per_block:  # blocks arrive in global sort order
        prefixes.append({s: totals.get(s, 0) for s in counts})
        for s, c in counts.items():
            totals[s] = totals.get(s, 0) + c

    @ray.remote
    def _assign(tbl: pa.Table, prefix: dict, totals: dict) -> pa.Table:
        if tbl.num_rows == 0:  # empty shuffle blocks can be COLUMN-LESS
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], pa.int64()),
                 "source": pa.array([], pa.string()),
                 "strat_rank": pa.array([], pa.int64()),
                 "split": pa.array([], pa.string())})
        src = np.asarray(tbl["source"].to_pylist())
        n = len(src)
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        run_start = np.repeat(starts, np.r_[starts[1:], n] - starts)
        base = np.repeat(
            np.array([prefix[s] for s in src[starts]], np.int64),
            np.r_[starts[1:], n] - starts)
        rank = base + (np.arange(n, dtype=np.int64) - run_start)
        n_s = np.repeat(
            np.array([totals[s] for s in src[starts]], np.int64),
            np.r_[starts[1:], n] - starts)
        split = np.where(rank * 10 < n_s * 8, "train",
                         np.where(rank * 10 < n_s * 9, "val", "test"))
        return pa.Table.from_pydict(
            {"doc_id": tbl["doc_id"],
             "source": tbl["source"],
             "strat_rank": pa.array(rank, pa.int64()),
             "split": pa.array(split.tolist(), pa.string())})

    tot_ref = ray.put(totals)
    out = [_assign.remote(r, p, tot_ref)
           for r, p in zip(refs, prefixes)]
    return ray.data.from_arrow_refs(out)


# ---------------------------------------------------------------------------
# DSIR importance resampling (Xie et al. 2023, arXiv:2302.03169): select
# pretraining documents whose hashed-n-gram profile leans toward a
# TARGET distribution.  Features are unigrams + bigrams hashed into
# DSIR_BUCKETS buckets (md5 — SQL-replayable); the target and source
# bag-of-buckets models are add-one-smoothed counts (target = the
# lang='en' slice here; any predicate slots in); each document's
# log2 importance weight is sum_b c_b * (log2 p_b - log2 q_b) and the
# resample keeps weight > 0 (lean-toward-target).
#
# Scale shape: ONE bucket-count aggregate bounded at DSIR_BUCKETS rows
# (each batch pre-collapses its grams to (bucket, n_all, n_target)
# partials before the exchange), the 4096-float log-ratio table
# broadcast once via ray.put, then a stateless scoring pass — the same
# two-pass broadcast shape as doc_perplexity, and the exact float
# parity contract proven there (libm log2, sequential fold == DuckDB
# list_sum, IEEE mul/sub): log2_weight is bit-exact UNROUNDED.
# ---------------------------------------------------------------------------

DSIR_BUCKETS = 4096
DSIR_TARGET_LANG = "en"

_DSIR_BKT = f"CAST({md5_u32_sql('g')} % {DSIR_BUCKETS} AS BIGINT)"

DSIR_SAMPLE_SQL = f"""
WITH d AS (SELECT doc_id, lang, {tokens_sql(lower=True)} AS toks FROM documents),
grams AS (
  SELECT doc_id, lang, unnest(toks) AS g FROM d
  UNION ALL
  SELECT doc_id, lang,
         unnest([toks[i] || ' ' || toks[i + 1]
                 for i in generate_series(1, len(toks) - 1)]) AS g
  FROM d
),
bkt AS (SELECT doc_id, lang, {_DSIR_BKT} AS b FROM grams),
tgt AS (SELECT b, count(*) AS c FROM bkt
        WHERE lang = '{DSIR_TARGET_LANG}' GROUP BY b),
srcc AS (SELECT b, count(*) AS c FROM bkt GROUP BY b),
tots AS (
  SELECT (SELECT CAST(coalesce(sum(c), 0) AS BIGINT) FROM tgt) AS tt,
         (SELECT CAST(coalesce(sum(c), 0) AS BIGINT) FROM srcc) AS ts
),
ratio AS (
  SELECT s.b,
         log2(CAST(coalesce(t.c, 0) + 1 AS DOUBLE)
              / CAST(tots.tt + {DSIR_BUCKETS} AS DOUBLE))
         - log2(CAST(s.c + 1 AS DOUBLE)
                / CAST(tots.ts + {DSIR_BUCKETS} AS DOUBLE)) AS r
  FROM srcc s LEFT JOIN tgt t USING (b), tots
),
docb AS (SELECT doc_id, b, count(*) AS nb FROM bkt GROUP BY 1, 2),
w AS (
  SELECT doc_id,
         list_sum(list(CAST(nb AS DOUBLE) * r ORDER BY b)) AS lw
  FROM docb JOIN ratio USING (b) GROUP BY doc_id
)
SELECT d.doc_id, coalesce(w.lw, 0.0) AS log2_weight,
       coalesce(w.lw, 0.0) > 0.0 AS keep
FROM d LEFT JOIN w USING (doc_id)
"""


def _dsir_buckets(toks: list[str]) -> list[int]:
    """The bucket of each unigram and bigram of the tokens ``toks``."""
    grams = toks + [a + " " + b for a, b in zip(toks, toks[1:])]
    return (md5_u32(grams) % DSIR_BUCKETS).tolist()


def dsir_sample(ds: ray.data.Dataset,
                target_lang: str = DSIR_TARGET_LANG) -> ray.data.Dataset:
    """(doc_id, log2_weight, keep) — hashed-n-gram importance weights
    toward the ``lang == target_lang`` slice, keep iff weight > 0.

    On the synthetic corpus every lang shares one vocabulary, so
    weights hover just below zero and ``keep`` is empty — a corpus
    property, not a bug; the oracle verifies ``log2_weight`` bit-exact
    (both SFs), which is the full fidelity of the algorithm."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def count_partial(batch: pa.Table) -> pa.Table:
        c_all: Counter = Counter()
        c_tgt: Counter = Counter()
        for toks, lang in zip(token_lists(batch, lower=True),
                              batch["lang"].to_pylist()):
            bkts = _dsir_buckets(toks)
            c_all.update(bkts)
            if lang == target_lang:
                c_tgt.update(bkts)
        keys = sorted(c_all)
        return pa.Table.from_pydict(
            {"b": pa.array(keys, pa.int64()),
             "n_all": pa.array([c_all[k] for k in keys], pa.int64()),
             "n_tgt": pa.array([c_tgt.get(k, 0) for k in keys],
                               pa.int64())})

    # two deliberate scans of the plain parquet input (see doc_perplexity)
    counts = _vocab_pandas(
        ds.map_batches(count_partial, batch_format="pyarrow")
          .groupby("b").aggregate(Sum("n_all", alias_name="n_all"),
                                  Sum("n_tgt", alias_name="n_tgt")),
        "dsir_sample",
        empty_cols={"b": "int64", "n_all": "int64", "n_tgt": "int64"})
    ts = int(counts["n_all"].sum())
    tt = int(counts["n_tgt"].sum())
    ratio = np.zeros(DSIR_BUCKETS, np.float64)
    for b, na, nt in zip(counts["b"], counts["n_all"], counts["n_tgt"]):
        ratio[int(b)] = (
            math.log2((int(nt) + 1) / float(tt + DSIR_BUCKETS))
            - math.log2((int(na) + 1) / float(ts + DSIR_BUCKETS)))
    ref = ray.put(ratio)

    def score(batch: pa.Table) -> pa.Table:
        r = ray.get(ref)
        ids, ws = [], []
        for doc_id, toks in zip(batch["doc_id"].to_pylist(),
                                token_lists(batch, lower=True)):
            ids.append(doc_id)
            s = 0.0
            # sequential fold over bucket-sorted terms = the SQL twin's
            # list_sum(list(term ORDER BY b))
            for b, nb in sorted(Counter(_dsir_buckets(toks)).items()):
                s += float(nb) * r[b]
            ws.append(s)
        w = np.array(ws, np.float64)
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "log2_weight": pa.array(w, pa.float64()),
             "keep": pa.array(w > 0.0, pa.bool_())})

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Per-document character-level Shannon entropy — the classic gibberish /
# compressibility quality signal (low entropy = repeated filler, high =
# random noise).  Strictly per-document, ONE stateless vectorized
# map_batches pass, zero shuffle.  Float parity contract (the
# doc_perplexity proof): H = log2(n) - (sum_c k_c*log2(k_c))/n with
# math.log2 (libm — numpy's SIMD log2 diverges in the last ulp), the
# sum folded sequentially in CHARACTER order (== DuckDB
# list_sum(list(... ORDER BY c)); UTF-8 byte order == codepoint order),
# each mul/div/sub a single IEEE op — entropy is bit-exact UNROUNDED.
# DuckDB string_split(text, '') splits by codepoint, matching the
# numpy utf-32 view.
# ---------------------------------------------------------------------------

CHAR_ENTROPY_SQL = """
WITH d AS (
  SELECT doc_id,
         CASE WHEN text = '' THEN CAST([] AS VARCHAR[])
              ELSE string_split(text, '') END AS cs
  FROM documents
),
cc AS (
  SELECT doc_id, c, count(*) AS k
  FROM (SELECT doc_id, unnest(cs) AS c FROM d) GROUP BY 1, 2
),
e AS (
  SELECT doc_id, CAST(sum(k) AS BIGINT) AS n,
         list_sum(list(CAST(k AS DOUBLE) * log2(CAST(k AS DOUBLE))
                       ORDER BY c)) AS s
  FROM cc GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(e.n, 0) AS n_chars,
       CASE WHEN coalesce(e.n, 0) = 0 THEN 0.0
            ELSE log2(CAST(e.n AS DOUBLE)) - e.s / CAST(e.n AS DOUBLE)
       END AS entropy
FROM d LEFT JOIN e USING (doc_id)
"""


def char_entropy(ds: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, n_chars, entropy) — per-document codepoint Shannon
    entropy, bit-exact against the SQL twin."""

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        ns, hs = [], []
        for text in batch["text"].to_pylist():
            cp = np.frombuffer(text.encode("utf-32-le"), np.uint32)
            n = len(cp)
            ns.append(n)
            if n == 0:
                hs.append(0.0)
                continue
            _, cnt = np.unique(cp, return_counts=True)  # sorted by codepoint
            s = 0.0
            for k in cnt.tolist():  # sequential fold in character order
                s += float(k) * math.log2(k)
            hs.append(math.log2(n) - s / float(n))
        return pa.Table.from_pydict(
            {"doc_id": ids,
             "n_chars": pa.array(ns, pa.int64()),
             "entropy": pa.array(hs, pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# BPE pair counting — the inner statistic of byte-pair-encoding tokenizer
# induction (Sennrich et al. 2016, arXiv:1508.07909): the corpus-wide
# frequency of every ADJACENT character pair inside a token; the most
# frequent pair is the merge BPE would perform next.  Scale shape mirrors
# top_terms: each batch dictionary-encodes its tokens and walks only the
# batch-DISTINCT tokens (vocabulary-bounded, the hll_distinct trick),
# multiplying each token's within-token pair occurrences by the token's
# batch count; the exchange moves (pair, cnt) partials bounded by the
# PAIR vocabulary (smaller still than the token vocabulary), the global
# sum is a built-in Sum aggregate, and the top-k cut is a gated
# pair-vocabulary-sized collect.
# ---------------------------------------------------------------------------

BPE_PAIRS_K = 32

BPE_PAIR_COUNTS_SQL = f"""
SELECT pair, cnt FROM (
  SELECT substr(w, CAST(i AS INT), 2) AS pair, count(*) AS cnt
  FROM (
    SELECT w, unnest(generate_series(1, length(w) - 1)) AS i
    FROM (SELECT unnest({tokens_sql(lower=True)}) AS w FROM documents)
    WHERE length(w) >= 2
  )
  GROUP BY pair
)
ORDER BY cnt DESC, pair
LIMIT {BPE_PAIRS_K}
"""


def bpe_pair_counts(ds: ray.data.Dataset, k: int = BPE_PAIRS_K
                    ) -> ray.data.Dataset:
    """Corpus top-k adjacent within-token character pairs — the first
    merge table of BPE tokenizer training."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        toks = split(batch, lower=True).flat
        if len(toks) == 0:
            return pa.Table.from_pydict(
                {"pair": pa.array([], pa.string()),
                 "cnt": pa.array([], pa.int64())})
        enc = pc.dictionary_encode(toks)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        tok_cnt = np.bincount(codes, minlength=len(enc.dictionary))
        counts: Counter = Counter()
        for tok, n in zip(enc.dictionary.to_pylist(), tok_cnt):
            if len(tok) < 2:
                continue
            for i in range(len(tok) - 1):
                counts[tok[i:i + 2]] += int(n)
        return pa.Table.from_pydict(
            {"pair": pa.array(list(counts.keys()), pa.string()),
             "cnt": pa.array(list(counts.values()), pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "pair"
    ).aggregate(Sum("cnt", alias_name="cnt"))

    def cut(df):
        out = df.sort_values(["cnt", "pair"],
                             ascending=[False, True]).head(k)
        out["cnt"] = out["cnt"].astype(np.int64)
        return out.reset_index(drop=True)

    return ray.data.from_pandas(cut(_vocab_pandas(
        agg, "bpe_pair_counts",
        empty_cols={"pair": "object", "cnt": "int64"})))


# ---------------------------------------------------------------------------
# Per-group HyperLogLog (distinct tokens per source) — the KEYED form of
# the sketch: where an exact per-key count-distinct must shuffle every
# (key, token) pair, per-key HLL registers are map-side mergeable, so
# the exchange is bounded by groups x m regardless of corpus size — the
# standard per-host / per-domain cardinality shape of web curation.
# Register and estimator contracts are hll_distinct's, applied per
# source (same integer rho, same bucket-ordered float fold).
# ---------------------------------------------------------------------------

SOURCE_HLL_SQL = f"""
WITH h AS (
  SELECT DISTINCT source, {md5_u64_sql("t")} AS hv
  FROM (SELECT source, unnest({tokens_sql(lower=True)}) AS t FROM documents)
),
reg AS (
  SELECT source, CAST(hv >> {64 - HLL_P} AS BIGINT) AS bucket,
         max(CASE WHEN (hv & {_HLL_LOW}) = 0 THEN {64 - HLL_P + 1}
                  ELSE {64 - HLL_P + 1}
                       - length(bin(CAST(hv & {_HLL_LOW} AS BIGINT))) END)
           AS rho
  FROM h GROUP BY 1, 2
),
s AS (
  SELECT source, count(*) AS nb, max(rho) AS mx,
         list_sum(list(pow(2.0, -CAST(rho AS DOUBLE)) ORDER BY bucket)) AS sr
  FROM reg GROUP BY source
)
SELECT source,
       CAST(nb AS BIGINT) AS n_buckets_set,
       CAST(mx AS BIGINT) AS max_rho,
       CASE WHEN (0.7213 / (1.0 + 1.079 / {HLL_M}.0)) * {HLL_M}.0 * {HLL_M}.0
                 / (sr + CAST({HLL_M} - nb AS DOUBLE)) <= 2.5 * {HLL_M}.0
                 AND nb < {HLL_M}
              THEN {HLL_M}.0 * ln({HLL_M}.0 / CAST({HLL_M} - nb AS DOUBLE))
            ELSE (0.7213 / (1.0 + 1.079 / {HLL_M}.0)) * {HLL_M}.0 * {HLL_M}.0
                 / (sr + CAST({HLL_M} - nb AS DOUBLE))
       END AS estimate_distinct
FROM s
"""


def source_hll(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-source distinct-token estimate via 4096-register HLLs.

    Per-batch partials emit at most (sources-in-batch x m)
    (source, bucket, rho) rows; the register merge is the built-in Max
    over the (source, bucket) key space — bounded by groups x m, never
    token-sized — and the driver folds estimates from a gated
    groups x m collect."""
    from ray.data.aggregate import Max

    def partial(batch: pa.Table) -> pa.Table:
        by_src: dict[str, set] = {}
        for src, toks in zip(batch["source"].to_pylist(),
                             token_lists(batch, lower=True)):
            by_src.setdefault(src, set()).update(toks)
        srcs, buckets, rhos = [], [], []
        for src, toks in by_src.items():
            regs = _hll_registers(toks)
            srcs.extend([src] * len(regs))
            buckets.extend(regs.keys())
            rhos.extend(regs.values())
        return pa.Table.from_pydict(
            {"source": pa.array(srcs, pa.string()),
             "bucket": pa.array(buckets, pa.int64()),
             "rho": pa.array(rhos, pa.int64())})

    merged = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["source", "bucket"])
              .aggregate(Max("rho", alias_name="rho")))
    df = _vocab_pandas(merged, "source_hll",
                       empty_cols={"source": "object", "bucket": "int64",
                                   "rho": "int64"})
    out = {"source": [], "n_buckets_set": [], "max_rho": [],
           "estimate_distinct": []}
    for src, g in df.groupby("source", sort=True):  # one pass, not G scans
        regs = {int(b): int(r) for b, r in zip(g["bucket"], g["rho"])}
        out["source"].append(src)
        out["n_buckets_set"].append(len(regs))
        out["max_rho"].append(max(regs.values()))
        out["estimate_distinct"].append(_hll_estimate(regs))
    return ray.data.from_arrow(pa.Table.from_pydict({
        "source": pa.array(out["source"], pa.string()),
        "n_buckets_set": pa.array(out["n_buckets_set"], pa.int64()),
        "max_rho": pa.array(out["max_rho"], pa.int64()),
        "estimate_distinct": pa.array(out["estimate_distinct"],
                                      pa.float64()),
    }))
