"""Pins the measured data-dependent properties that the SQL oracles rely
on, so corpus or scale-factor drift fails loudly in pytest instead of
only in the driver sweep (round-2 ADVICE):

* dmerged / dhtml closed form — the deterministic families' engine
  output equals the SQL-predicted expression on every shipped document
  (this is also the independent serial check on the subsegmentation
  path A5-A10 and the HTML extraction front-end);
* MinHash banding recall — the LSH candidate set contains every
  ground-truth Jaccard >= 0.6 pair (MINHASH_NEAR_DUPS_SQL compares the
  engine against an ALL-pairs oracle, valid only at recall 1.0);
* planted embedding pairs sit within signature Hamming distance <= 2
  (the multiprobe rule of embedding_near_dups collides exactly those),
  and no plane dot product lands on the sign boundary (KNN_LSH_SQL
  recomputes signs with its own float ops).

All checks are serial/pure-python (no Ray session needed) and run at
sf0.001 AND sf0.01 — the two sizes the driver judges.  sf0.1 was
verified once by hand for dmerged (5000/5000 exact) and is covered by
the bench run.
"""

import itertools
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

SF_DIRS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]


def _docs(sf_dir):
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return t["doc_id"].to_pylist(), t["text"].to_pylist()


@pytest.mark.parametrize("sf_dir", SF_DIRS)
class TestDeterministicFamilyClosedForm:
    def test_dmerged_output_is_underscore_form(self, sf_dir):
        from nmalign_ray.corpus import _underscore, corpus_from_documents
        from nmalign_ray.document import process_document
        from nmalign_ray.schema import EngineConfig

        cfg = EngineConfig()
        dids, texts = _docs(sf_dir)
        corp = corpus_from_documents(texts, dids, families=("dmerged",))
        merged_cands = 0
        for spans, refs in zip(
            corp["spans"].to_pylist(), corp["ref_spans"].to_pylist()
        ):
            merged_cands += sum(1 for s in spans if s["text"].startswith("[["))
            out, _ = process_document(spans, refs, cfg.align, cfg.salt_threshold)
            expect = [
                {"kind": "text", "text": _underscore(r["text"]),
                 "media_ref": "", "offset": r["offset"]}
                for r in refs
            ]
            assert out == expect
        # the family must actually exercise the split path, not degrade
        # to all-standalone chunks
        assert merged_cands >= corp.num_rows * 0.5

    def test_dpdf_wrap_reversal_and_output_is_glyph_form(self, sf_dir):
        from nmalign_ray.corpus import corpus_from_documents, glyph_noise
        from nmalign_ray.document import process_document
        from nmalign_ray.extract.pdf import parse_pdf_text
        from nmalign_ray.schema import EngineConfig

        cfg = EngineConfig()
        dids, texts = _docs(sf_dir)
        corp = corpus_from_documents(texts, dids, families=("dpdf",))
        hyphenated = 0
        for spans, refs in zip(
            corp["spans"].to_pylist(), corp["ref_spans"].to_pylist()
        ):
            noisy = [glyph_noise(r["text"], None) for r in refs]
            # the wrap must be EXACTLY reversed by the pdf parse — the
            # property that makes EXTRACT_ALIGN_PDF_SQL a valid twin
            assert parse_pdf_text(spans[0]["text"]) == noisy
            hyphenated += spans[0]["text"].count("⸗\n")
            out, _ = process_document(spans, refs, cfg.align, cfg.salt_threshold)
            expect = [
                {"kind": "pdf", "text": n, "media_ref": "", "offset": r["offset"]}
                for r, n in zip(refs, noisy)
            ]
            assert out == expect
        # the family must actually exercise dehyphenation, not degrade
        # to plain line breaks (measured: 171 hyphenated wraps / 500
        # docs at sf0.001 — long words are a minority of the vocabulary)
        assert hyphenated >= corp.num_rows * 0.2

    def test_dhtml_output_is_glyph_form_with_minlen_drop(self, sf_dir):
        from nmalign_ray.corpus import corpus_from_documents, glyph_noise
        from nmalign_ray.document import process_document
        from nmalign_ray.extract.html import MIN_BLOCK_CHARS
        from nmalign_ray.schema import EngineConfig

        cfg = EngineConfig()
        dids, texts = _docs(sf_dir)
        corp = corpus_from_documents(texts, dids, families=("dhtml",))
        for spans, refs in zip(
            corp["spans"].to_pylist(), corp["ref_spans"].to_pylist()
        ):
            out, _ = process_document(spans, refs, cfg.align, cfg.salt_threshold)
            expect = [
                {"kind": "html", "text": glyph_noise(r["text"], None),
                 "media_ref": "", "offset": r["offset"]}
                for r in refs
                if len(glyph_noise(r["text"], None)) >= MIN_BLOCK_CHARS
            ]
            assert out == expect


    def test_dpermuted_swap_resolves_to_glyph_form(self, sf_dir):
        # the swap must actually happen (two longest input texts traded)
        # AND the alignment must resolve the crossing so the output per
        # ref chunk is its own glyph-noised text — the closed form the
        # flagship oracle's key%10==6 branch relies on
        from nmalign_ray.corpus import corpus_from_documents, glyph_noise
        from nmalign_ray.document import process_document
        from nmalign_ray.schema import EngineConfig

        cfg = EngineConfig()
        dids, texts = _docs(sf_dir)
        corp = corpus_from_documents(texts, dids, families=("dpermuted",))
        swapped = 0
        for spans, refs in zip(
            corp["spans"].to_pylist(), corp["ref_spans"].to_pylist()
        ):
            in_order = [s["text"] for s in spans]
            ref_glyph = [glyph_noise(r["text"], None) for r in refs]
            if in_order != ref_glyph:
                swapped += 1
            out, _ = process_document(spans, refs, cfg.align,
                                      cfg.salt_threshold)
            expect = [
                {"kind": "text", "text": g, "media_ref": "",
                 "offset": r["offset"]}
                for g, r in zip(ref_glyph, refs)
            ]
            assert out == expect
        assert swapped >= corp.num_rows * 0.9  # the twist is real

    def test_dmedia_dshort_dempty_twists(self, sf_dir):
        from nmalign_ray.corpus import corpus_from_documents, glyph_noise
        from nmalign_ray.document import process_document
        from nmalign_ray.schema import EngineConfig

        cfg = EngineConfig()
        dids, texts = _docs(sf_dir)
        # dmedia: glyph rows + one media marker row per document
        corp = corpus_from_documents(texts, dids, families=("dmedia",))
        for did, spans, refs in zip(
            corp["doc_id"].to_pylist(), corp["spans"].to_pylist(),
            corp["ref_spans"].to_pylist()
        ):
            out, _ = process_document(spans, refs, cfg.align,
                                      cfg.salt_threshold)
            media_rows = [o for o in out if o["media_ref"]]
            assert media_rows == [{
                "kind": "image", "text": "",
                "media_ref": f"media://{did}/0",
                "offset": len(refs) - 1}]
            texts_out = [o["text"] for o in out if not o["media_ref"]]
            assert texts_out == [glyph_noise(r["text"], None)
                                 for r in refs if r["kind"] == "text"]
        # dshort: the counterpart-less short ref is omitted; dempty: the
        # whitespace input span is filtered — both reduce to glyph rows
        for fam, extra_side in (("dshort", "ref"), ("dempty", "input")):
            corp = corpus_from_documents(texts, dids, families=(fam,))
            for spans, refs in zip(
                corp["spans"].to_pylist(), corp["ref_spans"].to_pylist()
            ):
                if extra_side == "ref":
                    assert refs[-1]["text"] == "N."
                    text_refs = refs[:-1]
                else:
                    assert spans[-1]["text"].strip() == ""
                    text_refs = refs
                out, metrics = process_document(spans, refs, cfg.align,
                                                cfg.salt_threshold)
                expect = [
                    {"kind": "text", "text": glyph_noise(r["text"], None),
                     "media_ref": "", "offset": r["offset"]}
                    for r in text_refs
                ]
                assert out == expect
                if extra_side == "ref":
                    # the counterpart-less short ref stays unmatched
                    assert metrics["matched"] == metrics["total"] - 1
                # (the dempty whitespace span is dropped by the classify
                # filter BEFORE alignment, so it is not an unmatched
                # candidate — its absence from `out` is the check)


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_minhash_banding_recall_is_exact(sf_dir):
    """Every ground-truth Jaccard >= 0.6 pair collides in at least one
    band — the property that makes MINHASH_NEAR_DUPS_SQL (an all-pairs
    oracle) a valid twin of the banded engine."""
    from nmalign_ray.functions.dedup import (
        banding_candidates,
        jaccard,
        shingle_set,
    )

    dids, texts = _docs(sf_dir)
    sh = {d: shingle_set(t) for d, t in zip(dids, texts) if t.strip()}
    truth = {
        (a, b)
        for a, b in itertools.combinations(sorted(sh), 2)
        if jaccard(sh[a], sh[b]) >= 0.6
    }
    cands = banding_candidates(dids, texts)
    missed = truth - cands
    assert not missed, f"banding missed {len(missed)} true pairs: {sorted(missed)[:5]}"
    assert truth, "fixture drift: no ground-truth near-dup pairs at all"


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_planted_pairs_within_multiprobe_reach(sf_dir):
    """Each planted near-dup pair's signatures differ by <= 2 bits (the
    1-bit-flip multiprobe collides Hamming <= 2), and no embedding's
    plane dot product sits on the sign boundary (KNN_LSH_SQL recomputes
    the signs in DuckDB float ops)."""
    from nmalign_ray.functions.simsearch import (
        NEARDUP_PLANT_COUNT,
        NEARDUP_PLANT_DELTA,
        _normalize_rows,
        _planes,
        _signatures,
    )

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = np.asarray(t["vec_id"].to_pylist())
    mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    planes = _planes(mat.shape[1])

    # sign margin: smallest |dot| across all (vector, plane) pairs, on
    # the normalized rows the engine signs
    norm = _normalize_rows(mat)
    dots = norm @ planes
    assert np.min(np.abs(dots)) > 1e-9, "a dot product sits on the sign boundary"

    order = np.argsort(ids)
    base = norm[order][: NEARDUP_PLANT_COUNT]
    planted_raw = mat[order][: NEARDUP_PLANT_COUNT].copy()
    planted_raw[:, 0] += NEARDUP_PLANT_DELTA
    planted = _normalize_rows(planted_raw)
    s_base = _signatures(base, planes)
    s_plant = _signatures(planted, planes)
    ham = np.array(
        [bin(int(a) ^ int(b)).count("1") for a, b in zip(s_base, s_plant)]
    )
    assert ham.max() <= 2, f"planted pair beyond multiprobe reach: {ham.max()} bits"


def test_oracle_output_types_are_driver_safe():
    """Round-4 root cause: the driver's value-hasher serializes DuckDB
    HUGEINT (un-cast sum() over BIGINT) differently from BIGINT, turning
    value-exact queries red (VERDICT r4 §What's wrong 1).  Gate: type every
    oracle's relation at sf0.001 and assert the output columns stay inside
    the set of types that has been empirically hash-green in rounds 1-4.
    DECIMAL and HUGEINT are banned outright (DECIMAL literals were green
    but fragile; both now carry explicit CASTs)."""
    import duckdb

    import __ray_entry__ as entrymod

    safe = {
        "BIGINT",
        "INTEGER",
        "DOUBLE",
        "VARCHAR",
        "BOOLEAN",
        "TIMESTAMP",
        "UBIGINT",
    }
    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem "
        "events documents embeddings"
    ).split():
        p = os.path.join(sf, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    offenders = {}
    for name, sql in entrymod.oracle_sql().items():
        rel = con.sql(sql)
        bad = [
            (c, str(ty))
            for c, ty in zip(rel.columns, rel.types)
            if str(ty) not in safe
        ]
        if bad:
            offenders[name] = bad
    assert not offenders, f"oracle columns outside the hash-safe type set: {offenders}"


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_no_doc_exceeds_salt_threshold(sf_dir):
    """The family verification queries substitute per-block LOCAL
    reassembly for the shuffle, which is output-identical ONLY while
    every derived doc is a single unsalted chunk row (a doc whose
    candidate-span count exceeds the salt threshold would be split into
    multiple chunk rows that the aligner's batching can scatter across
    blocks, fragmenting its output).  Pin that invariant at the
    driver-judged scale factors instead of leaving it A/B'd-once
    (round-4 ADVICE item 3)."""
    from nmalign_ray.corpus import DETERMINISTIC_FAMILIES, corpus_from_documents
    from nmalign_ray.extract import classify_spans
    from nmalign_ray.schema import EngineConfig

    SALT_THRESHOLD = EngineConfig().salt_threshold  # guard the LIVE default
    ids, texts = _docs(sf_dir)
    t = corpus_from_documents(texts, ids, families=DETERMINISTIC_FAMILIES)
    worst = 0
    for spans in t["spans"].to_pylist():
        spans = spans or []
        candidates, _ = classify_spans(
            [s["kind"] for s in spans],
            [s["text"] for s in spans],
            [s["media_ref"] for s in spans],
            [s["offset"] for s in spans],
        )
        worst = max(worst, len(candidates))
    assert worst < SALT_THRESHOLD, (
        f"a derived doc has {worst} candidate spans >= salt threshold "
        f"{SALT_THRESHOLD}: the local-reassembly substitution in "
        "_extract_query is no longer output-identical at this scale")


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_no_divergent_whitespace(sf_dir):
    """The shipped documents hold no whitespace on which ``str.split()``
    and RE2's ``\\s`` disagree (``\\v``, NBSP, the Unicode spaces) and no
    non-space whitespace at an edge.  The text twins no longer rely on
    this: both sides tokenize through ``nmalign_ray/tokens.py``, and
    ``tests/test_tokens.py`` checks them on arbitrary text.  This pins
    only what the fixture corpus is."""
    import pyarrow.parquet as pq

    safe_ws = set(" \t\n\r\f")  # in BOTH python-split and RE2 \s
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["text"])
    for s in t["text"].to_pylist():
        if not s:
            continue
        exotic = {ch for ch in s if ch.isspace() and ch not in safe_ws}
        assert not exotic, (
            f"documents.text contains whitespace {exotic!r} where python "
            "and RE2/DuckDB tokenization diverge — text oracles unsafe")
        assert not (s[0].isspace() and s[0] != " "), (
            "leading non-space whitespace: DuckDB trim() vs python strip() "
            "diverge")
        assert not (s[-1].isspace() and s[-1] != " "), (
            "trailing non-space whitespace: DuckDB trim() vs python "
            "strip() diverge")
