"""Deterministic synthetic corpus generator (seeded; no external data).

Builds interleaved text+media documents in the ``input_hint`` shape
(``doc_id``, ``spans``, ``ref_spans``) covering the fixture families of
FIXTURES.md §4, which lift the reference's test corpus shape (~20-60
lines/page, 4 pages, seeded sampling — ``/root/reference/tests/conftest.py:35-39``)
and its noise model (historical-orthography glyphs + confusables —
``/root/reference/tests/test_all.py:16-26``) to span granularity.

Corruption channels:

* glyph noise — the REVERSE of the engine's default normalization map
  (``s→ſ``, umlaut → base + combining U+0364, ``-``→``⸗``), so
  normalization is genuinely exercised and fully reverses it;
* residual noise — OCR confusables (``e→c``, ``o→0``, ``m→rn``, ...)
  that normalization can NOT undo, so scores land in (0, 1) and merged
  segments keep non-zero split-edge weights (see the csr zero-drop quirk
  in ``align/core.py``).

Everything derives from ``numpy.random.default_rng(seed + doc_index)`` —
regenerating any single document is independent of the others, which is
what makes the generator shardable inside Ray at scale.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from .schema import CORPUS_SCHEMA

GLYPH_NOISE = [
    ("s", "ſ"),
    ("ä", "aͤ"),
    ("ö", "oͤ"),
    ("ü", "uͤ"),
    ("Ä", "Aͤ"),
    ("Ö", "Oͤ"),
    ("Ü", "Uͤ"),
]
RESIDUAL_NOISE = {"e": "c", "o": "0", "m": "rn", "n": "u", "i": "l", "t": "f"}

_WORDS = (
    "der die das und ist ein eine mit von aus auf für über unter nach bei "
    "mensch welt zeit jahr leben hand werk stadt land wasser licht nacht tag "
    "aufklärung unmündigkeit verstand mut wahlspruch ausgang leitung süß schön "
    "größe übermut wörter bücher geist freiheit vernunft gesetz natur kunst"
).split()

FAMILIES = (
    "identity", "noised", "permuted", "merged", "short",
    "empty", "media", "html", "pdf", "mixed",
)

# The DEFAULT derived-corpus mix (corpus_from_documents): ten fully
# deterministic families — zero rng anywhere — so the FLAGSHIP
# extract_align output has a closed SQL form and the driver can
# hash-verify it end to end (round-3 verdict item 3: the seeded-rng mix
# left the flagship as the one `no_oracle` row).  Behavioral coverage is
# a superset of the old rng mix: corruption (glyph / ocr), merge+split,
# both extraction front-ends, permutation, media passthrough,
# unmatched-ref and empty-filter paths.  The rng FAMILIES above remain
# for `generate_corpus` fixtures, where variety beats SQL-replayability.
DETERMINISTIC_FAMILIES = (
    "identity", "glyph", "ocr", "dmerged", "dhtml",
    "dpdf", "dpermuted", "dmedia", "dshort", "dempty",
)


def _sentence(rng: np.random.Generator, lo=5, hi=9) -> str:
    n = int(rng.integers(lo, hi + 1))
    words = [str(_WORDS[int(i)]) for i in rng.integers(0, len(_WORDS), n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def glyph_noise(s: str, rng: np.random.Generator) -> str:
    for plain, noisy in GLYPH_NOISE:
        s = s.replace(plain, noisy)
    return s


def ocr_noise(s: str) -> str:
    """Deterministic OCR confusables at rate 1.0: every ORIGINAL char is
    mapped once (no cascading — the 'n' inside 'rn' from 'm' stays)."""
    return "".join(RESIDUAL_NOISE.get(ch, ch) for ch in s)


def residual_noise(s: str, rng: np.random.Generator, rate: float = 0.05) -> str:
    out = []
    for ch in s:
        repl = RESIDUAL_NOISE.get(ch)
        if repl is not None and rng.random() < rate:
            out.append(repl)
        else:
            out.append(ch)
    return "".join(out)


def _corrupt(s: str, rng: np.random.Generator) -> str:
    return residual_noise(glyph_noise(s, rng), rng)


def _wrap_pdf(s: str, rng: np.random.Generator, width: int = 28) -> str:
    """Hard-wrap with hyphenation artifacts, reversed by extract.pdf."""
    out = []
    line_len = 0
    for word in s.split(" "):
        if line_len and line_len + 1 + len(word) > width:
            if len(word) > 6 and rng.random() < 0.5:
                cut = len(word) // 2
                hyphen = "⸗" if rng.random() < 0.5 else "-"
                out.append(" " + word[:cut] + hyphen + "\n" + word[cut:])
                line_len = len(word) - cut
            else:
                out.append("\n" + word)
                line_len = len(word)
        else:
            out.append((" " if line_len else "") + word)
            line_len += len(word) + (1 if line_len else 0)
    return "".join(out)


def _html_wrap(segments: list[str], rng: np.random.Generator) -> str:
    """Wrap main-content segments in markup plus nav/footer boilerplate."""
    nav_links = " | ".join(
        f'<a href="/{w}">{w}</a>'
        for w in ("home", "about", "archiv", "kontakt")[: int(rng.integers(2, 5))]
    )
    parts = [f"<div><nav>{nav_links}</nav>"]
    for seg in segments:
        parts.append(f"<p>{seg}</p>")
        if rng.random() < 0.3:
            parts.append('<div class="share"><a href="#">teilen</a> <a href="#">drucken</a></div>')
    parts.append("<footer>© 1784 impressum | <a href='/agb'>agb</a></footer></div>")
    return "".join(parts)


def make_document(doc_index: int, family: str, seed: int = 42,
                  n_segments: tuple[int, int] = (5, 14)):
    """Build one document: returns ``(doc_id, spans, ref_spans)`` where each
    span is a dict ``{kind, text, media_ref, offset}``."""
    rng = np.random.default_rng(seed * 1_000_003 + doc_index)
    nseg = int(rng.integers(*n_segments))
    doc_id = f"doc-{family}-{doc_index:06d}"

    ref_texts = [_sentence(rng) for _ in range(nseg)]
    ref_spans: list[dict] = []
    spans: list[dict] = []
    offset = 0

    def ref(kind, text, media_ref=""):
        nonlocal offset
        ref_spans.append({"kind": kind, "text": text, "media_ref": media_ref,
                          "offset": offset})
        offset += 1
        return offset - 1

    def inp(kind, text, media_ref="", at=None):
        spans.append({"kind": kind, "text": text, "media_ref": media_ref,
                      "offset": offset if at is None else at})

    corrupt = (lambda s: s) if family == "identity" else (lambda s: _corrupt(s, rng))

    i = 0
    while i < nseg:
        t = ref_texts[i]
        if family == "media" and rng.random() < 0.3:
            mref = f"media://{doc_id}/{i}"
            kind = "image" if rng.random() < 0.7 else "audio"
            at = ref(kind, "", mref)
            inp(kind, "", mref, at=at)
            # media spans replace a text slot; keep the text too
        if family == "merged" and i + 1 < nseg and rng.random() < 0.6:
            k = min(int(rng.integers(2, 5)), nseg - i)
            group = ref_texts[i : i + k]
            ats = [ref("text", g) for g in group]
            merged = corrupt(" ".join(group))
            inp("text", merged, at=ats[0])
            i += k
            continue
        if family == "html" and i + 1 < nseg and rng.random() < 0.7:
            k = min(int(rng.integers(2, 5)), nseg - i)
            group = [corrupt(g) for g in ref_texts[i : i + k]]
            ats = [ref("html", g) for g in ref_texts[i : i + k]]
            inp("html", _html_wrap(group, rng), at=ats[0])
            i += k
            continue
        if family == "pdf" and i + 1 < nseg and rng.random() < 0.7:
            k = min(int(rng.integers(2, 4)), nseg - i)
            group = [corrupt(g) for g in ref_texts[i : i + k]]
            ats = [ref("pdf", g) for g in ref_texts[i : i + k]]
            inp("pdf", "\n\n".join(_wrap_pdf(g, rng) for g in group), at=ats[0])
            i += k
            continue
        if family == "short" and rng.random() < 0.25:
            ref("text", str(_WORDS[int(rng.integers(0, len(_WORDS)))])[:2] + ".")
            # no input counterpart: legitimate unmatched (-1)
            i += 0  # falls through to also emit the normal segment
        if family == "empty" and rng.random() < 0.25:
            inp("text", "   ", at=offset)  # whitespace-only: filtered out
        at = ref("text", t)
        inp("text", corrupt(t), at=at)
        i += 1

    if family == "media" and not any(s["media_ref"] for s in spans):
        # guarantee at least one media marker per media-family doc
        mref = f"media://{doc_id}/tail"
        at = ref("image", "", mref)
        inp("image", "", mref, at=at)

    if family == "permuted":
        # swap the text of 1-3 adjacent input span pairs (offsets untouched)
        for _ in range(int(rng.integers(1, 4))):
            if len(spans) < 2:
                break
            j = int(rng.integers(0, len(spans) - 1))
            spans[j]["text"], spans[j + 1]["text"] = (
                spans[j + 1]["text"], spans[j]["text"])

    if family == "mixed":
        # noised base plus a whitespace span and one short ref
        inp("text", " \t ", at=offset)
        ref("text", "N.")
    return doc_id, spans, ref_spans


def make_skewed_document(doc_index: int, seed: int, n_spans: int):
    """One document with ``n_spans`` 1:1 noised segments (exercises the
    salting path; content is globally unique per line so chunk-local
    alignment equals whole-document alignment)."""
    rng = np.random.default_rng(seed * 2_000_003 + doc_index)
    doc_id = f"doc-skewed-{doc_index:06d}"
    spans, ref_spans = [], []
    for k in range(n_spans):
        t = f"zeile {k:05d} " + _sentence(rng)
        ref_spans.append({"kind": "text", "text": t, "media_ref": "", "offset": k})
        spans.append({"kind": "text", "text": _corrupt(t, rng), "media_ref": "",
                      "offset": k})
    return doc_id, spans, ref_spans


def generate_corpus(
    num_docs: int = 100,
    seed: int = 42,
    families: tuple[str, ...] = FAMILIES,
    skewed_spans: int = 0,
) -> pa.Table:
    """Deterministic fixture corpus as one Arrow table (CORPUS_SCHEMA)."""
    doc_ids, all_spans, all_refs = [], [], []
    for d in range(num_docs):
        family = families[d % len(families)]
        doc_id, spans, refs = make_document(d, family, seed=seed)
        doc_ids.append(doc_id)
        all_spans.append(spans)
        all_refs.append(refs)
    if skewed_spans:
        doc_id, spans, refs = make_skewed_document(num_docs, seed, skewed_spans)
        doc_ids.append(doc_id)
        all_spans.append(spans)
        all_refs.append(refs)
    return pa.Table.from_pydict(
        {"doc_id": doc_ids, "spans": all_spans, "ref_spans": all_refs},
        schema=CORPUS_SCHEMA,
    )


_SENT_SPLIT = re.compile(r"(?<=[.!?]) +")

# ---------------------------------------------------------------------------
# Deterministic oracle families (no rng anywhere): their expected RAW
# pipeline output has a closed SQL form, giving the driver hash-exact
# end-to-end checks over machinery that seeded noise cannot pin down.

DMERGED_GROUP = 3  # chunks per merge group
# the last chunk of a document may be short (< 8 words); keep it out of
# merge groups unless it is long enough that every subsegmentation
# trigger bound holds with margin (len(seg2) - len(seg1) > 10 needs the
# OTHER group members to contribute > 10 chars — reference trigger at
# /root/reference/nmalign/lib/align.py:116-124)
DMERGED_TAIL_MIN = 15


def _underscore(seg: str) -> str:
    """Replace EVERY space with '_' — the deterministic corruption of the
    dmerged family.  Properties that make the split path's output exactly
    predictable:

    * length-preserving and interior (never the first/last char), so the
      engine's windowed local alignment (``fuzzy/partial.py``) finds the
      exact chunk window: Indel distance = 2·(number of spaces), strictly
      better than any shifted window, and the DAG edge cost is nonzero —
      the reference's csr zero-drop quirk (perfect matches lose their
      split edge, ``align.py:208-211``) never bites;
    * heavy enough that FOREIGN reference chunks (same small vocabulary)
      fall below the ``PARTIAL_ACC_MIN=50`` candidate screen (observed
      ~51-60 against plain chunks, ~36-45 against all-underscore chunks),
      so no foreign edge can overwrite a chunk's cell in the dense DAG
      matrix (the reference overwrites dense-matrix style,
      ``align.py:208-211`` — an equal-length foreign window on the exact
      cell would destroy the chunk's edge);
    * not undone by NFKC or the default normalization map, so processed
      window positions equal raw slice positions.

    SQL twin: ``replace(seg, ' ', '_')`` (global)."""
    return seg.replace(" ", "_")


def _dmerged_spans(segs: list[str]):
    """Spans/refs of the deterministic merged family: chunks are grouped
    in runs of ``DMERGED_GROUP`` and joined with ' ' after per-chunk
    ``_underscore`` corruption; leftover / short-tail chunks stay 1:1.

    This is the independent hash oracle for the subsegmentation path
    A5-A10 (reference ``match_subseg``,
    ``/root/reference/nmalign/lib/align.py:168-243``): the engine must
    split every merged candidate back into per-chunk raw slices
    ``seg2[beg:end]`` — and because every slice equals the corrupted
    chunk exactly, the expected output text per reference chunk is
    ``_underscore(chunk)`` REGARDLESS of the grouping, so the SQL oracle
    needs no grouping logic at all."""
    from collections import Counter

    refs = [
        {"kind": "text", "text": s, "media_ref": "", "offset": k}
        for k, s in enumerate(segs)
    ]
    len_counts = Counter(len(s) for s in segs)

    def _merge_eligible(s: str) -> bool:
        # Data-only structural rules that make the split outcome exactly
        # predictable (each blocks an observed failure mode of the
        # reference's dense-matrix DAG insert, ``align.py:208-211``;
        # ineligible chunks simply stay 1:1, which leaves the expected
        # output text unchanged):
        # * space + min length: every subsegmentation trigger bound
        #   (``align.py:116-124``) holds with margin for any seed row;
        # * UNIQUE length within the document: a foreign ref can only
        #   overwrite a chunk's DAG cell with a full window of exactly
        #   the chunk's width, i.e. only when two chunks share a length
        #   (prefix/suffix windows are blocked by the bracket guards);
        # * multi-char first/last words: a single-char boundary word can
        #   tie the exact window with a +-2-shifted one, and the FIRST
        #   window in rapidfuzz's enumeration order wins ties.
        words = s.split(" ")
        return (
            " " in s
            and len(s) >= DMERGED_TAIL_MIN
            and len_counts[len(s)] == 1
            and len(words[0]) >= 2
            and len(words[-1]) >= 2
        )

    word_seqs = [s.split(" ") for s in segs]

    def _boundary_hazard(a_words: list[str], b_words: list[str]) -> bool:
        # A chunk C's word sequence reproduced straddling the (A, B)
        # boundary — suffix of A's words + prefix of B's words — would
        # give C's needle a window at/above its own cell's score: the
        # separator space matches one of C's real spaces, so a full
        # reproduction scores ABOVE the own cell (and a perfect 2-word
        # reproduction scores exactly 100, whose zero-cost DAG edge the
        # csr zero-drop quirk then deletes — observed: a doc whose chunk
        # 'customer customer' straddled a boundary ending in 'customer').
        # Close the group before B whenever any chunk could straddle.
        for cw in word_seqs:
            k = len(cw)
            if k < 2:
                continue
            for i_split in range(1, k):
                if (
                    i_split <= len(a_words)
                    and k - i_split <= len(b_words)
                    and a_words[-i_split:] == cw[:i_split]
                    and b_words[: k - i_split] == cw[i_split:]
                ):
                    return True
        return False

    spans = []
    i = 0
    n = len(segs)
    while i < n:
        j = i
        while (
            j < n
            and j - i < DMERGED_GROUP
            and _merge_eligible(segs[j])
            and (j == i or not _boundary_hazard(word_seqs[j - 1], word_seqs[j]))
        ):
            j += 1
        if j - i >= 2:
            # bracket guards keep every chunk's exact window cell away
            # from positions 0 and len(body), so foreign prefix (0, j) /
            # suffix (s, end) windows can never land on — and overwrite —
            # the first / last chunk's cell
            body = "[[ " + " ".join(_underscore(s) for s in segs[i:j]) + " ]]"
            spans.append({"kind": "text", "text": body, "media_ref": "",
                          "offset": i})
            i = j
        else:
            spans.append({"kind": "text", "text": _underscore(segs[i]),
                          "media_ref": "", "offset": i})
            i += 1
    return spans, refs


def _dhtml_wrap(segments: list[str]) -> str:
    """Deterministic HTML wrap: fixed nav chrome, one <p> per segment, a
    link-farm share block after every third paragraph, footer chrome —
    every boilerplate heuristic of ``extract/html.py`` (chrome containers,
    link density, min block length) is exercised with zero randomness."""
    nav = (
        '<nav><a href="/home">home</a> | <a href="/about">about</a> | '
        '<a href="/archiv">archiv</a> | <a href="/kontakt">kontakt</a></nav>'
    )
    parts = ["<div>", nav]
    for k, seg in enumerate(segments):
        parts.append(f"<p>{seg}</p>")
        if k % 3 == 2:
            parts.append(
                '<div class="share"><a href="#">teilen</a> '
                '<a href="#">drucken</a></div>'
            )
    parts.append("<footer>© 1784 impressum | <a href='/agb'>agb</a></footer>")
    parts.append("</div>")
    return "".join(parts)


def _dhtml_spans(segs: list[str]):
    """Spans/refs of the deterministic html family: ONE html span wraps
    every glyph-noised chunk of the document in boilerplate markup (the
    north rule's "HTML boilerplate strip" front-end slot, reference
    cascade ``/root/reference/nmalign/ocrd/cli.py:194-218``).  The
    extractor must strip the chrome and recover the per-chunk blocks;
    normalization reverses the glyph noise so every block matches its
    reference chunk 1:1 at score 1.0 and the emitted RAW text is the
    glyph-noised chunk — a nested SQL replace.  Blocks shorter than
    ``MIN_BLOCK_CHARS`` (10) are dropped by the extractor, so such
    chunks come back unmatched and are omitted — the SQL filter
    mirrors this with ``len(noised) >= 10``."""
    refs = [
        {"kind": "html", "text": s, "media_ref": "", "offset": k}
        for k, s in enumerate(segs)
    ]
    noisy = [glyph_noise(s, None) for s in segs]
    spans = [
        {"kind": "html", "text": _dhtml_wrap(noisy), "media_ref": "", "offset": 0}
    ]
    return spans, refs


def _dpdf_wrap(s: str, width: int = 28) -> str:
    """Deterministic hard-wrap with hyphenation artifacts — the zero-rng
    counterpart of ``_wrap_pdf`` whose reversal by ``extract/pdf.py``
    (``parse_pdf_text``) is EXACT:

    * words longer than 6 chars that overflow the line are always cut at
      ``len//2`` with the historic ``⸗`` hyphen — the parse's
      ``[-⸗]\\n`` join restores the word bit-for-bit;
    * shorter overflowing words break to a new line — the parse's
      ``" *\\n *" -> " "`` collapse restores the single separator space;
    * a line is never broken right after a word ending in ``-``/``⸗``
      (the join regex would swallow that char): the word overflows the
      line instead, keeping the reversal exact for arbitrary vocabulary.

    Input invariant (holds for all corpus chunks: whitespace-split words
    joined with single spaces): single-space separators, no newlines —
    so ``parse_pdf_text(_dpdf_wrap(s)) == [s]`` for every chunk."""
    out: list[str] = []
    line_len = 0
    for word in s.split(" "):
        if not line_len or line_len + 1 + len(word) <= width:
            out.append((" " if line_len else "") + word)
            line_len += len(word) + (1 if line_len else 0)
        elif out[-1][-1:] in ("-", "⸗"):
            out.append(" " + word)
            line_len += len(word) + 1
        elif len(word) > 6:
            cut = len(word) // 2
            out.append(" " + word[:cut] + "⸗\n" + word[cut:])
            line_len = len(word) - cut
        else:
            out.append("\n" + word)
            line_len = len(word)
    return "".join(out)


def _dpdf_spans(segs: list[str]):
    """Spans/refs of the deterministic pdf family: ONE pdf span carries
    every glyph-noised chunk, hard-wrapped with hyphenation artifacts and
    joined by blank lines (the north rule's "PDF layout-order parse"
    front-end slot, reference cascade
    ``/root/reference/nmalign/ocrd/cli.py:194-218``).  The extractor's
    paragraph split + dehyphenation + line-break collapse
    (``extract/pdf.py``) recovers the glyph-noised chunks exactly;
    normalization reverses the noise so every chunk matches its reference
    1:1 at score 1.0 and the emitted RAW text is the glyph-noised chunk —
    a nested SQL replace, no length filter (pdf parsing keeps every
    non-empty paragraph, unlike the html extractor's MIN_BLOCK_CHARS)."""
    refs = [
        {"kind": "pdf", "text": s, "media_ref": "", "offset": k}
        for k, s in enumerate(segs)
    ]
    noisy = [glyph_noise(s, None) for s in segs]
    spans = [
        {"kind": "pdf", "text": "\n\n".join(_dpdf_wrap(c) for c in noisy),
         "media_ref": "", "offset": 0}
    ]
    return spans, refs


def corpus_from_documents(texts, doc_ids, seed: int = 42,
                          families: tuple[str, ...] = DETERMINISTIC_FAMILIES
                          ) -> pa.Table:
    """Derive an interleaved corpus from an existing documents table: each
    source text is segmented into sentences (the ref segmentation), then
    corrupted/restructured per fixture family — deterministic per doc_id.
    The default mix is DETERMINISTIC_FAMILIES (rng-free, SQL-replayable);
    rng families (noised/merged/html/pdf/permuted/media) remain available
    by passing them explicitly."""
    from .hashing import crc32_u32
    from .tokens import token_lists

    texts = list(texts)
    out_ids, all_spans, all_refs = [], [], []
    for text, did, words in zip(texts, doc_ids, token_lists(texts)):
        try:
            key = int(did)
        except (TypeError, ValueError):
            key = int(crc32_u32([did])[0])
        rng = np.random.default_rng(seed * 3_000_017 + key)
        # family keyed on doc_id (NOT list position) so generation is
        # invariant to batch boundaries when distributed via map_batches
        family = families[key % len(families)]
        segs = [s for s in _SENT_SPLIT.split(text) if s.strip()]
        # word-salad documents have no sentence marks: chunk by tokens
        if len(segs) <= 1:
            segs = [" ".join(words[i : i + 8]) for i in range(0, len(words), 8)]
        if not segs:
            continue
        if family == "dmerged":
            spans, ref_spans = _dmerged_spans(segs)
            out_ids.append(f"doc-{did}")
            all_spans.append(spans)
            all_refs.append(ref_spans)
            continue
        if family == "dhtml":
            spans, ref_spans = _dhtml_spans(segs)
            out_ids.append(f"doc-{did}")
            all_spans.append(spans)
            all_refs.append(ref_spans)
            continue
        if family == "dpdf":
            spans, ref_spans = _dpdf_spans(segs)
            out_ids.append(f"doc-{did}")
            all_spans.append(spans)
            all_refs.append(ref_spans)
            continue
        ref_spans, spans = [], []
        i = 0
        while i < len(segs):
            if family in ("merged", "html", "pdf") and i + 1 < len(segs) and rng.random() < 0.6:
                kmax = {"merged": 5, "html": 5, "pdf": 4}[family]
                kk = min(int(rng.integers(2, kmax)), len(segs) - i)
                group = segs[i : i + kk]
                base = len(ref_spans)
                kind = "text" if family == "merged" else family
                for g in group:
                    ref_spans.append({"kind": kind, "text": g, "media_ref": "",
                                      "offset": len(ref_spans)})
                noisy = [_corrupt(g, rng) for g in group]
                if family == "merged":
                    body = " ".join(noisy)
                elif family == "html":
                    body = _html_wrap(noisy, rng)
                else:
                    body = "\n\n".join(_wrap_pdf(g, rng) for g in noisy)
                spans.append({"kind": kind, "text": body, "media_ref": "",
                              "offset": base})
                i += kk
                continue
            # "glyph": deterministic historical-glyph noise ONLY (no rng)
            # — normalization reverses it exactly, so the expected RAW
            # output (glyph-noised segments, score 100, 1:1 order) is a
            # nested-replace away from SQL, giving the alignment path a
            # hash-verifiable non-identity oracle family.
            # "ocr": deterministic rate-1.0 OCR confusables (per ORIGINAL
            # char, so 'm'->'rn' does not cascade into 'n'->'u') —
            # normalization can NOT reverse these, so scores land below
            # 1.0 and the greedy assignment is exercised for real, yet
            # the expected output stays SQL-reconstructible (nested
            # replace with 'n'->'u' applied first)
            corrupt = (
                (lambda s: s) if family == "identity"
                else (lambda s: glyph_noise(s, rng))
                if family in ("glyph", "dpermuted", "dmedia", "dshort",
                              "dempty")
                else ocr_noise if family == "ocr"
                else (lambda s: _corrupt(s, rng))
            )
            ref_spans.append({"kind": "text", "text": segs[i], "media_ref": "",
                              "offset": len(ref_spans)})
            spans.append({"kind": "text", "text": corrupt(segs[i]), "media_ref": "",
                          "offset": len(ref_spans) - 1})
            i += 1
        if family == "permuted" and len(spans) >= 2:
            j = int(rng.integers(0, len(spans) - 1))
            spans[j]["text"], spans[j + 1]["text"] = spans[j + 1]["text"], spans[j]["text"]
        if family == "dpermuted" and len(spans) >= 2:
            # swap the texts of the TWO LONGEST input spans (ties broken
            # by position; offsets untouched).  Longest-first matters for
            # hash-exactness: the assignment loop picks cells in
            # (score + cov*mono) * len2 priority order, so a crossing
            # between the two longest candidates resolves within the
            # first few picks — while the coverage attenuation `cov` is
            # still ~0.04 — and no wrong cell can outrank a 1.0-scored
            # true pair (it would need score > 0.96).  A crossing
            # between mid-length spans would stay half-resolved (mono
            # bonus lost on the second cell) deep into the loop, where
            # cov~0.46 lets a ~0.55-scoring foreign cell steal the
            # column.  The expected OUTPUT is swap-independent: per ref
            # chunk, its own glyph-noised text.
            a, b = sorted(range(len(spans)),
                          key=lambda k: (-len(spans[k]["text"]), k))[:2]
            spans[a]["text"], spans[b]["text"] = (
                spans[b]["text"], spans[a]["text"])
        if family in ("media", "dmedia"):
            mref = f"media://doc-{did}/0"
            at = len(ref_spans)
            ref_spans.append({"kind": "image", "text": "", "media_ref": mref,
                              "offset": at})
            spans.append({"kind": "image", "text": "", "media_ref": mref,
                          "offset": at})
        if family == "dshort":
            # one short reference with NO input counterpart: stays
            # unmatched (reference O6) and is OMITTED from the output —
            # deterministic because every candidate is consumed by its
            # own 1.0-scored pair before this row could steal a column
            ref_spans.append({"kind": "text", "text": "N.", "media_ref": "",
                              "offset": len(ref_spans)})
        if family == "dempty":
            # one whitespace-only input span: dropped by the classify
            # empty-line filter (reference O4), counted unmatched_cands
            spans.append({"kind": "text", "text": "   ", "media_ref": "",
                          "offset": len(ref_spans)})
        out_ids.append(f"doc-{did}")
        all_spans.append(spans)
        all_refs.append(ref_spans)
    return pa.Table.from_pydict(
        {"doc_id": out_ids, "spans": all_spans, "ref_spans": all_refs},
        schema=CORPUS_SCHEMA,
    )
