r"""The tokenizer of ``nmalign_ray.tokens`` and its DuckDB twin agree on any
text, and so does every operator that tokenizes or normalizes
``documents.text``.

* Ray-free: each Python form (tokens, counts, lowercased tokens,
  ``norm_text``) against its SQL fragment, over arbitrary text; a null text
  fails with a ``ValueError`` that names its doc_id; the derived corpus's
  word chunks against ``EXTRACT_ALIGN_IDENTITY_SQL``; and a scan that no
  module but ``tokens.py`` splits text.
* One Ray session: every documents-only operator that tokenizes or
  normalizes, run by ``queries()`` on a drawn ``documents.parquet`` and
  compared with its ``oracle_sql()`` twin.

More examples of the Ray-free fuzz, locally:
``for s in $(seq 20); do python -m pytest tests/test_tokens.py -q -k "not Operators" --hypothesis-seed=$s; done``.
"""

import os
import pathlib
import re
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod  # noqa: E402
from nmalign_ray import tokens  # noqa: E402
from nmalign_ray.corpus import corpus_from_documents  # noqa: E402
from nmalign_ray.functions import dedup, textstats  # noqa: E402
from test_ray_entry import canon, to_pandas  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parent.parent

# Arrow's utf8_lower and DuckDB's lower() differ on these 43 code points
# (letters of Unicode 14 and later: U+2C2F, U+A7C0, ..., Vithkuqi).  They
# are left out of the alphabet: a known gap between the two sides.
LOWER_MISMATCH = (
    [0x2C2F, 0xA7C0, 0xA7C7, 0xA7C9, 0xA7D0, 0xA7D6, 0xA7D8, 0xA7F5]
    + [c for c in range(0x10570, 0x10596) if c not in (0x1057B, 0x1058B,
                                                        0x10593)])
assert len(LOWER_MISMATCH) == 43

SEPARATORS = " \t\n\f\r"                  # RE2 \s: the only separators
NOT_SEPARATORS = ("\v\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000"  # str.split's
                  "ΣσςİıIi…文書データ")      # casing and wide characters
STOPWORDS = sorted({w for ws in textstats.STOPWORDS.values() for w in ws})

char = st.one_of(
    st.sampled_from("abcXYZ" + SEPARATORS + NOT_SEPARATORS),
    st.characters(codec="utf-8", exclude_categories=("Cs",),
                  exclude_characters=[chr(c) for c in LOWER_MISMATCH]
                  + ["\x00"]))
piece = st.one_of(st.sampled_from(STOPWORDS + ["THE", "Der", "ΟΔΟΣ"]),
                  st.text(char, min_size=1, max_size=4))
text = st.lists(piece, max_size=12).map("".join)


def _sql_forms(con, texts):
    con.register("d", pa.table({"i": range(len(texts)),
                                "text": pa.array(texts, pa.string())}))
    rows = con.execute(
        f"SELECT {tokens.tokens_sql()}, {tokens.tokens_sql(lower=True)}, "
        f"{tokens.NORM_TEXT_SQL} FROM d ORDER BY i").fetchall()
    con.unregister("d")
    return [list(col) for col in zip(*rows)] if rows else [[], [], []]


ADVERSARIAL = ["\ta b", "a b\n", "\t", "", "ΟΔΟΣ ΟΔΟΣ the", "İ i̇ I ı",
               " x  y ", "a\xa0b\vc\x85d", "\r\n\f", "文書 データ　x"]


class TestPythonFormsEqualSql:
    @pytest.fixture(scope="class")
    def con(self):
        return duckdb.connect()

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(text, max_size=8))
    @example(texts=ADVERSARIAL)
    def test_tokens_counts_lower_norm(self, con, texts):
        sql_toks, sql_lower, sql_norm = _sql_forms(con, texts)
        assert tokens.token_lists(texts) == sql_toks
        assert tokens.split(texts).counts.tolist() == [len(t) for t in sql_toks]
        assert tokens.token_lists(texts, lower=True) == sql_lower
        assert tokens.norm_text(texts).to_pylist() == sql_norm
        flat, offsets, counts = tokens.split(pa.chunked_array(
            [texts[:1], texts[1:]], pa.string()), lower=True)
        assert flat.to_pylist() == [t for ts in sql_lower for t in ts]
        assert offsets.tolist() == [0] + np.cumsum(counts).tolist()

    def test_the_twins_that_used_to_differ(self):
        # "\ta b" has 2 tokens, not trim()'s 3; Σ lowers to σ, not ς
        assert tokens.split(["\ta b", "a b\n", "\t"]).counts.tolist() == [2, 2, 0]
        assert tokens.token_lists(["ΟΔΟΣ the"], lower=True) == [["οδοσ", "the"]]


NULL_TEXT = pa.table({"doc_id": pa.array([3, 7, 9], pa.int64()),
                      "text": pa.array(["a b", None, "c"], pa.string()),
                      "lang": ["en", "en", "de"], "source": ["s", "s", "s"]})


@pytest.mark.parametrize("fn", [
    textstats.token_count_batch, textstats.quality_batch,
    textstats.lang_id_batch, textstats.gopher_signals_batch,
    textstats.normalize_batch, textstats._term_counts,
    dedup.simhash_batch, dedup.minhash_band_rows,
], ids=lambda f: f.__name__)
def test_null_text_names_its_doc_id(fn):
    with pytest.raises(ValueError, match="text is null at doc_id 7"):
        fn(NULL_TEXT)


def test_corpus_word_chunks_equal_identity_sql():
    texts = ["\ta b c d e f g h i\n", "x\xa0y z\vw", "  p  q\t", "\t\n",
             "one two three four five six seven eight nine\r",
             "\x85lead and　trail\xa0"]
    ids = list(range(len(texts)))
    corpus = corpus_from_documents(texts, ids, families=("identity",))
    derived = {d: [r["text"] for r in refs] for d, refs in
               zip(corpus["doc_id"].to_pylist(),
                   corpus["ref_spans"].to_pylist())}
    con = duckdb.connect()
    con.register("documents", pa.table({"doc_id": ids, "text": texts}))
    rows = con.execute(entrymod.EXTRACT_ALIGN_IDENTITY_SQL
                       + ' ORDER BY doc_id, "order"').fetchall()
    want: dict = {}
    for doc_id, _, _, seg, _ in rows:
        want.setdefault(doc_id, []).append(seg)
    assert derived == want
    assert derived["doc-1"] == ["x\xa0y z\vw"]  # one token each, no split


def test_only_tokens_py_splits_text():
    banned = re.compile(
        r"regexp_split_to_array|split_pattern_regex|utf8_trim_whitespace")
    files = sorted(REPO.glob("nmalign_ray/**/*.py")) + [REPO / "__ray_entry__.py"]
    hits = [f"{f.relative_to(REPO)}:{n}" for f in files
            if f.name != "tokens.py"
            for n, line in enumerate(f.read_text().splitlines(), 1)
            if banned.search(line)]
    assert not hits, f"text split outside nmalign_ray/tokens.py: {hits}"


# ---------------------------------------------------------------------------
# Operator level: every documents-only oracle that tokenizes or normalizes


def _text_keys():
    others = re.compile(r"\b(region|nation|customer|supplier|part|orders|"
                        r"lineitem|events|embeddings)\b")
    return sorted(
        k for k, q in entrymod.oracle_sql().items()
        if not k.startswith("extract_align")
        and k not in ("align_metrics", "rollup_text")
        and ("regexp_split_to_array" in q or "regexp_replace(trim(lower" in q)
        and not others.search(q))


TEXT_KEYS = _text_keys()

WORDS = STOPWORDS + ["hash", "join", "stream", "Hash", "THE", "ΟΔΟΣ", "οδοσ",
                     "İ", "…", "文書", "x\xa0y", "a\vb", "b\x85c",
                     "e f", "g　h", "i.e.", "d's"]
EDGES = ["", " ", "\t", "\n", "\r\n", " \f", "\v"]


@st.composite
def documents(draw):
    ids = draw(st.lists(st.sampled_from([0, 1, 2, 5, 37, 38, 49, 50, 74, 75]),
                        min_size=1, max_size=8, unique=True))
    texts = []
    for _ in ids:
        if texts and draw(st.booleans()):  # a near copy of an earlier one
            base = draw(st.sampled_from(texts))
            texts.append(draw(st.sampled_from(EDGES)) + base.upper()
                         if draw(st.booleans()) else base + "\t")
            continue
        words = draw(st.lists(st.sampled_from(WORDS), max_size=24))
        seps = draw(st.lists(st.sampled_from(list(SEPARATORS) + ["  "]),
                             min_size=len(words), max_size=len(words)))
        texts.append(draw(st.sampled_from(EDGES))
                     + "".join(w + s for w, s in zip(words, seps))
                     + draw(st.sampled_from(EDGES)))
    return _table(ids, texts, draw(st.lists(
        st.sampled_from(["de", "en", "fr", "zh"]),
        min_size=len(ids), max_size=len(ids))))


def _table(ids, texts, langs):
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array([f"src{i % 3}" for i in ids], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


_SENTENCE = "the hash join and\tthe stream of ΟΔΟΣ a\xa0b"
PINNED = _table(
    list(range(0, 15)) + [37],
    ["\ta b", "a b\n", "\t", "", "ΟΔΟΣ ΟΔΟΣ the", "İstanbul İ i̇ der die",
     _SENTENCE, _SENTENCE.upper(), "\n" + _SENTENCE + "\t", _SENTENCE + " x",
     "a\xa0b\vc\x85d the of and", "\r\n\f", "文書 データ　x",
     " ".join([_SENTENCE] * 3), "\xa0\v\u3000", "\t" + " ".join([_SENTENCE] * 2)],
    ["en"] * 8 + ["de"] * 8)


def _agree(name, mine, want):
    if len(mine) == 0 and len(want) == 0:  # an empty Ray result has no columns
        return
    assert list(mine.columns) == list(want.columns), name
    assert len(mine) == len(want), f"{name}: {len(mine)} vs {len(want)} rows"
    assert ([c.dtype.kind for _, c in mine.items()]
            == [c.dtype.kind for _, c in want.items()]), name
    pd.testing.assert_frame_equal(mine, want, check_dtype=False, atol=0,
                                  rtol=0, obj=name)


class TestOperators:
    def test_every_text_twin_is_covered(self):
        assert len(TEXT_KEYS) == 34, TEXT_KEYS

    @settings(max_examples=3, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs=documents())
    @example(docs=PINNED)
    def test_operators_equal_their_twins(self, ray_session, tmp_path_factory,
                                         docs):
        sf_dir = str(tmp_path_factory.mktemp("sf"))
        path = os.path.join(sf_dir, "documents.parquet")
        pq.write_table(docs, path)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{path}')")
        for name in TEXT_KEYS:
            _agree(name, canon(to_pandas(entrymod.queries()[name](sf_dir))),
                   canon(con.execute(entrymod.oracle_sql()[name]).fetchdf()))

    def test_null_text_fails_loudly_through_ray(self, ray_session):
        ds = ray_session.data.from_arrow(NULL_TEXT)
        with pytest.raises(Exception, match="text is null at doc_id 7"):
            textstats.top_terms(ds)


class TestExtraction:
    def test_pdf_and_html_chunks_keep_edge_non_separators(self, ray_session,
                                                          tmp_path):
        # doc_id % 10 picks the family: 4 is html, 5 is pdf.  Each text's
        # 8-token chunks start or end with a character that RE2's \s does
        # not match (so it belongs to a token) but str.strip() strips.
        import shutil
        import uuid

        texts = {
            4: "\vab cd ef gh ij kl mn op\xa0 qr st uv wx\v",
            14: "\xa0abcdefghij kl mn op qr st uv wx\v yz",
            5: "\vab cd ef gh ij kl mn op\xa0 qr\xa0",
            15: "\v\xa0 ab cd ef gh ij kl mn \v",
        }
        docs = _table(list(texts), list(texts.values()), ["en"] * len(texts))
        tag = f"edge-ws-{uuid.uuid4().hex}"  # derived corpora cache by name
        sf_dir = tmp_path / tag
        sf_dir.mkdir()
        pq.write_table(docs, sf_dir / "documents.parquet")
        con = duckdb.connect()
        con.register("documents", docs)
        try:
            mine = canon(to_pandas(entrymod.queries()["extract_align"](
                str(sf_dir))))
        finally:
            shutil.rmtree(os.path.join(entrymod._CACHE_ROOT, tag),
                          ignore_errors=True)
        want = canon(con.execute(entrymod.oracle_sql()["extract_align"])
                     .fetchdf())
        assert len(want) == 7
        _agree("extract_align", mine, want)
