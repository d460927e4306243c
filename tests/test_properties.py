"""Property-based tests (hypothesis) for the alignment core — SURVEY §5.2.4.

Invariants: without splits the result is a partial injective map into l2;
scores live in [0, 1]; determinism; splits produce well-formed slices.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nmalign_ray.align import match

line = st.text(
    alphabet=st.sampled_from("abcdefg ſäö .,"), min_size=1, max_size=40
).filter(lambda s: s.strip())
lines = st.lists(line, min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(l1=lines, l2=lines)
def test_partial_injective_without_splits(l1, l2):
    res, scores = match(l1, l2)
    assigned = res[res >= 0]
    # injective: no l2 segment consumed twice
    assert len(set(assigned.tolist())) == len(assigned)
    assert ((res >= -1) & (res < len(l2))).all()
    assert ((scores >= 0.0) & (scores <= 1.0)).all()


@settings(max_examples=40, deadline=None)
@given(l1=lines, l2=lines)
def test_splits_produce_wellformed_slices(l1, l2):
    res, scores = match(l1, l2, try_subseg=True)
    idx, beg, end = res
    for i in range(len(l1)):
        if idx[i] < 0:
            assert beg[i] == -1 and end[i] == -1
        elif beg[i] >= 0 or end[i] >= 0:
            assert 0 <= beg[i] <= end[i]
    assert ((scores >= 0.0) & (scores <= 1.0)).all()


@settings(max_examples=30, deadline=None)
@given(l1=lines, l2=lines, cutoff=st.floats(min_value=0.0, max_value=1.0))
def test_cutoff_floors_assigned_scores(l1, l2, cutoff):
    res, scores = match(l1, l2, cutoff=cutoff)
    assigned = res >= 0
    if cutoff > 0:
        assert (scores[assigned] >= cutoff).all()


@settings(max_examples=30, deadline=None)
@given(l1=lines, l2=lines)
def test_deterministic(l1, l2):
    a = match(l1, l2, try_subseg=True)
    b = match(l1, l2, try_subseg=True)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@settings(max_examples=30, deadline=None)
@given(l=lines)
def test_identity_is_fixed_point(l):
    # aligning a list against itself matches every line with score 1
    res, scores = match(l, l)
    unique = len(set(l)) == len(l)
    if unique:
        assert res.tolist() == list(range(len(l)))
    assert np.allclose(scores[res >= 0], 1.0)


words = st.lists(
    st.text(alphabet="abcdefghimnorstuüäöß", min_size=1, max_size=8),
    min_size=1, max_size=12)


@settings(max_examples=50, deadline=None)
@given(ws=words)
def test_glyph_noise_is_normalization_reversible(ws):
    # the invariant the extract_align_glyph oracle rests on: applying the
    # engine's default normalization to glyph-noised text recovers the
    # original exactly (score-1.0 matches, raw noised text emitted)
    from nmalign_ray.align.core import make_preprocessor
    from nmalign_ray.corpus import glyph_noise
    from nmalign_ray.schema import DEFAULT_NORMALIZATION

    s = " ".join(ws)
    prep = make_preprocessor(DEFAULT_NORMALIZATION)
    assert prep(glyph_noise(s, None)) == prep(s)


@settings(max_examples=50, deadline=None)
@given(ws=words)
def test_ocr_noise_matches_sequential_replace_order(ws):
    # the invariant the extract_align_ocr oracle rests on: the engine's
    # per-original-char map equals sequential replaces with 'n'->'u'
    # applied first (the exact order the SQL twin uses)
    from nmalign_ray.corpus import ocr_noise

    s = " ".join(ws)
    t = s
    for plain, noisy in (("n", "u"), ("e", "c"), ("o", "0"),
                         ("m", "rn"), ("i", "l"), ("t", "f")):
        t = t.replace(plain, noisy)
    assert ocr_noise(s) == t


# ---------------------------------------------------------------------------
# round-3 operators: per-group kernels vs brute-force python oracles on
# random inputs (the Ray plumbing is covered by the SQL-parity tests;
# these pin the KERNEL semantics — tie-breaks, index selection, hashing —
# under inputs the fixture tables do not produce)

import pandas as pd


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 2),          # user_id
            st.integers(0, 500),        # ts offset (seconds) — collisions likely
            st.floats(0, 100, allow_nan=False, width=32),
        ),
        min_size=1, max_size=40,
    )
)
def test_asof_per_user_matches_brute_force(data):
    # the sorted-searchsorted as-of kernel (relational.asof_join's
    # per-group merge) vs a brute-force scan: latest quote ts <= probe
    # ts, ties broken by event_id
    df = pd.DataFrame(
        {
            "user_id": [u for u, _, _ in data],
            "event_id": np.arange(len(data), dtype=np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta([t for _, t, _ in data], unit="s"),
            "value": np.asarray([v for _, _, v in data], dtype=np.float64),
        }
    )
    df["is_probe"] = df["event_id"] % 10 == 0
    for u, g in df.groupby("user_id"):
        probes = g[g["is_probe"]]
        quotes = g[~g["is_probe"]]
        want = {}
        for _, p in probes.iterrows():
            cand = quotes[quotes["ts"] <= p["ts"]]
            if cand.empty:
                continue
            best = cand.sort_values(["ts", "event_id"]).iloc[-1]
            want[int(p["event_id"])] = (int(best["event_id"]), best["value"])
        # kernel under test: replicate via the same sorted-searchsorted code
        q = quotes.sort_values(["ts", "event_id"], kind="mergesort")
        got = {}
        if not probes.empty and not q.empty:
            idx = np.searchsorted(q["ts"].to_numpy(), probes["ts"].to_numpy(),
                                  side="right") - 1
            for k, (_, p) in zip(idx, probes.iterrows()):
                if k >= 0:
                    hit = q.iloc[k]
                    got[int(p["event_id"])] = (int(hit["event_id"]), hit["value"])
        assert got == want


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(-50, 50, allow_nan=False, width=32),
                     min_size=1, max_size=60))
def test_quantile_index_selection_is_sorted_element(vals):
    v = np.sort(np.asarray(vals, dtype=np.float64))
    n = len(v)
    for q in (0.5, 0.9):
        x = v[int(np.floor((n - 1) * q))]
        assert x in v
        # at least floor((n-1)q)+1 elements are <= x
        assert (v <= x).sum() >= int(np.floor((n - 1) * q)) + 1


@settings(max_examples=30, deadline=None)
@given(ids=st.lists(st.integers(0, 10**9), min_size=1, max_size=50))
def test_hash_sample_is_deterministic_and_partition_invariant(ids):
    import hashlib

    def keep(d, mod=5):
        return int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16) % mod == 0

    a = [d for d in ids if keep(d)]
    b = [d for d in reversed(ids) if keep(d)]
    assert sorted(a) == sorted(b)  # membership is row-order independent


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.one_of(st.text(), st.integers().map(str)), max_size=20),
       n=st.integers(1, 64))
@example(ids=["", "ſäö", "文書-7", "007", "1e3", "-0", "\x00"], n=7)
def test_crc32_shards_equal_scalar_form(ids, n):
    import zlib

    import pyarrow as pa

    from nmalign_ray.hashing import crc32_mod

    got = pa.array(crc32_mod(pa.chunked_array([pa.array(ids, pa.string())]), n))
    assert got.type == pa.int32()
    assert got.to_pylist() == [zlib.crc32(str(d).encode("utf-8")) % n for d in ids]



span = st.fixed_dictionaries({
    "kind": st.just("text"),
    "text": st.one_of(st.none(), st.text()),
    "media_ref": st.just(""),
    "offset": st.integers(0, 100),
})
span_list = st.one_of(st.none(), st.lists(span, max_size=5))


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(st.tuples(span_list, span_list), max_size=8),
       cut=st.integers(0, 8), lo=st.integers(0, 8))
@example(docs=[(None, []), ([{"kind": "text", "text": None, "media_ref": "",
                              "offset": 0}], None),
               ([{"kind": "text", "text": "ſäö 文書", "media_ref": "", "offset": 0}],
                [{"kind": "text", "text": "\U0001F600x", "media_ref": "", "offset": 1}])],
         cut=1, lo=1)
def test_doc_cells_equal_scalar_form(docs, cut, lo):
    # over several chunks and a sliced table, as a range task sees them
    import pyarrow as pa

    from nmalign_ray.pipelines.checkpoint import _doc_cells
    from nmalign_ray.schema import CORPUS_SCHEMA

    table = pa.Table.from_pydict(
        {"doc_id": [str(k) for k in range(len(docs))],
         "spans": [d[0] for d in docs], "ref_spans": [d[1] for d in docs]},
        schema=CORPUS_SCHEMA)
    table = pa.concat_tables([table.slice(0, cut), table.slice(cut)]).slice(lo)

    def chars(spans):
        return sum(len(s["text"] or "") for s in spans or [])

    want = [chars(d[0]) * chars(d[1]) for d in docs[lo:]]
    got = _doc_cells(table)
    assert got.dtype == np.int64
    assert got.tolist() == want

# ---------------------------------------------------------------------------
# Codec properties: PNG/WAV round-trips on arbitrary pixel/sample data
# (the deterministic-fixture tests pin the oracle values; these pin the
# codecs themselves over the full input space).


@settings(max_examples=40, deadline=None)
@given(
    w=st.integers(1, 24),
    h=st.integers(1, 24),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_png_roundtrip_arbitrary_pixels(w, h, seed):
    from nmalign_ray.functions.media import encode_png, try_decode_png

    px = np.random.default_rng(seed).integers(
        0, 256, (h, w, 3), dtype=np.uint8)
    got = try_decode_png(encode_png(px))
    assert got is not None
    gw, gh, gpx = got
    assert (gw, gh) == (w, h)
    assert np.array_equal(gpx, px)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    ch=st.integers(1, 3),
    rate=st.integers(1, 192_000),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_wav_roundtrip_arbitrary_samples(n, ch, rate, seed):
    from nmalign_ray.functions.media import encode_wav, try_decode_wav

    s = np.random.default_rng(seed).integers(
        -32768, 32768, (n, ch), dtype=np.int16)
    got = try_decode_wav(encode_wav(s, rate=rate))
    assert got is not None
    grate, gs = got
    assert grate == rate
    assert np.array_equal(gs, s)


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=300))
def test_codecs_never_crash_on_arbitrary_bytes(payload):
    # the decode seam sees untrusted payloads: every sniffer must return
    # a decode or None — never raise — for arbitrary byte strings
    from nmalign_ray.functions.media import (
        try_decode_png,
        try_decode_ppm,
        try_decode_wav,
    )

    for fn in (try_decode_ppm, try_decode_png, try_decode_wav):
        result = fn(payload)
        assert result is None or isinstance(result, tuple)


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=200))
def test_codecs_never_crash_on_prefixed_garbage(payload):
    # adversarial-ish: valid magic bytes followed by garbage
    from nmalign_ray.functions.media import (
        _PNG_SIG,
        try_decode_png,
        try_decode_ppm,
        try_decode_wav,
    )

    assert try_decode_png(_PNG_SIG + payload) is None or True
    try_decode_ppm(b"P6\n" + payload)
    try_decode_wav(b"RIFF" + payload)
    try_decode_wav(b"RIFF\x10\x00\x00\x00WAVE" + payload)


# ---------------------------------------------------------------------------
# Winnowing fingerprint properties (no Ray session needed: winnow_batch is a
# pure Arrow-in/Arrow-out function).  A 3-letter alphabet forces repeated
# grams, so the rightmost tie rule is exercised constantly.
# ---------------------------------------------------------------------------

winnow_texts = st.text(alphabet="ab \t", min_size=0, max_size=120)


from winnow_ref import winnow_brute as _winnow_brute_shared


def _winnow_brute(text, k, w):
    return _winnow_brute_shared(text, k, w)


@settings(max_examples=80, deadline=None)
@given(text=winnow_texts)
def test_winnow_matches_brute(text):
    import pyarrow as pa

    from nmalign_ray.functions import textstats as ts

    batch = pa.Table.from_pydict(
        {"doc_id": pa.array([7], pa.int64()),
         "text": pa.array([text], pa.string())})
    got = ts.winnow_batch(batch)
    got_set = set(zip((int(x) for x in got["pos"].to_pylist()),
                      (int(x) for x in got["fp"].to_pylist())))
    assert got_set == _winnow_brute(text, ts.WINNOW_K, ts.WINNOW_W)


@settings(max_examples=40, deadline=None)
@given(shared=st.text(alphabet="xyzq", min_size=11, max_size=30),
       pre_a=st.text(alphabet="ab ", min_size=0, max_size=20),
       pre_b=st.text(alphabet="cd ", min_size=0, max_size=20))
def test_winnow_shared_substring_guarantee(shared, pre_a, pre_b):
    # the winnowing guarantee: a common substring of >= K + W - 1 chars
    # (in the NORMALIZED space — the shared block has no whitespace, so
    # normalization cannot shorten it) yields a shared fingerprint
    import pyarrow as pa

    from nmalign_ray.functions import textstats as ts

    assert len(shared) >= ts.WINNOW_K + ts.WINNOW_W - 1
    batch = pa.Table.from_pydict(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array([f"{pre_a} {shared} tail", f"{pre_b} {shared}"],
                          pa.string())})
    out = ts.winnow_batch(batch)
    ids = out["doc_id"].to_pylist()
    fps = out["fp"].to_pylist()
    f0 = {f for i, f in zip(ids, fps) if i == 0}
    f1 = {f for i, f in zip(ids, fps) if i == 1}
    assert f0 & f1
