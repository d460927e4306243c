"""Functional tests for the training-data operators on planted inputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nmalign_ray.functions import dedup, media, simsearch


def docs_table(texts):
    return pa.Table.from_pydict(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )


BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden outside"
)


class TestMinhash:
    def test_planted_near_dups_found(self, ray_session):
        texts = [
            BASE,
            BASE.replace("lazy", "sleepy"),  # near-dup of 0
            "completely different content about database query engines and shuffles",
            BASE.replace("garden", "yard").replace("warm", "cold"),  # near-dup of 0
            "another unrelated line of text mentioning vectors and embeddings only",
        ]
        ds = ray_session.data.from_arrow(docs_table(texts))
        pairs = dedup.minhash_near_dups(ds, threshold=0.5).to_pandas()
        found = set(zip(pairs.doc_a, pairs.doc_b))
        assert (0, 1) in found and (0, 3) in found
        assert not any(2 in p or 4 in p for p in found)
        assert ((pairs.jaccard >= 0.5) & (pairs.jaccard <= 1.0)).all()

    def test_empty_docs_emit_no_pairs(self, ray_session):
        # token-less docs are OUTSIDE the candidate universe, matching
        # the SQL twin's WHERE len(toks) > 0 — without the
        # band-row skip the shared sentinel signature would pair every
        # empty doc with every other at jaccard 1.0
        ds = ray_session.data.from_arrow(docs_table(["", "   ", BASE, ""]))
        pairs = dedup.minhash_near_dups(ds, threshold=0.5).to_pandas()
        assert len(pairs) == 0
        assert dedup.banding_candidates([0, 1, 2, 3],
                                        ["", "   ", BASE, ""]) == set()

    def test_signature_deterministic(self):
        s1 = dedup.minhash_signature(dedup.shingle_set(BASE))
        s2 = dedup.minhash_signature(dedup.shingle_set(BASE))
        assert np.array_equal(s1, s2)

    def test_exact_duplicates_collapse(self, ray_session):
        ds = ray_session.data.from_arrow(docs_table([BASE, BASE, "  " + BASE.upper()]))
        out = dedup.exact_dedup(ds).to_pandas()
        # normalization (lower+trim+collapse) folds all three into one group
        assert len(out) == 1
        assert out.iloc[0]["keep_doc_id"] == 0
        assert out.iloc[0]["dup_count"] == 3


class TestShingleNovelty:
    def test_boilerplate_scores_low_unique_scores_high(self, ray_session):
        texts = [
            BASE,                      # shares every shingle with doc 1
            BASE,                      # exact clone: novelty 0 both
            "a wholly original sentence about quasar jets and lattice gauge",
        ]
        ds = ray_session.data.from_arrow(docs_table(texts))
        out = dedup.shingle_novelty(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "novelty"] == 0.0 and out.loc[1, "novelty"] == 0.0
        assert out.loc[2, "novelty"] == 1.0
        assert out.loc[2, "n_unique"] == out.loc[2, "n_shingles"]

    def test_empty_docs_excluded(self, ray_session):
        ds = ray_session.data.from_arrow(docs_table(["", "   ", BASE]))
        out = dedup.shingle_novelty(ds).to_pandas()
        assert sorted(out.doc_id) == [2]


class TestExactSubstrDedup:
    def _brute(self, texts):
        # independent replay of the ExactSubstr rule: flag every token
        # covered by a 3-gram occurring >= 2 times corpus-wide
        from collections import Counter

        occs, toks_by = [], {}
        for did, text in enumerate(texts):
            toks = text.strip().split()
            if not toks:
                continue
            toks_by[did] = toks
            for s in range(len(toks) - 2):
                occs.append((" ".join(toks[s:s + 3]), did, s))
        cnt = Counter(g for g, _, _ in occs)
        rows = {}
        for did, toks in toks_by.items():
            covered = [False] * len(toks)
            for g, d, s in occs:
                if d == did and cnt[g] >= 2:
                    for i in range(s, s + 3):
                        covered[i] = True
            kept = [t for t, c in zip(toks, covered) if not c]
            rows[did] = (len(toks), sum(covered), " ".join(kept))
        return rows

    def test_matches_brute_replay(self, ray_session):
        texts = [
            BASE,
            BASE,  # exact clone: both fully covered
            "a wholly original sentence about quasar jets and lattice gauge",
            # shares only the leading 4 words with BASE -> two dup starts
            # covering the first 4 tokens, the tail survives
            "the quick brown fox sleeps under a completely different roof",
            "",
        ]
        ds = ray_session.data.from_arrow(docs_table(texts))
        out = dedup.exact_substr_dedup(ds).to_pandas().set_index("doc_id")
        want = self._brute(texts)
        assert sorted(out.index) == sorted(want)  # empty doc excluded
        for did, (n, nd, clean) in want.items():
            assert out.loc[did, "n_tokens"] == n
            assert out.loc[did, "n_dup_tokens"] == nd
            assert out.loc[did, "clean_text"] == clean
        assert out.loc[0, "dup_frac"] == 1.0 and out.loc[1, "dup_frac"] == 1.0
        assert out.loc[2, "dup_frac"] == 0.0
        assert 0.0 < out.loc[3, "dup_frac"] < 1.0
        assert out.loc[3, "clean_text"].endswith("different roof")

    def test_within_doc_repeats_count(self, ray_session):
        # multiplicity is global INCLUDING within-document repeats
        ds = ray_session.data.from_arrow(
            docs_table(["x y z q r s x y z", "unrelated words entirely here"]))
        out = dedup.exact_substr_dedup(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "n_dup_tokens"] == 6  # both "x y z" copies
        assert out.loc[0, "clean_text"] == "q r s"
        assert out.loc[1, "n_dup_tokens"] == 0

    def test_partition_invariance(self, ray_session):
        texts = [BASE, BASE.replace("lazy", "sleepy"), BASE,
                 "sui generis content row", "x " * 40]
        a = dedup.exact_substr_dedup(
            ray_session.data.from_arrow(docs_table(texts))).to_pandas()
        b = dedup.exact_substr_dedup(
            ray_session.data.from_arrow(docs_table(texts)).repartition(7)
        ).to_pandas()
        import pandas as pd

        key = ["doc_id"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True))


class TestMinhashPrefilterGate:
    def test_prefilter_path_equals_bloom_path(self, ray_session):
        # the member-id broadcast prefilter (gate open) and the
        # distributed Bloom semi-join (gate closed,
        # member_broadcast_max=0) must produce identical verified pairs
        # (Bloom has no false negatives; FPs are dropped downstream)
        texts = [
            BASE,
            BASE.replace("lazy", "sleepy"),
            "completely different content about database query engines and shuffles",
            BASE.replace("garden", "yard").replace("warm", "cold"),
            "another unrelated line of text mentioning vectors and embeddings only",
        ]
        ds1 = ray_session.data.from_arrow(docs_table(texts))
        ds2 = ray_session.data.from_arrow(docs_table(texts))
        fast = dedup.minhash_near_dups(ds1, threshold=0.5).to_pandas()
        slow = dedup.minhash_near_dups(
            ds2, threshold=0.5, member_broadcast_max=0
        ).to_pandas()
        key = ["doc_a", "doc_b"]
        import pandas as pd

        pd.testing.assert_frame_equal(
            fast.sort_values(key).reset_index(drop=True),
            slow.sort_values(key).reset_index(drop=True),
        )


class TestBucketTruncationPolicy:
    def test_oversize_bucket_raises_when_asked(self):
        group = pa.Table.from_pydict(
            {"doc_id": pa.array([1, 2, 3, 4], pa.int64())}
        )
        with pytest.raises(dedup.LshBucketOverflow):
            dedup._bucket_pairs(group, max_bucket=2, on_truncate="raise")

    def test_oversize_bucket_warns_and_drops_by_default(self):
        group = pa.Table.from_pydict(
            {"doc_id": pa.array([1, 2, 3, 4], pa.int64())}
        )
        out = dedup._bucket_pairs(group, max_bucket=2)
        assert out.num_rows == 0


class TestSimhash:
    def test_identical_docs_zero_hamming(self, ray_session):
        ds = ray_session.data.from_arrow(docs_table([BASE, BASE, "other words"]))
        pairs = dedup.simhash_near_dups(ds).to_pandas()
        assert ((pairs.doc_a == 0) & (pairs.doc_b == 1) & (pairs.hamming == 0)).any()

    def test_signature_is_stable_int64(self):
        a = dedup.simhash_signature(BASE)
        b = dedup.simhash_signature(BASE)
        assert a == b and 0 <= a < (1 << 64)


class TestEmbeddingNearDups:
    def test_planted_duplicate_vector(self, ray_session):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((20, 16)).astype(np.float32)
        vecs[7] = vecs[3] + 1e-4  # near-identical pair
        tbl = pa.Table.from_pydict(
            {"vec_id": pa.array(range(20), pa.int64()),
             "embedding": pa.array([v.tolist() for v in vecs],
                                    pa.list_(pa.float32()))}
        )
        ds = ray_session.data.from_arrow(tbl)
        pairs = simsearch.embedding_near_dups(ds, threshold=0.999).to_pandas()
        assert {(3, 7)} == set(zip(pairs.vec_a, pairs.vec_b))


class TestMediaPlumbing:
    def test_decode_stub_pipeline(self, ray_session):
        tbl = media.synth_media_table(n=10)
        out = media.decode_features(
            ray_session.data.from_arrow(tbl), batch_size=4, concurrency=2
        ).to_pandas()
        assert len(out) == 10
        assert set(out.columns) == set(media.FEATURE_SCHEMA.names)
        assert out["feature"].map(len).eq(16).all()
        # deterministic across runs
        again = media.decode_features(
            ray_session.data.from_arrow(tbl), batch_size=4, concurrency=2
        ).to_pandas()
        assert out.sort_values("media_ref").checksum.tolist() == \
            again.sort_values("media_ref").checksum.tolist()

    def test_strict_mode_marks_the_seam(self):
        stub = media.DecodeStub(strict=True)
        with pytest.raises(NotImplementedError):
            stub._decode(b"bytes", "image")

    def test_kind_gates_the_ppm_sniff(self):
        # a non-image payload carrying a valid P6 header must not be
        # silently pixel-decoded (round-3 advice): lenient mode takes the
        # deterministic-fake path, strict mode flags the contradiction
        import hashlib

        px = np.zeros((2, 2, 3), dtype=np.uint8)
        payload = media.encode_ppm(px)
        w, h, checksum, _ = media.DecodeStub()._decode(payload, "audio")
        digest = hashlib.md5(payload).digest()
        assert (w, h) == (16 + digest[0], 16 + digest[1])  # fake path
        with pytest.raises(ValueError, match="declared kind"):
            media.DecodeStub(strict=True)._decode(payload, "audio")
        # resize: same gate
        batch = pa.Table.from_pydict(
            {"media_ref": ["m"], "kind": ["audio"], "payload": [payload]},
            schema=media.MEDIA_SCHEMA)
        out = media.ResizeStub(max_side=8)(batch)
        assert out["payload"][0].as_py() != media.encode_ppm(px[:1, :1])
        with pytest.raises(ValueError, match="declared kind"):
            media.ResizeStub(max_side=8, strict=True)(batch)


class TestMediaResizeAndFrames:
    def test_resize_bounds_dimensions(self, ray_session):
        tbl = media.synth_media_table(n=8)
        out = media.resize_images(
            ray_session.data.from_arrow(tbl), max_side=32
        ).to_pandas()
        assert len(out) == 8
        assert (out[["width", "height"]].max(axis=1) <= 32).all()
        assert (out[["width", "height"]].min(axis=1) >= 1).all()

    def test_frame_sampling_is_one_to_n(self, ray_session):
        tbl = media.synth_media_table(n=6)
        out = media.sample_frames(
            ray_session.data.from_arrow(tbl), frames_per_item=4
        ).to_pandas()
        assert len(out) == 24
        per = out.groupby("media_ref")
        assert (per.frame_index.nunique() == 4).all()
        assert (per.timestamp_ms.is_monotonic_increasing).all()

    def test_strict_seams(self):
        import pytest as _pytest
        with _pytest.raises(NotImplementedError):
            media.ResizeStub(strict=True)(media.synth_media_table(n=1))
        with _pytest.raises(NotImplementedError):
            media.FrameSampleStub(strict=True)(media.synth_media_table(n=1))

    def test_frame_sampling_gates_wav_on_kind(self):
        # a payload that sniffs as RIFF/WAVE but is declared image-kind
        # must NOT be frame-sampled as audio (fake-frame path instead),
        # and strict mode raises on the contradiction — the same gate
        # DecodeStub/ResizeStub apply (round-4 advice)
        import pytest as _pytest

        from nmalign_ray.functions.media import encode_wav, try_decode_wav

        wav = encode_wav(np.arange(800, dtype=np.int16), rate=8000)
        tbl = pa.Table.from_pydict(
            {"media_ref": ["media://x/0"], "kind": ["image"],
             "payload": [wav]},
            schema=media.MEDIA_SCHEMA,
        )
        out = media.FrameSampleStub(frames_per_item=2)(tbl)
        # fake path: payloads are 32-byte digests, not decodable WAV clips
        for p in out["payload"].to_pylist():
            assert try_decode_wav(p) is None
        with _pytest.raises(ValueError, match="sniffs as audio"):
            media.FrameSampleStub(frames_per_item=2, strict=True)(tbl)


class TestConnectedGroups:
    def test_chain_and_separate_component(self, ray_session):
        pairs = pa.Table.from_pydict({
            "doc_a": pa.array([1, 2, 7, 10], pa.int64()),
            "doc_b": pa.array([2, 3, 8, 11], pa.int64()),
        })
        out = dedup.connected_groups(
            ray_session.data.from_arrow(pairs)
        ).to_pandas().set_index("doc_id")["group_id"].to_dict()
        assert out == {1: 1, 2: 1, 3: 1, 7: 7, 8: 7, 10: 10, 11: 10}

    def test_long_chain_converges(self, ray_session):
        n = 12
        pairs = pa.Table.from_pydict({
            "doc_a": pa.array(list(range(n - 1)), pa.int64()),
            "doc_b": pa.array(list(range(1, n)), pa.int64()),
        })
        out = dedup.connected_groups(
            ray_session.data.from_arrow(pairs), max_rounds=20, driver_max=0
        ).to_pandas()
        assert (out.group_id == 0).all()

    def test_driver_gate_equals_distributed(self, ray_session):
        pairs = pa.Table.from_pydict({
            "doc_a": pa.array([1, 2, 7, 10, 2], pa.int64()),
            "doc_b": pa.array([2, 3, 8, 11, 9], pa.int64()),
        })
        fast = dedup.connected_groups(
            ray_session.data.from_arrow(pairs)).to_pandas()
        slow = dedup.connected_groups(
            ray_session.data.from_arrow(pairs), driver_max=0).to_pandas()
        key = ["doc_id"]
        import pandas as pd

        pd.testing.assert_frame_equal(
            fast.sort_values(key).reset_index(drop=True),
            slow.sort_values(key).reset_index(drop=True))

    def test_empty_pairs(self, ray_session):
        pairs = pa.Table.from_pydict({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
        })
        out = dedup.connected_groups(ray_session.data.from_arrow(pairs))
        assert out.count() == 0


class TestConnectedGroupsStringIds:
    def test_string_doc_ids_propagate(self, ray_session):
        # the engine's own corpus uses string ids ('doc-...'); the label
        # dtype must follow the input edges (round-1 advice)
        pairs = pa.Table.from_pydict({
            "doc_a": pa.array(["doc-b", "doc-c"], pa.string()),
            "doc_b": pa.array(["doc-a", "doc-d"], pa.string()),
        })
        out = dedup.connected_groups(
            ray_session.data.from_arrow(pairs)).to_pandas()
        got = dict(zip(out["doc_id"], out["group_id"]))
        assert got == {"doc-a": "doc-a", "doc-b": "doc-a",
                       "doc-c": "doc-c", "doc-d": "doc-c"}


class TestWindowCombinePaths:
    def test_distributed_combine_equals_driver_combine(self, ray_session):
        # the size gate's two paths must agree value-for-value
        import numpy as np
        import pandas as pd
        from nmalign_ray.functions import relational

        rng = np.random.default_rng(7)
        n = 4000
        ts = pd.Timestamp("2024-05-01") + pd.to_timedelta(
            rng.integers(0, 72 * 3600, n), unit="s")
        tbl = pa.Table.from_pydict({
            "user_id": pa.array(rng.integers(0, 37, n), pa.int64()),
            "ts": pa.array(ts.astype("datetime64[us]")),
            "value": pa.array(np.round(rng.uniform(0, 50, n), 2)),
        })
        ds1 = ray_session.data.from_arrow(tbl)
        ds2 = ray_session.data.from_arrow(tbl)
        drv = relational.hourly_events(ds1).to_pandas()
        dist = relational.hourly_events(ds2, driver_max=0).to_pandas()
        key = ["user_id", "hour"]
        a = drv.sort_values(key).reset_index(drop=True)
        b = dist.sort_values(key).reset_index(drop=True)[a.columns]
        # no check_dtype escape hatch: the driver path must pin the SAME
        # Arrow types (timestamp us, int64) as the distributed path
        pd.testing.assert_frame_equal(a, b)


class TestJoinSizeGate:
    def test_cogroup_paths_match_broadcast_paths(self, ray_session):
        import ray.data
        from nmalign_ray.functions import relational

        sf = "/root/testdata/sf0.001"
        def rd(t, cols):
            return ray.data.read_parquet(f"{sf}/{t}.parquet", columns=cols)

        a = relational.segment_revenue(
            rd("orders", ["o_custkey", "o_totalprice"]),
            rd("customer", ["c_custkey", "c_mktsegment"]))
        b = relational.segment_revenue(
            rd("orders", ["o_custkey", "o_totalprice"]),
            rd("customer", ["c_custkey", "c_mktsegment"]),
            broadcast_threshold=0)
        import pandas as pd
        pd.testing.assert_frame_equal(
            a.sort_values("c_mktsegment").reset_index(drop=True),
            b.sort_values("c_mktsegment").reset_index(drop=True))

        c = relational.nation_revenue(
            rd("orders", ["o_custkey", "o_totalprice"]),
            rd("customer", ["c_custkey", "c_nationkey"]),
            rd("nation", ["n_nationkey", "n_name"]))
        d = relational.nation_revenue(
            rd("orders", ["o_custkey", "o_totalprice"]),
            rd("customer", ["c_custkey", "c_nationkey"]),
            rd("nation", ["n_nationkey", "n_name"]),
            broadcast_threshold=0)
        pd.testing.assert_frame_equal(
            c.sort_values("n_name").reset_index(drop=True),
            d.sort_values("n_name").reset_index(drop=True))

        e = relational.inactive_customers(
            rd("customer", ["c_custkey", "c_name"]),
            rd("orders", ["o_custkey", "o_orderpriority"]))
        f = relational.inactive_customers(
            rd("customer", ["c_custkey", "c_name"]),
            rd("orders", ["o_custkey", "o_orderpriority"]),
            broadcast_threshold=0)
        pd.testing.assert_frame_equal(
            e.sort_values("c_custkey").reset_index(drop=True),
            f.sort_values("c_custkey").reset_index(drop=True))


class TestConnectedGroupsDoubling:
    def test_long_chain_converges_in_log_rounds(self, ray_session):
        # 48-node chain: pointer doubling must reach the fixpoint well
        # under the linear-propagation round count
        import time

        n = 48
        pairs = pa.Table.from_pydict(
            {"doc_a": list(range(n - 1)), "doc_b": list(range(1, n))})
        t0 = time.time()
        out = dedup.connected_groups(
            ray_session.data.from_arrow(pairs), driver_max=0).to_pandas()
        took = time.time() - t0
        assert sorted(out["group_id"].unique()) == [0]
        assert len(out) == n
        # linear propagation needed ~n rounds x >=1s (the unfixed block
        # doubling took 500s+); doubling needs O(log n) ~ 7 rounds
        # (~15-20s here) — the bound stays far above shared-host jitter
        # while still catching the linear/doubling pathologies
        assert took < 120, f"suspiciously slow for pointer doubling: {took:.0f}s"


class TestJoinEmptyResults:
    def test_anti_join_all_urgent_keeps_schema(self, ray_session):
        # every customer has an urgent order -> empty result must still
        # carry typed (c_custkey, c_name) columns on BOTH gate paths
        import pandas as pd
        from nmalign_ray.functions import relational

        cust = pa.Table.from_pydict({
            "c_custkey": pa.array([1, 2], pa.int64()),
            "c_name": pa.array(["a", "b"], pa.string())})
        orders = pa.Table.from_pydict({
            "o_custkey": pa.array([1, 2], pa.int64()),
            "o_orderpriority": pa.array(["1-URGENT", "1-URGENT"], pa.string())})
        for thresh in (10**6, 0):
            out = relational.inactive_customers(
                ray_session.data.from_arrow(cust),
                ray_session.data.from_arrow(orders),
                broadcast_threshold=thresh)
            assert list(out.columns) == ["c_custkey", "c_name"], thresh
            assert len(out) == 0

    def test_cogroup_revenue_zero_matches_typed_empty(self, ray_session):
        import pandas as pd
        from nmalign_ray.functions import relational

        orders = pa.Table.from_pydict({
            "o_custkey": pa.array([998, 999], pa.int64()),
            "o_totalprice": pa.array([10.0, 20.0], pa.float64())})
        cust = pa.Table.from_pydict({
            "c_custkey": pa.array([1, 2], pa.int64()),
            "c_mktsegment": pa.array(["X", "Y"], pa.string())})
        out = relational.segment_revenue(
            ray_session.data.from_arrow(orders),
            ray_session.data.from_arrow(cust),
            broadcast_threshold=0)
        assert list(out.columns) == ["c_mktsegment", "revenue", "num_orders"]
        assert len(out) == 0


class TestChunkDedup:
    def test_duplicate_chunks_survive_only_at_first_occurrence(self, ray_session):
        # doc 0 and doc 1 share their first 8-word chunk; doc 2 repeats
        # doc 0 entirely (both its chunks) and must come back empty
        c1 = "one two three four five six seven eight"
        c2 = "nine ten eleven twelve thirteen fourteen fifteen sixteen"
        c3 = "alpha beta gamma delta epsilon zeta eta theta"
        texts = [f"{c1} {c2}", f"{c1} {c3}", f"{c1} {c2}"]
        ds = ray_session.data.from_arrow(docs_table(texts))
        out = dedup.chunk_dedup(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "clean_text"] == f"{c1} {c2}"
        assert out.loc[0, "n_kept"] == 2 and out.loc[0, "n_chunks"] == 2
        assert out.loc[1, "clean_text"] == c3  # shared chunk deduped away
        assert out.loc[1, "n_kept"] == 1
        assert out.loc[2, "clean_text"] == "" and out.loc[2, "n_kept"] == 0

    def test_empty_documents_dropped(self, ray_session):
        ds = ray_session.data.from_arrow(docs_table(["", "  ", "a b c"]))
        out = dedup.chunk_dedup(ds).to_pandas()
        assert set(out.doc_id) == {2}

    def test_partial_trailing_chunk_is_its_own_unit(self, ray_session):
        # a short trailing chunk differs from the full chunk it prefixes,
        # so it is NOT deduplicated against it
        c1 = "one two three four five six seven eight"
        ds = ray_session.data.from_arrow(docs_table([c1, "one two three"]))
        out = dedup.chunk_dedup(ds).to_pandas().set_index("doc_id")
        assert out.loc[1, "clean_text"] == "one two three"


class TestDecontaminate:
    def _fixture(self):
        # doc 0 (0 % 37 == 0) is the benchmark; doc 38 shares its first
        # chunk (contaminated); doc 39 is clean
        bench = ("alpha beta gamma delta epsilon zeta eta theta "
                 "iota kappa lambda mu nu xi omicron pi")
        leak = ("alpha beta gamma delta epsilon zeta eta theta "
                "completely different second half of this doc here")
        clean = ("unrelated words about ray data pipelines and arrow "
                 "batches that overlap nothing from the benchmark set")
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([0, 38, 39], pa.int64()),
             "text": pa.array([bench, leak, clean], pa.string())})
        return tbl

    def test_broadcast_path(self, ray_session):
        ds = ray_session.data.from_arrow(self._fixture())
        out = dedup.decontaminate(ds).to_pandas().set_index("doc_id")
        assert set(out.index) == {38, 39}  # benchmark doc excluded
        assert bool(out.loc[38, "contaminated"]) and out.loc[38, "n_hits"] == 1
        assert not bool(out.loc[39, "contaminated"])

    def test_cogroup_path_matches_broadcast(self, ray_session):
        import pandas as pd

        ds = ray_session.data.from_arrow(self._fixture())
        a = dedup.decontaminate(ds).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        b = dedup.decontaminate(ds, bench_broadcast_max=0).to_pandas(
        ).sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


class TestPiiRedact:
    def test_no_pii_is_identity(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = ["plain words only", "dots. but no addresses 1.2 here"]
        ds = ray_session.data.from_arrow(docs_table(texts))
        out = ts.pii_redact(ds).to_pandas().set_index("doc_id")
        assert (out[["n_emails", "n_phones", "n_ips"]].to_numpy() == 0).all()
        assert list(out.clean_text) == texts

    def test_each_kind_redacted(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        ds = ray_session.data.from_arrow(docs_table(
            ["mail a.b@c.org now", "dial +44-123-4567 ok",
             "host 192.168.0.1 up", "x@y.io and 10.0.0.7"]))
        out = ts.pii_redact(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "clean_text"] == "mail <EMAIL> now"
        assert out.loc[1, "clean_text"] == "dial <PHONE> ok"
        assert out.loc[2, "clean_text"] == "host <IP> up"
        assert out.loc[3, "clean_text"] == "<EMAIL> and <IP>"
        assert out.loc[3, "n_emails"] == 1 and out.loc[3, "n_ips"] == 1


class TestTfidfBatchInvariance:
    def test_result_independent_of_partitioning(self, ray_session):
        # the DF map is a global aggregate, so per-doc scores must not
        # depend on how documents are batched together
        import pandas as pd

        from nmalign_ray.functions import textstats as ts

        texts = [f"shared word plus unique{i} token{i % 3} mix" for i in range(12)]
        tbl = docs_table(texts)
        one = ray_session.data.from_arrow(tbl)
        many = ray_session.data.from_arrow(tbl).repartition(6)
        a = ts.tfidf_top_terms(one).to_pandas().sort_values(
            ["doc_id", "rank"]).reset_index(drop=True)
        b = ts.tfidf_top_terms(many).to_pandas().sort_values(
            ["doc_id", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert (a.groupby("doc_id")["rank"].max() <= 3).all()


class TestGopherSignals:
    def test_known_values(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        ds = ray_session.data.from_arrow(docs_table(
            ["a a a a", "a b c d", ""]))
        out = ts.gopher_signals(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "dup_token_frac"] == 0.75
        assert out.loc[0, "top_token_frac"] == 1.0
        assert out.loc[0, "dup_2gram_frac"] == pytest.approx(2 / 3, abs=1e-6)
        assert out.loc[1, "dup_token_frac"] == 0.0
        assert out.loc[1, "dup_2gram_frac"] == 0.0
        assert out.loc[2, "n_tokens"] == 0

    def test_structured_fallback_matches_packed_path(self, monkeypatch):
        # the int64 packed-key guard's fallback must be value-identical
        # to the fast path (round-3 advice: silent wrap beyond ~2.1M
        # distinct tokens per batch)
        from nmalign_ray.functions import textstats as ts

        tbl = docs_table(["a a a a", "a b c d", "x y x y x", "", "q"])
        fast = ts.gopher_signals_batch(tbl)
        monkeypatch.setattr(ts, "GOPHER_PACK_LIMIT", 0)
        slow = ts.gopher_signals_batch(tbl)
        assert fast.equals(slow)


class TestGroupSample:
    def test_k_per_group_and_batch_invariant(self, ray_session):
        import pandas as pd

        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(40), pa.int64()),
             "lang": pa.array(["en", "de"] * 20, pa.string()),
             "n_chars": pa.array([10] * 40, pa.int64())})
        one = ray_session.data.from_arrow(tbl)
        many = ray_session.data.from_arrow(tbl).repartition(8)
        a = ts.group_sample(one, k=5).to_pandas().sort_values(
            ["lang", "doc_id"]).reset_index(drop=True)
        b = ts.group_sample(many, k=5).to_pandas().sort_values(
            ["lang", "doc_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert (a.groupby("lang").size() == 5).all()

    def test_small_group_kept_whole(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([1, 2, 3], pa.int64()),
             "lang": pa.array(["fr", "fr", "es"], pa.string()),
             "n_chars": pa.array([1, 2, 3], pa.int64())})
        out = ts.group_sample(ray_session.data.from_arrow(tbl), k=5).to_pandas()
        assert len(out) == 3


class TestInvertedIndex:
    def test_postings_merged_sorted_and_capped(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = ["alpha beta", "beta gamma", "beta beta alpha"]
        ds = ray_session.data.from_arrow(docs_table(texts)).repartition(3)
        out = ts.inverted_index(ds, max_postings=2).to_pandas(
        ).set_index("term")
        assert out.loc["beta", "df"] == 3  # df counts docs, not tokens
        assert out.loc["beta", "postings"] == "0,1"  # capped at 2, sorted
        assert out.loc["alpha", "df"] == 2
        assert out.loc["alpha", "postings"] == "0,2"
        assert out.loc["gamma", "postings"] == "1"


class TestKmvDistinct:
    def test_exact_below_k_and_batch_invariant(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = ["alpha beta gamma", "beta delta", "  ", "gamma epsilon"]
        one = ray_session.data.from_arrow(docs_table(texts))
        many = ray_session.data.from_arrow(docs_table(texts)).repartition(4)
        a = ts.kmv_distinct(one, k=16).to_pandas()
        b = ts.kmv_distinct(many, k=16).to_pandas()
        # 5 distinct tokens < k: the sketch IS the exact count
        assert a.loc[0, "n_kept"] == 5
        assert a.loc[0, "estimate_distinct"] == 5.0
        assert a.equals(b)

    def test_sketch_branch_deterministic(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = [" ".join(f"w{i}" for i in range(j, j + 30))
                 for j in range(0, 90, 10)]
        one = ray_session.data.from_arrow(docs_table(texts))
        many = ray_session.data.from_arrow(docs_table(texts)).repartition(5)
        a = ts.kmv_distinct(one, k=8).to_pandas()
        b = ts.kmv_distinct(many, k=8).to_pandas()
        assert a.loc[0, "n_kept"] == 8
        kth = int(a.loc[0, "kth_min_hash"])
        assert a.loc[0, "estimate_distinct"] == 7 * (2.0**64 / kth)
        assert a.equals(b)

    def test_empty_corpus(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.kmv_distinct(
            ray_session.data.from_arrow(docs_table(["", "  "]))).to_pandas()
        assert out.loc[0, "n_kept"] == 0
        assert out.loc[0, "estimate_distinct"] == 0.0


class TestHllDistinct:
    def _brute_regs(self, texts):
        import hashlib as hl

        from nmalign_ray.functions import textstats as ts

        toks = set()
        for t in texts:
            t = t.strip()
            if t:
                toks.update(t.lower().split())
        regs = {}
        shift = 64 - ts.HLL_P
        for tok in toks:
            hv = int.from_bytes(hl.md5(tok.encode()).digest()[:8], "big")
            b, w = hv >> shift, hv & ((1 << shift) - 1)
            rho = shift + 1 if w == 0 else shift + 1 - w.bit_length()
            regs[b] = max(regs.get(b, 0), rho)
        return regs, len(toks)

    def test_small_range_branch_and_partition_invariance(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = ["alpha beta gamma", "beta delta", "  ", "gamma epsilon"]
        a = ts.hll_distinct(
            ray_session.data.from_arrow(docs_table(texts))).to_pandas()
        b = ts.hll_distinct(
            ray_session.data.from_arrow(docs_table(texts)).repartition(4)
        ).to_pandas()
        regs, exact = self._brute_regs(texts)
        assert a.loc[0, "n_buckets_set"] == len(regs)
        assert a.loc[0, "estimate_distinct"] == ts._hll_estimate(regs)
        # 5 distinct tokens over 4096 registers: linear counting is ~exact
        assert abs(a.loc[0, "estimate_distinct"] - exact) < 0.01
        assert a.equals(b)

    def test_raw_branch_accuracy_at_large_cardinality(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        # 60k distinct tokens >> 2.5*m: exercises the raw-HLL branch;
        # the standard error for m=4096 is ~1.04/sqrt(m) ~ 1.6%
        texts = [" ".join(f"tok{i}" for i in range(j, j + 600))
                 for j in range(0, 60000, 600)]
        out = ts.hll_distinct(
            ray_session.data.from_arrow(docs_table(texts)).repartition(8)
        ).to_pandas()
        regs, exact = self._brute_regs(texts)
        est = out.loc[0, "estimate_distinct"]
        assert est == ts._hll_estimate(regs)
        assert est > 2.5 * ts.HLL_M  # raw branch, not linear counting
        assert abs(est - exact) / exact < 0.05

    def test_empty_corpus(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.hll_distinct(
            ray_session.data.from_arrow(docs_table(["", "  "]))).to_pandas()
        assert out.loc[0, "n_buckets_set"] == 0
        assert out.loc[0, "estimate_distinct"] == 0.0


class TestMixSample:
    def _tbl(self):
        return pa.Table.from_pydict(
            {"doc_id": pa.array(range(30), pa.int64()),
             "text": pa.array(
                 ["tok " * (i % 7 + 1) for i in range(30)], pa.string()),
             "source": pa.array(["a", "b", "c"] * 10, pa.string())})

    def test_budget_respected_and_batch_invariant(self, ray_session):
        import pandas as pd

        from nmalign_ray.functions import textstats as ts

        one = ray_session.data.from_arrow(self._tbl())
        many = ray_session.data.from_arrow(self._tbl()).repartition(6)
        a = ts.mix_sample(one, budget=12).to_pandas().sort_values(
            ["source", "doc_id"]).reset_index(drop=True)
        b = ts.mix_sample(many, budget=12).to_pandas().sort_values(
            ["source", "doc_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert (a.groupby("source")["n_tokens"].sum() <= 12).all()
        assert (a.groupby("source")["cum_tokens"].max()
                == a.groupby("source")["n_tokens"].sum()).all()

    def test_selection_is_hash_prefix(self, ray_session):
        import hashlib

        from nmalign_ray.functions import textstats as ts

        out = ts.mix_sample(
            ray_session.data.from_arrow(self._tbl()), budget=9).to_pandas()
        # within each source, kept docs are a PREFIX of the md5 order and
        # the first excluded doc would have burst the budget
        tbl = self._tbl().to_pandas()
        tbl["n_tokens"] = tbl["text"].str.strip().str.split().str.len()
        for src, grp in tbl.groupby("source"):
            grp = grp.assign(
                h=[hashlib.md5(str(i).encode()).hexdigest()
                   for i in grp["doc_id"]]).sort_values(["h", "doc_id"])
            cum = grp["n_tokens"].cumsum()
            want = set(grp.loc[cum <= 9, "doc_id"])
            got = set(out.loc[out["source"] == src, "doc_id"])
            assert got == want


class TestBloomDecontaminate:
    def _docs(self):
        # doc 0 and 37 are the benchmark slice (doc_id % 37 == 0); doc 38
        # shares doc 0's first 8-word chunk verbatim, doc 39 is clean
        bench = "b0 b1 b2 b3 b4 b5 b6 b7 tail0 tail1"
        clean = "c0 c1 c2 c3 c4 c5 c6 c7 c8 c9"
        ids = [0, 37, 38, 39]
        texts = [bench, "other bench words entirely here now",
                 "b0 b1 b2 b3 b4 b5 b6 b7 different end", clean]
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "text": pa.array(texts, pa.string())})

    def test_planted_contamination_and_batch_invariance(self, ray_session):
        import pandas as pd

        one = ray_session.data.from_arrow(self._docs())
        many = ray_session.data.from_arrow(self._docs()).repartition(4)
        a = dedup.bloom_decontaminate(one).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        b = dedup.bloom_decontaminate(many).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert list(a["doc_id"]) == [38, 39]  # benchmark docs excluded
        assert bool(a.loc[a.doc_id == 38, "contaminated"].iloc[0])
        assert not bool(a.loc[a.doc_id == 39, "contaminated"].iloc[0])

    def test_false_positives_match_reference_bloom(self, ray_session):
        """With a tiny filter, false positives MUST appear and must equal
        an independent pure-python Bloom computation exactly."""
        import hashlib as hl

        rows = 128
        texts = [" ".join(f"t{i}w{j}" for j in range(8)) for i in range(rows)]
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(rows), pa.int64()),
             "text": pa.array(texts, pa.string())})
        bits, hashes = 16, 2
        out = dedup.bloom_decontaminate(
            ray_session.data.from_arrow(tbl), bits=bits, hashes=hashes
        ).to_pandas().set_index("doc_id")

        def positions(chunk):
            d = hl.md5(chunk.encode()).digest()
            h1 = int.from_bytes(d[:8], "big") % bits
            h2 = int.from_bytes(d[8:16], "big") % bits
            return [(h1 + i * h2) % bits for i in range(hashes)]

        filt = set()
        for i in range(0, rows, 37):
            filt.update(positions(texts[i]))
        expect_fp = 0
        for i in range(rows):
            if i % 37 == 0:
                continue
            member = all(p in filt for p in positions(texts[i]))
            assert bool(out.loc[i, "contaminated"]) == member
            expect_fp += member
        assert expect_fp > 0  # the tiny filter really does false-positive


class TestRankedDocs:
    def test_global_rank_exact_and_partition_invariant(self, ray_session):
        import pandas as pd

        from nmalign_ray.functions import relational as rel

        rng_ids = list(range(50))
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(rng_ids, pa.int64()),
             "n_chars": pa.array([(i * 7) % 13 for i in rng_ids],
                                 pa.int64())})
        for parts in (1, 8):
            ds = ray_session.data.from_arrow(tbl).repartition(parts)
            out = rel.ranked_docs(ds).to_pandas().sort_values(
                "rank").reset_index(drop=True)
            want = (tbl.to_pandas()
                    .sort_values(["n_chars", "doc_id"],
                                 ascending=[False, True])
                    .reset_index(drop=True))
            want["rank"] = np.arange(len(want), dtype=np.int64)
            pd.testing.assert_frame_equal(out, want, check_dtype=False)


class TestOuterJoin:
    def test_both_sides_unmatched_and_batch_invariant(self, ray_session):
        import pandas as pd

        from nmalign_ray.functions import relational as rel

        cust = pa.Table.from_pydict({
            "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
            "c_name": pa.array(["a", "b", "c", "d"], pa.string()),
            "c_mktsegment": pa.array(
                ["BUILDING", "BUILDING", "AUTO", "BUILDING"], pa.string()),
        })
        orders = pa.Table.from_pydict({
            "o_custkey": pa.array([2, 2, 3, 9], pa.int64())})
        for parts in (1, 3):
            out = rel.outer_join_orders(
                ray_session.data.from_arrow(cust).repartition(parts),
                ray_session.data.from_arrow(orders).repartition(parts),
            ).to_pandas().sort_values("custkey").reset_index(drop=True)
            want = pd.DataFrame({
                "custkey": [1, 2, 3, 4, 9],
                "c_name": ["a", "b", "", "d", ""],
                "order_count": [0, 2, 1, 0, 1],
                "has_customer": [True, True, False, True, False],
                "has_orders": [False, True, True, False, True],
            })
            # custkey 3 is AUTO: right-only; 1 and 4: left-only; 9: no
            # customer row at all
            pd.testing.assert_frame_equal(out, want, check_dtype=False)


class TestKeySkew:
    def test_skewed_key_surfaces_with_exact_stats(self, ray_session):
        from nmalign_ray.functions import relational as rel

        ids = [5] * 40 + list(range(100, 120))  # one hot key + 20 singles
        tbl = pa.Table.from_pydict({"user_id": pa.array(ids, pa.int64())})
        out = rel.key_skew(
            ray_session.data.from_arrow(tbl).repartition(4), k=3
        ).to_pandas()
        assert len(out) == 3
        assert out.iloc[0]["user_id"] == 5 and out.iloc[0]["cnt"] == 40
        assert (out["n_keys"] == 21).all()
        assert (out["n_rows"] == 60).all()
        assert (out["max_cnt"] == 40).all()
        assert out.iloc[0]["skew"] == 40 / (60 / 21.0)
        # ties broken by smaller key id
        assert list(out["user_id"][1:]) == [100, 101]

    def test_empty_input_returns_typed_empty(self, ray_session):
        # a schema-bearing but zero-row events table must not divide by
        # zero keys (round-3 advice)
        from nmalign_ray.functions import relational as rel

        tbl = pa.Table.from_pydict({"user_id": pa.array([], pa.int64())})
        out = rel.key_skew(ray_session.data.from_arrow(tbl), k=3).to_pandas()
        assert len(out) == 0


class TestValueQuantiles:
    def test_string_keys_supported(self, ray_session):
        # the coarse-shard rewrite must not narrow the key domain: the
        # old groupby path accepted any hashable key type
        from nmalign_ray.functions import relational as rel

        tbl = pa.Table.from_pydict({
            "user_id": pa.array(["u-a"] * 5 + ["u-b"] * 3, pa.string()),
            "value": pa.array([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 7.0, 8.0],
                              pa.float64()),
        })
        out = rel.value_quantiles(
            ray_session.data.from_arrow(tbl).repartition(3)
        ).to_pandas().set_index("user_id")
        assert out.loc["u-a", "p50"] == 3.0  # v[floor(4*0.5)] of sorted
        assert out.loc["u-a", "p90"] == 4.0  # v[floor(4*0.9)]
        assert out.loc["u-b", "p50"] == 8.0
        assert out.loc["u-b", "n_events"] == 3


class TestPackSequences:
    def test_partition_invariant_and_brute_exact(self, ray_session):
        # packing is a function of the GLOBAL md5 order: block/partition
        # boundaries must not move any document's bin assignment
        import hashlib

        from nmalign_ray.functions import textstats as ts

        texts = [f"doc {i} " + "w " * (i % 37) for i in range(60)]
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(60), pa.int64()),
             "text": pa.array(texts, pa.string())})
        a = ts.pack_sequences(
            ray_session.data.from_arrow(tbl), bin_tokens=50
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = ts.pack_sequences(
            ray_session.data.from_arrow(tbl).repartition(7), bin_tokens=50
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        import pandas as pd

        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        # brute-force replay of the greedy concat order
        rows = sorted(
            ((hashlib.md5(str(i).encode()).hexdigest(), i,
              len(t.strip().split()))
             for i, t in enumerate(texts) if t.strip()),
        )
        cum = 0
        want = {}
        for _, i, n in rows:
            want[i] = (cum // 50, cum % 50, cum + n)
            cum += n
        got = {r.doc_id: (r.bin_id, r.bin_offset, r.cum_tokens)
               for r in a.itertuples()}
        assert got == want
        # bins fill contiguously: every bin id up to the max appears
        assert set(a["bin_id"]) == set(range(a["bin_id"].max() + 1))


class TestVocabBroadcastGate:
    def test_top_terms_gate_raises_loudly(self, ray_session, monkeypatch):
        from nmalign_ray.functions import textstats as ts

        ds = ray_session.data.from_arrow(docs_table(
            ["alpha beta gamma delta", "epsilon zeta eta theta"]))
        monkeypatch.setattr(ts, "VOCAB_BROADCAST_MAX", 3)
        with pytest.raises(ValueError, match="VOCAB_BROADCAST_MAX"):
            ts.top_terms(ds).to_pandas()

    def test_tfidf_gate_raises_loudly(self, ray_session, monkeypatch):
        from nmalign_ray.functions import textstats as ts

        ds = ray_session.data.from_arrow(docs_table(
            ["alpha beta gamma delta", "epsilon zeta eta theta"]))
        monkeypatch.setattr(ts, "VOCAB_BROADCAST_MAX", 3)
        with pytest.raises(ValueError, match="VOCAB_BROADCAST_MAX"):
            ts.tfidf_top_terms(ds).to_pandas()


class TestSoftSample:
    def test_deterministic_subset_with_consistent_threshold(
            self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = [("the and of a " * (i % 5)) + "filler words here x y z"
                 for i in range(40)]
        ds1 = ray_session.data.from_arrow(docs_table(texts))
        ds2 = ray_session.data.from_arrow(docs_table(texts)).repartition(5)
        a = ts.soft_sample(ds1).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        b = ts.soft_sample(ds2).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        import pandas as pd

        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert 0 < len(a) < 40  # neither empty nor everything
        assert (a["hash_frac"] < a["keep_prob"]).all()


class TestRangeJoinBruteForce:
    def test_matches_pairwise_brute_force_with_boundary_ties(self, ray_session):
        # seeded layout that forces the window-edge cases: events exactly
        # AT the probe timestamp (excluded: strict >) and exactly at
        # probe.ts + 1h (included: <=)
        import pandas as pd
        import pyarrow as pa

        from nmalign_ray.functions.relational import range_join

        rng = np.random.default_rng(7)
        n = 400
        base = np.datetime64("2024-01-01T00:00:00", "us")
        ts = base + (rng.integers(0, 4 * 3600, n) * 1_000_000).astype(
            "timedelta64[us]")
        # plant exact-boundary twins for the first 20 probes
        ev = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 5, n).astype(np.int64),
            "ts": ts,
            "value": np.round(rng.uniform(0, 50, n), 2),
        })
        probes = ev[ev["event_id"] % 50 == 0]
        twins = probes.head(20).copy()
        twins["event_id"] = twins["event_id"] + 1_000  # % 50 != 0
        at_edge = twins.copy()
        at_edge["event_id"] += 1_000
        at_edge["ts"] = at_edge["ts"] + pd.Timedelta(hours=1)
        ev = pd.concat([ev, twins, at_edge], ignore_index=True)

        ds = ray_session.data.from_arrow(
            pa.Table.from_pandas(ev, preserve_index=False))
        got = (
            range_join(ds).to_pandas()
            .sort_values(["user_id", "event_id"]).reset_index(drop=True)
        )

        rows = []
        for _, p in ev[ev["event_id"] % 50 == 0].iterrows():
            q = ev[(ev["user_id"] == p["user_id"])
                   & (ev["ts"] > p["ts"])
                   & (ev["ts"] <= p["ts"] + pd.Timedelta(hours=1))]
            cents = np.rint(q["value"].to_numpy() * 100).astype(np.int64)
            rows.append({"user_id": p["user_id"], "event_id": p["event_id"],
                         "ts": p["ts"], "n_in_window": len(q),
                         "sum_value": round(cents.sum() / 100.0, 3)})
        want = (
            pd.DataFrame(rows)
            .sort_values(["user_id", "event_id"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # the planted twins must actually exercise both boundaries
        assert (want["n_in_window"] > 0).any()


class TestGroupedTopkBruteForce:
    def test_matches_pandas_rank_with_price_ties(self, ray_session):
        import pandas as pd
        import pyarrow as pa

        from nmalign_ray.functions.relational import grouped_topk

        rng = np.random.default_rng(11)
        n = 500
        orders = pd.DataFrame({
            "o_orderkey": np.arange(n, dtype=np.int64),
            "o_custkey": rng.integers(0, 40, n).astype(np.int64),
            # coarse price grid so equal prices occur within a customer
            # and the o_orderkey tie-break decides the rank
            "o_totalprice": np.round(
                rng.integers(1, 8, n) * 10.0 + 0.25, 2),
        })
        ds = ray_session.data.from_arrow(
            pa.Table.from_pandas(orders, preserve_index=False))
        got = (
            grouped_topk(ds).to_pandas()
            .sort_values(["o_custkey", "rnk"]).reset_index(drop=True)
        )

        w = orders.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort")
        w = w.groupby("o_custkey", sort=False).head(3).copy()
        w["rnk"] = w.groupby("o_custkey", sort=False).cumcount() + 1
        want = (
            w[["o_custkey", "rnk", "o_orderkey", "o_totalprice"]]
            .sort_values(["o_custkey", "rnk"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # ties must actually occur for the tie-break to be exercised
        dup = orders.duplicated(["o_custkey", "o_totalprice"], keep=False)
        assert dup.any()


def _ref_png(px, ftype, ctype=2):
    """Reference PNG writer used only by tests: encodes with a CHOSEN
    scanline filter so every unfilter branch of try_decode_png is
    exercised against an independent implementation of the spec."""
    import struct
    import zlib

    h, w, c = px.shape
    flat = px.reshape(h, w * c).astype(np.int64)
    rows, prev = [], np.zeros(w * c, np.int64)
    for y in range(h):
        row = flat[y]
        left = np.concatenate([np.zeros(c, np.int64), row[:-c]])
        if ftype == 1:
            enc = (row - left) % 256
        elif ftype == 2:
            enc = (row - prev) % 256
        elif ftype == 3:
            enc = (row - (left + prev) // 2) % 256
        elif ftype == 4:
            enc = np.zeros(w * c, np.int64)
            for x in range(w * c):
                a = row[x - c] if x >= c else 0
                b = prev[x]
                cc = prev[x - c] if x >= c else 0
                p = a + b - cc
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else cc)
                enc[x] = (row[x] - pred) % 256
        else:
            enc = row
        rows.append(np.concatenate([[ftype], enc]).astype(np.uint8))
        prev = row
    raw = np.stack(rows).tobytes()

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


class TestPngRealCodec:
    def test_roundtrip_and_rejects_non_png(self):
        from nmalign_ray.functions.media import encode_png, try_decode_png

        rng = np.random.default_rng(7)
        px = rng.integers(0, 256, (23, 17, 3), dtype=np.uint8)
        w, h, got = try_decode_png(encode_png(px))
        assert (w, h) == (17, 23) and np.array_equal(got, px)
        for junk in (b"", b"\x89PNG\r\n\x1a\n", b"\x89PNG\r\n\x1a\njunk",
                     b"not a png at all"):
            assert try_decode_png(junk) is None

    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_every_unfilter_branch(self, ftype):
        from nmalign_ray.functions.media import try_decode_png

        rng = np.random.default_rng(ftype)
        px = rng.integers(0, 256, (11, 13, 3), dtype=np.uint8)
        w, h, got = try_decode_png(_ref_png(px, ftype))
        assert np.array_equal(got, px)

    def test_zlib_bomb_is_rejected_without_inflation(self):
        # a small payload claiming huge dims (or inflating past its
        # header's size) must return None, not allocate gigabytes
        import struct
        import zlib

        from nmalign_ray.functions.media import try_decode_png

        def chunk(tag, body):
            return (struct.pack(">I", len(body)) + tag + body
                    + struct.pack(">I", zlib.crc32(tag + body)))

        # dims beyond the pixel cap
        ihdr = struct.pack(">IIBBBBB", 100000, 100000, 8, 2, 0, 0, 0)
        bomb = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(b"\x00" * 1000))
                + chunk(b"IEND", b""))
        assert try_decode_png(bomb) is None
        # small dims but the stream inflates past the header's claim
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        over = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(b"\x00" * 10000))
                + chunk(b"IEND", b""))
        assert try_decode_png(over) is None

    def test_gray_and_rgba_color_types(self):
        from nmalign_ray.functions.media import try_decode_png

        rng = np.random.default_rng(3)
        g = rng.integers(0, 256, (9, 11, 1), dtype=np.uint8)
        _, _, got = try_decode_png(_ref_png(g, 2, ctype=0))
        assert np.array_equal(got, np.repeat(g, 3, axis=2))
        a = rng.integers(0, 256, (9, 11, 4), dtype=np.uint8)
        _, _, got = try_decode_png(_ref_png(a, 4, ctype=6))
        assert np.array_equal(got, a[:, :, :3])

    def test_decode_features_run_the_compressed_route(self, ray_session):
        # pixel-identical gradients to the PPM oracle but PNG-contained:
        # the channel means must match the closed-form sums through
        # zlib inflate + unfilter, not stub arithmetic
        from nmalign_ray.functions.media import (
            decode_features,
            png_media_from_documents,
            try_decode_png,
        )

        docs = ray_session.data.from_arrow(pa.Table.from_pydict(
            {"doc_id": pa.array(range(8), pa.int64())}))
        tbl_ds = png_media_from_documents(docs, n=8)
        tbl = tbl_ds.to_pandas()
        out = decode_features(
            png_media_from_documents(docs, n=8)
        ).to_pandas().set_index("media_ref")
        assert len(out) == 8
        for _, m in tbl.iterrows():
            w, h, px = try_decode_png(m["payload"])
            row = out.loc[m["media_ref"]]
            assert (row["width"], row["height"]) == (w, h)
            np.testing.assert_allclose(
                np.asarray(row["feature"])[:3],
                px.reshape(-1, 3).astype(np.float64).mean(axis=0) / 255.0)

    def test_resize_keeps_the_png_container(self, ray_session):
        from nmalign_ray.functions.media import (
            png_media_from_documents,
            resize_images,
            try_decode_png,
        )

        docs = ray_session.data.from_arrow(pa.Table.from_pydict(
            {"doc_id": pa.array(range(4), pa.int64())}))
        src = png_media_from_documents(docs, n=4).to_pandas()
        out = resize_images(
            png_media_from_documents(docs, n=4), max_side=6
        ).to_pandas().set_index("media_ref")
        for _, m in src.iterrows():
            w, h, px = try_decode_png(m["payload"])
            row = out.loc[m["media_ref"]]
            nw, nh, rpx = try_decode_png(row["payload"])  # still PNG
            assert (nw, nh) == (row["width"], row["height"])
            ys = (np.arange(nh) * h) // nh
            xs = (np.arange(nw) * w) // nw
            assert np.array_equal(rpx, px[ys][:, xs])


class TestWavRealCodec:
    def test_roundtrip_and_rejects_non_wav(self):
        from nmalign_ray.functions.media import encode_wav, try_decode_wav

        rng = np.random.default_rng(5)
        s = rng.integers(-32768, 32768, 300, dtype=np.int16)
        rate, got = try_decode_wav(encode_wav(s, rate=16000))
        assert rate == 16000 and np.array_equal(got[:, 0], s)
        # stereo
        st = rng.integers(-32768, 32768, (50, 2), dtype=np.int16)
        rate, got = try_decode_wav(encode_wav(st))
        assert got.shape == (50, 2) and np.array_equal(got, st)
        for junk in (b"", b"RIFF", b"RIFFxxxxWAVE",
                     b"RIFF\x00\x00\x00\x00AIFF"):
            assert try_decode_wav(junk) is None
        # rate=0 (would divide-by-zero the duration feature) and a
        # >int32 rate (would overflow the height column) are not-WAV
        import struct

        wav = encode_wav(s, rate=16000)
        i = wav.index(b"fmt ") + 8 + 4  # sample-rate field offset
        assert try_decode_wav(
            wav[:i] + struct.pack("<I", 0) + wav[i + 4:]) is None
        assert try_decode_wav(
            wav[:i] + struct.pack("<I", 2 ** 31) + wav[i + 4:]) is None

    def test_odd_length_chunks_are_word_aligned(self):
        # a LIST chunk with odd length before fmt/data must not derail
        # the walk (RIFF pads chunks to word boundaries)
        import struct

        from nmalign_ray.functions.media import encode_wav, try_decode_wav

        s = np.arange(10, dtype=np.int16)
        wav = encode_wav(s)
        odd = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"
        patched = (b"RIFF" + struct.pack("<I", len(wav[8:]) + len(odd))
                   + b"WAVE" + odd + wav[12:])
        rate, got = try_decode_wav(patched)
        assert np.array_equal(got[:, 0], s)

    def test_decode_features_match_closed_form(self, ray_session):
        import math

        from nmalign_ray.functions.media import (
            decode_features,
            try_decode_wav,
            wav_media_from_documents,
        )

        docs = ray_session.data.from_arrow(pa.Table.from_pydict(
            {"doc_id": pa.array(range(8), pa.int64())}))
        tbl = wav_media_from_documents(docs, n=8).to_pandas()
        out = decode_features(
            wav_media_from_documents(docs, n=8)
        ).to_pandas().set_index("media_ref")
        assert len(out) == 8
        for _, m in tbl.iterrows():
            rate, samples = try_decode_wav(m["payload"])
            s = samples[:, 0].astype(np.int64)
            row = out.loc[m["media_ref"]]
            assert (row["width"], row["height"]) == (len(s), rate)
            feat = np.asarray(row["feature"])
            assert feat[0] == len(s) / rate
            assert feat[1] == (int(s.sum()) / len(s)) / 32768.0
            assert feat[2] == math.sqrt(int((s * s).sum()) / len(s)) / 32768.0
            np.testing.assert_allclose(feat[4:].sum(), 1.0)

    def test_frame_sampling_is_real_for_wav(self, ray_session):
        # frames from a PCM payload are ACTUAL sample windows: splicing
        # the frame payloads back together reproduces the original clip,
        # and timestamps come from the true sample rate
        from nmalign_ray.functions.media import (
            sample_frames,
            try_decode_wav,
            wav_media_from_documents,
        )

        docs = ray_session.data.from_arrow(pa.Table.from_pydict(
            {"doc_id": pa.array(range(4), pa.int64())}))
        src = wav_media_from_documents(docs, n=4).to_pandas()
        frames = sample_frames(
            wav_media_from_documents(docs, n=4), frames_per_item=4
        ).to_pandas()
        for _, m in src.iterrows():
            rate, samples = try_decode_wav(m["payload"])
            mine = frames[frames["media_ref"] == m["media_ref"]].sort_values(
                "frame_index")
            assert len(mine) == 4
            parts = [try_decode_wav(p)[1] for p in mine["payload"]]
            assert np.array_equal(np.concatenate(parts), samples)
            total = len(samples)
            want_ts = [int((i * total // 4) * 1000 // rate)
                       for i in range(4)]
            assert list(mine["timestamp_ms"]) == want_ts

    def test_strict_flags_kind_contradictions(self):
        from nmalign_ray.functions import media

        s = np.arange(20, dtype=np.int16)
        wav = media.encode_wav(s)
        with pytest.raises(ValueError, match="declared kind"):
            media.DecodeStub(strict=True)._decode(wav, "image")
        # lenient: falls to the deterministic fake for the wrong kind
        w, h, _, _ = media.DecodeStub()._decode(wav, "image")
        import hashlib
        digest = hashlib.md5(wav).digest()
        assert (w, h) == (16 + digest[0], 16 + digest[1])


class TestPpmRealCodec:
    def test_roundtrip_and_rejects_non_ppm(self):
        from nmalign_ray.functions.media import encode_ppm, try_decode_ppm

        px = (np.arange(6 * 4 * 3, dtype=np.uint8)).reshape(4, 6, 3)
        w, h, got = try_decode_ppm(encode_ppm(px))
        assert (w, h) == (6, 4)
        assert np.array_equal(got, px)
        for junk in (b"", b"P6", b"P6\nnot a dim line\n255\n",
                     b"P6\n2 2\n255\nshort", "P6\ntext payload".encode()):
            assert try_decode_ppm(junk) is None

    def test_decode_features_are_real_pixel_statistics(self, ray_session):
        from nmalign_ray.functions.media import (
            decode_features,
            synth_ppm_media_table,
            try_decode_ppm,
        )

        tbl = synth_ppm_media_table(6)
        out = decode_features(
            ray_session.data.from_arrow(tbl)
        ).to_pandas().set_index("media_ref")
        for ref, payload in zip(tbl["media_ref"].to_pylist(),
                                tbl["payload"].to_pylist()):
            w, h, px = try_decode_ppm(payload)
            row = out.loc[ref]
            assert (row["width"], row["height"]) == (w, h)
            feat = np.asarray(row["feature"])
            assert len(feat) == 16
            np.testing.assert_allclose(
                feat[:3],
                px.reshape(-1, 3).astype(np.float64).mean(axis=0) / 255.0)
            assert feat[3] == w / h
            # histogram fractions over luminance sum to 1
            np.testing.assert_allclose(feat[4:].sum(), 1.0)

    def test_resize_emits_valid_ppm_with_nearest_neighbor_pixels(
            self, ray_session):
        from nmalign_ray.functions.media import (
            resize_images,
            synth_ppm_media_table,
            try_decode_ppm,
        )

        tbl = synth_ppm_media_table(4)
        out = resize_images(
            ray_session.data.from_arrow(tbl), max_side=16
        ).to_pandas().set_index("media_ref")
        for ref, payload in zip(tbl["media_ref"].to_pylist(),
                                tbl["payload"].to_pylist()):
            w, h, px = try_decode_ppm(payload)
            row = out.loc[ref]
            nw, nh, rpx = try_decode_ppm(row["payload"])
            assert (nw, nh) == (row["width"], row["height"])
            assert max(nw, nh) <= 16
            ys = (np.arange(nh) * h) // nh
            xs = (np.arange(nw) * w) // nw
            assert np.array_equal(rpx, px[ys][:, xs])

    def test_strict_mode_decodes_ppm_but_raises_on_opaque_bytes(self):
        from nmalign_ray.functions.media import DecodeStub, encode_ppm

        stub = DecodeStub(strict=True)
        px = np.zeros((3, 3, 3), dtype=np.uint8)
        w, h, checksum, feat = stub._decode(encode_ppm(px), "image")
        assert (w, h) == (3, 3)
        with pytest.raises(NotImplementedError):
            stub._decode(b"\x89PNG fake compressed bytes", "image")


class TestBm25TopK:
    def test_partition_invariant_and_brute_exact(self, ray_session):
        import math as m

        from nmalign_ray.functions import textstats as ts

        texts = [
            " ".join(["hash"] * (i % 4) + ["join"] * (i % 3)
                     + ["stream"] * (i % 2) + ["filler"] * (i % 7 + 1))
            for i in range(40)
        ] + ["", "   "]
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(42), pa.int64()),
             "text": pa.array(texts, pa.string())})
        a = ts.bm25_topk(ray_session.data.from_arrow(tbl),
                         k=10).to_pandas()
        b = ts.bm25_topk(ray_session.data.from_arrow(tbl).repartition(7),
                         k=10).to_pandas()
        import pandas as pd

        pd.testing.assert_frame_equal(a, b)
        # brute replay of the scoring formula
        docs = [(i, t.strip().lower().split()) for i, t in enumerate(texts)
                if t.strip()]
        n = len(docs)
        avgdl = sum(len(tk) for _, tk in docs) / n
        terms = ts.BM25_TERMS
        dfs = [sum(1 for _, tk in docs if t in tk) for t in terms]
        scored = []
        for i, tk in docs:
            s = 0.0
            dl = len(tk)
            for j, t in enumerate(terms):
                tf = tk.count(t)
                idf = m.log(1.0 + (n - dfs[j] + 0.5) / (dfs[j] + 0.5))
                s = s + (idf * tf * (ts.BM25_K1 + 1.0)
                         / (tf + ts.BM25_K1
                            * (1.0 - ts.BM25_B
                               + ts.BM25_B * dl / avgdl)))
            if any(t in tk for t in terms):
                scored.append((i, float(ts.round6(s))))
        scored.sort(key=lambda r: (-r[1], r[0]))
        want = scored[:10]
        got = list(zip(a["doc_id"], a["score"]))
        assert got == want
        assert list(a["rank"]) == list(range(1, len(want) + 1))

    def test_empty_corpus_typed_empty(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([1, 2], pa.int64()),
             "text": pa.array(["", "  "], pa.string())})
        out = ts.bm25_topk(ray_session.data.from_arrow(tbl)).to_pandas()
        assert len(out) == 0

    def test_no_query_term_typed_empty(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([1, 2], pa.int64()),
             "text": pa.array(["der die", "\tund"], pa.string())})
        out = ts.bm25_topk(ray_session.data.from_arrow(tbl))
        assert out.schema().names == ["doc_id", "score", "rank"]
        assert len(out.to_pandas()) == 0


class TestPmiBigrams:
    def test_partition_invariant_and_brute_exact(self, ray_session):
        import math as m
        from collections import Counter

        from nmalign_ray.functions import textstats as ts

        texts = [f"a b a c b a {'x y ' * (i % 3)}d" for i in range(30)]
        texts += ["", " single "]
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "text": pa.array(texts, pa.string())})
        a = ts.pmi_bigrams(ray_session.data.from_arrow(tbl),
                           min_count=2, k=8).to_pandas()
        b = ts.pmi_bigrams(
            ray_session.data.from_arrow(tbl).repartition(5),
            min_count=2, k=8).to_pandas()
        import pandas as pd

        pd.testing.assert_frame_equal(a, b)
        uni: Counter = Counter()
        big: Counter = Counter()
        for t in texts:
            tk = t.strip().lower().split()
            uni.update(tk)
            big.update(zip(tk, tk[1:]))
        n1 = sum(uni.values())
        n2 = sum(big.values())
        scored = []
        for (w1, w2), c2 in big.items():
            if c2 < 2:
                continue
            pmi = float(ts.round6(
                m.log(float(c2) * n1 * n1
                      / (float(uni[w1]) * uni[w2] * n2))))
            scored.append((w1, w2, c2, pmi))
        scored.sort(key=lambda r: (-r[3], r[0], r[1]))
        want = scored[:8]
        got = list(zip(a["w1"], a["w2"], a["cnt"], a["pmi"]))
        assert got == want

    def test_empty_corpus_typed_empty(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([1], pa.int64()),
             "text": pa.array([""], pa.string())})
        out_ds = ts.pmi_bigrams(ray_session.data.from_arrow(tbl))
        # Dataset schema keeps the typed columns; to_pandas() on any
        # zero-row dataset is column-less (known Ray behavior)
        assert out_ds.schema().names == ["w1", "w2", "cnt", "pmi", "rank"]
        assert len(out_ds.to_pandas()) == 0


class TestWinnowFingerprints:
    @staticmethod
    def _brute(doc_id, text, k, w):
        from winnow_ref import winnow_brute

        return {(doc_id, pos, fp) for pos, fp in winnow_brute(text, k, w)}

    def test_brute_exact_and_partition_invariant(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = [
            "the quick brown fox jumps over the lazy dog",
            "aaaaaaaaaaaaaaaa",  # all grams identical: every window ties
            "Mixed  CASE and   runs\tof whitespace in here",
            "\ttab-edged doc body with enough length\t",
            "xy",                # shorter than a gram: no fingerprints
            "exactgram",         # one gram over the K boundary
            "justovergram",      # K <= len < K + W - 1: single window
            "",
        ]
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "text": pa.array(texts, pa.string())})
        a = ts.winnow_fingerprints(
            ray_session.data.from_arrow(tbl)).to_pandas()
        b = ts.winnow_fingerprints(
            ray_session.data.from_arrow(tbl).repartition(5)).to_pandas()
        # frame-wide to_numpy() would coerce the uint64 fp column to
        # float64 (lossy) — compare typed per-column tuples
        key = lambda df: sorted(zip((int(x) for x in df["doc_id"]),
                                    (int(x) for x in df["pos"]),
                                    (int(x) for x in df["fp"])))
        assert key(a) == key(b)
        want = set()
        for i, t in enumerate(texts):
            want |= self._brute(i, t, ts.WINNOW_K, ts.WINNOW_W)
        assert set(key(a)) == want
        # no rows for the sub-gram-length docs ("xy" and "")
        assert 4 not in set(a["doc_id"]) and 7 not in set(a["doc_id"])

    def test_shared_substring_guarantee(self, ray_session):
        # any common substring of length >= K + W - 1 must share a
        # selected fingerprint (the winnowing guarantee)
        from nmalign_ray.functions import textstats as ts

        shared = "zqvjxkwpbmfgds"  # K + W - 1 = 11 < len
        assert len(shared) >= ts.WINNOW_K + ts.WINNOW_W - 1
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([0, 1], pa.int64()),
             "text": pa.array([f"left pad {shared} tail one",
                               f"completely other {shared} prose"],
                              pa.string())})
        out = ts.winnow_fingerprints(
            ray_session.data.from_arrow(tbl)).to_pandas()
        f0 = set(out[out["doc_id"] == 0]["fp"])
        f1 = set(out[out["doc_id"] == 1]["fp"])
        assert f0 & f1

    def test_empty_corpus_typed_empty(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([1], pa.int64()),
             "text": pa.array([""], pa.string())})
        out_ds = ts.winnow_fingerprints(ray_session.data.from_arrow(tbl))
        assert out_ds.schema().names == ["doc_id", "pos", "fp"]
        assert len(out_ds.to_pandas()) == 0


class TestTemperatureMix:
    def test_brute_exact_and_partition_invariant(self, ray_session):
        import hashlib as hl
        import math as m

        from nmalign_ray.functions import textstats as ts

        n = 200
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(n), pa.int64()),
             "source": pa.array(
                 ["big" if i % 10 < 7 else ("mid" if i % 10 < 9 else "sm")
                  for i in range(n)], pa.string())})
        a = ts.temperature_mix(
            ray_session.data.from_arrow(tbl)).to_pandas()
        b = ts.temperature_mix(
            ray_session.data.from_arrow(tbl).repartition(7)).to_pandas()
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)
        counts = {"big": 140, "mid": 40, "sm": 20}
        rates = {s: m.sqrt(float(20) / c) for s, c in counts.items()}
        want = []
        for i in range(n):
            s = ("big" if i % 10 < 7 else ("mid" if i % 10 < 9 else "sm"))
            frac = int.from_bytes(
                hl.md5(str(i).encode()).digest()[:4], "big") / 2 ** 32
            if frac < rates[s]:
                want.append((i, s, rates[s]))
        assert key(a) == sorted(want)
        # the small source survives in full (rate exactly 1.0)
        assert set(a[a["source"] == "sm"]["doc_id"]) == {
            i for i in range(n) if i % 10 >= 9}

    def test_uniform_sources_keep_everything(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(40), pa.int64()),
             "source": pa.array([f"s{i % 4}" for i in range(40)],
                                pa.string())})
        out = ts.temperature_mix(ray_session.data.from_arrow(tbl)).to_pandas()
        assert len(out) == 40 and (out["rate"] == 1.0).all()

    def test_skewed_sources_remap(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(30), pa.int64())})
        out = ts.skewed_sources(
            ray_session.data.from_arrow(tbl)).to_pandas()
        got = dict(zip(out["doc_id"], out["source"]))
        for i in range(30):
            assert got[i] == ("head" if i % 10 < 6
                              else "mid" if i % 10 < 9 else "tail")

    def test_empty_corpus_typed_empty(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([], pa.int64()),
             "source": pa.array([], pa.string())})
        out_ds = ts.temperature_mix(ray_session.data.from_arrow(tbl))
        assert out_ds.schema().names == ["doc_id", "source", "rate"]
        assert len(out_ds.to_pandas()) == 0


class TestSemdedup:
    def _emb_table(self, vecs, ids=None):
        n = len(vecs)
        ids = list(range(n)) if ids is None else ids
        return pa.Table.from_pydict(
            {"vec_id": pa.array(ids, pa.int64()),
             "embedding": pa.array(
                 [list(map(float, v)) for v in vecs],
                 pa.list_(pa.float32()))})

    def test_planted_copies_dropped_original_kept(self, ray_session):
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((80, 64))
        ds = ray_session.data.from_arrow(self._emb_table(vecs))
        out = simsearch.semdedup(ds).to_pandas().set_index("vec_id")
        # the fixture plants jittered copies of vec_id < 32 at id+1e6;
        # every planted row that lands in its source's cluster must be
        # dropped (source id < copy id), and the source itself kept
        # unless it near-dups an even smaller id
        n_planted = (out.index >= 1_000_000).sum()
        assert n_planted == 32
        n_dropped = 0
        for vid in out.index[out.index >= 1_000_000]:
            src = vid - 1_000_000
            if out.loc[src, "cluster"] == out.loc[vid, "cluster"]:
                # same-cluster copy: the smaller-id source wins
                assert not out.loc[vid, "keep"]
                n_dropped += 1
        assert n_dropped > 0 and not out["keep"].all()
        assert len(out) == 80 + 32

    def test_partition_invariant(self, ray_session):
        rng = np.random.default_rng(12)
        vecs = rng.standard_normal((60, 64))
        tbl = self._emb_table(vecs)
        a = simsearch.semdedup(
            ray_session.data.from_arrow(tbl)).to_pandas()
        b = simsearch.semdedup(
            ray_session.data.from_arrow(tbl).repartition(5)).to_pandas()
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)

    def test_identical_vectors_keep_min_id(self, ray_session):
        rng = np.random.default_rng(13)
        base = rng.standard_normal(64)
        others = rng.standard_normal((40, 64))
        vecs = np.vstack([others, base, base, base])
        # ids chosen so no planted fixture row collides (< 32 plants too,
        # but the triple sits above them)
        ds = ray_session.data.from_arrow(self._emb_table(vecs))
        out = simsearch.semdedup(ds).to_pandas().set_index("vec_id")
        trip = out.loc[[40, 41, 42]]
        assert trip["cluster"].nunique() == 1
        assert bool(trip.loc[40, "keep"])
        assert not trip.loc[41, "keep"] and not trip.loc[42, "keep"]


class TestDocPerplexity:
    def test_hand_computed_tiny_corpus(self, ray_session):
        import math

        from nmalign_ray.functions import textstats as ts

        texts = ["a a b", "b c", ""]
        ds = ray_session.data.from_arrow(docs_table(texts))
        out = ts.doc_perplexity(ds).to_pandas().set_index("doc_id")
        # LM: a=2, b=2, c=1, N=5
        la, lb, lc = (math.log2(2 / 5), math.log2(2 / 5), math.log2(1 / 5))
        s0 = 2.0 * la + 1.0 * lb          # terms ordered a < b
        s1 = 1.0 * lb + 1.0 * lc
        assert out.loc[0, "n_tokens"] == 3
        assert out.loc[0, "avg_logprob2"] == s0 / 3.0
        assert out.loc[1, "avg_logprob2"] == s1 / 2.0
        assert out.loc[2, "n_tokens"] == 0
        assert out.loc[2, "avg_logprob2"] == 0.0
        assert out.loc[2, "perplexity"] == 1.0
        # repeated boilerplate scores LOWER perplexity than rare text
        assert out.loc[0, "perplexity"] < out.loc[1, "perplexity"]

    def test_partition_invariant(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = [f"tok{i % 7} tok{i % 3} tok{i % 11} filler" for i in
                 range(60)]
        tbl = docs_table(texts)
        a = ts.doc_perplexity(
            ray_session.data.from_arrow(tbl)).to_pandas()
        b = ts.doc_perplexity(
            ray_session.data.from_arrow(tbl).repartition(6)).to_pandas()
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)


class TestEmptyCorpusVocabCollects:
    """Zero-row vocabulary aggregates collect to COLUMN-LESS pandas
    frames (the documented Ray to_pandas trap) — every operator that
    drives a driver query through _vocab_pandas must survive an
    all-whitespace corpus instead of KeyError-ing, matching its SQL
    twin's empty/zero output."""

    def _empty_ds(self, ray_session, with_lang=False):
        cols = {"doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["", "   "], pa.string())}
        if with_lang:
            cols["lang"] = pa.array(["en", "de"], pa.string())
        return ray_session.data.from_arrow(pa.Table.from_pydict(cols))

    def test_doc_perplexity(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.doc_perplexity(
            self._empty_ds(ray_session)).to_pandas().set_index("doc_id")
        assert len(out) == 2  # SQL twin LEFT JOIN keeps every doc
        assert (out["n_tokens"] == 0).all()
        assert (out["perplexity"] == 1.0).all()

    def test_dsir_sample(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.dsir_sample(
            self._empty_ds(ray_session, with_lang=True)).to_pandas()
        assert len(out) == 2
        assert (out["log2_weight"] == 0.0).all()
        assert (~out["keep"]).all()

    def test_top_terms(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.top_terms(self._empty_ds(ray_session)).to_pandas()
        assert len(out) == 0

    def test_cms_heavy_hitters(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.cms_heavy_hitters(self._empty_ds(ray_session)).to_pandas()
        assert len(out) == 0


class TestStratifiedSplit:
    def test_exact_proportions_per_stratum(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        n = 300
        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(n), pa.int64()),
             "source": pa.array([f"s{i % 3}" for i in range(n)],
                                pa.string())})
        out = ts.stratified_split(
            ray_session.data.from_arrow(tbl)).to_pandas()
        assert len(out) == n
        for s, grp in out.groupby("source"):
            ns = len(grp)
            counts = grp["split"].value_counts()
            # rank*10 < n*8 / n*9 boundaries — exact, not in-expectation
            want_train = sum(1 for r in range(ns) if r * 10 < ns * 8)
            want_val = sum(1 for r in range(ns)
                           if ns * 8 <= r * 10 < ns * 9)
            assert counts.get("train", 0) == want_train
            assert counts.get("val", 0) == want_val
            assert sorted(grp["strat_rank"]) == list(range(ns))

    def test_partition_invariant_and_stable(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array(range(120), pa.int64()),
             "source": pa.array(["x" if i % 2 else "y" for i in
                                 range(120)], pa.string())})
        a = ts.stratified_split(
            ray_session.data.from_arrow(tbl)).to_pandas()
        b = ts.stratified_split(
            ray_session.data.from_arrow(tbl).repartition(7)).to_pandas()
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)

    def test_empty_input_typed(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        tbl = pa.Table.from_pydict(
            {"doc_id": pa.array([], pa.int64()),
             "source": pa.array([], pa.string())})
        out = ts.stratified_split(ray_session.data.from_arrow(tbl))
        df = out.to_pandas()
        assert len(df) == 0


class TestRollupRevenue:
    def _tables(self, ray_session, n_orders=200):
        orders = pa.Table.from_pydict(
            {"o_custkey": pa.array([i % 10 for i in range(n_orders)],
                                   pa.int64()),
             "o_totalprice": pa.array(
                 [round(13.37 * (i % 97) + 0.01 * (i % 100), 2)
                  for i in range(n_orders)], pa.float64())})
        customer = pa.Table.from_pydict(
            {"c_custkey": pa.array(range(10), pa.int64()),
             "c_nationkey": pa.array([i % 4 for i in range(10)],
                                     pa.int32())})
        nation = pa.Table.from_pydict(
            {"n_nationkey": pa.array(range(4), pa.int32()),
             "n_name": pa.array([f"N{i}" for i in range(4)], pa.string()),
             "n_regionkey": pa.array([i % 2 for i in range(4)],
                                     pa.int32())})
        region = pa.Table.from_pydict(
            {"r_regionkey": pa.array(range(2), pa.int32()),
             "r_name": pa.array(["RA", "RB"], pa.string())})
        mk = ray_session.data.from_arrow
        return mk(orders), mk(customer), mk(nation), mk(region)

    def test_levels_consistent(self, ray_session):
        from nmalign_ray.functions import relational as rel

        o, c, n, r = self._tables(ray_session)
        out = rel.rollup_revenue(o, c, n, r)
        fine = out[out.lvl == 0]
        mid = out[out.lvl == 1].set_index("region")
        top = out[out.lvl == 2]
        # count rollup is exact at every level
        for reg, grp in fine.groupby("region"):
            assert mid.loc[reg, "num_orders"] == grp["num_orders"].sum()
        assert top["num_orders"].iloc[0] == fine["num_orders"].sum()
        assert (mid["nation"] == "ALL").all()
        assert list(top[["region", "nation"]].iloc[0]) == ["ALL", "ALL"]
        # revenue subtotals: cent-exact, so level sums agree to the cent
        assert abs(top["revenue"].iloc[0] - fine["revenue"].sum()) < 0.005 * len(fine)

    def test_broadcast_and_cogroup_paths_agree(self, ray_session):
        from nmalign_ray.functions import relational as rel

        o, c, n, r = self._tables(ray_session)
        a = rel.rollup_revenue(o, c, n, r)
        b = rel.rollup_revenue(o, c, n, r, broadcast_threshold=1)
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)

    def test_empty_orders_typed(self, ray_session):
        from nmalign_ray.functions import relational as rel

        _, c, n, r = self._tables(ray_session)
        empty = ray_session.data.from_arrow(pa.Table.from_pydict(
            {"o_custkey": pa.array([], pa.int64()),
             "o_totalprice": pa.array([], pa.float64())}))
        out = rel.rollup_revenue(empty, c, n, r)
        assert len(out) == 0
        assert list(out.columns) == ["region", "nation", "lvl", "revenue",
                                     "num_orders"]
        # the SQL twin must ALSO give zero rows on an empty base: without
        # the HAVING guard ROLLUP's () grouping set emits a degenerate
        # ('ALL','ALL', NULL, 0) grand-total row over zero input rows
        import duckdb

        con = duckdb.connect()
        for name, tbl in (("orders", "o_custkey BIGINT, o_totalprice DOUBLE"),
                          ("customer", "c_custkey BIGINT, c_nationkey INT"),
                          ("nation",
                           "n_nationkey INT, n_name VARCHAR, n_regionkey INT"),
                          ("region", "r_regionkey INT, r_name VARCHAR")):
            con.execute(f"CREATE TABLE {name} ({tbl})")
        assert len(con.execute(rel.ROLLUP_REVENUE_SQL).fetchdf()) == 0


class TestUserP90:
    def test_matches_brute(self, ray_session):
        import numpy as np

        from nmalign_ray.functions import relational as rel

        rows = 500
        users = [i % 17 for i in range(rows)]
        vals = [((i * 37) % 101) / 7.0 for i in range(rows)]
        tbl = pa.Table.from_pydict(
            {"user_id": pa.array(users, pa.int64()),
             "value": pa.array(vals, pa.float64())})
        out = rel.user_p90(
            ray_session.data.from_arrow(tbl)).to_pandas()
        assert len(out) == 17
        for u in range(17):
            mine = out[out.user_id == u]
            vs = sorted(v for uu, v in zip(users, vals) if uu == u)
            want = vs[int(np.floor((len(vs) - 1) * 0.9))]
            assert mine["p90"].iloc[0] == want
            assert mine["n_events"].iloc[0] == len(vs)

    def test_partition_invariant(self, ray_session):
        from nmalign_ray.functions import relational as rel

        tbl = pa.Table.from_pydict(
            {"user_id": pa.array([i % 5 for i in range(200)], pa.int64()),
             "value": pa.array([float((i * 13) % 43) for i in range(200)],
                               pa.float64())})
        a = rel.user_p90(ray_session.data.from_arrow(tbl)).to_pandas()
        b = rel.user_p90(
            ray_session.data.from_arrow(tbl).repartition(9)).to_pandas()
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)


class TestCharEntropy:
    def test_hand_computed(self, ray_session):
        import math

        from nmalign_ray.functions import textstats as ts

        out = ts.char_entropy(ray_session.data.from_arrow(
            docs_table(["aab", "", "zzzz", "ab"]))).to_pandas()
        out = out.sort_values("doc_id").reset_index(drop=True)
        # "aab": H = log2(3) - (2*log2(2) + 1*log2(1))/3
        assert out["entropy"][0] == math.log2(3) - (2 * math.log2(2)) / 3
        assert out["n_chars"][0] == 3
        assert out["entropy"][1] == 0.0 and out["n_chars"][1] == 0
        assert out["entropy"][2] == math.log2(4) - (4 * math.log2(4)) / 4
        assert out["entropy"][3] == 1.0  # two equiprobable symbols

    def test_unicode_codepoints(self, ray_session):
        import math

        from nmalign_ray.functions import textstats as ts

        # 4 distinct codepoints incl. multibyte — n_chars counts
        # codepoints, not bytes
        out = ts.char_entropy(ray_session.data.from_arrow(
            docs_table(["aé⸗é"]))).to_pandas()
        assert out["n_chars"][0] == 4
        want = math.log2(4) - (2 * math.log2(2)) / 4
        assert out["entropy"][0] == want

    def test_partition_invariant(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = [BASE[: 7 + (i * 11) % 90] for i in range(80)]
        tbl = docs_table(texts)
        a = ts.char_entropy(ray_session.data.from_arrow(tbl)).to_pandas()
        b = ts.char_entropy(
            ray_session.data.from_arrow(tbl).repartition(8)).to_pandas()
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)


class TestEmbedKmeans:
    """Brute serial replay of the integer-sum k-means contract
    (simsearch.embed_kmeans) plus partition invariance and the
    empty-cluster drop."""

    def _vecs(self, n=40, dim=8, seed=7):
        rng = np.random.default_rng(seed)
        return (rng.random((n, dim)) - 0.5).astype(np.float32)

    def _emb_table(self, vecs):
        return pa.Table.from_pydict(
            {"vec_id": pa.array(range(len(vecs)), pa.int64()),
             "embedding": pa.array([list(map(float, v)) for v in vecs],
                                   pa.list_(pa.float32()))})

    def _brute(self, vecs, k, iters):
        from nmalign_ray.functions.textstats import round6

        iv = np.floor(vecs.astype(np.float64) * 1000.0)

        def sims_row(v, cents):
            out = []
            for c in cents:  # independent per-pair derivation
                cos = float(np.dot(v, c)) / (
                    np.sqrt(float(np.dot(v, v)))
                    * np.sqrt(float(np.dot(c, c))))
                out.append(float(round6(np.array([cos]))[0]))
            return out

        cids = list(range(k))
        cents = [iv[c].copy() for c in cids]
        for _ in range(iters - 1):
            sums, cnts = {}, {}
            for row in iv:
                s = sims_row(row, cents)
                best = cids[int(np.argmax(s))]
                sums[best] = sums.get(best, 0) + row
                cnts[best] = cnts.get(best, 0) + 1
            cids = sorted(sums)
            # truncated integer mean (DuckDB // truncates toward zero)
            cents = [np.sign(sums[c]) * (np.abs(sums[c]) // cnts[c])
                     for c in cids]
        out = {}
        for vid, row in enumerate(iv):
            s = sims_row(row, cents)
            j = int(np.argmax(s))
            out[vid] = (cids[j], s[j])
        return out

    def test_brute_replay_and_partition_invariance(self, ray_session):
        from nmalign_ray.functions import simsearch as ss

        vecs = self._vecs()
        tbl = self._emb_table(vecs)
        a = ss.embed_kmeans(
            ray_session.data.from_arrow(tbl), k=4).to_pandas()
        b = ss.embed_kmeans(
            ray_session.data.from_arrow(tbl).repartition(7), k=4).to_pandas()
        want = self._brute(vecs, k=4, iters=ss.KMEANS_ITERS)
        got = {int(r.vec_id): (int(r.cluster), float(r.score))
               for r in a.itertuples()}
        assert got == want
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)
        assert len(set(a["cluster"])) > 1  # a real partition, not one blob

    def test_empty_cluster_drops_like_sql_group_by(self, ray_session):
        from nmalign_ray.functions import simsearch as ss

        # seeds 0 and 1 are IDENTICAL vectors: every row ties between
        # them and the (score DESC, cid ASC) rule sends all members to
        # cid 0, so cluster 1's centroid vanishes after the first
        # update — exactly as its SQL GROUP BY row does.
        vecs = self._vecs(n=24, dim=6, seed=11)
        vecs[1] = vecs[0]
        out = ss.embed_kmeans(
            ray_session.data.from_arrow(self._emb_table(vecs)),
            k=3).to_pandas()
        assert 1 not in set(out["cluster"])
        want = self._brute(vecs, k=3, iters=ss.KMEANS_ITERS)
        got = {int(r.vec_id): (int(r.cluster), float(r.score))
              for r in out.itertuples()}
        assert got == want

    def test_no_seed_vectors_yields_empty_like_sql(self, ray_session):
        from nmalign_ray.functions import simsearch as ss

        # ids 100.. never satisfy vec_id < k: c0 is empty, the SQL twin
        # returns zero rows — so must the engine (r5 review finding 2)
        vecs = self._vecs(n=6, dim=4, seed=2)
        tbl = pa.Table.from_pydict(
            {"vec_id": pa.array(range(100, 106), pa.int64()),
             "embedding": pa.array([list(map(float, v)) for v in vecs],
                                   pa.list_(pa.float32()))})
        out = ss.embed_kmeans(ray_session.data.from_arrow(tbl),
                              k=4).to_pandas()
        assert len(out) == 0
        samp = ss.cluster_sample(ray_session.data.from_arrow(tbl),
                                 k=4).to_pandas()
        assert len(samp) == 0


class TestPagerank:
    """Brute serial replay of the fixed-point integer PageRank contract
    (linkgraph.pagerank) plus partition invariance."""

    def _lineitem(self, n=60, seed=3):
        rng = np.random.default_rng(seed)
        return pa.Table.from_pydict({
            "l_partkey": pa.array(rng.integers(1, 13, n), pa.int64()),
            "l_suppkey": pa.array(rng.integers(1, 5, n), pa.int64()),
        })

    def _brute(self, tbl, iters):
        from nmalign_ray.functions import linkgraph as lg

        pairs = sorted({(p, s) for p, s in zip(
            tbl["l_partkey"].to_pylist(), tbl["l_suppkey"].to_pylist())})
        edges = [(p * 2, s * 2 + 1) for p, s in pairs] + \
                [(s * 2 + 1, p * 2) for p, s in pairs]
        deg = {}
        for u, _ in edges:
            deg[u] = deg.get(u, 0) + 1
        r = {u: lg.PAGERANK_SCALE for u in deg}
        for _ in range(iters):
            nxt = {}
            for u, v in edges:
                nxt[v] = nxt.get(v, 0) + r[u] // deg[u]
            r = {v: lg._BASE + (lg._DAMP_NUM * s) // 100
                 for v, s in nxt.items()}
        return {("part" if v % 2 == 0 else "supplier", v // 2): rv
                for v, rv in r.items()}

    def test_brute_replay_and_partition_invariance(self, ray_session):
        from nmalign_ray.functions import linkgraph as lg

        tbl = self._lineitem()
        a = lg.pagerank(ray_session.data.from_arrow(tbl)).to_pandas()
        b = lg.pagerank(
            ray_session.data.from_arrow(tbl).repartition(9)).to_pandas()
        # driver_max=0 forces the DISTRIBUTED loop: both physical forms
        # must produce bit-identical integers
        c = lg.pagerank(ray_session.data.from_arrow(tbl).repartition(5),
                        driver_max=0).to_pandas()
        want = self._brute(tbl, lg.PAGERANK_ITERS)
        got = {(r.node_kind, int(r.key)): int(r.pagerank)
               for r in a.itertuples()}
        assert got == want
        key = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
        assert key(a) == key(b)
        assert key(a) == key(c)
        # total mass stays near n * SCALE (sanity: the update conserves
        # mass up to the integer-floor leakage)
        n = len(want)
        assert 0.9 * n * lg.PAGERANK_SCALE < sum(got.values()) \
            <= n * lg.PAGERANK_SCALE

    def test_empty_graph_yields_empty_like_sql(self, ray_session):
        from nmalign_ray.functions import linkgraph as lg

        empty = pa.Table.from_pydict(
            {"l_partkey": pa.array([], pa.int64()),
             "l_suppkey": pa.array([], pa.int64())})
        out = lg.pagerank(ray_session.data.from_arrow(empty)).to_pandas()
        assert len(out) == 0  # r5 review finding 1: no KeyError crash


class TestBpePairCounts:
    def _brute(self, texts, k=32):
        from collections import Counter

        c: Counter = Counter()
        for t in texts:
            for w in t.strip().lower().split():
                for i in range(len(w) - 1):
                    c[w[i:i + 2]] += 1
        return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def test_brute_replay_and_partition_invariance(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        # 'aaa' pins within-token pair multiplicity (aa counted twice)
        texts = ["the cat sat", "aaa abba the", "  ", "x", "thee three"]
        a = ts.bpe_pair_counts(
            ray_session.data.from_arrow(docs_table(texts))).to_pandas()
        b = ts.bpe_pair_counts(
            ray_session.data.from_arrow(docs_table(texts)).repartition(4)
        ).to_pandas()
        got = list(zip(a["pair"], a["cnt"]))
        assert got == self._brute(texts)
        assert got == list(zip(b["pair"], b["cnt"]))

    def test_empty_corpus(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.bpe_pair_counts(
            ray_session.data.from_arrow(docs_table(["", "  "]))).to_pandas()
        # column names drop through Ray's empty-dataset to_pandas (the
        # documented quirk _vocab_pandas guards upstream of) — zero rows
        # without an exception is the contract, as for top_terms
        assert len(out) == 0


class TestSourceHll:
    def _tbl(self, texts, sources):
        return pa.Table.from_pydict(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "source": pa.array(sources, pa.string()),
             "text": pa.array(texts, pa.string())})

    def test_brute_replay_and_partition_invariance(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        texts = ["alpha beta gamma", "beta delta", "  ", "gamma epsilon",
                 "alpha alpha zeta"]
        sources = ["a", "b", "a", "b", "a"]
        a = ts.source_hll(ray_session.data.from_arrow(
            self._tbl(texts, sources))).to_pandas()
        b = ts.source_hll(ray_session.data.from_arrow(
            self._tbl(texts, sources)).repartition(4)).to_pandas()
        hll = TestHllDistinct()
        for src in ("a", "b"):
            docs = [t for t, s in zip(texts, sources) if s == src]
            regs, exact = hll._brute_regs(docs)
            row = a[a["source"] == src].iloc[0]
            assert row["n_buckets_set"] == len(regs)
            assert row["estimate_distinct"] == ts._hll_estimate(regs)
            # tiny cardinality: linear counting is ~exact
            assert abs(row["estimate_distinct"] - exact) < 0.01
        assert a.equals(b)

    def test_empty_corpus(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        out = ts.source_hll(ray_session.data.from_arrow(
            self._tbl(["", "  "], ["a", "b"]))).to_pandas()
        assert len(out) == 0


class TestHllWhitespacePadding:
    """DuckDB's trim() strips only spaces, so on tab- or newline-padded
    text regexp_split leaves empty tokens at the ends; the SQL twins must
    drop them, as the Python partials' str.split() never yields them."""

    TEXTS = ["\talpha beta\n", "\n\ngamma\t", "\t", "beta\r\n", "  delta  "]
    SOURCES = ["a", "b", "a", "b", "a"]
    LANGS = ["en", "de", "en", "en", "de"]

    def _docs(self):
        return pa.Table.from_pydict(
            {"doc_id": pa.array(range(len(self.TEXTS)), pa.int64()),
             "source": pa.array(self.SOURCES, pa.string()),
             "lang": pa.array(self.LANGS, pa.string()),
             "text": pa.array(self.TEXTS, pa.string())})

    def _sql(self, sql):
        import duckdb

        con = duckdb.connect()
        con.register("documents", self._docs())
        return con.execute(sql).fetchdf()

    @pytest.mark.parametrize("name", ["top_terms", "kmv_distinct",
                                      "cms_heavy_hitters", "doc_perplexity",
                                      "dsir_sample"])
    def test_tokenizing_twins_agree(self, ray_session, name):
        from nmalign_ray.functions import textstats as ts

        py = getattr(ts, name)(
            ray_session.data.from_arrow(self._docs())).to_pandas()
        sql = self._sql(getattr(ts, f"{name.upper()}_SQL"))
        py, sql = (out[sorted(out.columns)].sort_values(sorted(out.columns))
                   .reset_index(drop=True) for out in (py, sql))
        pd.testing.assert_frame_equal(py, sql, check_dtype=False,
                                      check_exact=True)

    def test_hll_distinct_twins_agree(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        py = ts.hll_distinct(ray_session.data.from_arrow(
            docs_table(self.TEXTS))).to_pandas()
        sql = self._sql(ts.HLL_DISTINCT_SQL)
        regs, exact = TestHllDistinct()._brute_regs(self.TEXTS)
        assert exact == 4  # alpha beta gamma delta
        for out in (py, sql):
            assert out.loc[0, "n_buckets_set"] == len(regs)
            assert out.loc[0, "estimate_distinct"] == ts._hll_estimate(regs)

    def test_source_hll_twins_agree(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        py = ts.source_hll(ray_session.data.from_arrow(
            TestSourceHll()._tbl(self.TEXTS, self.SOURCES))).to_pandas()
        sql = self._sql(ts.SOURCE_HLL_SQL)
        for src in ("a", "b"):
            docs = [t for t, s in zip(self.TEXTS, self.SOURCES) if s == src]
            regs, _ = TestHllDistinct()._brute_regs(docs)
            for out in (py, sql):
                row = out[out["source"] == src].iloc[0]
                assert row["n_buckets_set"] == len(regs)
                assert row["estimate_distinct"] == ts._hll_estimate(regs)


class TestHllTokenizing(TestHllWhitespacePadding):
    """The Python partials split where the SQL twins' RE2 ``\\s``
    (``[\\t\\n\\f\\r ]``) does: a vertical tab or a no-break space is part
    of a token, as in SQL, not a separator, as in ``str.split()``."""

    TEXTS = ["alpha\x0bbeta", "gamma\xa0delta", "\talpha\x0bbeta\n",
             "\n\x0b\t", "epsilon\x0c zeta\r\n"]
    SOURCES = ["a", "b", "a", "b", "a"]
    # alpha\x0bbeta, gamma\xa0delta, \x0b, epsilon, zeta
    DISTINCT = 5

    def test_hll_distinct_twins_agree(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        py = ts.hll_distinct(ray_session.data.from_arrow(
            docs_table(self.TEXTS))).to_pandas()
        sql = self._sql(ts.HLL_DISTINCT_SQL)
        cols = ["n_buckets_set", "max_rho", "estimate_distinct"]
        assert py[cols].equals(sql[cols])
        assert abs(py.loc[0, "estimate_distinct"] - self.DISTINCT) < 0.01

    def test_source_hll_twins_agree(self, ray_session):
        from nmalign_ray.functions import textstats as ts

        py = ts.source_hll(ray_session.data.from_arrow(
            TestSourceHll()._tbl(self.TEXTS, self.SOURCES))).to_pandas()
        sql = self._sql(ts.SOURCE_HLL_SQL)
        cols = ["source", "n_buckets_set", "max_rho", "estimate_distinct"]
        py, sql = (out[cols].sort_values("source").reset_index(drop=True)
                   for out in (py, sql))
        assert py.equals(sql)
        # a: alpha\x0bbeta, epsilon, zeta; b: gamma\xa0delta, \x0b
        assert [round(e) for e in py["estimate_distinct"]] == [3, 2]
