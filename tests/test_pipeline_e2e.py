"""End-to-end: Ray pipeline output == single-process oracle, span for span.

This is the correctness gate of BASELINE.json lifted into the test suite:
per-doc span-sequence equality on (kind, text, media_ref, order) between
the distributed pipeline and the reference-semantics oracle.
"""

import pyarrow as pa
import pytest

from nmalign_ray.corpus import generate_corpus
from nmalign_ray.document import oracle_table
from nmalign_ray.pipelines import build_extract_pipeline, join_refs
from nmalign_ray.schema import OUTPUT_SCHEMA, EngineConfig


@pytest.fixture(scope="module")
def corpus():
    # all fixture families + one skewed doc above the salt threshold
    return generate_corpus(num_docs=40, seed=42, skewed_spans=150)


@pytest.fixture(scope="module")
def config():
    return EngineConfig(salt_threshold=64)


@pytest.fixture(scope="module")
def golden(corpus, config):
    return oracle_table(corpus, config=config.align, salt_threshold=config.salt_threshold)


def spans_key(table: pa.Table):
    """doc_id -> [(kind, text, media_ref, order)] judged tuple sequence."""
    out = {}
    for did, spans in zip(table["doc_id"].to_pylist(), table["spans"].to_pylist()):
        out[did] = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]
    return out


def collect_pipeline(ray_session, ds, config) -> pa.Table:
    """The lazy pipeline's output as one table (empty shuffle partitions
    emit column-less zero-row blocks, which are dropped)."""
    out = build_extract_pipeline(ds, config)
    return pa.concat_tables(
        [t for t in map(ray_session.get, out.to_arrow_refs()) if t.num_rows])


class TestPipelineMatchesOracle:
    @pytest.fixture(scope="class")
    def result(self, ray_session, corpus, config):
        ds = ray_session.data.from_arrow(corpus)
        out = build_extract_pipeline(ds, config)
        # empty shuffle partitions emit zero-row COLUMN-LESS blocks that
        # bypass the UDF — filter them when consuming to_arrow_refs (the
        # repo's standard rule; ranked_docs does the same)
        blocks = [ray_session.get(ref) for ref in out.to_arrow_refs()]
        tbl = pa.concat_tables([b for b in blocks if b.num_rows])
        return tbl

    def test_row_count(self, result, golden):
        assert result.num_rows == golden.num_rows

    def test_schema(self, result):
        assert set(result.schema.names) == set(OUTPUT_SCHEMA.names)

    def test_span_sequence_equality(self, result, golden):
        got = spans_key(result)
        want = spans_key(golden)
        assert set(got) == set(want)
        mismatches = {d for d in want if got[d] != want[d]}
        assert not mismatches, f"span-sequence mismatch for {sorted(mismatches)[:5]}"

    def test_metrics_match(self, result, golden):
        got = {
            d: (round(m, 9), ma, t, u)
            for d, m, ma, t, u in zip(
                result["doc_id"].to_pylist(),
                result["mean_score"].to_pylist(),
                result["matched"].to_pylist(),
                result["total"].to_pylist(),
                result["unmatched_ref_count"].to_pylist(),
            )
        }
        want = {
            d: (round(m, 9), ma, t, u)
            for d, m, ma, t, u in zip(
                golden["doc_id"].to_pylist(),
                golden["mean_score"].to_pylist(),
                golden["matched"].to_pylist(),
                golden["total"].to_pylist(),
                golden["unmatched_ref_count"].to_pylist(),
            )
        }
        assert got == want

    def test_determinism_two_runs(self, ray_session, corpus, config, result):
        ds = ray_session.data.from_arrow(corpus)
        out2 = build_extract_pipeline(ds, config)
        tbl2 = pa.concat_tables(
            [t for t in map(ray_session.get, out2.to_arrow_refs())
             if t.num_rows])
        assert spans_key(tbl2) == spans_key(result)


class TestTwoTableJoin:
    def test_join_refs_equivalent(self, ray_session, corpus, config, golden):
        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs = ray_session.data.from_arrow(corpus.select(["doc_id", "ref_spans"]))
        joined = join_refs(inputs, refs)
        out = build_extract_pipeline(joined, config)
        tbl = pa.concat_tables(
            [t for t in map(ray_session.get, out.to_arrow_refs())
             if t.num_rows])
        assert spans_key(tbl) == spans_key(golden)

    def test_join_refs_runs_one_task_per_range(
        self, ray_session, corpus, config, golden
    ):
        # one shard range, so one merge task, per cluster CPU
        from nmalign_ray.schema import cluster_cpus

        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs = ray_session.data.from_arrow(corpus.select(["doc_id", "ref_spans"]))
        joined = join_refs(inputs, refs).materialize()
        assert f"MapBatches(merge_shard): {cluster_cpus()} tasks executed" in joined.stats()
        out = collect_pipeline(ray_session, joined, config)
        assert out.cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(
            golden.sort_by("doc_id"))

    def test_join_drops_missing_refs(self, ray_session, corpus, config):
        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs_tbl = corpus.select(["doc_id", "ref_spans"]).slice(0, 10)
        refs = ray_session.data.from_arrow(refs_tbl)
        joined = join_refs(inputs, refs)
        out = build_extract_pipeline(joined, config)
        assert out.count() == 10


class TestOnePlan:
    def test_sink_and_both_align_forms_equal_oracle(
        self, ray_session, corpus, golden, tmp_path
    ):
        # both forms of the one plan — the checkpointed sink and the lazy
        # pipeline — and the serial oracle agree exactly (spans, metrics,
        # bits), salted and media-bearing documents included
        import re

        from nmalign_ray.pipelines.checkpoint import read_output, run_checkpointed

        ds = ray_session.data.from_arrow(corpus)
        out_dir = str(tmp_path / "out")
        job = run_checkpointed(ds, out_dir, EngineConfig(salt_threshold=64),
                               collect_stats=True)
        outputs = [
            read_output(out_dir),
            collect_pipeline(ray_session, ds, EngineConfig(salt_threshold=64)),
        ]
        want = golden.sort_by("doc_id")
        for got in outputs:
            assert got.cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)

        # the exchange moves the input rows: pid and the resume filter run
        # before the Sort, and extract/align/reassemble/write all run in
        # the one per-partition operator after it — no aligner operator,
        # no actor pool
        ops = re.findall(r"^Operator \d+ (.+?): ", job["stats"], re.MULTILINE)
        sort = next(k for k, op in enumerate(ops) if op.startswith("Sort"))
        assert "_add_pid" in ops[sort - 1], ops
        assert "_filter_completed" in ops[sort - 1], ops
        assert "_write_partition" in ops[sort + 1], ops
        assert "AlignChunks" not in job["stats"]
        assert "actor" not in job["stats"].lower()

    def test_slice_boundaries_equal_oracle(self, ray_session, tmp_path):
        # 80 documents per partition: slices of SLICE_DOCS cut each
        # partition at least once; each slice is committed to the
        # partition's file as one row group
        import math

        import pyarrow.parquet as pq

        from nmalign_ray.pipelines.checkpoint import (
            SLICE_DOCS,
            read_output,
            run_checkpointed,
        )

        corpus = generate_corpus(num_docs=160, seed=42, skewed_spans=150)
        cfg = EngineConfig(salt_threshold=64, num_partitions=2)
        ds = ray_session.data.from_arrow(corpus)
        out_dir = str(tmp_path / "out")
        run_checkpointed(ds, out_dir, cfg)
        want = oracle_table(corpus, config=cfg.align,
                            salt_threshold=cfg.salt_threshold).sort_by("doc_id")
        for got in (read_output(out_dir), collect_pipeline(ray_session, ds, cfg)):
            assert got.cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)
        for pid in range(2):
            meta = pq.ParquetFile(
                str(tmp_path / "out" / f"part={pid}" / "data.parquet")).metadata
            assert meta.num_row_groups == math.ceil(meta.num_rows / SLICE_DOCS) > 1


class TestJoinEdges:
    def test_join_drops_refs_without_inputs(self, ray_session, corpus, config):
        # the other direction of OCRD_MISSING_INPUT=SKIP: a reference
        # segmentation with no matching input document is dropped too
        inputs_tbl = corpus.select(["doc_id", "spans"]).slice(0, 8)
        inputs = ray_session.data.from_arrow(inputs_tbl)
        refs = ray_session.data.from_arrow(corpus.select(["doc_id", "ref_spans"]))
        joined = join_refs(inputs, refs)
        assert joined.count() == 8


class TestJoinCardinality:
    def test_duplicate_ref_raises(self, ray_session, corpus):
        # reference NonUniqueInputFile (/root/reference/nmalign/ocrd/cli.py:64-67)
        from nmalign_ray.pipelines.extract import NonUniqueRefError

        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs_tbl = corpus.select(["doc_id", "ref_spans"])
        dup = pa.concat_tables([refs_tbl, refs_tbl.slice(0, 1)])
        refs = ray_session.data.from_arrow(dup)
        joined = join_refs(inputs, refs)
        with pytest.raises(Exception) as exc:
            joined.count()
        assert "NonUniqueRefError" in str(exc.value) or isinstance(
            exc.value, NonUniqueRefError)

    def test_duplicate_last_mode_keeps_last(self, ray_session, corpus):
        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs_tbl = corpus.select(["doc_id", "ref_spans"])
        dup = pa.concat_tables([refs_tbl, refs_tbl.slice(0, 1)])
        refs = ray_session.data.from_arrow(dup)
        joined = join_refs(inputs, refs, on_duplicate="last")
        assert joined.count() == corpus.num_rows

    def test_missing_abort_raises(self, ray_session, corpus):
        # OCRD_MISSING_INPUT=ABORT (/root/reference/nmalign/ocrd/cli.py:101-107)
        from nmalign_ray.pipelines.extract import MissingInputError

        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs = ray_session.data.from_arrow(
            corpus.select(["doc_id", "ref_spans"]).slice(0, 10))
        joined = join_refs(inputs, refs, missing="abort")
        with pytest.raises(Exception) as exc:
            joined.count()
        assert "MissingInputError" in str(exc.value) or isinstance(
            exc.value, MissingInputError)

    def test_bad_modes_rejected(self, ray_session, corpus):
        inputs = ray_session.data.from_arrow(corpus.select(["doc_id", "spans"]))
        refs = ray_session.data.from_arrow(corpus.select(["doc_id", "ref_spans"]))
        with pytest.raises(ValueError):
            join_refs(inputs, refs, missing="bogus")
        with pytest.raises(ValueError):
            join_refs(inputs, refs, on_duplicate="bogus")


class TestGlyphFamily:
    def test_glyph_output_is_glyph_noised_refs(self, ray_session):
        # the SQL-reconstruction contract behind extract_align_glyph: the
        # pipeline emits the RAW glyph-noised candidate per ref segment,
        # 1:1 in order, at score exactly 1.0
        from nmalign_ray.corpus import corpus_from_documents, glyph_noise

        texts = ["aufklärung ist der ausgang des menschen aus seiner "
                 "selbstverschuldeten unmündigkeit größe übermut wörter",
                 "der mut sich seines verstandes zu bedienen süß schön"]
        tbl = corpus_from_documents(texts, [0, 1], families=("glyph",))
        out = build_extract_pipeline(
            ray_session.data.from_arrow(tbl),
            EngineConfig(),
        ).to_pandas().sort_values("doc_id")
        assert (out["mean_score"] == 1.0).all()
        assert (out["matched"] == out["total"]).all()
        for text, (_, row) in zip(texts, out.iterrows()):
            words = text.split()
            segs = [" ".join(words[i:i + 8]) for i in range(0, len(words), 8)]
            got = [s["text"] for s in row["spans"]]
            assert got == [glyph_noise(s, None) for s in segs]
