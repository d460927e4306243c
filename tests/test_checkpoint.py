"""Checkpointed sink: atomic partition writes, lineage manifest, resume."""

import json
import os
import shutil

import pytest

from nmalign_ray.corpus import generate_corpus
from nmalign_ray.document import oracle_table
from nmalign_ray.hashing import crc32_mod
from nmalign_ray.pipelines.checkpoint import (
    completed_partitions,
    read_output,
    run_checkpointed,
)
from nmalign_ray.schema import EngineConfig


def doc_partition(doc_id, num_partitions):
    """The pid the plan gives ``doc_id``."""
    return int(crc32_mod([doc_id], num_partitions)[0])


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(num_docs=24, seed=42)


@pytest.fixture(scope="module")
def config():
    return EngineConfig(salt_threshold=64, num_partitions=4)


def spans_key(table):
    return {
        d: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]
        for d, spans in zip(table["doc_id"].to_pylist(), table["spans"].to_pylist())
    }


class TestCheckpointedSink:
    def test_partition_assignment_stable(self):
        assert doc_partition("doc-x", 16) == doc_partition("doc-x", 16)
        assert 0 <= doc_partition("anything", 7) < 7

    def test_full_run_writes_all_partitions(self, ray_session, corpus, config, tmp_path):
        out = str(tmp_path / "out")
        ds = ray_session.data.from_arrow(corpus)
        summary = run_checkpointed(ds, out, config)
        assert summary["partitions_written"] == config.num_partitions
        assert summary["num_docs"] == corpus.num_rows
        assert completed_partitions(out) == set(range(config.num_partitions))
        # manifest carries lineage metrics
        rec = json.load(open(os.path.join(out, "_manifest", "part-0.json")))
        assert {"pid", "num_docs", "matched", "total"} <= set(rec)

    def test_output_matches_oracle(self, ray_session, corpus, config, tmp_path):
        out = str(tmp_path / "out2")
        run_checkpointed(ray_session.data.from_arrow(corpus), out, config)
        got = spans_key(read_output(out))
        want = spans_key(
            oracle_table(corpus, config.align, salt_threshold=config.salt_threshold)
        )
        assert got == want

    def test_resume_skips_completed_and_repairs_missing(
        self, ray_session, corpus, config, tmp_path
    ):
        out = str(tmp_path / "out3")
        ds = ray_session.data.from_arrow(corpus)
        run_checkpointed(ds, out, config)
        full = spans_key(read_output(out))

        # simulate a torn run: partition 1 lost its manifest AND data,
        # partition 2 has data but no manifest (torn write)
        shutil.rmtree(os.path.join(out, "part=1"))
        os.remove(os.path.join(out, "_manifest", "part-1.json"))
        os.remove(os.path.join(out, "_manifest", "part-2.json"))

        summary = run_checkpointed(ds, out, config)
        assert summary["partitions_skipped"] == 2  # 0 and 3 still manifested
        assert summary["partitions_written"] == 2  # 1 and 2 recomputed
        assert completed_partitions(out) == set(range(config.num_partitions))
        assert spans_key(read_output(out)) == full

    def test_partition_count_pinned_across_cluster_sizes(
        self, ray_session, corpus, tmp_path
    ):
        # auto num_partitions (None) resolves from the cluster on the
        # FIRST run and is pinned in the manifest: a resume on a cluster
        # of any other size must keep crc32(doc_id) % P intact
        from nmalign_ray.pipelines.checkpoint import resolve_num_partitions
        from nmalign_ray.schema import EngineConfig as EC

        out = str(tmp_path / "pin")
        auto = EC(num_partitions=None)
        first = resolve_num_partitions(out, auto)
        assert first == auto.resolved_partitions() >= 32
        # simulate resuming on a 4x cluster: the auto value WOULD differ,
        # but the pinned manifest wins
        assert resolve_num_partitions(out, auto) == first
        pinned = json.load(open(os.path.join(out, "_manifest", "meta.json")))
        assert pinned["num_partitions"] == first
        # an explicit conflicting config is an error, not silent re-keying
        with pytest.raises(ValueError, match="must keep the original"):
            resolve_num_partitions(out, EC(num_partitions=first + 1))
        # an explicit MATCHING config is fine
        assert resolve_num_partitions(
            out, EC(num_partitions=first)) == first

    def test_legacy_checkpoint_without_meta_requires_explicit_p(
        self, corpus, tmp_path
    ):
        # a pre-meta.json checkpoint resumed with the auto default must
        # fail loudly — re-deriving P would re-key crc32 % P and corrupt
        # the resume; an explicit P resumes and pins it
        from nmalign_ray.pipelines.checkpoint import resolve_num_partitions
        from nmalign_ray.schema import EngineConfig as EC

        out = str(tmp_path / "legacy")
        mdir = os.path.join(out, "_manifest")
        os.makedirs(mdir)
        with open(os.path.join(mdir, "part-0.json"), "w") as f:
            json.dump({"pid": 0, "num_docs": 1, "matched": 1, "total": 1,
                       "unmatched_ref_count": 0}, f)
        with pytest.raises(ValueError, match="older version"):
            resolve_num_partitions(out, EC(num_partitions=None))
        assert resolve_num_partitions(out, EC(num_partitions=32)) == 32
        # now pinned: auto resolves to the pinned value
        assert resolve_num_partitions(out, EC(num_partitions=None)) == 32

    @pytest.mark.parametrize("num_partitions", [0, -3])
    def test_config_rejects_partition_count_below_one(self, num_partitions):
        # rejected when the config is built, before a checkpointed run
        # could pin it in meta.json and refuse every later run into the
        # same directory
        with pytest.raises(ValueError, match="at least 1"):
            EngineConfig(num_partitions=num_partitions)

    @pytest.mark.parametrize("num_partitions", [None, 32])
    def test_pinned_partition_count_below_one_is_rejected(
        self, num_partitions, tmp_path
    ):
        from nmalign_ray.pipelines.checkpoint import resolve_num_partitions

        out = str(tmp_path / "bad-pin")
        os.makedirs(os.path.join(out, "_manifest"))
        with open(os.path.join(out, "_manifest", "meta.json"), "w") as f:
            json.dump({"num_partitions": 0}, f)
        with pytest.raises(ValueError, match="not a partition count"):
            resolve_num_partitions(out, EngineConfig(num_partitions=num_partitions))

    def test_resume_with_auto_partitions(self, ray_session, corpus, tmp_path):
        # e2e: auto-partitioned run, torn partition, resume repairs it and
        # the output matches the uninterrupted run (the filter reads the
        # pinned P, not a re-derived one)
        cfg = EngineConfig(salt_threshold=64, num_partitions=None)
        out = str(tmp_path / "auto")
        ds = ray_session.data.from_arrow(corpus)
        run_checkpointed(ds, out, cfg)
        full = spans_key(read_output(out))
        victims = sorted(completed_partitions(out))[:2]
        for pid in victims:
            shutil.rmtree(os.path.join(out, f"part={pid}"))
            os.remove(os.path.join(out, "_manifest", f"part-{pid}.json"))
        summary = run_checkpointed(ds, out, cfg)
        assert summary["partitions_written"] == len(victims)
        assert spans_key(read_output(out)) == full

    def test_resume_across_cluster_sizes_fresh_processes(
        self, corpus, tmp_path
    ):
        # the verdict-6 done criterion: a job started on one cluster size
        # and resumed on another (fresh ray sessions, different num_cpus)
        # must produce the same output as an uninterrupted run — the
        # pinned manifest geometry, not the new cluster, owns P
        import subprocess
        import sys

        import pyarrow.parquet as pq

        src = tmp_path / "corpus.parquet"
        pq.write_table(corpus, src)
        out = tmp_path / "out"
        script = """
import sys
import ray
# small explicit object store: this subprocess cluster coexists with the
# pytest session's cluster, and two default-sized stores exhaust /dev/shm
ray.init(address="local", num_cpus=int(sys.argv[1]),
         include_dashboard=False, logging_level="ERROR",
         object_store_memory=1_000_000_000)
import ray.data
from nmalign_ray.pipelines.checkpoint import run_checkpointed
from nmalign_ray.schema import EngineConfig
ds = ray.data.read_parquet(sys.argv[2])
cfg = EngineConfig(salt_threshold=64)
print(run_checkpointed(ds, sys.argv[3], cfg))
ray.shutdown()
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))

        def run(ncpu):
            return subprocess.run(
                [sys.executable, "-c", script, str(ncpu), str(src),
                 str(out)],
                env=env, capture_output=True, text=True, check=True,
                timeout=240)

        # started on 2 cpus and resumed on 4: the exchange's width (one
        # pid range per cpu) changes with the cluster, P does not
        run(2)
        full = spans_key(read_output(str(out)))
        pinned = json.load(
            open(os.path.join(out, "_manifest", "meta.json")))
        victims = sorted(completed_partitions(str(out)))[:2]
        for pid in victims:
            shutil.rmtree(os.path.join(out, f"part={pid}"))
            os.remove(os.path.join(out, "_manifest", f"part-{pid}.json"))
        run(4)  # resume on a bigger cluster
        assert json.load(
            open(os.path.join(out, "_manifest", "meta.json"))) == pinned
        assert spans_key(read_output(str(out))) == full

    def test_noop_when_all_complete(self, ray_session, corpus, config, tmp_path):
        out = str(tmp_path / "out4")
        ds = ray_session.data.from_arrow(corpus)
        run_checkpointed(ds, out, config)
        summary = run_checkpointed(ds, out, config)
        assert summary["partitions_written"] == 0
        assert summary["partitions_skipped"] == config.num_partitions


class TestKillMidRound:
    def test_partitions_commit_before_the_round_ends(self, ray_session, tmp_path):
        # SIGKILL a running job half a second after its first partition
        # is committed: the partitions aligned so far must be on disk
        # while the rest are still being aligned, and a resume must skip
        # exactly those and finish with the oracle's output
        import signal
        import subprocess
        import sys
        import time

        import pyarrow as pa
        import pyarrow.parquet as pq

        from nmalign_ray.corpus import make_skewed_document
        from nmalign_ray.schema import CORPUS_SCHEMA, OUTPUT_SCHEMA

        # a partition task takes its groups in pid order, so the
        # 2000-span document (8 salted chunks, seconds of alignment) goes
        # into the last partition: every other partition commits while
        # it is still being aligned
        num_partitions = 4
        small = generate_corpus(num_docs=16, seed=7)
        slow = next(doc for doc in (make_skewed_document(k, 7, 2000)
                                    for k in range(100))
                    if doc_partition(doc[0], num_partitions) == num_partitions - 1)
        corpus = pa.concat_tables([small, pa.Table.from_pydict(
            {"doc_id": [slow[0]], "spans": [slow[1]], "ref_spans": [slow[2]]},
            schema=CORPUS_SCHEMA)])
        cfg = EngineConfig(num_partitions=num_partitions)
        expected = {doc_partition(d, num_partitions)
                    for d in corpus["doc_id"].to_pylist()}
        assert len(expected) > 2

        src = tmp_path / "corpus.parquet"
        pq.write_table(corpus, src)
        out = str(tmp_path / "out")
        script = f"""
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200_000_000)
import ray.data
from nmalign_ray.pipelines.checkpoint import run_checkpointed
from nmalign_ray.schema import EngineConfig
run_checkpointed(ray.data.read_parquet(sys.argv[1]), sys.argv[2],
                 EngineConfig(num_partitions={num_partitions}))
print("job returned")
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        # its own session, so one killpg takes the driver and the Ray
        # processes it started
        log = tmp_path / "job.log"
        with open(log, "w") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-c", script, str(src), out], env=env,
                stdout=sink, stderr=subprocess.STDOUT,
                start_new_session=True)
        try:
            deadline = time.monotonic() + 240
            while not completed_partitions(out):
                assert proc.poll() is None, log.read_text()[-2000:]
                assert time.monotonic() < deadline, "no commit within 240 s"
                time.sleep(0.02)
            # far longer than committing the remaining partitions takes
            # once they are aligned
            time.sleep(0.5)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=60)
        assert "job returned" not in log.read_text()
        committed = completed_partitions(out)
        assert 0 < len(committed) < len(expected)

        summary = run_checkpointed(
            ray_session.data.read_parquet(str(src)), out, cfg)
        assert summary["partitions_skipped"] == len(committed)
        assert summary["partitions_written"] == len(expected) - len(committed)
        want = oracle_table(corpus, cfg.align, salt_threshold=cfg.salt_threshold)
        got = read_output(out).cast(OUTPUT_SCHEMA)
        assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))


class TestRangeExchange:
    def test_single_block_runs_one_task_per_cpu(self, ray_session, tmp_path):
        # four documents read as ONE block still spread over min(P, CPUs)
        # range tasks: the plan, not the input's block layout, sets the
        # width of the exchange
        import pyarrow as pa

        from nmalign_ray.pipelines import build_extract_pipeline
        from nmalign_ray.schema import OUTPUT_SCHEMA, cluster_cpus

        corpus = generate_corpus(num_docs=4, seed=3)
        cfg = EngineConfig(num_partitions=8)
        ds = ray_session.data.from_arrow(corpus)
        assert ds.num_blocks() == 1
        out = str(tmp_path / "out")
        job = run_checkpointed(ds, out, cfg, collect_stats=True)
        # one block, so one task, per CPU: min(P, CPUs) ranges split [0, 8)
        tasks = min(8, cluster_cpus())
        assert f"MapBatches(_write_partition): {tasks} tasks executed" in job["stats"]
        pids = {doc_partition(d, 8) for d in corpus["doc_id"].to_pylist()}
        assert completed_partitions(out) == pids
        assert sorted(os.listdir(os.path.join(out, "_manifest"))) == sorted(
            [f"part-{pid}.json" for pid in pids] + ["meta.json"])

        want = oracle_table(corpus, cfg.align, salt_threshold=cfg.salt_threshold)
        lazy = build_extract_pipeline(ds, cfg)
        lazy = pa.concat_tables(
            [t for t in map(ray_session.get, lazy.to_arrow_refs()) if t.num_rows])
        for got in (read_output(out), lazy):
            assert got.cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(
                want.sort_by("doc_id"))


    @pytest.mark.parametrize("num_partitions", [2, 32])
    def test_every_block_holds_a_range(self, ray_session, num_partitions):
        # rows in every pid: the exchange cuts [0, P) into exactly
        # min(P, CPUs) blocks, in pid order, and leaves none empty
        import pyarrow as pa

        from nmalign_ray.pipelines.checkpoint import _exchange
        from nmalign_ray.schema import cluster_cpus

        rows = ray_session.data.from_arrow(
            pa.table({"pid": pa.array(range(num_partitions), pa.int32())}))
        blocks = [ray_session.get(ref) for ref in
                  _exchange(rows, num_partitions).to_arrow_refs()]
        assert len(blocks) == min(num_partitions, cluster_cpus())
        assert all(block.num_rows for block in blocks)
        assert [pid for block in blocks for pid in block["pid"].to_pylist()] == list(
            range(num_partitions))

    def test_run_restores_the_context(self, ray_session, corpus, config, tmp_path):
        # the plan runs without Ray Data's per-operator reservation, but
        # the corpus shares its context along its lineage: the run must
        # hand it back as it found it, and never touch the global one
        from ray.data import DataContext

        ds = ray_session.data.from_arrow(corpus)

        def reservation():
            return (DataContext.get_current().op_resource_reservation_enabled,
                    ds.context.op_resource_reservation_enabled)

        before = reservation()
        run_checkpointed(ds, str(tmp_path / "out"), config)
        assert reservation() == before


class TestMapBeforeExchange:
    """The pid map before the exchange runs in ceil(input bytes /
    MAP_TASK_BYTES) tasks, not one per read block."""

    BLOCKS = 8

    @pytest.fixture(scope="class")
    def corpus(self):
        # more documents than the 64 rows the pid map once bundled, so
        # that a row-count batch size would run it in several tasks
        return generate_corpus(num_docs=160, seed=42)

    @pytest.fixture
    def parquet_corpus(self, ray_session, corpus, tmp_path):
        import pyarrow.parquet as pq

        path = str(tmp_path / "corpus.parquet")
        pq.write_table(corpus, path)
        # read as BLOCKS blocks (test_unknown_size_keeps_one_task_per_block
        # counts them)
        return ray_session.data.read_parquet(path, override_num_blocks=self.BLOCKS)

    @staticmethod
    def pid_map_tasks(stats):
        line = next(l for l in stats.splitlines()
                    if "MapBatches(_add_pid)" in l and "tasks executed" in l)
        return int(line.split(": ")[1].split(" tasks executed")[0])

    @staticmethod
    def assert_oracle(out, corpus, config):
        from nmalign_ray.schema import OUTPUT_SCHEMA

        want = oracle_table(corpus, config.align, salt_threshold=config.salt_threshold)
        assert read_output(out).cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(
            want.sort_by("doc_id"))

    def test_small_input_is_one_task(self, parquet_corpus, corpus, config, tmp_path):
        out = str(tmp_path / "out")
        job = run_checkpointed(parquet_corpus, out, config, collect_stats=True)
        assert self.pid_map_tasks(job["stats"]) == 1
        self.assert_oracle(out, corpus, config)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_tasks_follow_the_byte_budget(self, parquet_corpus, corpus, config,
                                          tmp_path, monkeypatch, parts):
        from nmalign_ray.pipelines import checkpoint

        size = parquet_corpus.size_bytes()  # from the read's metadata
        budget = -(-size // parts)
        monkeypatch.setattr(checkpoint, "MAP_TASK_BYTES", budget)
        out = str(tmp_path / "out")
        job = run_checkpointed(parquet_corpus, out, config, collect_stats=True)
        assert self.pid_map_tasks(job["stats"]) == -(-size // budget) == parts
        self.assert_oracle(out, corpus, config)

    def test_unknown_size_keeps_one_task_per_block(self, parquet_corpus, corpus,
                                                   config, tmp_path):
        from nmalign_ray.pipelines.extract import rows_per_task

        marker = tmp_path / "executed"

        def touch(batch):
            marker.touch()
            return batch

        ds = parquet_corpus.map_batches(touch, batch_format="pyarrow")
        assert rows_per_task(ds, 1 << 20) is None
        assert not marker.exists()  # the helper executed nothing
        out = str(tmp_path / "out")
        job = run_checkpointed(ds, out, config, collect_stats=True)
        assert marker.exists()
        assert self.pid_map_tasks(job["stats"]) == self.BLOCKS
        self.assert_oracle(out, corpus, config)


class TestRangeTask:
    """The per-range functions, called directly (no Ray)."""

    def test_empty_block(self, tmp_path):
        import pyarrow as pa

        from nmalign_ray.pipelines.checkpoint import (
            _extract_partition, _write_partition)
        from nmalign_ray.schema import OUTPUT_SCHEMA

        cfg = EngineConfig(num_partitions=8)
        # the exchange emits empty ranges as zero-row, column-less blocks
        empty = pa.table({})
        summary = _write_partition(empty, str(tmp_path), cfg)
        assert summary.num_rows == 0
        assert summary.schema.names == [
            "pid", "num_docs", "matched", "total", "unmatched_ref_count"]
        assert not os.listdir(tmp_path)
        assert [t.equals(OUTPUT_SCHEMA.empty_table())
                for t in _extract_partition(empty, cfg)] == [True]

    def test_block_of_three_pids(self, tmp_path):
        import pyarrow as pa
        import pyarrow.compute as pc

        from nmalign_ray.pipelines.checkpoint import (
            _add_pid, _extract_partition, _write_partition)
        from nmalign_ray.schema import OUTPUT_SCHEMA

        cfg = EngineConfig(salt_threshold=64, num_partitions=8)
        rows = _add_pid(generate_corpus(num_docs=12, seed=42), 8).sort_by("pid")
        three = sorted(set(rows["pid"].to_pylist()))[:3]
        block = rows.filter(pc.is_in(rows["pid"], pa.array(three, pa.int32())))
        out = str(tmp_path / "out")

        summary = _write_partition(block, out, cfg)
        assert summary["pid"].to_pylist() == three
        assert summary["num_docs"].to_pylist() == [
            block["pid"].to_pylist().count(pid) for pid in three]
        assert completed_partitions(out) == set(three)
        assert sorted(os.listdir(out)) == sorted(
            ["_manifest", "_tmp"] + [f"part={pid}" for pid in three])

        want = oracle_table(block.drop(["pid"]), cfg.align,
                            salt_threshold=cfg.salt_threshold).sort_by("doc_id")
        assert read_output(out).cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)
        lazy = pa.concat_tables(_extract_partition(block, cfg))
        assert lazy.sort_by("doc_id").equals(want)

        # a retried range keeps the partitions its failed attempt committed
        data = [os.path.join(out, f"part={pid}", "data.parquet") for pid in three]
        before = [os.stat(path).st_mtime_ns for path in data]
        os.remove(os.path.join(out, "_manifest", f"part-{three[2]}.json"))
        assert _write_partition(block, out, cfg).equals(summary)
        after = [os.stat(path).st_mtime_ns for path in data]
        assert after[:2] == before[:2] and after[2] != before[2]
        assert read_output(out).cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)

        # a pid split over two runs would overwrite its own partition
        reversed_block = block.take(pa.array(range(block.num_rows - 1, -1, -1)))
        with pytest.raises(ValueError, match="not sorted by pid"):
            _write_partition(reversed_block, out, cfg)


class _SubmitSpy:
    """Stands in for ``checkpoint._align_alone``: records the doc_id of
    every document submitted to its own task, then submits it."""

    def __init__(self, task):
        self.task = task
        self.doc_ids = []

    def remote(self, doc, cfg):
        self.doc_ids.extend(doc["doc_id"].to_pylist())
        return self.task.remote(doc, cfg)


def shipped(heavy, pids):
    """The heavy documents a range task sends to tasks of their own: all
    but the first it reaches, in (pid, doc_id) order."""
    return sorted(sorted(heavy, key=lambda d: (pids[d], d))[1:])


class TestHeavyDocuments:
    """Documents over ``REMOTE_CELLS`` align in their own Ray task, but
    for the range's first, which the range task aligns itself; the range
    task's output must not change with where a document aligned."""

    @pytest.fixture
    def block(self):
        import pyarrow as pa

        from nmalign_ray.corpus import make_skewed_document
        from nmalign_ray.pipelines.checkpoint import _add_pid
        from nmalign_ray.schema import CORPUS_SCHEMA

        # six 30-span documents of about 2.8e6 cells, two each in pids
        # 0 and 2, among twelve light ones over all four pids
        heavy = [make_skewed_document(k, 3, 30) for k in range(6)]
        corpus = pa.concat_tables([generate_corpus(num_docs=12, seed=42), pa.Table.from_pydict(
            {"doc_id": [d[0] for d in heavy], "spans": [d[1] for d in heavy],
             "ref_spans": [d[2] for d in heavy]}, schema=CORPUS_SCHEMA)])
        return _add_pid(corpus, 4).sort_by("pid")

    @pytest.fixture
    def spy(self, monkeypatch):
        from nmalign_ray.pipelines import checkpoint

        spy = _SubmitSpy(checkpoint._align_alone)
        monkeypatch.setattr(checkpoint, "_align_alone", spy)
        return spy

    # small slices and salt chunks: slices mix remote and local
    # documents, and a remote document aligns as several chunks
    cfg = EngineConfig(salt_threshold=8, num_partitions=4)

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        from nmalign_ray.pipelines import checkpoint

        monkeypatch.setattr(checkpoint, "SLICE_DOCS", 4)

    def heavy_ids(self, block):
        import pyarrow as pa

        from nmalign_ray.pipelines.checkpoint import REMOTE_CELLS, _doc_cells

        heavy = pa.array(_doc_cells(block) > REMOTE_CELLS)
        return sorted(block.filter(heavy)["doc_id"].to_pylist())

    @pytest.mark.parametrize("all_remote", [False, True])
    def test_output_is_bit_identical(self, ray_session, block, spy, monkeypatch,
                                     tmp_path, all_remote):
        import pyarrow as pa

        from nmalign_ray.pipelines import checkpoint
        from nmalign_ray.schema import OUTPUT_SCHEMA

        if all_remote:
            monkeypatch.setattr(checkpoint, "REMOTE_CELLS", 0)
        heavy = self.heavy_ids(block)
        pids = dict(zip(block["doc_id"].to_pylist(), block["pid"].to_pylist()))
        assert len(set(pids.values())) >= 3
        if all_remote:
            assert len(heavy) == block.num_rows
        else:
            assert len(heavy) == 6 and len({pids[d] for d in heavy}) == 4
        want = oracle_table(block.drop(["pid"]), self.cfg.align,
                            salt_threshold=self.cfg.salt_threshold).sort_by("doc_id")

        remote = shipped(heavy, pids)
        lazy = pa.concat_tables(checkpoint._extract_partition(block, self.cfg))
        assert lazy.sort_by("doc_id").equals(want)
        assert sorted(spy.doc_ids) == remote

        spy.doc_ids.clear()
        out = str(tmp_path / "out")
        summary = checkpoint._write_partition(block, out, self.cfg)
        assert read_output(out).cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)
        assert sorted(spy.doc_ids) == remote
        for pid in summary["pid"].to_pylist():
            with open(os.path.join(out, "_manifest", f"part-{pid}.json")) as f:
                manifest = json.load(f)
            assert manifest["remote_docs"] == sum(pids[d] == pid for d in remote)

        # a retried range submits only documents of the partition it
        # writes again (one with two heavy documents), none of those it
        # keeps
        again = max(pid for pid in pids.values()
                    if sum(pids[d] == pid for d in heavy) >= 2)
        os.remove(os.path.join(out, "_manifest", f"part-{again}.json"))
        spy.doc_ids.clear()
        assert checkpoint._write_partition(block, out, self.cfg).equals(summary)
        assert sorted(spy.doc_ids) == shipped(
            [d for d in heavy if pids[d] == again], pids)
        assert spy.doc_ids
        assert read_output(out).cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)

    def test_no_session_aligns_in_process(self, ray_session, block, spy,
                                          monkeypatch, tmp_path):
        import pyarrow as pa

        from nmalign_ray.pipelines import checkpoint
        from nmalign_ray.schema import OUTPUT_SCHEMA

        monkeypatch.setattr(checkpoint.ray, "is_initialized", lambda: False)
        assert self.heavy_ids(block)
        want = oracle_table(block.drop(["pid"]), self.cfg.align,
                            salt_threshold=self.cfg.salt_threshold).sort_by("doc_id")
        lazy = pa.concat_tables(checkpoint._extract_partition(block, self.cfg))
        assert lazy.sort_by("doc_id").equals(want)
        out = str(tmp_path / "out")
        summary = checkpoint._write_partition(block, out, self.cfg)
        assert read_output(out).cast(OUTPUT_SCHEMA).sort_by("doc_id").equals(want)
        assert spy.doc_ids == []
        for pid in summary["pid"].to_pylist():
            with open(os.path.join(out, "_manifest", f"part-{pid}.json")) as f:
                assert json.load(f)["remote_docs"] == 0
