"""The extraction plan, its checkpointed partitioned sink, and resume.

One plan serves both public entry points.  The exchange comes FIRST, on
the input rows; everything after it runs inside one task per pid range::

    read corpus                                  [doc_id, spans, ref_spans]
      -> map_batches(_add_pid)                   pid = crc32(doc_id) % P, once
      -> map_batches(_filter_completed)          resume: drop finished pids;
                                                 both in ceil(input bytes /
                                                 MAP_TASK_BYTES) tasks
      -> sort("pid", boundaries)                 one block per CPU: [0, P) in
                                                 min(P, CPUs) pid ranges
      -> map_batches(per-range function):
         pass 1: each document over REMOTE_CELLS but the range's first
                 -> its own Ray task (extract_and_salt -> AlignChunks)
         pass 2: per partition of the range in pid order, per slice of
         ``SLICE_DOCS`` documents in doc_id order:
           extract_and_salt                      parse cascade + skew salting
           -> AlignChunks(cfg.align)             forced alignment per chunk
           -> + the slice's heavy documents      ray.get from pass 1's tasks
           -> reassemble_group                   chunks -> document rows

* :func:`build_extract_pipeline` ends in ``map_batches(_extract_partition)``
  and returns the lazy ``OUTPUT_SCHEMA`` Dataset;
* :func:`run_checkpointed` ends in ``map_batches(_write_partition)``, which
  streams each slice into its partition's parquet file and commits each
  partition as soon as it is written.

The exchange moves the input rows rather than the aligned chunks, so a
partition is committed as soon as it is done, not after every document of
the round has been aligned.  The heavy work runs in plain Ray tasks, which
reuse the session's workers from round to round.  The plan, not the
input's block layout, sizes both sides of the exchange: the maps before
it run one task per ``MAP_TASK_BYTES`` of input, read from the corpus's
metadata (:func:`~.extract.rows_per_task`), and fixed boundaries cut
``[0, P)`` into one pid range per CPU (:func:`_exchange`).  Measured on
4 vCPU, a ``mix`` round read as 16 blocks ran 16 pid-map tasks and 16
sort-map tasks of about 10 ms each before its first range task started;
sized by bytes, it runs one of each.

The plan executes without Ray Data's per-operator resource reservation
(``op_resource_reservation_enabled`` off on the executed Dataset's
context, never on the global one).  With it, Ray Data 2.49 reserves at
least one CPU for each operator (read, pid map, sort, range map), which
leaves no shared CPU on 4 CPUs: an operator ran one task at a time until
the operators above it finished, and its 2 x 128 MiB estimate of a
task's output, used until the first output, held the first range task
alone on a small object store (an always-empty first block worked around
that, and left one CPU idle).  Measured on 4 vCPU (``perfbench/run.py
--seconds 14 --trace 0``, 10 pairs alternating with the reserving plan):
``mix`` 1191 -> 1532 docs/s; ``giant`` 6.67 -> 6.66 docs/s; set-up +4%
and +14%, as the first execution in a session now starts a worker process
for its fourth range task.

Ranges are equal in pids, not in work.  So that heavy partitions that
share a range do not run one after another, the range task first sends
each document whose estimated cost (:func:`_doc_cells`) is over
``REMOTE_CELLS`` to its own Ray task, all but the first one it reaches,
which it aligns itself; it then works through its partitions and waits
for the other documents' rows in their slices.  A task waiting in
``ray.get`` gives its CPU back, so the heavy documents of a range align
in parallel (FP-Hadoop's heavy-key split, VLDB 2015).  Measured on 4
vCPU (``perfbench/run.py --seconds 14 --trace 0``, 10 pairs alternating
with the plan that kept every document in its range task): ``giant``
8.35 -> 11.56 docs/s (+38%), ``mix`` unchanged.  Salting bounds
the size of each alignment call; it does not split one document across
tasks, so one giant document still aligns on one CPU.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics".  This generalizes the reference's page-granular
idempotency (skip pages whose output file already exists,
``/root/reference/nmalign/ocrd/cli.py:178-184``) to partition granularity:

* every document belongs to a deterministic partition
  ``pid = crc32(doc_id) % P`` (stable across runs and machines — NOT
  Python's salted ``hash``), computed once right after the read;
* the one shuffle is keyed on ``pid``: it co-locates all documents of a
  partition in one range, and the range task extracts, aligns and
  reassembles each of its partitions in turn, writes
  ``out_dir/part=<pid>/data.parquet`` ATOMICALLY (tmp + rename) and a
  lineage record ``out_dir/_manifest/part-<pid>.json`` with row counts
  and metrics;
* on resume, completed partitions are read from the manifest and their
  documents are filtered out right after the read — the heavy stages
  never see them.

A partition directory without its manifest entry is a torn write from a
killed run; it is overwritten on resume.

Never calls ``ray.init`` — the session is owned by the caller.
"""

from __future__ import annotations

import json
import os
import shutil
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..hashing import crc32_mod
from ..schema import EngineConfig, OUTPUT_SCHEMA
from ..stages import extract_stage
from ..stages.aligner import AlignChunks
from ..stages.reassemble import reassemble_group
from .extract import rows_per_task, sort_into_ranges


def resolve_num_partitions(out_dir: str, cfg: EngineConfig) -> int:
    """Resolve the partition count for a checkpointed job and PIN it.

    ``pid = crc32(doc_id) % P`` means P must be identical across a crash
    and its resume or the completed-partition filter skips the wrong
    documents — so the first run writes ``_manifest/meta.json`` and every
    later run (any cpu count) reads P back from it.  An explicit config
    value that CONTRADICTS a pinned manifest is an error, not a silent
    re-partitioning."""
    meta_path = os.path.join(out_dir, "_manifest", "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            pinned = int(json.load(f)["num_partitions"])
        if pinned < 1:
            raise ValueError(
                f"checkpoint at {out_dir} pins num_partitions={pinned}, "
                "which is not a partition count (must be at least 1)")
        if cfg.num_partitions is not None and cfg.num_partitions != pinned:
            raise ValueError(
                f"checkpoint at {out_dir} was written with num_partitions="
                f"{pinned}; config asks for {cfg.num_partitions} — resume "
                "must keep the original partitioning")
        return pinned
    if completed_partitions(out_dir) and cfg.num_partitions is None:
        # a pre-meta.json checkpoint (older layout) being resumed with
        # the auto default: re-deriving P from TODAY'S cluster would
        # re-key crc32 % P and silently skip/duplicate documents — the
        # caller must state the original value explicitly (it is then
        # pinned going forward)
        raise ValueError(
            f"checkpoint at {out_dir} has completed partitions but no "
            "_manifest/meta.json (written by an older version); pass the "
            "original num_partitions explicitly to resume it")
    num = cfg.resolved_partitions()
    os.makedirs(os.path.dirname(meta_path), exist_ok=True)
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"num_partitions": num}, f)
    os.replace(tmp, meta_path)
    return num


def completed_partitions(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                rec = json.load(f)
            done.add(int(rec["pid"]))
    return done


def _add_pid(batch: pa.Table, num_partitions: int) -> pa.Table:
    pid = crc32_mod(batch["doc_id"], num_partitions)
    return batch.append_column("pid", pa.array(pid))


def _filter_completed(batch: pa.Table, done: frozenset) -> pa.Table:
    if not done:
        return batch
    finished = pc.is_in(batch["pid"], value_set=pa.array(sorted(done), pa.int32()))
    return batch.filter(pc.invert(finished))


_SUMMARY_SCHEMA = pa.schema([(name, pa.int64()) for name in (
    "pid", "num_docs", "matched", "total", "unmatched_ref_count")])


def _pid_runs(block: pa.Table):
    """Yield ``(pid, rows)`` for each run of one ``pid`` in a pid-sorted
    block, in pid order; ``rows`` is a zero-copy slice.  An empty block
    (which may have no columns) yields nothing."""
    if block.num_rows == 0:
        return
    pids = block["pid"].to_numpy()
    cuts = np.flatnonzero(pids[1:] != pids[:-1]) + 1
    if (pids[cuts] < pids[cuts - 1]).any():
        raise ValueError("block is not sorted by pid: a partition would be "
                         "written from more than one run")
    for lo, hi in zip([0, *cuts], [*cuts, len(pids)]):
        yield int(pids[lo]), block.slice(lo, hi - lo)


# Documents per slice: the range task extracts, aligns and reassembles
# this many documents of one partition at a time, and the sink writes each
# slice as one row group.
SLICE_DOCS = 64

# Input bytes per task of the maps before the exchange (``_add_pid`` and
# ``_filter_completed``; ``join_refs``' tagging): they run in
# ceil(bytes / MAP_TASK_BYTES) tasks, not one per read block.  Such a
# task spends about 10 ms in Ray for about 1 ms of work per 2 000
# documents, so ``mix`` (1.8 MiB) and ``giant`` run as one task, and a
# 64 000-document ``mix`` corpus (57 MiB) as four.  The worker of a task
# holds a few times its input while it maps, sorts and puts it, so the
# budget stays small: at 16 MiB ``mix``'s peak worker RSS rose 4%.
MAP_TASK_BYTES = 16 << 20

# A document costs about (Σ span characters) x (Σ reference characters)
# cells of similarity matrix; over this many it aligns in its own Ray task.
# The heaviest documents of the ``mix`` benchmark (and of
# ``corpus.generate_corpus``) stay below 1e6 cells, a few milliseconds of
# alignment, for which a task would cost more than it saves.
REMOTE_CELLS = 1 << 21


def _text_chars(col: pa.ChunkedArray) -> np.ndarray:
    """Σ characters (code points) of the ``text`` fields of each row's
    span list, as int64; null lists and null texts count 0."""
    col = col.combine_chunks()
    chars = pc.utf8_length(pc.struct_field(pc.list_flatten(col), "text"))
    csum = np.zeros(len(chars) + 1, dtype=np.int64)
    np.cumsum(chars.fill_null(0).to_numpy(zero_copy_only=False), out=csum[1:])
    ends = np.cumsum(pc.list_value_length(col).fill_null(0).to_numpy(
        zero_copy_only=False), dtype=np.int64)
    return np.diff(csum[ends], prepend=0)


def _doc_cells(rows: pa.Table) -> np.ndarray:
    """Each document's estimated alignment cost, read from the input
    columns before any extraction: Σ text characters of ``spans`` x Σ
    text characters of ``ref_spans``."""
    return _text_chars(rows["spans"]) * _text_chars(rows["ref_spans"])


@ray.remote
def _align_alone(doc: pa.Table, cfg: EngineConfig) -> pa.Table:
    """One document's ``ALIGNED_SCHEMA`` rows, aligned in its own task."""
    chunks = extract_stage.extract_and_salt(doc, salt_threshold=cfg.salt_threshold)
    return AlignChunks(cfg.align)(chunks)


def _heavy_rows(rows: pa.Table) -> list[int]:
    """The rows of one partition over ``REMOTE_CELLS``, in ``doc_id``
    order (the order in which the range task reaches them)."""
    heavy = np.flatnonzero(_doc_cells(rows) > REMOTE_CELLS)
    doc_ids = rows["doc_id"].take(pa.array(heavy, pa.int64())).to_pylist()
    return [int(i) for _, i in sorted(zip(doc_ids, heavy))]


def _range_partitions(block: pa.Table, cfg: EngineConfig,
                      committed=lambda pid: False):
    """The partitions of one pid range, in two passes.

    Pass 1 (this call) walks the block's pid runs and submits each heavy
    document of every partition that is not ``committed`` to a Ray task
    of its own (:func:`_align_alone`), so that the heavy documents of
    the range align in parallel, with each other and with the rest of
    the range.  The first heavy document the range reaches is the
    exception: the range task aligns it itself, where it would
    otherwise wait idle in ``ray.get``.  So a range holds one worker
    process fewer: four heavy documents in two ranges keep four workers
    busy, not six.  With more busy workers than CPUs, Ray reaps the idle
    extras between rounds and starts them again in the next one.
    Without a Ray session nothing is submitted.

    Returns ``(pid, rows, remote)`` per partition in pid order, for the
    caller's pass 2; ``remote`` maps a row of ``rows`` to its document's
    task, and is None for a committed partition."""
    runs, keep_first = [], True
    for pid, rows in _pid_runs(block):
        if committed(pid):
            runs.append((pid, rows, None))
            continue
        heavy = _heavy_rows(rows) if ray.is_initialized() else []
        if heavy and keep_first:
            heavy, keep_first = heavy[1:], False
        runs.append((pid, rows, {i: _align_alone.remote(rows.take([i]), cfg)
                                 for i in heavy}))
    return runs


def _partition_slices(rows: pa.Table, cfg: EngineConfig, remote: dict):
    """Extract, align and reassemble one partition's documents, yielding
    one ``OUTPUT_SCHEMA`` table per slice of ``SLICE_DOCS`` documents,
    in ``doc_id`` order.

    A slice bounds the rows each layer holds at once; every chunk of a
    document stays in its document's slice.  The documents in ``remote``
    are not aligned here: the slice waits for their tasks' rows (a task
    waiting in ``ray.get`` lends its CPU back to Ray), and
    ``reassemble_group`` merges them with the others by ``(doc_id,
    salt)``, so where a document aligned does not change the output.
    ``extract_and_salt`` is looked up on its module at call time, so a
    wrapper installed there (``perfbench/tracer.py``) sees every call."""
    order = pc.sort_indices(rows, sort_keys=[("doc_id", "ascending")])
    group = rows.take(order)
    order = order.to_numpy()
    aligner = AlignChunks(cfg.align)
    for lo in range(0, group.num_rows, SLICE_DOCS):
        here = order[lo:lo + SLICE_DOCS]
        is_remote = np.isin(here, list(remote))
        local = group.slice(lo, len(here))
        if is_remote.any():
            local = local.filter(pa.array(~is_remote))
        parts = []
        if local.num_rows:
            parts.append(aligner(extract_stage.extract_and_salt(
                local, salt_threshold=cfg.salt_threshold)))
        if is_remote.any():
            parts += ray.get([remote[int(i)] for i in here[is_remote]])
        yield reassemble_group(pa.concat_tables(parts))


def _extract_partition(block: pa.Table, cfg: EngineConfig):
    """One pid range's documents -> their ``OUTPUT_SCHEMA`` rows, yielded
    slice by slice, partition by partition, so the task's output blocks
    are cut by Ray's block size, not by the size of the range."""
    empty = True
    for _, rows, remote in _range_partitions(block, cfg):
        for table in _partition_slices(rows, cfg, remote):
            empty = False
            yield table
    if empty:
        yield OUTPUT_SCHEMA.empty_table()


def _write_partition(block: pa.Table, out_dir: str, cfg: EngineConfig) -> pa.Table:
    """Process one pid range partition by partition, in pid order.  Each
    partition streams slice by slice into its own parquet file and is
    committed atomically as soon as it is done: data first (tmp +
    rename), then its manifest.  Returns one summary row per partition.

    A partition whose manifest already exists was committed by an
    earlier attempt of this task (the resume filter removed every
    partition committed before the run), so a retried range keeps it
    as it is, submits none of its documents, and reports its manifest.
    A manifest records, besides the partition's counts, ``remote_docs``:
    how many of its documents aligned in their own task."""
    mdir = os.path.join(out_dir, "_manifest")

    def manifest_path(pid):
        return os.path.join(mdir, f"part-{pid}.json")

    manifests = []
    for pid, rows, remote in _range_partitions(
            block, cfg, committed=lambda pid: os.path.exists(manifest_path(pid))):
        committed = manifest_path(pid)
        if remote is None:
            with open(committed) as f:
                manifests.append(json.load(f))
            continue
        part_dir = os.path.join(out_dir, f"part={pid}")
        tmp_dir = os.path.join(out_dir, "_tmp", f"part={pid}")
        os.makedirs(os.path.dirname(tmp_dir), exist_ok=True)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        manifest = {"pid": pid, "num_docs": 0, "matched": 0, "total": 0,
                    "unmatched_ref_count": 0, "remote_docs": len(remote)}
        with pq.ParquetWriter(os.path.join(tmp_dir, "data.parquet"), OUTPUT_SCHEMA) as writer:
            for table in _partition_slices(rows, cfg, remote):
                writer.write_table(table)
                manifest["num_docs"] += table.num_rows
                for name in ("matched", "total", "unmatched_ref_count"):
                    manifest[name] += int(pc.sum(table[name]).as_py() or 0)
        shutil.rmtree(part_dir, ignore_errors=True)
        os.replace(tmp_dir, part_dir)

        os.makedirs(mdir, exist_ok=True)
        mtmp = os.path.join(mdir, f".part-{pid}.json.tmp")
        with open(mtmp, "w") as f:
            json.dump(manifest, f)
        os.replace(mtmp, committed)
        manifests.append(manifest)
    return pa.Table.from_pylist(manifests, schema=_SUMMARY_SCHEMA)


def _exchange(rows: ray.data.Dataset, num_partitions: int) -> ray.data.Dataset:
    """Sort the rows on ``pid`` into ``min(P, CPUs)`` pid ranges, one
    output block, so one task of the next map, per range."""
    return sort_into_ranges(rows, "pid", num_partitions)


def _plan(corpus: ray.data.Dataset, num_partitions: int, per_range,
          done: frozenset = frozenset()) -> ray.data.Dataset:
    """The extraction plan (module docstring): ``pid``, the resume
    filter, the exchange into pid ranges, and ``per_range`` — the
    per-range function — as one task per range."""
    stateless = {"batch_format": "pyarrow",
                 "batch_size": rows_per_task(corpus, MAP_TASK_BYTES)}
    rows = (corpus.map_batches(partial(_add_pid, num_partitions=num_partitions), **stateless)
            .map_batches(partial(_filter_completed, done=done), **stateless))
    return _exchange(rows, num_partitions).map_batches(
        per_range, batch_size=None, batch_format="pyarrow")


def build_extract_pipeline(
    ds: ray.data.Dataset, config: EngineConfig | None = None
) -> ray.data.Dataset:
    """Compose the extraction pipeline over a corpus Dataset
    (``doc_id, spans, ref_spans``); returns the lazy ``OUTPUT_SCHEMA``
    Dataset, one row per document.  Consume it with ``write_parquet`` /
    ``iter_batches`` / an aggregate, not ``take_all``.

    The Dataset runs without Ray Data's per-operator resource reservation
    (module docstring); so do ``ds`` and its other descendants, which
    share its context, from then on."""
    cfg = config if config is not None else EngineConfig()
    out = _plan(ds, cfg.resolved_partitions(), partial(_extract_partition, cfg=cfg))
    out.context.op_resource_reservation_enabled = False
    return out


def run_checkpointed(
    corpus: ray.data.Dataset,
    out_dir: str,
    config: EngineConfig | None = None,
    collect_stats: bool = False,
) -> dict:
    """Run the extraction pipeline with a checkpointed sink; returns a job
    summary.  Safe to re-invoke after a crash: completed partitions are
    skipped before the heavy stages.  With ``collect_stats`` the summary
    carries the executed plan's ``Dataset.stats()`` text under ``"stats"``
    (bench.py parses it into per-stage seconds)."""
    cfg = config if config is not None else EngineConfig()
    num_partitions = resolve_num_partitions(out_dir, cfg)
    done = frozenset(completed_partitions(out_dir))
    result_ds = _plan(corpus, num_partitions,
                      partial(_write_partition, out_dir=out_dir, cfg=cfg), done)
    context = result_ds.context  # shared along ``corpus``'s lineage
    reserved = context.op_resource_reservation_enabled
    context.op_resource_reservation_enabled = False
    try:
        summary = result_ds.to_pandas()
    finally:
        context.op_resource_reservation_enabled = reserved
    out = {
        "partitions_written": int(summary.shape[0]),
        "partitions_skipped": len(done),
        "num_docs": int(summary["num_docs"].sum()) if len(summary) else 0,
        "matched": int(summary["matched"].sum()) if len(summary) else 0,
        "total": int(summary["total"].sum()) if len(summary) else 0,
    }
    if collect_stats:
        out["stats"] = result_ds.stats()
    return out


def read_output(out_dir: str) -> pa.Table:
    """Read every completed partition back as one table (small results /
    tests; large outputs should be read with ray.data.read_parquet)."""
    parts = []
    for pid in sorted(completed_partitions(out_dir)):
        path = os.path.join(out_dir, f"part={pid}", "data.parquet")
        parts.append(pq.read_table(path))
    return pa.concat_tables(parts) if parts else OUTPUT_SCHEMA.empty_table()
