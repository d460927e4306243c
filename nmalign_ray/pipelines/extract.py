"""Building blocks of the extraction plan's input side.

* :func:`sort_into_ranges` — the plan's and the pair join's exchange: a
  sort on an integer key into one contiguous key range per CPU;
* :func:`rows_per_task` — the batch size of the map before that
  exchange, from the input's bytes;
* :func:`join_refs` — the two-table form's pair join on ``doc_id``.

The plan itself — read, ``pid``, the ``sort("pid")`` exchange into one
block per CPU, and one task per block that extracts, aligns, reassembles
and (in the checkpointed sink) writes each of its partitions — is built
in ``pipelines/checkpoint.py``.
"""

from __future__ import annotations

import ray.data

from ..schema import cluster_cpus


def sort_into_ranges(ds: ray.data.Dataset, key: str, num_keys: int) -> ray.data.Dataset:
    """Sort ``ds`` on the integer column ``key`` (values in ``[0, num_keys)``)
    into ``min(num_keys, CPUs)`` contiguous key ranges of near-equal width,
    one output block — so one task of the next ``map_batches(batch_size=None)``
    — per range, in key order; a block may hold several keys, or none (zero
    rows, possibly no columns).  The boundaries are fixed, so Ray runs no
    boundary-sampling pass; an empty list would make it sample, so a single
    range sorts below ``num_keys``, with an empty block above it.

    The map side of the sort runs one task per input block; callers size
    the map before it by bytes (:func:`rows_per_task`), so that the
    read's block count does not set it."""
    ranges = max(1, min(num_keys, cluster_cpus()))
    boundaries = [k * num_keys // ranges for k in range(1, ranges)]
    return ds.sort(key, boundaries=boundaries or [num_keys])


def rows_per_task(ds: ray.data.Dataset, budget: int) -> int | None:
    """Rows per task of a map over ``ds`` that holds about ``budget``
    bytes of input at once: ``rows x budget // bytes``, so the map runs
    ``ceil(bytes / budget)`` tasks, however many blocks the read made.

    Rows and bytes come from the Dataset's logical plan, without
    executing it (the metadata ``Dataset.size_bytes()`` reads first: a
    read's file metadata, or a materialized Dataset's blocks).  When
    either is unknown, as after a ``map_batches``, returns None, which
    as a ``batch_size`` keeps one task per block."""
    meta = ds._logical_plan.dag.infer_metadata()
    if not meta.num_rows or not meta.size_bytes:
        return None
    return max(1, meta.num_rows * budget // meta.size_bytes)


class NonUniqueRefError(ValueError):
    """A doc_id appeared more than once on one side of the pair join —
    the counterpart of the reference's ``NonUniqueInputFile``
    (``/root/reference/nmalign/ocrd/cli.py:64-67``)."""


class MissingInputError(ValueError):
    """A doc_id was present on only one side and ``missing='abort'`` —
    the counterpart of ``OCRD_MISSING_INPUT=ABORT``
    (``/root/reference/nmalign/ocrd/cli.py:101-107``)."""


def join_refs(
    inputs: ray.data.Dataset,
    refs: ray.data.Dataset,
    missing: str = "skip",
    on_duplicate: str = "raise",
) -> ray.data.Dataset:
    """Two-table form: equi-join input spans with the reference
    segmentation on ``doc_id`` (the reference's per-page pair join O1,
    ``/root/reference/nmalign/ocrd/cli.py:48-108`` — 1:1 cardinality).

    ``Dataset.join`` delegates to Acero, which rejects list<struct>
    payload columns, so this is the portable co-group hash join: tag each
    side with a COARSE shard key (``crc32(doc_id) % max(32, cpus*4)``),
    union, and sort on it into one shard range per CPU, one
    ``merge_shard`` task per range — never one Ray group per document
    (a per-doc_id groupby costs per-group dispatch, measured 5.7 s of a
    6 s stage at 80k groups).
    Each side is tagged in ``ceil(bytes / MAP_TASK_BYTES)`` tasks when
    its size is known before execution (:func:`rows_per_task`), else one
    per block.  Both sides of a doc_id share its shard, so a range
    merges as one unit.  The merge is vectorized: numpy validity masks
    pick each side's rows and ``Table.take`` re-aligns the list<struct>
    payloads — no per-cell ``.as_py()``.

    Cardinality is ENFORCED, mirroring the reference:

    * ``on_duplicate='raise'`` (default) raises :class:`NonUniqueRefError`
      when a doc_id repeats on either side (reference
      ``NonUniqueInputFile``); ``'last'`` keeps the last non-null
      occurrence (the pre-enforcement behavior).
    * ``missing='skip'`` (default) drops documents present on only one
      side (``OCRD_MISSING_INPUT=SKIP``); ``'abort'`` raises
      :class:`MissingInputError` (``OCRD_MISSING_INPUT=ABORT``).

    The checks run inside the merge task, so enforcement is distributed
    and surfaces on consumption as a task error wrapping the typed
    exception.
    """
    import numpy as np
    import pyarrow as pa

    from ..hashing import crc32_mod
    from ..schema import CORPUS_SCHEMA

    if missing not in ("skip", "abort"):
        raise ValueError(f"missing must be 'skip' or 'abort', got {missing!r}")
    if on_duplicate not in ("raise", "last"):
        raise ValueError(
            f"on_duplicate must be 'raise' or 'last', got {on_duplicate!r}")

    nshards = max(32, cluster_cpus() * 4)

    # ONE explicit tagged schema for both sides: list<struct> field names
    # differ between a parquet-read column ("element") and pa.nulls
    # ("item"), and mismatched sides make the union's schema unification
    # warn and re-cast per block
    tagged_schema = pa.schema(
        list(CORPUS_SCHEMA) + [pa.field("shard", pa.int32())])

    def tag_input(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "spans": batch["spans"].cast(CORPUS_SCHEMA.field("spans").type),
                "ref_spans": pa.nulls(n, CORPUS_SCHEMA.field("ref_spans").type),
                "shard": crc32_mod(batch["doc_id"], nshards),
            },
            schema=tagged_schema,
        )

    def tag_ref(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "spans": pa.nulls(n, CORPUS_SCHEMA.field("spans").type),
                "ref_spans": batch["ref_spans"].cast(
                    CORPUS_SCHEMA.field("ref_spans").type),
                "shard": crc32_mod(batch["doc_id"], nshards),
            },
            schema=tagged_schema,
        )

    def merge_shard(group: pa.Table) -> pa.Table:
        group = group.combine_chunks()
        ids = group["doc_id"].to_pylist()
        in_rows = np.flatnonzero(
            group["spans"].is_valid().combine_chunks().to_numpy(
                zero_copy_only=False))
        ref_rows = np.flatnonzero(
            group["ref_spans"].is_valid().combine_chunks().to_numpy(
                zero_copy_only=False))
        in_map: dict = {}
        ref_map: dict = {}
        for side, rows, mp in (("input", in_rows, in_map),
                               ("ref", ref_rows, ref_map)):
            for k in rows.tolist():
                did = ids[k]
                if did in mp and on_duplicate == "raise":
                    raise NonUniqueRefError(
                        f"doc_id {did!r} occurs more than once on the "
                        f"{side} side of the pair join")
                mp[did] = k  # 'last' keeps the last non-null occurrence
        common = sorted(set(in_map) & set(ref_map))
        if missing == "abort" and (
                len(common) != len(in_map) or len(common) != len(ref_map)):
            lonely_in = set(in_map) - set(ref_map)
            lonely_ref = set(ref_map) - set(in_map)
            did, side = (
                (min(lonely_in), "ref") if lonely_in
                else (min(lonely_ref), "input"))
            raise MissingInputError(
                f"doc_id {did!r} has no {side}-side row (missing='abort')")
        if not common:
            return CORPUS_SCHEMA.empty_table()
        take_in = pa.array([in_map[d] for d in common], type=pa.int64())
        take_ref = pa.array([ref_map[d] for d in common], type=pa.int64())
        return pa.Table.from_arrays(
            [
                group["doc_id"].take(take_in).combine_chunks(),
                group["spans"].take(take_in).combine_chunks(),
                group["ref_spans"].take(take_ref).combine_chunks(),
            ],
            schema=CORPUS_SCHEMA,
        )

    from .checkpoint import MAP_TASK_BYTES

    tagged = inputs.map_batches(
        tag_input, batch_format="pyarrow",
        batch_size=rows_per_task(inputs, MAP_TASK_BYTES),
    ).union(refs.map_batches(
        tag_ref, batch_format="pyarrow",
        batch_size=rows_per_task(refs, MAP_TASK_BYTES),
    ))
    return sort_into_ranges(tagged, "shard", nshards).map_batches(
        merge_shard, batch_size=None, batch_format="pyarrow")
