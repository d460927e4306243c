"""Link-graph analytics: fixed-point integer PageRank over the
part<->supplier bipartite graph derived from ``lineitem``.

Web-curation pipelines rank hosts and pages by link centrality before
sampling training text (the CommonCrawl harmonic-centrality /
PageRank-style seed lists); this module is that operator shape over the
fixture's one natural link structure — part u is linked to supplier v
iff some lineitem ships (u, v), taken symmetrically so every node has
degree >= 1 and no dangling-mass term is needed.

Determinism contract (same argument as ``simsearch.embed_kmeans``'s
integer centroid sums): ranks are INTEGERS — initial mass 1_000_000 per
node — and every update is integer arithmetic,

    contrib(u->v) = r(u) // deg(u)
    r'(v)        = 150_000 + (85 * sum_in(contribs)) // 100

i.e. the damping-0.85 PageRank update in fixed point, so the sums both
engines compute are exact in ANY accumulation order; a float PageRank
would be order-dependent on both sides.  DuckDB's ``sum(BIGINT)``
returns HUGEINT, so the SQL twin casts every sum before the ``* 85``
(the round-4 lesson).  ``//`` agrees between Python and DuckDB on the
non-negative values that occur here.

Scale shape: the edge list is built once with two narrow integer
exchanges — distinct (part, supplier) pairs on a ``pair_key % width``
coarse shard, then degree annotation on ``src % width`` (all of a
node's edges co-locate, so the count is in-task) — and materialized,
since every iteration re-consumes it.  Each iteration is two more
narrow exchanges: ranks are co-grouped with edges on the src shard
(one uniform (shard, kind, a, b, c) row shape through a single
``union``), contributions are pre-aggregated per dst INSIDE the shard
task, then a dst-shard sum applies the update.  Rows through every
shuffle are 3-5 int64 columns; nothing ever collects to the driver.
Iteration count is fixed (3) so the lineage stays shallow; a deeper
run would re-root ranks per round exactly as ``dedup.dup_groups``
does.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..schema import cluster_cpus

PAGERANK_ITERS = 3
PAGERANK_SCALE = 1_000_000
_DAMP_NUM = 85  # damping 0.85 in fixed point: r' = 0.15*S + 0.85*sum
_BASE = PAGERANK_SCALE * 15 // 100  # 150_000


def _width() -> int:
    return max(32, cluster_cpus() * 4)


_ITER_SQL = """
r{i} AS (
  SELECT e.dst AS node,
         CAST({base} + ({damp} * CAST(sum(r{prev}.r // e.deg) AS BIGINT))
              // 100 AS BIGINT) AS r
  FROM edges e JOIN r{prev} ON r{prev}.node = e.src
  GROUP BY e.dst
)"""

PAGERANK_SQL = f"""
WITH pairs AS (
  SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
),
edges AS (
  SELECT src, dst, CAST(count(*) OVER (PARTITION BY src) AS BIGINT) AS deg
  FROM (
    SELECT p * 2 AS src, s * 2 + 1 AS dst FROM pairs
    UNION ALL
    SELECT s * 2 + 1 AS src, p * 2 AS dst FROM pairs
  )
),
r0 AS (
  SELECT DISTINCT src AS node, CAST({PAGERANK_SCALE} AS BIGINT) AS r
  FROM edges
),
{_ITER_SQL.format(i=1, prev=0, base=_BASE, damp=_DAMP_NUM)},
{_ITER_SQL.format(i=2, prev=1, base=_BASE, damp=_DAMP_NUM)},
{_ITER_SQL.format(i=3, prev=2, base=_BASE, damp=_DAMP_NUM)}
SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS node_kind,
       node // 2 AS key,
       r AS pagerank
FROM r{PAGERANK_ITERS}
"""


PAGERANK_DRIVER_MAX = int(os.environ.get(
    "GRAFT_PAGERANK_DRIVER_MAX", 4_000_000))


def _pair_rows(lineitem: ray.data.Dataset, width: int) -> ray.data.Dataset:
    """One streamed pass: batch-distinct (part, supplier) pair keys."""

    def pair_partial(b: pa.Table) -> pa.Table:
        p = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = np.unique(p * (1 << 32) + s)  # batch-distinct pairs
        return pa.Table.from_pydict({
            "shard": pa.array(key % width, pa.int64()),
            "key": pa.array(key, pa.int64()),
        })

    return lineitem.map_batches(pair_partial, batch_format="pyarrow")


def _build_edges(pairs: ray.data.Dataset,
                 width: int) -> ray.data.Dataset:
    """batch-distinct pair rows -> materialized symmetric edge list
    (src, dst, deg)."""

    def pair_distinct(g: pd.DataFrame) -> pd.DataFrame:
        key = np.unique(g["key"].to_numpy())
        p, s = key >> 32, key & ((1 << 32) - 1)
        src = np.concatenate([p * 2, s * 2 + 1])
        dst = np.concatenate([s * 2 + 1, p * 2])
        return pd.DataFrame({"shard": src % width, "src": src, "dst": dst})

    def annotate_deg(g: pd.DataFrame) -> pd.DataFrame:
        # the shard holds ALL edges of each of its srcs (shard = src % W)
        deg = g.groupby("src")["dst"].transform("size").to_numpy(np.int64)
        return pd.DataFrame({"src": g["src"].to_numpy(np.int64),
                             "dst": g["dst"].to_numpy(np.int64),
                             "deg": deg})

    return (pairs
            .groupby("shard")
            .map_groups(pair_distinct, batch_format="pandas")
            .groupby("shard")
            .map_groups(annotate_deg, batch_format="pandas")
            .materialize())


def _pagerank_driver(key: np.ndarray, iters: int) -> pd.DataFrame:
    """Exact integer PageRank on the driver from GLOBALLY distinct pair
    keys — the small-graph fast path (same integer update, bit-identical
    to the distributed loop; pinned by TestPagerank)."""
    p, s = key >> 32, key & ((1 << 32) - 1)
    src = np.concatenate([p * 2, s * 2 + 1])
    dst = np.concatenate([s * 2 + 1, p * 2])
    nodes, src_idx = np.unique(src, return_inverse=True)
    dst_idx = np.searchsorted(nodes, dst)  # symmetric: same node set
    deg = np.bincount(src_idx, minlength=len(nodes)).astype(np.int64)
    r = np.full(len(nodes), PAGERANK_SCALE, np.int64)
    for _ in range(iters):
        sums = np.zeros(len(nodes), np.int64)
        np.add.at(sums, dst_idx, r[src_idx] // deg[src_idx])
        r = _BASE + (_DAMP_NUM * sums) // 100
    return pd.DataFrame({
        "node_kind": np.where(nodes % 2 == 0, "part", "supplier"),
        "key": nodes // 2,
        "pagerank": r,
    })


def pagerank(lineitem: ray.data.Dataset,
             iters: int = PAGERANK_ITERS,
             driver_max: int = PAGERANK_DRIVER_MAX) -> ray.data.Dataset:
    """lineitem -> (node_kind, key, pagerank): fixed-point integer
    PageRank on the symmetric part<->supplier graph, ``iters`` update
    rounds from a uniform integer mass.  The distributed form looks each
    edge source's rank up in its shard, so it needs every source node to
    have an in-edge; the symmetric graph guarantees that, and a source
    without one raises ``ValueError``.

    Two physical forms, the ``dedup.dup_groups`` LABEL_DRIVER_MAX
    precedent: when the streamed batch-distinct pair partials fit under
    ``driver_max`` rows (gated ``to_pandas(limit=...)`` — loud, never
    truncating), the whole graph is small and the iterations run as one
    numpy loop on the driver; above the gate, the distributed loop
    below.  Both produce bit-identical integers (pinned by
    TestPagerank).

    Distributed form, exchange-fused iterations: the dst shard that
    SUMS round i's contributions (``dst % width``) is the same shard
    that round i+1 needs the resulting ranks on (``src % width`` —
    identical formula), so each round's rank update and the next
    round's contribution pass run in ONE shard task over a union of
    edge rows and partial rows — ``iters`` sort exchanges total instead
    of ``2 * iters`` (measured: each Ray sort exchange costs seconds of
    barrier wall regardless of these row volumes)."""
    width = _width()
    pairs = _pair_rows(lineitem, width)
    if driver_max > 0:
        # the large-graph fallthrough rebuilds its edges from these same
        # pairs: materialize once so lineitem is not scanned twice
        pairs = pairs.materialize()
        try:
            # only the gated collect may fall through to the distributed
            # loop — anything after it must stay loud (r5 review f.7)
            df = pairs.to_pandas(limit=driver_max)
        except ValueError:
            df = None
        if df is not None:
            # Ray returns a COLUMN-LESS frame for an empty dataset (the
            # _vocab_pandas quirk): an empty graph yields zero rows,
            # like the SQL twin (r5 review finding 1)
            key = (np.unique(df["key"].to_numpy())
                   if "key" in df.columns else np.array([], np.int64))
            return ray.data.from_pandas(_pagerank_driver(key, iters))
    edges = _build_edges(pairs, width)

    def contrib0(b: pa.Table) -> pa.Table:
        # r0 is the constant SCALE, so round 1 needs no rank join at all
        dst = b["dst"].to_numpy(zero_copy_only=False)
        deg = b["deg"].to_numpy(zero_copy_only=False)
        part = pd.Series(PAGERANK_SCALE // deg).groupby(dst).sum()
        node = part.index.to_numpy(np.int64)
        n = len(node)
        return pa.Table.from_pydict({
            "shard": pa.array(node % width, pa.int64()),
            "kind": pa.array(np.ones(n, np.int64), pa.int64()),
            "a": pa.array(node, pa.int64()),
            "b": pa.array(part.to_numpy(np.int64), pa.int64()),
            "c": pa.array(np.zeros(n, np.int64), pa.int64()),
        })

    def edge_rows(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        n = len(src)
        return pa.Table.from_pydict({
            "shard": pa.array(src % width, pa.int64()),
            "kind": pa.array(np.zeros(n, np.int64), pa.int64()),
            "a": b["src"].combine_chunks().cast(pa.int64()),
            "b": b["dst"].combine_chunks().cast(pa.int64()),
            "c": b["deg"].combine_chunks().cast(pa.int64()),
        })

    def _local_ranks(g: pd.DataFrame):
        """Sum the shard's partial rows (kind 1) into this round's ranks
        for the shard-local nodes — the integer PageRank update."""
        is_part = g["kind"].to_numpy() == 1
        s = pd.Series(g["b"].to_numpy()[is_part]).groupby(
            g["a"].to_numpy()[is_part]).sum()
        return (s.index.to_numpy(np.int64),
                _BASE + (_DAMP_NUM * s.to_numpy(np.int64)) // 100)

    def update_and_contrib(g: pd.DataFrame) -> pa.Table:
        node, r_arr = _local_ranks(g)
        is_edge = g["kind"].to_numpy() == 0
        src = g["a"].to_numpy()[is_edge]
        dst = g["b"].to_numpy()[is_edge]
        deg = g["c"].to_numpy()[is_edge]
        # node is sorted (pandas groupby index): vectorized rank lookup —
        # this path only runs above the driver gate, i.e. with millions
        # of edges per shard, where a python dict loop would dominate
        at = np.searchsorted(node, src)
        if len(src) and (len(node) == 0 or not np.array_equal(
                node[np.minimum(at, len(node) - 1)], src)):
            raise ValueError(
                "pagerank: an edge source has no rank in its shard; every "
                "source node needs an in-edge (a symmetric graph)")
        rv = r_arr[at]
        part = pd.Series(rv // deg).groupby(dst).sum()
        out = part.index.to_numpy(np.int64)
        n = len(out)
        # arrow out: the next round UNIONs these rows with the arrow
        # edge rows, and the sort exchange requires one block type
        return pa.Table.from_pydict({
            "shard": pa.array(out % width, pa.int64()),
            "kind": pa.array(np.ones(n, np.int64), pa.int64()),
            "a": pa.array(out, pa.int64()),
            "b": pa.array(part.to_numpy(np.int64), pa.int64()),
            "c": pa.array(np.zeros(n, np.int64), pa.int64()),
        })

    def update_and_project(g: pd.DataFrame) -> pd.DataFrame:
        node, r_arr = _local_ranks(g)
        return pd.DataFrame({
            "node_kind": np.where(node % 2 == 0, "part", "supplier"),
            "key": node // 2,
            "pagerank": r_arr,
        })

    partials = edges.map_batches(contrib0, batch_format="pyarrow")
    for _ in range(iters - 1):
        mixed = edges.map_batches(edge_rows, batch_format="pyarrow") \
                     .union(partials)
        partials = (mixed.groupby("shard")
                    .map_groups(update_and_contrib, batch_format="pandas"))

    return (partials.groupby("shard")
            .map_groups(update_and_project, batch_format="pandas"))
