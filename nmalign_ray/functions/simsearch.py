"""Similarity search over the embeddings table (list<float> column).

* ``knn_brute`` — the exact baseline: a small query matrix is broadcast
  once with ``ray.put``; every batch computes its partial cosine top-k
  against the broadcast matrix with one float64 matmul (numpy), and a
  final tiny sort+head-k per query merges the partials.  The full
  embedding table is streamed, never collected.
* ``knn_lsh`` — the scale path: seeded random-hyperplane signatures
  bucket the table; queries probe only their own bucket (plus
  single-bit-flip neighbors), trading recall for a candidate set that
  shrinks with the number of planes.
* ``embedding_near_dups`` — cosine near-duplicate pairs via the same
  LSH buckets.

All float outputs are rounded half-away at 6 decimals (DuckDB parity).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..hashing import md5_byte_sql, md5_order_sql
from .textstats import round6

DEFAULT_K = 5
DEFAULT_NUM_QUERIES = 8

KNN_BRUTE_SQL = f"""
WITH q AS (
  SELECT vec_id AS q_id, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id < {DEFAULT_NUM_QUERIES}
),
scored AS (
  SELECT q.q_id, e.vec_id,
         round(list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])), 6)
           AS score
  FROM q, embeddings e
  WHERE e.vec_id != q.q_id
)
SELECT q_id, vec_id, score,
       CAST(rank AS BIGINT) AS rank
FROM (
  SELECT q_id, vec_id, score,
         row_number() OVER (PARTITION BY q_id ORDER BY score DESC, vec_id)
           AS rank
  FROM scored
)
WHERE rank <= {DEFAULT_K}
"""


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norm, 1e-30)


def _stack_embeddings(batch: pa.Table) -> np.ndarray:
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(batch.num_rows, -1)


def knn_brute(
    ds: ray.data.Dataset,
    k: int = DEFAULT_K,
    num_queries: int = DEFAULT_NUM_QUERIES,
) -> ray.data.Dataset:
    """Exact cosine top-k: queries = rows with vec_id < num_queries
    (self-matches excluded).  Output (q_id, vec_id, score, rank)."""
    import pyarrow.compute as pc

    q_tbl = ds.map_batches(
        lambda b: b.filter(pc.less(b["vec_id"], num_queries)),
        batch_format="pyarrow",
    ).to_pandas()
    q_tbl = q_tbl.sort_values("vec_id")
    q_ids = q_tbl["vec_id"].to_numpy()
    q_mat = _normalize_rows(np.stack(q_tbl["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put((q_ids, q_mat))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(ref)
        emb = _normalize_rows(_stack_embeddings(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = qmat @ emb.T  # (Q, B) float64
        rows = {"q_id": [], "vec_id": [], "score": []}
        kk = min(k, emb.shape[0])
        for qi, qid in enumerate(qids):
            mask = vec_ids != qid
            cand = np.nonzero(mask)[0]
            if not len(cand):
                continue
            # order by ROUNDED score desc, vec_id asc — the same total
            # order the SQL oracle's row_number uses, so ties at the
            # per-batch cut keep the same rows the oracle keeps
            s_r = round6(sims[qi][cand])
            order = np.lexsort((vec_ids[cand], -s_r))[:kk]
            top = cand[order]
            rows["q_id"].extend([int(qid)] * len(top))
            rows["vec_id"].extend(vec_ids[top].tolist())
            rows["score"].extend(s_r[order].tolist())
        return pa.Table.from_pydict(
            {"q_id": pa.array(rows["q_id"], pa.int64()),
             "vec_id": pa.array(rows["vec_id"], pa.int64()),
             "score": pa.array(rows["score"], pa.float64())}
        )

    partials = ds.map_batches(partial_topk, batch_format="pyarrow")

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("q_id").map_groups(final_topk, batch_format="pandas")


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (scale path)

NUM_PLANES = 6
# the embeddings test table is 64-dim (spec constant of the corpus; the
# SQL oracles inline the seeded planes/pivots for exactly this dim)
EMBED_DIM = 64

from functools import lru_cache


@lru_cache(maxsize=8)
def _planes(dim: int, seed: int = 42) -> np.ndarray:
    # cached per process: actors/tasks derive the plane matrix once, not
    # per batch (round-1 verdict item 8)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, NUM_PLANES))


def _signatures(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes) > 0
    weights = (1 << np.arange(NUM_PLANES, dtype=np.int64))
    return bits @ weights


def _sql_list(vals) -> str:
    return "[" + ", ".join(repr(float(v)) for v in vals) + "]"


def _knn_lsh_sql() -> str:
    """Exact DuckDB twin of ``knn_lsh``: the seeded hyperplanes are inlined
    as DOUBLE[] literals (full repr round-trip precision), the signature
    is the same sign-bit integer, and the multiprobe rule
    'candidate iff hamming(sig_q, sig_v) <= probe_bits' becomes a join
    predicate on bit_count(xor(...)).  Signs match the engine because the
    engine computes them on L2-normalized rows — positive scaling never
    flips sign — and a dot product landing exactly on a float boundary
    does not occur in this data (verified at both SFs)."""
    planes = _planes(EMBED_DIM)
    sig_terms = "\n        + ".join(
        f"CASE WHEN list_dot_product(v, {_sql_list(planes[:, j])}) > 0 "
        f"THEN {1 << j} ELSE 0 END"
        for j in range(NUM_PLANES)
    )
    return f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
),
sigs AS (
  SELECT vec_id, v,
         ({sig_terms}) AS sig
  FROM e
),
q AS (
  SELECT vec_id AS q_id, v AS qv, sig AS qsig
  FROM sigs WHERE vec_id < {DEFAULT_NUM_QUERIES}
),
scored AS (
  SELECT q.q_id, s.vec_id,
         round(list_cosine_similarity(q.qv, s.v), 6) AS score
  FROM q JOIN sigs s
    ON s.vec_id != q.q_id
   AND bit_count(xor(CAST(q.qsig AS UBIGINT), CAST(s.sig AS UBIGINT))) <= 2
)
SELECT q_id, vec_id, score, CAST(rank AS BIGINT) AS rank
FROM (
  SELECT q_id, vec_id, score,
         row_number() OVER (PARTITION BY q_id ORDER BY score DESC, vec_id)
           AS rank
  FROM scored
)
WHERE rank <= {DEFAULT_K}
"""


KNN_LSH_SQL = _knn_lsh_sql()


def knn_lsh(
    ds: ray.data.Dataset,
    k: int = DEFAULT_K,
    num_queries: int = DEFAULT_NUM_QUERIES,
    probe_bits: int = 2,
) -> ray.data.Dataset:
    """Approximate cosine top-k: random-hyperplane LSH buckets; each query
    probes its own bucket plus all buckets within ``probe_bits`` bit
    flips.  Same output schema as ``knn_brute``; recall < 1 by design
    (tested against the brute baseline)."""
    import pyarrow.compute as pc

    q_tbl = ds.map_batches(
        lambda b: b.filter(pc.less(b["vec_id"], num_queries)),
        batch_format="pyarrow",
    ).to_pandas().sort_values("vec_id")
    q_mat = _normalize_rows(np.stack(q_tbl["embedding"].to_numpy()).astype(np.float64))
    planes = _planes(q_mat.shape[1])
    q_sigs = _signatures(q_mat, planes)
    probe: dict[int, list[int]] = {}
    for qid, sig in zip(q_tbl["vec_id"].to_numpy(), q_sigs):
        sigs = {int(sig)}
        if probe_bits >= 1:
            sigs |= {int(sig) ^ (1 << b) for b in range(NUM_PLANES)}
        if probe_bits >= 2:
            sigs |= {int(sig) ^ (1 << a) ^ (1 << b)
                     for a in range(NUM_PLANES) for b in range(a + 1, NUM_PLANES)}
        for s in sorted(sigs):
            probe.setdefault(s, []).append(int(qid))
    ref = ray.put((q_tbl["vec_id"].to_numpy(), q_mat, probe))

    def partial(batch: pa.Table) -> pa.Table:
        q_ids, qmat, probe_map = ray.get(ref)
        emb = _normalize_rows(_stack_embeddings(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sigs = _signatures(emb, planes)
        qindex = {int(q): i for i, q in enumerate(q_ids)}
        # vectorized bucket scan (round-2 verdict item 2 replaced the
        # per-row python loop): mask the rows whose signature any query
        # probes, then ONE matmul per probed signature group — the same
        # partial-top-k shape as knn_brute/knn_ivf, but each group only
        # scores against the queries probing that bucket, so the work
        # shrinks with the candidate set instead of being Q x B
        probed = np.fromiter(probe_map.keys(), dtype=np.int64,
                             count=len(probe_map))
        hit = np.isin(sigs, probed)
        out_q: list[np.ndarray] = []
        out_v: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for s in np.unique(sigs[hit]):
            rows_s = np.nonzero(sigs == s)[0]
            qlist = probe_map[int(s)]
            qm = qmat[[qindex[q] for q in qlist]]
            scores = round6(qm @ emb[rows_s].T)  # (Qs, R) float64
            ids_s = vec_ids[rows_s]
            for t, qid in enumerate(qlist):  # bounded by num_queries
                keep = ids_s != qid
                out_q.append(np.full(int(keep.sum()), qid, dtype=np.int64))
                out_v.append(ids_s[keep])
                out_s.append(scores[t][keep])
        if not out_q:
            return pa.Table.from_pydict(
                {"q_id": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.float64())}
            )
        return pa.Table.from_pydict(
            {"q_id": pa.array(np.concatenate(out_q), pa.int64()),
             "vec_id": pa.array(np.concatenate(out_v).astype(np.int64),
                                pa.int64()),
             "score": pa.array(np.concatenate(out_s), pa.float64())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["vec_id"]).sort_values(
            ["score", "vec_id"], ascending=[False, True]
        ).head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("q_id").map_groups(final_topk, batch_format="pandas")


NEARDUP_PLANT_COUNT = 32
NEARDUP_PLANT_OFFSET = 1_000_000
NEARDUP_PLANT_DELTA = 0.05
NEARDUP_THRESHOLD = 0.99

# Exact DuckDB twin of embedding_near_dups over the planted-augmented
# table: the augmentation (jitter the first coordinate of the first 32
# vectors by +0.05, re-id at +1e6) is pure float64 arithmetic both sides,
# and the oracle checks ALL pairs — valid because the engine's multiprobe
# buckets (each vector is emitted into its own signature bucket plus all
# 1-bit flips, so any pair within Hamming distance 2 collides) catch
# every >= 0.99 pair of this data: planted pairs sit at cosine >= 0.9987
# (angle <= 3 degrees, signature distance <= 2 here — verified at both
# SFs), natural pairs top out near 0.51.
EMBEDDING_NEAR_DUPS_SQL = f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
),
aug AS (
  SELECT vec_id, v FROM e
  UNION ALL
  SELECT vec_id + {NEARDUP_PLANT_OFFSET},
         list_concat([v[1] + {NEARDUP_PLANT_DELTA}], v[2:])
  FROM e WHERE vec_id < {NEARDUP_PLANT_COUNT}
)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.v, b.v), 6) AS cosine
FROM aug a JOIN aug b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= {NEARDUP_THRESHOLD}
"""


def augment_with_planted(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Derived near-dup fixture: append a jittered copy of the first
    ``NEARDUP_PLANT_COUNT`` vectors (first coordinate +delta, new vec_id
    at +offset).  Deterministic, SQL-reproducible (the round-1 verdict
    called for planted pairs — the raw table has no cosine above ~0.51,
    so the operator had nothing to find)."""
    import pyarrow.compute as pc

    def plant(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch["vec_id"], NEARDUP_PLANT_COUNT))
        if batch.num_rows == 0:
            # typed float64 like the non-empty branches — an empty block
            # typed as the source list<float32> would splinter the union
            # schema on multi-block inputs
            return pa.Table.from_pydict(
                {"vec_id": pa.array([], pa.int64()),
                 "embedding": pa.array([], pa.list_(pa.float64()))}
            )
        emb = _stack_embeddings(batch)  # float64
        emb[:, 0] += NEARDUP_PLANT_DELTA
        ids = batch["vec_id"].to_numpy(zero_copy_only=False) + NEARDUP_PLANT_OFFSET
        return pa.Table.from_pydict(
            {"vec_id": pa.array(ids, pa.int64()),
             "embedding": pa.array(list(emb), pa.list_(pa.float64()))}
        )

    def widen(batch: pa.Table) -> pa.Table:
        # base rows as float64 lists so both union branches share a schema
        emb = _stack_embeddings(batch)
        return pa.Table.from_pydict(
            {"vec_id": pa.array(
                batch["vec_id"].to_numpy(zero_copy_only=False), pa.int64()),
             "embedding": pa.array(list(emb), pa.list_(pa.float64()))}
        )

    return ds.map_batches(widen, batch_format="pyarrow").union(
        ds.map_batches(plant, batch_format="pyarrow")
    )


def embedding_near_dups(
    ds: ray.data.Dataset, threshold: float = NEARDUP_THRESHOLD,
    on_truncate: str = "warn",
) -> ray.data.Dataset:
    """Cosine near-duplicate pairs via multiprobe LSH buckets: each vector
    is emitted into its own signature bucket AND every 1-bit-flip
    neighbor bucket, so any pair within signature Hamming distance 2
    shares a bucket; pairwise exact cosine inside each bucket, then a
    pair-key dedupe drops multi-bucket collisions.

    Both exchanges shuffle on COARSE shard keys (``sig % nshards`` /
    ``(vec_a + vec_b) % nshards``) with the buckets / pair keys walked
    inside the shard task — never one Ray group per signature or per
    pair (per-group dispatch is cardinality-scaled; the round-3 minhash
    lesson, ``dedup._shard_bucket_pairs``)."""
    from .dedup import MAX_LSH_BUCKET, _oversize_bucket, _shard_width

    nshards = _shard_width()

    def sig_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        emb = _normalize_rows(_stack_embeddings(batch))
        planes = _planes(emb.shape[1])
        sigs = _signatures(emb, planes)
        # each row fans out into its own bucket + NUM_PLANES 1-bit flips;
        # replicate columns zero-copy with take, not per-cell as_py
        flips = np.concatenate(
            [np.zeros(1, dtype=np.int64),
             (1 << np.arange(NUM_PLANES, dtype=np.int64))])
        out_sig = (sigs[:, None] ^ flips[None, :]).ravel()
        idx = np.repeat(np.arange(len(sigs)), len(flips))
        take = pa.array(idx, pa.int64())
        return pa.Table.from_pydict(
            {"sig": pa.array(out_sig, pa.int64()),
             "shard": pa.array((out_sig % nshards).astype(np.int32),
                               pa.int32()),
             "vec_id": pc.take(batch["vec_id"].combine_chunks(), take),
             "embedding": pc.take(batch["embedding"].combine_chunks(), take)}
        )

    def shard_pairs(group: pa.Table) -> pa.Table:
        """Pair emission for ONE coarse shard: slice its rows into exact
        sig buckets (one argsort) and score each bucket — the per-bucket
        work of the old per-sig map_groups without per-group dispatch."""
        sigs = group["sig"].to_numpy(zero_copy_only=False)
        ids_all = group["vec_id"].to_numpy(zero_copy_only=False)
        emb_all = _normalize_rows(_stack_embeddings(group))
        order = np.argsort(sigs, kind="stable")
        sigs_s, ids_s, emb_s = sigs[order], ids_all[order], emb_all[order]
        bounds = np.flatnonzero(
            np.r_[True, sigs_s[1:] != sigs_s[:-1], True])
        va, vb, cs = [], [], []
        for t in range(len(bounds) - 1):
            lo, hi = int(bounds[t]), int(bounds[t + 1])
            if hi - lo < 2:
                continue
            ids = ids_s[lo:hi]
            if len(ids) > MAX_LSH_BUCKET:  # see dedup._bucket_pairs
                # rationale; at corpus scale raise NUM_PLANES so buckets
                # stay bounded
                _oversize_bucket(len(ids), MAX_LSH_BUCKET, "embedding LSH",
                                 on_truncate)
                continue
            sub = np.argsort(ids)
            ids2, emb2 = ids[sub], emb_s[lo:hi][sub]
            iu, ju = np.triu_indices(len(ids2), k=1)
            keep = ids2[iu] != ids2[ju]
            iu, ju = iu[keep], ju[keep]
            # per-pair einsum, NOT a gemm: its fixed per-row accumulation
            # order makes the score identical no matter which probe
            # bucket a pair lands in, so the downstream dedupe can keep
            # any row without reintroducing block-order nondeterminism
            scores = np.einsum("ij,ij->i", emb2[iu], emb2[ju])
            m = scores >= threshold
            va.append(ids2[iu[m]])
            vb.append(ids2[ju[m]])
            cs.append(scores[m])
        a = np.concatenate(va) if va else np.empty(0, np.int64)
        b = np.concatenate(vb) if vb else np.empty(0, np.int64)
        c = np.concatenate(cs) if cs else np.empty(0, np.float64)
        return pa.Table.from_pydict(
            {"vec_a": pa.array(a, pa.int64()),
             "vec_b": pa.array(b, pa.int64()),
             "cosine": pa.array(round6(c), pa.float64()),
             "pshard": pa.array(((a + b) % nshards).astype(np.int32),
                                pa.int32())}
        )

    def dedupe_shard(group: pa.Table) -> pa.Table:
        # every duplicate of a pair carries the identical einsum score,
        # so keeping the first occurrence of each (vec_a, vec_b) is
        # value-exact
        a = group["vec_a"].to_numpy(zero_copy_only=False)
        b = group["vec_b"].to_numpy(zero_copy_only=False)
        comp = np.stack([a, b], axis=1)
        _, first = np.unique(comp, axis=0, return_index=True)
        take = pa.array(np.sort(first), pa.int64())
        g = group.combine_chunks()
        return pa.Table.from_pydict(
            {"vec_a": g["vec_a"].take(take),
             "vec_b": g["vec_b"].take(take),
             "cosine": g["cosine"].take(take)}
        )

    pairs = (ds.map_batches(sig_rows, batch_format="pyarrow")
             .groupby("shard").map_groups(shard_pairs, batch_format="pyarrow"))
    # a pair can collide in several probe buckets (possibly in different
    # shards): one more coarse-shard exchange keyed on the pair
    return pairs.groupby("pshard").map_groups(
        dedupe_shard, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# IVF-bucketed ANN (coarse-quantizer scale path)

IVF_CLUSTERS = 16
IVF_NPROBE = 4
# pivot quantizer: centroids = the (<=16) embeddings with
# vec_id % 37 == 1 below the cap, in vec_id order — data rows the SQL
# oracle can select, unlike trained k-means centroids
IVF_PIVOT_MOD = 37
# cap below the training-sample filter (2048) so the python side, which
# draws pivots from the train sample, sees the same candidate set as SQL
IVF_PIVOT_CAP = 37 * IVF_CLUSTERS * 3


def _knn_ivf_sql() -> str:
    """Exact DuckDB twin of ``knn_ivf(quantizer='pivot')``: pivots are
    plain rows of the embeddings table, per-vector assignment is the
    argmax-cosine pivot (row_number tie-broken by pivot index, matching
    numpy argmax's first-max rule), queries probe their nprobe nearest
    pivots, and the scored candidates rank exactly like knn_brute.
    k-means training is inherently non-SQL (iterative float fixpoint),
    which is why the driver query uses the pivot quantizer; the trained
    k-means path stays available as ``quantizer='kmeans'`` with
    recall-floor pytest coverage."""
    return f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
),
pivots AS (
  SELECT row_number() OVER (ORDER BY vec_id) AS pidx, v AS pv
  FROM e
  WHERE vec_id % {IVF_PIVOT_MOD} = 1 AND vec_id < {IVF_PIVOT_CAP}
  ORDER BY vec_id LIMIT {IVF_CLUSTERS}
),
assign AS (
  SELECT vec_id, pidx FROM (
    SELECT e.vec_id, p.pidx,
           row_number() OVER (
             PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, p.pv) DESC, p.pidx) AS rn
    FROM e, pivots p
  ) WHERE rn = 1
),
q AS (SELECT vec_id AS q_id, v AS qv FROM e WHERE vec_id < {DEFAULT_NUM_QUERIES}),
qprobe AS (
  SELECT q_id, pidx FROM (
    SELECT q.q_id, p.pidx,
           row_number() OVER (
             PARTITION BY q.q_id
             ORDER BY list_cosine_similarity(q.qv, p.pv) DESC, p.pidx) AS rn
    FROM q, pivots p
  ) WHERE rn <= {IVF_NPROBE}
),
scored AS (
  SELECT q.q_id, e.vec_id,
         round(list_cosine_similarity(q.qv, e.v), 6) AS score
  FROM q
  JOIN qprobe qp ON qp.q_id = q.q_id
  JOIN assign a ON a.pidx = qp.pidx
  JOIN e ON e.vec_id = a.vec_id AND e.vec_id != q.q_id
)
SELECT q_id, vec_id, score, CAST(rank AS BIGINT) AS rank
FROM (
  SELECT q_id, vec_id, score,
         row_number() OVER (PARTITION BY q_id ORDER BY score DESC, vec_id)
           AS rank
  FROM scored
)
WHERE rank <= {DEFAULT_K}
"""


KNN_IVF_SQL = _knn_ivf_sql()


def _kmeans(sample: np.ndarray, k: int = IVF_CLUSTERS, iters: int = 10,
            seed: int = 42) -> np.ndarray:
    """Tiny deterministic k-means on unit vectors (seeded init, fixed
    iteration count — no convergence-dependent nondeterminism)."""
    rng = np.random.default_rng(seed)
    centroids = sample[rng.choice(len(sample), size=min(k, len(sample)),
                                  replace=False)]
    for _ in range(iters):
        sims = sample @ centroids.T
        assign = np.argmax(sims, axis=1)
        for c in range(len(centroids)):
            members = sample[assign == c]
            if len(members):
                m = members.mean(axis=0)
                centroids[c] = m / max(np.linalg.norm(m), 1e-30)
    return centroids


def knn_ivf(
    ds: ray.data.Dataset,
    k: int = DEFAULT_K,
    num_queries: int = DEFAULT_NUM_QUERIES,
    nprobe: int = IVF_NPROBE,
    train_sample: int = 2048,
    quantizer: str = "pivot",
) -> ray.data.Dataset:
    """Approximate cosine top-k with an IVF coarse quantizer (broadcast
    once); each batch scores only rows whose nearest centroid is among
    the query's ``nprobe`` closest — the candidate set shrinks
    ~(nprobe / clusters) while the centroids stay driver-side-tiny.

    ``quantizer='pivot'`` (default): centroids are the <=16 normalized
    embeddings at ``vec_id % 37 == 1`` under a fixed cap — a sampling
    initialization whose result the DuckDB oracle reproduces exactly
    (``KNN_IVF_SQL``).  ``quantizer='kmeans'``: a seeded-sample-trained
    k-means quantizer — better cells, but an iterative float fixpoint no
    SQL twin can recompute, so it is covered by recall-floor pytest
    instead.  Same output schema as ``knn_brute``; recall < 1 by design."""
    import pyarrow.compute as pc

    train_tbl = ds.map_batches(
        lambda b: b.filter(pc.less(b["vec_id"], train_sample)),
        batch_format="pyarrow",
    ).to_pandas()
    if quantizer == "pivot":
        piv = train_tbl[
            (train_tbl["vec_id"] % IVF_PIVOT_MOD == 1)
            & (train_tbl["vec_id"] < IVF_PIVOT_CAP)
        ].sort_values("vec_id").head(IVF_CLUSTERS)
        centroids = _normalize_rows(
            np.stack(piv["embedding"].to_numpy()).astype(np.float64))
    else:
        train = _normalize_rows(np.stack(train_tbl["embedding"].to_numpy())
                                .astype(np.float64))
        centroids = _kmeans(train)

    q_tbl = train_tbl[train_tbl["vec_id"] < num_queries].sort_values("vec_id")
    q_mat = _normalize_rows(np.stack(q_tbl["embedding"].to_numpy())
                            .astype(np.float64))
    q_ids = q_tbl["vec_id"].to_numpy()
    # per query: the nprobe nearest centroids
    q_probe = np.argsort(-(q_mat @ centroids.T), axis=1)[:, :nprobe]
    ref = ray.put((q_ids, q_mat, centroids, q_probe))

    def partial(batch: pa.Table) -> pa.Table:
        qids, qmat, cents, probe = ray.get(ref)
        emb = _normalize_rows(_stack_embeddings(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        assign = np.argmax(emb @ cents.T, axis=1)  # coarse bucket per row
        rows = {"q_id": [], "vec_id": [], "score": []}
        kk = min(k, emb.shape[0])
        for qi, qid in enumerate(qids):
            cand = np.nonzero(np.isin(assign, probe[qi]) & (vec_ids != qid))[0]
            if not len(cand):
                continue
            s_r = round6(qmat[qi] @ emb[cand].T)
            order = np.lexsort((vec_ids[cand], -s_r))[:kk]
            top = cand[order]
            rows["q_id"].extend([int(qid)] * len(top))
            rows["vec_id"].extend(vec_ids[top].tolist())
            rows["score"].extend(s_r[order].tolist())
        return pa.Table.from_pydict(
            {"q_id": pa.array(rows["q_id"], pa.int64()),
             "vec_id": pa.array(rows["vec_id"], pa.int64()),
             "score": pa.array(rows["score"], pa.float64())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["vec_id"]).sort_values(
            ["score", "vec_id"], ascending=[False, True]
        ).head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("q_id").map_groups(final_topk, batch_format="pandas")


# ---------------------------------------------------------------------------
# Batched "model inference": text -> embedding column.
#
# The training-data pipeline stage Ray Data models as an ACTOR POOL —
# weights load once per actor in __init__, batches embed vectorized in
# __call__.  The stand-in "model" is a deterministic md5 featurizer
# (16 bytes -> 16 floats in [0, 1]); a real deployment replaces exactly
# the __init__/_embed pair with a tokenizer + forward pass.  md5 keeps
# every downstream value SQL-replayable, the same trick as the media
# stubs and bloom_decontaminate.

HASH_EMBED_DIM = 16


class HashEmbedder:
    """Actor-pool text-embedding stage (the batched-inference contract)."""

    def __init__(self, dim: int = HASH_EMBED_DIM):
        # model load happens HERE, once per actor (the md5 featurizer
        # needs no weights; a real encoder would read a checkpoint)
        import hashlib

        if not 1 <= dim <= 16:
            raise ValueError("md5 featurizer yields at most 16 dims")
        self.dim = dim
        self._md5 = hashlib.md5

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        if texts:
            mat = np.frombuffer(
                b"".join(self._md5(t.encode("utf-8")).digest()
                         for t in texts),
                dtype=np.uint8,
            ).reshape(len(texts), 16)[:, :self.dim].astype(np.float64) / 255.0
            embs = pa.array(list(mat), pa.list_(pa.float64()))
        else:
            embs = pa.array([], pa.list_(pa.float64()))
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"], "embedding": embs})


def embed_texts(ds: ray.data.Dataset, batch_size: int = 128,
                concurrency=2) -> ray.data.Dataset:
    """documents(doc_id, text) -> (doc_id, embedding list<double>)."""
    return ds.map_batches(
        HashEmbedder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# SQL-comparable projection of the embedding column: first components as
# scalars plus the norm from EXACT integer byte sums (one sqrt + one
# division on each side — bit-identical, no rounding required).
_B = md5_byte_sql("text", "{i}")
TEXT_EMBED_SQL = f"""
SELECT doc_id,
       {_B.format(i=0)} / 255.0 AS emb_0,
       {_B.format(i=1)} / 255.0 AS emb_1,
       {_B.format(i=2)} / 255.0 AS emb_2,
       {_B.format(i=3)} / 255.0 AS emb_3,
       sqrt(CAST(list_aggregate(
           [{_B.format(i='i')} * {_B.format(i='i')}
            for i in generate_series(0, 15)], 'sum') AS DOUBLE)) / 255.0
         AS norm
FROM documents
"""


def text_embed_features(docs: ray.data.Dataset) -> ray.data.Dataset:
    """embed_texts + the SQL-comparable scalar projection."""
    embedded = embed_texts(docs)

    def project(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            mat = _stack_embeddings(batch)
            bytes_i = np.rint(mat * 255.0).astype(np.int64)
            norm = np.sqrt((bytes_i * bytes_i).sum(axis=1).astype(
                np.float64)) / 255.0
        else:
            mat = np.zeros((0, HASH_EMBED_DIM))
            norm = np.zeros(0)
        return pa.Table.from_pydict({
            "doc_id": batch["doc_id"],
            "emb_0": pa.array(mat[:, 0], pa.float64()),
            "emb_1": pa.array(mat[:, 1], pa.float64()),
            "emb_2": pa.array(mat[:, 2], pa.float64()),
            "emb_3": pa.array(mat[:, 3], pa.float64()),
            "norm": pa.array(norm, pa.float64()),
        })

    return embedded.map_batches(project, batch_format="pyarrow")


# Embed -> search, chained: the e2e "inference then ANN" flow a training
# pipeline runs (query docs = doc_id < DEFAULT_NUM_QUERIES).  The SQL
# twin recomputes the md5 embeddings inline and reuses the brute-cosine
# row_number shape of KNN_BRUTE_SQL.
_EMB_LIST = (f"[{_B.format(i='i')} / 255.0 "
             "for i in generate_series(0, 15)]")
EMBED_KNN_SQL = f"""
WITH e AS (
  SELECT doc_id AS vec_id, CAST({_EMB_LIST} AS DOUBLE[]) AS embedding
  FROM documents
),
q AS (
  SELECT vec_id AS q_id, embedding AS qv
  FROM e WHERE vec_id < {DEFAULT_NUM_QUERIES}
),
scored AS (
  SELECT q.q_id, e.vec_id,
         round(list_cosine_similarity(q.qv, e.embedding), 6) AS score
  FROM q, e
  WHERE e.vec_id != q.q_id
)
SELECT q_id, vec_id, score,
       CAST(rank AS BIGINT) AS rank
FROM (
  SELECT q_id, vec_id, score,
         row_number() OVER (PARTITION BY q_id ORDER BY score DESC, vec_id)
           AS rank
  FROM scored
)
WHERE rank <= {DEFAULT_K}
"""


def embed_knn(docs: ray.data.Dataset, k: int = DEFAULT_K,
              num_queries: int = DEFAULT_NUM_QUERIES) -> ray.data.Dataset:
    """Chained inference + search: embed the documents with the actor
    pool, then exact cosine top-k over the resulting embedding column
    (broadcast queries, per-batch partials — knn_brute's scale shape)."""
    embedded = embed_texts(docs).map_batches(
        lambda b: b.rename_columns(["vec_id", "embedding"]),
        batch_format="pyarrow",
    ).materialize()
    # materialize: knn_brute consumes its input twice (query collect +
    # partial scan); without pinning, the embedding pool would execute
    # twice per invocation.  The embedded table is skinny (dim doubles
    # per row), so pinning is cheap at any scale.
    return knn_brute(embedded, k=k, num_queries=num_queries)


# ---------------------------------------------------------------------------
# SemDeDup-style semantic deduplication (Abbas et al. 2023,
# arXiv:2303.09540): cluster the embedding space with a coarse quantizer,
# then drop near-identical items WITHIN each cluster — the quadratic
# pairwise pass runs per cluster, never corpus-wide, which is the whole
# point of the method at scale.  The quantizer here is the same
# SQL-reproducible pivot rule as knn_ivf (data rows at
# vec_id % 37 == 1 under the cap, argmax cosine, first-max ties), so the
# DuckDB twin recomputes assignment AND verdicts exactly; a trained
# k-means quantizer slots into the same broadcast without touching the
# dedup pass.  Keep rule: an item is dropped iff some SAME-CLUSTER item
# with a smaller vec_id sits at cosine >= threshold (the reference
# corpus's planted pairs are at >= 0.9987, natural pairs top out ~0.51,
# so the 0.99 gate has a wide float margin on both sides).
#
# 100-TB shape: pivots are driver-tiny and broadcast once via ray.put;
# assignment is a stateless vectorized map; the only exchange is a
# groupby on the cluster id, whose cardinality is the quantizer's K —
# at real scale K is chosen ~ N / target_cluster_size (the paper uses
# tens of thousands), keeping both the exchange fan-in and the
# per-cluster pairwise cost bounded.
# ---------------------------------------------------------------------------

SEMDEDUP_SQL = f"""
WITH e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
),
aug AS (
  SELECT vec_id, v FROM e
  UNION ALL
  SELECT vec_id + {NEARDUP_PLANT_OFFSET},
         list_concat([v[1] + {NEARDUP_PLANT_DELTA}], v[2:])
  FROM e WHERE vec_id < {NEARDUP_PLANT_COUNT}
),
pivots AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, v AS pv
  FROM e
  WHERE vec_id % {IVF_PIVOT_MOD} = 1 AND vec_id < {IVF_PIVOT_CAP}
  ORDER BY vec_id LIMIT {IVF_CLUSTERS}
),
assign AS (
  SELECT vec_id, v, cid FROM (
    SELECT a.vec_id, a.v, p.cid,
           row_number() OVER (
             PARTITION BY a.vec_id
             ORDER BY list_cosine_similarity(a.v, p.pv) DESC, p.cid) AS rn
    FROM aug a, pivots p
  ) WHERE rn = 1
),
dup AS (
  SELECT DISTINCT b.vec_id
  FROM assign a JOIN assign b
    ON a.cid = b.cid AND a.vec_id < b.vec_id
   AND list_cosine_similarity(a.v, b.v) >= {NEARDUP_THRESHOLD}
)
SELECT a.vec_id, CAST(a.cid AS BIGINT) AS cluster,
       (d.vec_id IS NULL) AS keep
FROM assign a LEFT JOIN dup d ON d.vec_id = a.vec_id
"""


def semdedup(ds: ray.data.Dataset,
             threshold: float = NEARDUP_THRESHOLD) -> ray.data.Dataset:
    """Semantic dedup over the planted near-dup fixture: every row gets
    (vec_id, cluster, keep).  ``ds`` is the raw embeddings table; the
    planted copies are appended here (same fixture as
    ``embedding_near_dups`` — the raw table has nothing above ~0.51)."""
    aug = augment_with_planted(ds).materialize()
    # materialize: the augmented table feeds BOTH the pivot collect and
    # the assignment scan — without pinning, the lazy union would
    # re-execute per consumer (the recurring double-consume trap)

    def pivot_rows(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        mask = (ids % IVF_PIVOT_MOD == 1) & (ids < IVF_PIVOT_CAP)
        return b.filter(pa.array(mask, pa.bool_()))

    piv_tbl = aug.map_batches(pivot_rows, batch_format="pyarrow").to_pandas()
    piv_tbl = piv_tbl.sort_values("vec_id").head(IVF_CLUSTERS)
    cents = _normalize_rows(
        np.stack(piv_tbl["embedding"].to_numpy()).astype(np.float64))
    ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        emb = _normalize_rows(_stack_embeddings(batch))
        # argmax keeps the FIRST max — the SQL row_number's (cos DESC,
        # cid ASC) tie rule; same proven pairing as knn_ivf's quantizer
        cid = np.argmax(emb @ cents.T, axis=1).astype(np.int64)
        return batch.append_column("cluster", pa.array(cid, pa.int64()))

    def mark(group: pa.Table) -> pa.Table:
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        emb = _normalize_rows(_stack_embeddings(group))
        order = np.argsort(ids)
        ids, emb = ids[order], emb[order]
        dup = np.zeros(len(ids), dtype=bool)
        # anchors are NOT skipped when themselves duplicated — the SQL
        # rule marks b on ANY smaller-id match, duplicated or not
        for i in range(len(ids) - 1):
            sims = emb[i] @ emb[i + 1:].T
            dup[i + 1:] |= sims >= threshold
        return pa.Table.from_pydict(
            {"vec_id": pa.array(ids, pa.int64()),
             "cluster": group["cluster"].combine_chunks().take(
                 pa.array(order, pa.int64())),
             "keep": pa.array(~dup, pa.bool_())}
        )

    # cluster cardinality = the quantizer's K (bounded by construction),
    # so a per-cluster group is a bounded-fan-in exchange, not the
    # per-key-dispatch trap
    return (aug.map_batches(assign, batch_format="pyarrow")
            .groupby("cluster").map_groups(mark, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# Distributed spherical k-means over the embeddings table (Lloyd, fixed
# iteration count) — the clustering primitive of curation pipelines
# (SemDeDup's "k-means then dedup within cluster", cluster-balanced
# sampling, topic bucketing).
#
# Determinism contract (why this is SQL-hash-exact BY CONSTRUCTION, not
# just in practice): every vector is snapped to an integer grid first
# (floor(x * 1000), elementwise — np.floor and DuckDB floor agree
# bitwise on identical float64 inputs).  Centroids are the elementwise
# TRUNCATED INTEGER MEAN of the members — int64 sums and counts fold
# exactly in any accumulation order (a parallel float mean would be
# order-dependent on both engines), then ONE integer division on the
# fully aggregated values, truncating toward zero on both sides
# (DuckDB ``//`` truncates: -7 // 2 = -3; mirrored by ``_trunc_div``,
# NOT python ``//`` which floors).  The mean keeps every centroid
# element inside the grid (|element| <= ~1000) AT ANY CORPUS SCALE, so
# the float64 dot products and norms over these integer-valued arrays
# are exact integers with room to spare under 2**53 (a raw-sum centroid
# would breach exactness once a cluster held ~10^4 worst-case members
# — the r5 review's finding 4); the only float ops are one sqrt and
# one division per (row, centroid), identical on both sides up to the
# shared round-half-away-at-6 contract (round6 — the same proven
# pairing every knn_* oracle uses).  Ties break (score DESC, cid ASC)
# = numpy argmax-first over ascending-cid centroids.
#
# Scale shape: centroids are k x dim integers (driver-tiny), broadcast
# once per iteration with ray.put; each iteration is ONE streamed pass
# over the table emitting <=k partial (sum, count) rows per block,
# folded incrementally on the driver via iter_batches
# (block-count-bounded stream, never a corpus materialization; at
# >>10^6 blocks the fold moves behind a groupby('cid') tree-reduce
# unchanged).  No shuffle anywhere — the assignment pass is
# embarrassingly parallel.
# ---------------------------------------------------------------------------

KMEANS_K = 8
KMEANS_ITERS = 3  # assignment rounds (2 centroid updates)
KMEANS_GRID = 1000


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer division truncating toward zero — DuckDB ``//`` parity
    (python/numpy ``//`` floors, which differs on negative sums)."""
    return np.sign(a) * (np.abs(a) // b)


def _int_grid(batch: pa.Table) -> np.ndarray:
    """Embedding batch -> integer-grid float64 matrix (exact values)."""
    return np.floor(_stack_embeddings(batch) * KMEANS_GRID)


def _kmeans_sims(iv: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """round6 cosine matrix between integer-valued float64 rows."""
    dots = iv @ cents.T  # exact: integer-valued operands, sums < 2**53
    n1 = np.sqrt(np.einsum("ij,ij->i", iv, iv))
    n2 = np.sqrt(np.einsum("ij,ij->i", cents, cents))
    return round6(dots / (n1[:, None] * n2[None, :]))


EMBED_KMEANS_ASSIGN = """
  SELECT vec_id, cid{score} FROM (
    SELECT e.vec_id, c.cid,
           round(list_cosine_similarity(
             CAST(e.iv AS DOUBLE[]), CAST(c.cv AS DOUBLE[])), 6) AS score,
           row_number() OVER (
             PARTITION BY e.vec_id
             ORDER BY round(list_cosine_similarity(
               CAST(e.iv AS DOUBLE[]), CAST(c.cv AS DOUBLE[])), 6) DESC,
               c.cid) AS rn
    FROM e, {c} c) WHERE rn = 1
"""

EMBED_KMEANS_UPDATE = """
  SELECT cid, list(sv ORDER BY pos) AS cv FROM (
    SELECT a.cid, g.pos,
           CAST(sum(e.iv[g.pos]) AS BIGINT) // count(*) AS sv
    FROM {a} a JOIN e USING (vec_id)
    CROSS JOIN generate_series(1, {dim}) AS g(pos)
    GROUP BY a.cid, g.pos)
  GROUP BY cid
"""

EMBED_KMEANS_SQL = f"""
WITH e AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * {KMEANS_GRID}) AS BIGINT)) AS iv
  FROM embeddings
),
c0 AS (SELECT vec_id AS cid, iv AS cv FROM e WHERE vec_id < {KMEANS_K}),
a0 AS ({EMBED_KMEANS_ASSIGN.format(score="", c="c0")}),
c1 AS ({EMBED_KMEANS_UPDATE.format(a="a0", dim=EMBED_DIM)}),
a1 AS ({EMBED_KMEANS_ASSIGN.format(score="", c="c1")}),
c2 AS ({EMBED_KMEANS_UPDATE.format(a="a1", dim=EMBED_DIM)}),
a2 AS ({EMBED_KMEANS_ASSIGN.format(score=", score", c="c2")})
SELECT vec_id, CAST(cid AS BIGINT) AS cluster, score FROM a2
"""


def embed_kmeans(ds: ray.data.Dataset, k: int = KMEANS_K,
                 iters: int = KMEANS_ITERS) -> ray.data.Dataset:
    """(vec_id, embedding) -> (vec_id, cluster, score): spherical k-means
    with ``iters`` assignment rounds.  Init = the vectors with the ``k``
    smallest vec_ids (a bounded filtered collect); see the block comment
    above for the trunc-integer-mean determinism contract and the
    streamed per-iteration fold."""

    def seed_rows(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids < k, pa.bool_()))

    seed = ds.map_batches(seed_rows, batch_format="pyarrow").to_pandas()
    if len(seed) == 0:
        # no seed vectors (empty table / ids not starting at 0): c0 is
        # empty, so the SQL twin yields zero rows — match it (guards the
        # column-less empty-to_pandas quirk, r5 review finding 2)
        return ray.data.from_arrow(pa.Table.from_pydict(
            {"vec_id": pa.array([], pa.int64()),
             "cluster": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}))
    seed = seed.sort_values("vec_id")
    cids = seed["vec_id"].to_numpy().astype(np.int64)
    cents = np.floor(
        np.stack(seed["embedding"].to_numpy()).astype(np.float64)
        * KMEANS_GRID)

    for _ in range(iters - 1):
        ref = ray.put((cids, cents))

        def partial(batch: pa.Table, _ref=ref) -> pa.Table:
            cids_b, cents_b = ray.get(_ref)
            iv = _int_grid(batch)
            assign = np.argmax(_kmeans_sims(iv, cents_b), axis=1)
            acc = np.zeros((len(cids_b), iv.shape[1]))
            np.add.at(acc, assign, iv)
            cnt = np.bincount(assign, minlength=len(cids_b))
            present = cnt > 0
            return pa.Table.from_pydict({
                "cid": pa.array(cids_b[present], pa.int64()),
                "sv": pa.array(list(acc[present].astype(np.int64)),
                               pa.list_(pa.int64())),
                "cnt": pa.array(cnt[present].astype(np.int64), pa.int64()),
            })

        sums: dict[int, np.ndarray] = {}
        cnts: dict[int, int] = {}
        for b in ds.map_batches(partial, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
            part_ids = b["cid"].to_numpy(zero_copy_only=False)
            part_sv = b["sv"].to_pylist()
            part_n = b["cnt"].to_numpy(zero_copy_only=False)
            for cid, sv, n in zip(part_ids, part_sv, part_n):
                vec = np.asarray(sv, dtype=np.int64)
                prev = sums.get(int(cid))
                sums[int(cid)] = vec if prev is None else prev + vec
                cnts[int(cid)] = cnts.get(int(cid), 0) + int(n)
        # empty clusters vanish, exactly as their SQL GROUP BY rows do;
        # divide ONCE on the fully folded sums (trunc toward zero =
        # DuckDB //) so every centroid element stays inside the grid
        cids = np.array(sorted(sums), dtype=np.int64)
        cents = _trunc_div(
            np.stack([sums[int(c)] for c in cids]),
            np.array([[cnts[int(c)]] for c in cids], dtype=np.int64),
        ).astype(np.float64)

    ref = ray.put((cids, cents))

    def assign_out(batch: pa.Table, _ref=ref) -> pa.Table:
        cids_b, cents_b = ray.get(_ref)
        iv = _int_grid(batch)
        sims = _kmeans_sims(iv, cents_b)
        assign = np.argmax(sims, axis=1)
        return pa.Table.from_pydict({
            "vec_id": batch["vec_id"].combine_chunks().cast(pa.int64()),
            "cluster": pa.array(cids_b[assign], pa.int64()),
            "score": pa.array(sims[np.arange(len(assign)), assign],
                              pa.float64()),
        })

    return ds.map_batches(assign_out, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Cluster-balanced sampling — the standard downstream use of the k-means
# partition in curation pipelines (sample evenly across semantic
# clusters instead of letting the head topic dominate).  Per cluster,
# the n vectors with the smallest md5(vec_id), ties by vec_id (the
# repo's established deterministic-order contract, same as
# textstats.group_sample).  Scale shape: per-batch partial top-n per
# cluster BEFORE the exchange, then a groupby over the <=k cluster
# labels — a bounded-fan-in group like semdedup's, never a per-key
# dispatch; rows through the shuffle are narrow (cluster, vec_id) and
# capped at k*n per upstream block.
# ---------------------------------------------------------------------------

CLUSTER_SAMPLE_K = 16

CLUSTER_SAMPLE_SQL = f"""
SELECT cluster, vec_id, CAST(rn AS BIGINT) AS sample_rank
FROM (
  SELECT cluster, vec_id,
         row_number() OVER (PARTITION BY cluster
                            ORDER BY {md5_order_sql("vec_id")}) AS rn
  FROM ({EMBED_KMEANS_SQL}) base
)
WHERE rn <= {CLUSTER_SAMPLE_K}
"""


def _cluster_cut(tbl: pa.Table, n: int, with_rank: bool) -> pa.Table:
    from .textstats import _grouped_hash_head

    ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
    cl = tbl["cluster"].to_numpy(zero_copy_only=False)
    sel, ranks = _grouped_hash_head(cl, ids, n)
    out = pa.Table.from_pydict({
        "cluster": pa.array(cl[sel].astype(np.int64), pa.int64()),
        "vec_id": pa.array(ids[sel].astype(np.int64), pa.int64()),
    })
    if with_rank:
        out = out.append_column("sample_rank", pa.array(ranks, pa.int64()))
    return out


def cluster_sample(ds: ray.data.Dataset, k: int = KMEANS_K,
                   n: int = CLUSTER_SAMPLE_K) -> ray.data.Dataset:
    """(vec_id, embedding) -> (cluster, vec_id, sample_rank): the n
    vectors per k-means cluster with the smallest md5(vec_id)."""

    def partial(b: pa.Table) -> pa.Table:
        return _cluster_cut(b.select(["cluster", "vec_id"]), n, False)

    def final(g: pa.Table) -> pa.Table:
        return _cluster_cut(g, n, True)

    return (embed_kmeans(ds, k=k)
            .map_batches(partial, batch_format="pyarrow")
            .groupby("cluster")
            .map_groups(final, batch_format="pyarrow"))
