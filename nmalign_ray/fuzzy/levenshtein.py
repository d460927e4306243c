"""Uniform-weight Levenshtein distance, batched across string pairs.

Semantics match ``rapidfuzz.distance.Levenshtein`` with weights (1, 1, 1)
as used by the reference (``/root/reference/nmalign/lib/align.py:5,60-61``):

* ``distance(s1, s2)``: minimum number of insertions/deletions/substitutions.
* ``normalized_similarity(s1, s2) = 1 - distance / max(len1, len2)``
  (and 1.0 when both strings are empty).
* ``cdist(l1, l2, score_cutoff=c)``: similarities below ``c`` are reported
  as 0.0; result dtype is float32 (rapidfuzz's cdist default).

Every entry point runs the same kernel, ``_distances``: one pair table,
and each pair runs Myers' bit-vector algorithm (1999) with the shorter
string as the needle, held in ``ceil(len/64)`` words that are coupled by
the horizontal delta of the block form (Hyyrö 2003).  All pairs advance
lock-step over their haystacks, longest haystack first, and each step
advances only the pairs whose haystack is still longer than the step
(``codec.lane_groups``), so a pair costs its own haystack length, not the
batch's longest.
"""

from __future__ import annotations

import numpy as np

from .codec import WORD, encode, encode_list, lane_groups, pattern_masks, \
    text_columns, words


def levenshtein_distance(s1: str, s2: str) -> int:
    """Uniform-weight Levenshtein distance of two strings."""
    pair = np.zeros(1, dtype=np.int64)
    return int(_distances([encode(s1), encode(s2)], pair, pair + 1)[0])


def levenshtein_cdist(
    l1,
    l2,
    score_cutoff: float | None = None,
    processor=None,
) -> np.ndarray:
    """All-pairs normalized Levenshtein similarity matrix, shape (N, M), float32.

    Drop-in for the reference's
    ``cdist(l1, l2, scorer=normalized_similarity, score_cutoff=cutoff,
    processor=preprocess, workers=...)`` call
    (``/root/reference/nmalign/lib/align.py:60-61``).  ``processor`` is
    applied once per input string (not once per pair), exactly like
    rapidfuzz.  Thread-based ``workers`` parallelism is intentionally
    absent: the Ray pipeline parallelizes across documents instead.
    """
    return levenshtein_cdist_many([(l1, l2)], score_cutoff, processor)[0]


def levenshtein_cdist_many(jobs, score_cutoff=None, processor=None):
    """``[levenshtein_cdist(l1, l2), ...]`` over many ``(l1, l2)`` jobs in
    one kernel pass.

    The per-document matrices of an aligner batch are tiny, so one pass
    per document would be bound by NumPy call overhead; one flat pair
    table over a shared string pool amortizes it over every pair of every
    job.  Distances are exact integers and the normalization is
    elementwise, so each job's matrix does not depend on the other jobs.
    """
    if processor is not None:
        jobs = [
            ([processor(s) for s in l1], [processor(s) for s in l2])
            for l1, l2 in jobs
        ]
    pool: list[np.ndarray] = []
    a_ids: list[np.ndarray] = []
    b_ids: list[np.ndarray] = []
    for l1, l2 in jobs:
        a = np.arange(len(pool), len(pool) + len(l1), dtype=np.int64)
        pool.extend(encode_list(l1))
        b = np.arange(len(pool), len(pool) + len(l2), dtype=np.int64)
        pool.extend(encode_list(l2))
        a_ids.append(a)
        b_ids.append(b)

    outs = [np.empty((len(a), len(b)), dtype=np.float32)
            for a, b in zip(a_ids, b_ids)]
    parts_a, parts_b, parts_job, parts_i, parts_j = [], [], [], [], []
    for d, (a, b) in enumerate(zip(a_ids, b_ids)):
        n, m = len(a), len(b)
        if n == 0 or m == 0:
            continue
        gi = np.repeat(np.arange(n, dtype=np.int64), m)
        gj = np.tile(np.arange(m, dtype=np.int64), n)
        parts_a.append(a[gi])
        parts_b.append(b[gj])
        parts_i.append(gi)
        parts_j.append(gj)
        parts_job.append(np.full(n * m, d, dtype=np.int64))
    if not parts_a:
        return outs
    pair_a = np.concatenate(parts_a)
    pair_b = np.concatenate(parts_b)
    pair_job = np.concatenate(parts_job)
    pair_i = np.concatenate(parts_i)
    pair_j = np.concatenate(parts_j)

    dist = _distances(pool, pair_a, pair_b)
    pool_len = np.fromiter((len(c) for c in pool), dtype=np.int64,
                           count=len(pool))
    denom = np.maximum(pool_len[pair_a], pool_len[pair_b])
    frac = dist / np.maximum(denom, 1)
    sim = np.where(denom > 0, 1.0 - frac, 1.0).astype(np.float32)
    if score_cutoff is not None and score_cutoff > 0:
        sim[sim < score_cutoff] = 0.0
    # pair_job is sorted by construction (jobs were concatenated in order),
    # so each job's pairs are one contiguous slice — no per-job full-table
    # boolean scan (that would re-introduce the O(jobs x pairs) overhead
    # this function exists to amortize)
    bounds = np.searchsorted(pair_job, np.arange(len(jobs) + 1))
    for d in range(len(jobs)):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        if hi > lo:
            outs[d][pair_i[lo:hi], pair_j[lo:hi]] = sim[lo:hi]
    return outs


def _distances(pool: list[np.ndarray], a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """Levenshtein distance of ``pool[a[p]]`` and ``pool[b[p]]`` for every
    pair ``p`` (int64).  The shorter side is the needle (the distance is
    symmetric); an empty needle's distance is the other length."""
    pool_len = np.fromiter((len(c) for c in pool), dtype=np.int64,
                           count=len(pool))
    la, lb = pool_len[a], pool_len[b]
    shorter_a = la <= lb
    nlen, dist = np.minimum(la, lb), np.maximum(la, lb)
    live = np.flatnonzero(nlen > 0)
    if len(live):
        dist[live] = _myers(
            pool,
            np.where(shorter_a, a, b)[live],
            np.where(shorter_a, b, a)[live],
            nlen[live],
            dist[live],
        )
    return dist


def _myers(pool: list[np.ndarray], n_ids: np.ndarray, h_ids: np.ndarray,
           nlen: np.ndarray, hlen: np.ndarray) -> np.ndarray:
    """Myers' bit-vector edit distance of needle ``pool[n_ids[p]]`` (of
    length ``nlen[p] > 0``) against haystack ``pool[h_ids[p]]`` (of length
    ``hlen[p]``) for every pair ``p``.

    Word ``b`` of a needle advances with the horizontal delta ``hin`` that
    word ``b-1`` leaves at its last row (+1 for word 0: the top DP row is
    ``D[0][j] = j``) and hands its own ``hout`` to word ``b+1``; the
    distance tracks ``hout`` of the needle's last row.  Bits above a
    needle's length only ever influence higher bits, so they need no mask.
    """
    one = np.uint64(1)
    un, n_inv = np.unique(n_ids, return_inverse=True)
    uh, h_inv = np.unique(h_ids, return_inverse=True)
    peq, first_row, alphabet = pattern_masks([pool[i] for i in un.tolist()])
    k = len(alphabet) + 1
    cols, hay_start = text_columns([pool[i] for i in uh.tolist()], alphabet)
    nwords = words(nlen)
    order, groups = lane_groups(first_row[n_inv], k, hay_start[h_inv],
                                nwords, hlen)
    nlen, nwords = nlen[order], nwords[order]
    state = [(
        one << np.where(nwords[pos] == b + 1, (nlen[pos] - 1) % WORD,
                        WORD - 1).astype(np.uint64),  # the word's last row
        np.full(len(pos), ~np.uint64(0)),  # pv
        np.zeros(len(pos), dtype=np.uint64),  # mv
    ) for b, (pos, _, _, _) in enumerate(groups)]

    score = nlen.copy()
    hout = np.zeros(len(nlen), dtype=np.int64)  # per lane, latest word's
    act0 = groups[0][1]
    for t in range(int(hlen.max())):
        for b, ((pos, act, base, off), (high, pv_all, mv_all)) in enumerate(
                zip(groups, state)):
            a = act[t]
            if not a:
                break
            lanes = slice(0, a) if b == 0 else pos[:a]
            pv, mv = pv_all[:a], mv_all[:a]
            eq = peq[base[:a] + cols[off[:a] + t]]
            xv = eq | mv
            if b:
                hin = hout[lanes]
                hin_neg = (hin < 0).astype(np.uint64)
                eq |= hin_neg
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            hout[lanes] = np.subtract((ph & high[:a]) != 0,
                                      (mh & high[:a]) != 0, dtype=np.int64)
            ph <<= one
            mh <<= one
            if b:
                ph |= (hin > 0).astype(np.uint64)
                mh |= hin_neg
            else:
                ph |= one
            pv_all[:a] = mh | ~(xv | ph)
            mv_all[:a] = ph & xv
        score[:act0[t]] += hout[:act0[t]]
    out = np.empty_like(score)
    out[order] = score
    return out
