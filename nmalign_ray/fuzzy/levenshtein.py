"""Uniform-weight Levenshtein distance, batched across string pairs.

Semantics match ``rapidfuzz.distance.Levenshtein`` with weights (1, 1, 1)
as used by the reference (``/root/reference/nmalign/lib/align.py:5,60-61``):

* ``distance(s1, s2)``: minimum number of insertions/deletions/substitutions.
* ``normalized_similarity(s1, s2) = 1 - distance / max(len1, len2)``
  (and 1.0 when both strings are empty).
* ``cdist(l1, l2, score_cutoff=c)``: similarities below ``c`` are reported
  as 0.0; result dtype is float32 (rapidfuzz's cdist default).

Every entry point runs the same kernel, ``_distances``: one pair table,
and each pair runs Myers' bit-vector algorithm (1999) with one of its
strings as the needle, held in ``ceil(len/64)`` words that are coupled by
the horizontal delta of the block form (Hyyrö 2003).  The needle is the
longer string when that costs no more words, or when it is long
(``LONG_NEEDLE``), else the shorter.  The pairs of one needle word count
advance lock-step as a word wavefront (``_wavefront``): word ``b`` runs
one iteration behind word ``b-1``, so all words of all pairs step in one
set of numpy calls, and a pair of ``W`` words costs its haystack length
plus ``W - 1`` iterations.  Pairs run longest haystack first, and each
iteration advances only the pairs still stepping, so a pair costs its own
haystack length, not the batch's longest, and a long string against short
ones costs the short ones' length.
"""

from __future__ import annotations

import numpy as np

from .codec import WORD, encode, encode_list, pattern_masks, text_columns, \
    words


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


# A string longer than this is the needle even when the other one needs
# fewer words.  Each word count runs a loop of its own, and below this the
# extra loop can cost more than the steps it saves: in a sweep of batches
# of 2 000 one-word pairs plus 4-1 024 pairs of a 40-character string
# against 96-1 536 characters, the longer needle lost up to 10% at 1 024
# such pairs of at most 320 characters, and won from 512 characters up
# at every count (alone, without the one-word pairs, it never lost).
LONG_NEEDLE = 256


def _distances(pool: list[np.ndarray], a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """Levenshtein distance of ``pool[a[p]]`` and ``pool[b[p]]`` for every
    pair ``p`` (int64).  The distance is symmetric, so either side can be
    the needle: the longer one when both need the same number of words
    (the same words, fewer steps) or when it is over ``LONG_NEEDLE``
    characters (a word costs a row of the wavefront, a step a numpy
    call), else the shorter one.  An empty side's distance is the other
    length."""
    pool_len = np.fromiter((len(c) for c in pool), dtype=np.int64,
                           count=len(pool))
    la, lb = pool_len[a], pool_len[b]
    short, dist = np.minimum(la, lb), np.maximum(la, lb)
    longer = (words(dist) == words(short)) | (dist > LONG_NEEDLE)
    a_needle = np.where(longer, la >= lb, la <= lb)
    live = np.flatnonzero(short > 0)
    if len(live):
        a_needle = a_needle[live]
        dist[live] = _myers(
            pool,
            np.where(a_needle, a[live], b[live]),
            np.where(a_needle, b[live], a[live]),
            np.where(a_needle, la[live], lb[live]),
            np.where(a_needle, lb[live], la[live]),
        )
    return dist


def _myers(pool: list[np.ndarray], n_ids: np.ndarray, h_ids: np.ndarray,
           nlen: np.ndarray, hlen: np.ndarray) -> np.ndarray:
    """Myers' bit-vector edit distance of needle ``pool[n_ids[p]]`` (of
    length ``nlen[p] > 0``) against haystack ``pool[h_ids[p]]`` (of length
    ``hlen[p] > 0``) for every pair ``p``: one mask table and one column
    array for all pairs, and one :func:`_wavefront` per needle word
    count."""
    un, n_inv = np.unique(n_ids, return_inverse=True)
    uh, h_inv = np.unique(h_ids, return_inverse=True)
    peq, first_row, alphabet = pattern_masks([pool[i] for i in un.tolist()])
    cols, hay_start = text_columns([pool[i] for i in uh.tolist()], alphabet)
    # a finished word may read up to a haystack's length past its end
    cols = np.concatenate([cols, np.zeros(int(hlen.max()), cols.dtype)])
    row, start, nwords = first_row[n_inv], hay_start[h_inv], words(nlen)
    out = np.empty(len(nlen), dtype=np.int64)
    for w in np.unique(nwords).tolist():
        lanes = np.flatnonzero(nwords == w)
        out[lanes] = _wavefront(peq, len(alphabet) + 1, cols, row[lanes],
                                start[lanes], nlen[lanes], hlen[lanes], w)
    return out


def _wavefront(peq, k, cols, row, start, nlen, hlen, w):
    """Myers' block form for lanes of ``w`` words each, all words of all
    lanes in one ``(w, lanes)`` state.

    Lane ``p`` reads needle rows ``row[p]..row[p] + w - 1`` of the
    ``pattern_masks`` table ``peq`` (width ``k``) against the haystack
    ``cols[start[p]:start[p] + hlen[p]]``.  Word ``b`` needs the
    horizontal delta that word ``b-1`` leaves at the same haystack step
    (+1 for word 0: the top DP row is ``D[0][j] = j``), so it runs one
    iteration behind: iteration ``t`` advances word ``b`` over step
    ``t - b`` with the delta word ``b-1`` left in iteration ``t - 1``,
    and a lane takes ``hlen + w - 1`` iterations.  The distance tracks
    the delta of the needle's last row, bit ``(nlen - 1) % 64`` of the
    last word; bits above a needle's length only ever influence higher
    bits, so they need no mask.

    Lanes run longest haystack first, so the lanes whose last word is
    still stepping are a prefix.  The other words of that prefix step
    too, past their own haystack once it ends: a finished word's state
    and delta only reach the finished words above it.
    """
    one = np.uint64(1)
    order = np.argsort(-hlen, kind="stable")
    row, start, nlen, hlen = row[order], start[order], nlen[order], hlen[order]
    word = np.arange(w)[:, None]
    base = (row + word) * k
    top = np.full((w, len(order)), WORD - 1, dtype=np.uint64)
    top[-1] = (nlen - 1) % WORD  # the bit of each word's last needle row
    pv = np.full((w, len(order)), ~np.uint64(0))
    mv = np.zeros((w, len(order)), dtype=np.uint64)
    # hp/hm[b]: the +1/-1 bit of the delta word b reads next; row 0 is
    # word 0's constant +1
    hp = np.zeros((w + 1, len(order)), dtype=np.uint64)
    hp[0] = one
    hm = np.zeros_like(hp)
    score = nlen.copy()
    longest = int(hlen[0])
    steps = np.arange(longest + w - 1)
    act = np.searchsorted(-hlen, w - 1 - steps).tolist()
    for t in steps.tolist():
        a = act[t]
        lo, hi = max(0, t - longest + 1), min(t + 1, w)
        pv_t, mv_t = pv[lo:hi, :a], mv[lo:hi, :a]
        hin_p, hin_m = hp[lo:hi, :a], hm[lo:hi, :a]
        eq = peq[base[lo:hi, :a] + cols[start[:a] + (t - word[lo:hi])]]
        xv = eq | mv_t
        eq |= hin_m
        xh = eq & pv_t
        xh += pv_t
        xh ^= pv_t
        xh |= eq
        ph = np.bitwise_or(xh, pv_t, out=eq)  # eq, then xh, are spent
        np.invert(ph, out=ph)
        ph |= mv_t
        mh = np.bitwise_and(xh, pv_t, out=xh)
        sh = top[lo:hi, :a]
        hout_p = (ph >> sh) & one
        hout_m = (mh >> sh) & one
        ph <<= one
        ph |= hin_p
        mh <<= one
        mh |= hin_m
        np.bitwise_or(xv, ph, out=pv_t)
        np.invert(pv_t, out=pv_t)
        pv_t |= mh
        np.bitwise_and(ph, xv, out=mv_t)
        hp[lo + 1:hi + 1, :a] = hout_p
        hm[lo + 1:hi + 1, :a] = hout_m
        if hi == w:
            score[:a] += hout_p[-1].view(np.int64)
            score[:a] -= hout_m[-1].view(np.int64)
    out = np.empty_like(score)
    out[order] = score
    return out
