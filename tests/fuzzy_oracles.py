"""Row-DP oracles for the bit-parallel kernels of ``nmalign_ray.fuzzy``.

These are the padded row-DP forms the kernels replaced: every pair (or
window) advances through the classic DP one needle row at a time, and the
horizontal dependency of each row is removed with the running-minimum
identity

    D[i][j] = j + min_{k <= j} (C[i][k] - k),
    C[i][j] = min(D[i-1][j] + 1, D[i-1][j-1] + cost),  C[i][0] = i.

They are slow (O(len1 * len2) cells per pair) but share no code with the
kernels, so the tests compare the two forms value for value.
"""

from __future__ import annotations

import numpy as np

from nmalign_ray.fuzzy.codec import encode
from nmalign_ray.fuzzy.partial import ScoreAlignment

# two distinct pad sentinels (one per side) never compare equal
PAD_A = np.uint32(0xFFFFFFFF)
PAD_B = np.uint32(0xFFFFFFFE)
_BIG = np.int32(1 << 20)  # effective +inf for the forbidden substitution edge


def pad_matrix(arrs, pad):
    """Stack codepoint arrays into a ``(K, max(1, Lmax))`` matrix."""
    lengths = np.fromiter((len(a) for a in arrs), dtype=np.int64,
                          count=len(arrs))
    mat = np.full((len(arrs), max(1, int(lengths.max(initial=0)))), pad,
                  dtype=np.uint32)
    for k, a in enumerate(arrs):
        mat[k, : len(a)] = a
    return mat, lengths


def levenshtein_matrix_dp(l1, l2) -> np.ndarray:
    """(N, M) int64 Levenshtein distances of every ``l1`` x ``l2`` pair."""
    a_mat, a_len = pad_matrix([encode(s) for s in l1], PAD_A)
    b_mat, b_len = pad_matrix([encode(s) for s in l2], PAD_B)
    n = a_mat.shape[0]
    m, l2max = b_mat.shape
    width = l2max + 1
    col = np.arange(width, dtype=np.int32)
    prev = np.broadcast_to(col, (n, m, width)).copy()
    cand = np.empty((n, m, width), dtype=np.int32)
    out = np.empty((n, m), dtype=np.int64)
    out[a_len == 0] = b_len
    for i in range(1, int(a_len.max(initial=0)) + 1):
        eq = a_mat[:, i - 1][:, None, None] == b_mat[None, :, :]
        np.add(prev[:, :, :-1], 1, out=cand[:, :, 1:])
        np.subtract(cand[:, :, 1:], eq, out=cand[:, :, 1:])
        np.minimum(cand[:, :, 1:], prev[:, :, 1:] + 1, out=cand[:, :, 1:])
        cand[:, :, 0] = i
        cand -= col
        np.minimum.accumulate(cand, axis=2, out=cand)
        cand += col
        finished = a_len == i
        out[finished] = cand[finished][:, np.arange(m), b_len]
        prev, cand = cand, prev
    return out


def indel_windows_dp(needle, haystack, starts, ends) -> np.ndarray:
    """Indel distance of ``needle`` vs each ``haystack[starts[w]:ends[w]]``
    (substitution edges carry a penalty large enough never to be taken)."""
    w = len(starts)
    lens = (ends - starts).astype(np.int64)
    lmax = max(1, int(lens.max(initial=0)))
    idx = starts[:, None] + np.arange(lmax, dtype=np.int64)[None, :]
    win = np.full((w, lmax), PAD_B, dtype=np.uint32)
    if len(haystack):
        np.copyto(win, haystack[np.clip(idx, 0, len(haystack) - 1)],
                  where=idx < ends[:, None])
    width = lmax + 1
    col = np.arange(width, dtype=np.int32)
    prev = np.broadcast_to(col, (w, width)).copy()
    cand = np.empty((w, width), dtype=np.int32)
    for i in range(1, len(needle) + 1):
        eq = win == np.uint32(needle[i - 1])
        np.add(prev[:, :-1], _BIG, out=cand[:, 1:])
        np.subtract(cand[:, 1:], eq * _BIG, out=cand[:, 1:])
        np.minimum(cand[:, 1:], prev[:, 1:] + 1, out=cand[:, 1:])
        cand[:, 0] = i
        cand -= col
        np.minimum.accumulate(cand, axis=1, out=cand)
        cand += col
        prev, cand = cand, prev
    return prev[np.arange(w), lens].astype(np.int64)


def _search_dp(shorter: str, longer: str) -> ScoreAlignment:
    """Best window of ``shorter`` in ``longer``: prefixes, full windows,
    suffixes in that order, char-set pruned, first strict improvement."""
    l1, l2 = len(shorter), len(longer)
    if l1 == 0:
        return ScoreAlignment(100.0 if l2 == 0 else 0.0, 0, 0, 0, 0)
    needle, hay = encode(shorter), encode(longer)
    char_set = set(needle.tolist())
    windows = [(0, i, int(hay[i - 1])) for i in range(1, min(l1, l2 + 1))]
    windows += [(i, i + l1, int(hay[i + l1 - 1]))
                for i in range(max(0, l2 - l1))]
    windows += [(i, l2, int(hay[i])) for i in range(max(0, l2 - l1), l2)]
    windows = [(s, e) for s, e, c in windows if c in char_set]
    if not windows:
        return ScoreAlignment(0.0, 0, l1, 0, l1)
    starts = np.array([s for s, _ in windows], dtype=np.int64)
    ends = np.array([e for _, e in windows], dtype=np.int64)
    denom = l1 + ends - starts
    ratios = 100.0 * (1.0 - indel_windows_dp(needle, hay, starts, ends)
                      / denom)
    best = int(np.argmax(ratios))
    if ratios[best] <= 0.0:
        return ScoreAlignment(0.0, 0, l1, 0, l1)
    return ScoreAlignment(float(ratios[best]), 0, l1, int(starts[best]),
                          int(ends[best]))


def partial_ratio_alignment_dp(s1: str, s2: str) -> ScoreAlignment:
    """``fuzz.partial_ratio_alignment``: the shorter side is the needle,
    and equal-length pairs that score below 100 retry with the sides
    swapped."""
    if len(s1) <= len(s2):
        res = _search_dp(s1, s2)
    else:
        r = _search_dp(s2, s1)
        res = ScoreAlignment(r.score, r.dest_start, r.dest_end, r.src_start,
                             r.src_end)
    if res.score != 100.0 and len(s1) == len(s2):
        r = _search_dp(s2, s1)
        if r.score > res.score:
            res = ScoreAlignment(r.score, r.dest_start, r.dest_end,
                                 r.src_start, r.src_end)
    return res
