"""Indel (insertion/deletion-only) distance and ratio, batched over windows.

Semantics match ``rapidfuzz.distance.Indel`` / ``fuzz.ratio``:

* ``indel_distance(s1, s2) = len1 + len2 - 2 * LCS(s1, s2)``
* ``indel_ratio(s1, s2) = 100 * (1 - distance / (len1 + len2))``
  (100.0 when both empty).

``fuzz.partial_ratio`` (see ``partial.py``) needs the ratio of a needle
against MANY substrings (windows) of its haystack, for many needles at
once.  ``indel_distance_windows`` is the one kernel for that and for the
scalar functions above: every window is a lane of Hyyrö's bit-parallel
LCS, ``U = V & M;  V = (V + U) | (V - U)``, with the needle held in
``ceil(len/64)`` words.  ``U`` is a subset of ``V``, so ``V - U`` is
``V ^ U`` and only the addition carries from word to word.  Windows
advance lock-step, longest first, and each step advances only the
windows still longer than the step (``codec.lane_groups``).
"""

from __future__ import annotations

import numpy as np

from .codec import encode, lane_groups, pattern_masks, text_columns, words


def indel_distance(s1: str, s2: str) -> int:
    zero = np.zeros(1, dtype=np.int64)
    return int(indel_distance_windows(
        [encode(s1)], [encode(s2)], zero, zero, zero + len(s2))[0])


def indel_ratio(s1: str, s2: str) -> float:
    la, lb = len(s1), len(s2)
    if la + lb == 0:
        return 100.0
    return 100.0 * (1.0 - indel_distance(s1, s2) / (la + lb))


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(v: np.ndarray) -> np.ndarray:
    return _POPCNT8[v.view(np.uint8)].reshape(len(v), 8).sum(axis=1, dtype=np.int64)


def indel_distance_windows(
    needles: list[np.ndarray],
    haystacks: list[np.ndarray],
    job: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Indel distance of ``needles[job[w]]`` against the window
    ``haystacks[job[w]][starts[w]:ends[w]]`` for every window ``w``.

    ``needles``/``haystacks`` are uint32 codepoint arrays; returns int64.
    ``LCS = popcount(~V)``: the state starts all ones, and bits above a
    needle's length never see a match, so they stay ones.
    """
    peq, first_row, alphabet = pattern_masks(needles)
    cols, hay_start = text_columns(haystacks, alphabet)
    nlen = np.fromiter((len(n) for n in needles), dtype=np.int64,
                       count=len(needles))[job]
    length = ends - starts
    order, groups = lane_groups(first_row[job], len(alphabet) + 1,
                                hay_start[job] + starts, words(nlen), length)
    state = [np.full(len(pos), ~np.uint64(0)) for pos, _, _, _ in groups]
    carry = np.zeros(len(order), dtype=np.uint64)
    last = len(groups) - 1
    for t in range(int(length.max(initial=0))):
        for b, ((pos, act, base, off), v_all) in enumerate(zip(groups, state)):
            a = act[t]
            if not a:
                break
            lanes = slice(0, a) if b == 0 else pos[:a]
            v = v_all[:a]
            u = v & peq[base[:a] + cols[off[:a] + t]]
            s = v + u
            c = s < v
            if b:
                s_in = s + carry[lanes]
                c |= s_in < s
                s = s_in
            if b < last:
                carry[lanes] = c
            v_all[:a] = s | (v ^ u)
    lcs = np.zeros(len(order), dtype=np.int64)
    for (pos, _, _, _), v_all in zip(groups, state):
        lcs[pos] += _popcount64(~v_all)
    out = np.empty(len(order), dtype=np.int64)
    out[order] = (nlen + length)[order] - 2 * lcs
    return out
