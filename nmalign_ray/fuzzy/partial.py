"""``fuzz.partial_ratio`` / ``partial_ratio_alignment``, vectorized.

Reimplements the *published* behavior of rapidfuzz's partial-ratio search
(the consumer is the reference's subsegmentation screen and local
alignment, ``/root/reference/nmalign/lib/align.py:6,181,205``): slide the
shorter string over the longer and report the best ``fuzz.ratio``
(Indel ratio) window, including the partial windows hanging off either
end.  The scan enumerates, in order,

1. prefix windows   ``longer[:i]``            for i in 1..len(shorter)-1,
2. full windows     ``longer[i:i+len(short)]`` for i in 0..len(longer)-len(shorter)-1,
3. suffix windows   ``longer[i:]``            for i in len(longer)-len(shorter)..len(longer)-1,

skipping windows whose boundary character does not occur in the shorter
string (they cannot start/end an optimal alignment — rapidfuzz's char-set
pruning), and keeps the FIRST window that strictly improves the running
best.  The ratios of every window of every pair in a call come from one
bit-parallel Indel pass (``indel.indel_distance_windows``) per block of
whole pairs of at most ``BLOCK_WINDOWS`` windows, whatever the needle
length; "first strict improvement" is then the first occurrence
of the running maximum, reproduced exactly.  ``partial_ratio_alignment``
is a one-pair call of ``partial_ratio_alignment_many``.

The reference's own FIXME (``align.py:170-173``) documents that this is a
windowed approximation rather than true Smith–Waterman; that quirk is
part of the semantics and is reproduced, not fixed.

Note for consumers: ``dest_start/dest_end`` index the PROCESSED (normalized)
string when a ``processor`` is given — the reference slices the *raw*
string with these positions (``nmalign/scripts/cli.py:105-106``), a quirk
the engine reproduces for fixture parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import encode
from .indel import indel_distance_windows


@dataclass
class ScoreAlignment:
    """Mirror of rapidfuzz's ScoreAlignment result record."""

    score: float  # 0..100
    src_start: int
    src_end: int
    dest_start: int
    dest_end: int


def partial_ratio(s1: str, s2: str, processor=None, score_cutoff: float | None = None) -> float:
    res = partial_ratio_alignment(s1, s2, processor=processor)
    score = res.score if res is not None else 0.0
    if score_cutoff is not None and score < score_cutoff:
        return 0.0
    return score


def partial_ratio_alignment(
    s1: str, s2: str, processor=None, score_cutoff: float | None = None
) -> ScoreAlignment | None:
    if processor is not None:
        s1 = processor(s1)
        s2 = processor(s2)
    res = partial_ratio_alignment_many([(s1, s2)])[0]
    if score_cutoff is not None and res.score < score_cutoff:
        return None
    return res


def _flip(res: ScoreAlignment) -> ScoreAlignment:
    return ScoreAlignment(
        res.score, res.dest_start, res.dest_end, res.src_start, res.src_end
    )


def partial_ratio_alignment_many(pairs) -> list[ScoreAlignment]:
    """``[partial_ratio_alignment(s1, s2), ...]`` over many ``(s1, s2)``
    pairs (processor already applied by the caller), in one kernel pass
    per block of ``BLOCK_WINDOWS`` windows.

    The shorter side is the needle.  The window search is not symmetric,
    so rapidfuzz retries equal-length pairs with the sides swapped and
    keeps the better score; here the swapped searches join the same pass
    (a first score of 100.0 is never beaten, so running the retry
    unconditionally changes nothing).  The per-pair matrices this serves
    are small (a handful of candidates per subsegmentation screen), so one
    pass per pair would be bound by NumPy call overhead."""
    retry = [k for k, (s1, s2) in enumerate(pairs) if len(s1) == len(s2)]
    jobs = [(s1, s2) if len(s1) <= len(s2) else (s2, s1) for s1, s2 in pairs]
    results = _search_many(jobs + [(pairs[k][1], pairs[k][0]) for k in retry])
    out = [
        res if len(s1) <= len(s2) else _flip(res)
        for (s1, s2), res in zip(pairs, results)
    ]
    for k, res2 in zip(retry, results[len(pairs):]):
        if res2.score > out[k].score:
            out[k] = _flip(res2)
    return out


def _windows(l1: np.ndarray, l2: np.ndarray):
    """Every window of every job, in the enumeration order of the module
    docstring (per job: prefixes, full, suffixes), from the needle and
    haystack lengths alone.

    Returns ``(job, starts, ends, bound)``: ``bound`` is the haystack
    position of each window's boundary character — the last character
    of a prefix or full window, the first of a suffix window.  A full or
    suffix window's start is its position after the prefixes."""
    n_pre = np.minimum(l1, l2 + 1) - 1
    n_full = np.maximum(0, l2 - l1)
    per_job = n_pre + n_full + np.minimum(l1, l2)
    job = np.repeat(np.arange(len(l1), dtype=np.int64), per_job)
    p = np.arange(len(job), dtype=np.int64) - np.repeat(
        np.cumsum(per_job) - per_job, per_job)
    pre, after_full = p < n_pre[job], p >= (n_pre + n_full)[job]
    starts = np.where(pre, 0, p - n_pre[job])
    ends = np.where(pre, p + 1, np.where(after_full, l2[job], starts + l1[job]))
    return job, starts, ends, np.where(after_full, starts, ends - 1)


# Windows per kernel pass: jobs are scored in blocks of whole jobs of at
# most this many windows (a job with more forms a block of its own), so
# the window arrays of a call do not grow with its total haystack length.
BLOCK_WINDOWS = 1 << 16


def _search_many(jobs) -> list[ScoreAlignment]:
    """Best window of each ``(shorter, longer)`` job; the shorter string
    is the needle.  Jobs with a needle run in blocks of at most
    ``BLOCK_WINDOWS`` windows (:func:`_search_block`)."""
    results: list[ScoreAlignment | None] = [None] * len(jobs)
    live = []
    for j, (sh, lg) in enumerate(jobs):
        if sh:
            live.append(j)
        else:
            # ratio of "" vs any non-empty window is 0; vs "" it is 100
            results[j] = ScoreAlignment(100.0 if not lg else 0.0, 0, 0, 0, 0)
    block, size = [], 0
    for j in live:
        windows = len(jobs[j][0]) + len(jobs[j][1]) - 1  # as _windows counts
        if block and size + windows > BLOCK_WINDOWS:
            _search_block(jobs, block, results)
            block, size = [], 0
        block.append(j)
        size += windows
    if block:
        _search_block(jobs, block, results)
    return results


def _search_block(jobs, live, results) -> None:
    """Best window of each job ``jobs[j]``, ``j`` in ``live`` (needles
    non-empty), into ``results[j]``.  The windows of every job are
    enumerated at once and char-set pruned by one membership test over
    ``(job, codepoint)`` keys; every surviving window runs through one
    ``indel_distance_windows`` call."""
    shs = [jobs[j][0] for j in live]
    lgs = [jobs[j][1] for j in live]
    l1 = np.fromiter(map(len, shs), dtype=np.int64, count=len(live))
    l2 = np.fromiter(map(len, lgs), dtype=np.int64, count=len(live))
    needle_cat, hay_cat = encode("".join(shs)), encode("".join(lgs))
    hay_off = np.cumsum(l2) - l2
    job, starts, ends, bound = _windows(l1, l2)
    needle_keys = np.unique(
        np.repeat(np.arange(len(live), dtype=np.int64) << 21, l1) | needle_cat)
    keys = (job << 21) | hay_cat[hay_off[job] + bound]
    at = np.minimum(np.searchsorted(needle_keys, keys), len(needle_keys) - 1)
    keep = needle_keys[at] == keys
    job, starts, ends = job[keep], starts[keep], ends[keep]

    for u, n in enumerate(l1.tolist()):  # until a window scores above 0
        results[live[u]] = ScoreAlignment(0.0, 0, n, 0, n)
    if not len(job):
        return

    needle_off = np.cumsum(l1) - l1
    needles = [needle_cat[o:o + n] for o, n in zip(needle_off, l1)]
    hays = [hay_cat[o:o + n] for o, n in zip(hay_off, l2)]
    dist = indel_distance_windows(needles, hays, job, starts, ends)
    ratios = 100.0 * (1.0 - dist / (l1[job] + ends - starts))

    # the first occurrence of each job's maximum is its first strict
    # improvement; a job's windows are contiguous and the jobs in order,
    # so np.unique's first index per job picks it
    first = np.flatnonzero(np.diff(job, prepend=-1))
    job_max = np.repeat(np.maximum.reduceat(ratios, first),
                        np.diff(first, append=len(job)))
    hits = np.flatnonzero(ratios == job_max)
    searched, first_hit = np.unique(job[hits], return_index=True)
    for u, w in zip(searched.tolist(), hits[first_hit].tolist()):
        if ratios[w] > 0.0:
            n = int(l1[u])
            results[live[u]] = ScoreAlignment(
                float(ratios[w]), 0, n, int(starts[w]), int(ends[w]))
