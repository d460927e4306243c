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
bit-parallel Indel pass (``indel.indel_distance_windows``), whatever the
needle length; "first strict improvement" is then the first occurrence
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
    pairs (processor already applied by the caller), in one kernel pass.

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


def _enumerate_windows(needle: np.ndarray, hay: np.ndarray):
    """Window starts/ends for one search job, char-set pruned, in the
    enumeration order of the module docstring (prefixes, full, suffixes)."""
    l1, l2 = len(needle), len(hay)
    n_pre = min(l1, l2 + 1) - 1
    pre_ends = np.arange(1, n_pre + 1, dtype=np.int64)
    pre_starts = np.zeros(n_pre, dtype=np.int64)
    n_full = max(0, l2 - l1)
    full_starts = np.arange(n_full, dtype=np.int64)
    suf_starts = np.arange(max(0, l2 - l1), l2, dtype=np.int64)
    starts = np.concatenate([pre_starts, full_starts, suf_starts])
    ends = np.concatenate(
        [pre_ends, full_starts + l1, np.full(len(suf_starts), l2, dtype=np.int64)]
    )
    if not len(starts):
        return starts, ends
    bound = np.concatenate(
        [hay[pre_ends - 1], hay[full_starts + l1 - 1], hay[suf_starts]]
    )
    keep = np.isin(bound, needle)
    return starts[keep], ends[keep]


def _search_many(jobs) -> list[ScoreAlignment]:
    """Best window of each ``(shorter, longer)`` job; the shorter string
    is the needle.  Every window of every job runs through one
    ``indel_distance_windows`` call."""
    results: list[ScoreAlignment | None] = [None] * len(jobs)
    batch: list[int] = []
    needles: list[np.ndarray] = []
    hays: list[np.ndarray] = []
    win_job: list[np.ndarray] = []
    win_starts: list[np.ndarray] = []
    win_ends: list[np.ndarray] = []
    for j, (sh, lg) in enumerate(jobs):
        l1 = len(sh)
        if l1 == 0:
            # ratio of "" vs any non-empty window is 0; vs "" it is 100
            results[j] = ScoreAlignment(100.0 if not lg else 0.0, 0, 0, 0, 0)
            continue
        needle = encode(sh)
        hay = encode(lg)
        starts, ends = _enumerate_windows(needle, hay)
        if not len(starts):
            results[j] = ScoreAlignment(0.0, 0, l1, 0, l1)
            continue
        win_job.append(np.full(len(starts), len(batch), dtype=np.int64))
        batch.append(j)
        needles.append(needle)
        hays.append(hay)
        win_starts.append(starts)
        win_ends.append(ends)
    if not batch:
        return results

    starts = np.concatenate(win_starts)
    ends = np.concatenate(win_ends)
    job = np.concatenate(win_job)
    l1w = np.fromiter((len(n) for n in needles), dtype=np.int64,
                      count=len(needles))[job]
    lens = ends - starts
    dist = indel_distance_windows(needles, hays, job, starts, ends)
    ratios = 100.0 * (1.0 - dist / (l1w + lens))

    lo = 0
    for j, needle, w_starts, w_ends in zip(batch, needles, win_starts,
                                           win_ends):
        hi = lo + len(w_starts)
        r = ratios[lo:hi]
        lo = hi
        best = int(np.argmax(r))  # first occurrence == first strict improvement
        l1 = len(needle)
        if r[best] <= 0.0:
            results[j] = ScoreAlignment(0.0, 0, l1, 0, l1)
        else:
            results[j] = ScoreAlignment(
                float(r[best]), 0, l1, int(w_starts[best]), int(w_ends[best])
            )
    return results
