"""Forced alignment of two string lists — the engine's core operator.

Reproduces, from scratch in NumPy, the alignment semantics of the
reference (``/root/reference/nmalign/lib/align.py:17-243``):

* normalized-Levenshtein similarity matrix over all pairs (A3),
* greedy iterative argmax assignment with a block-triangular
  monotonicity bonus and sigmoid coverage attenuation (A4),
* optional subsegmentation of one l2 segment into several l1 matches via
  windowed local alignments + shortest path over the gap-edge graph of
  the segment's character boundaries (A5-A10),
* cutoff semantics: plain break without splits, column-blacklist with
  splits (``align.py:147-153``).

Everything here is a pure function of its inputs — no Ray, no I/O.
``match`` aligns one pair of lists and is the single-process fixture
ORACLE the pipeline is judged against; ``match_many`` runs the greedy
loops of many pairs in lock-step, bit-identical to ``match`` per pair,
and is what each range task of the Ray pipeline calls in process.

Intentionally dropped surface: the reference's interactive pair-approval
prompts (``align.py:131-146``) cannot exist in a distributed batch engine,
and no programmatic stand-in for them is kept: every similarity is finite,
so every greedy round assigns or retires a pair.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

import numpy as np

from ..fuzzy import levenshtein_cdist
from ..fuzzy.partial import partial_ratio_alignment_many
from .graph import shortest_path_from0

# Tuning thresholds, identical to the reference module constants
# (/root/reference/nmalign/lib/align.py:12-15).
SUBSEG_LEN_MIN = 20  # min segment length to attempt subsegmentation
SUBSEG_ACC_MAX = 0.9  # only attempt splitting below this global score
SUBSEG_ACC_MIN = 0.0  # candidate rows need at least this global score
PARTIAL_ACC_MIN = 50  # min partial-ratio during subsegmentation


@dataclass(frozen=True)
class AlignConfig:
    """Engine-level alignment configuration (passed to every ``match`` call)."""

    normalization: dict[str, str] | None = None  # ordered regex -> replacement
    cutoff: float | None = None  # minimum acceptable score
    try_subseg: bool = False  # allow 1:n splits of l2 segments


_REGEX_CACHE: dict[str, re.Pattern] = {}


def make_preprocessor(normalization: dict[str, str] | None):
    """Build the per-string normalizer: ordered regex substitutions, then
    NFKC — applied to BOTH sides before scoring, never to output
    (reference ``align.py:54-59``, ``ocrd-tool.json:20``).  Regexes are
    compiled once per process via a module-level cache."""
    patterns = []
    if isinstance(normalization, dict):
        for pat, repl in normalization.items():
            rx = _REGEX_CACHE.get(pat)
            if rx is None:
                rx = _REGEX_CACHE.setdefault(pat, re.compile(pat))
            patterns.append((rx, repl))

    def preprocess(s: str) -> str:
        for rx, repl in patterns:
            s = rx.sub(repl, s)
        return unicodedata.normalize("NFKC", s)

    return preprocess


def match(
    l1,
    l2,
    normalization: dict[str, str] | None = None,
    cutoff: float | None = None,
    try_subseg: bool = False,
    config: AlignConfig | None = None,
):
    """Force-align string list ``l1`` (reference segmentation, "to be
    replaced") to ``l2`` (replacements).

    Returns ``(result, scores)``: without splits ``result`` is an int
    array (N,) of l2 indices (-1 = unmatched); with splits it is (3, N) =
    ``(idx, beg, end)`` where ``beg/end`` slice the matched l2 segment
    (-1 when the whole segment matched).  ``scores`` is float32 in [0, 1].

    Semantics per the reference ``match`` (``align.py:17-166``); the
    reference's ``workers`` parameter is replaced by cross-document
    parallelism, and its ``interactive`` one is dropped (module
    docstring).
    """
    if config is None:
        config = AlignConfig(
            normalization=normalization, cutoff=cutoff, try_subseg=try_subseg)
    normalization, cutoff = config.normalization, config.cutoff
    try_subseg = config.try_subseg
    _check_job(l1, l2)
    n1, n2 = len(l1), len(l2)

    preprocess = make_preprocessor(normalization)
    sim = levenshtein_cdist(l1, l2, score_cutoff=cutoff, processor=preprocess)

    alive1 = np.ones(n1, dtype=bool)  # not yet assigned (l1 side)
    alive2 = np.ones(n2, dtype=bool)  # not yet consumed (l2 side)
    out_idx = np.full(n1, -1, dtype=np.int64)
    out_beg = np.full(n1, -1, dtype=np.int64)
    out_end = np.full(n1, -1, dtype=np.int64)
    scores = np.zeros(n1, dtype=sim.dtype)
    # priority weighting by RAW l2 segment length (align.py:75-78)
    len2_row = np.fromiter((len(s) for s in l2), dtype=np.int64, count=n2)

    for _ in range(n1):
        idx1 = np.flatnonzero(alive1)
        idx2 = np.flatnonzero(alive2)
        if not (len(idx1) and len(idx2)):
            break
        view = sim[idx1[:, None], idx2]
        mono = _monotonicity_mask(n1, n2, alive1, out_idx)[idx1[:, None], idx2]
        # sigmoid attenuation in the fraction of l1 already assigned
        assigned_frac = 1.0 - mono.shape[0] / n1
        cov = 0.5 / (1.0 + np.exp(5.0 * (0.5 - assigned_frac)))
        priority = (view + cov * mono) * len2_row[idx2][None, :]
        vi, vj = np.unravel_index(np.argmax(priority, axis=None), priority.shape)
        col_scores = view[:, vj]  # candidate screen input for subseg
        col_rows = idx1
        score = view[vi, vj]
        i1 = int(idx1[vi])
        i2 = int(idx2[vj])
        seg1, seg2 = l1[i1], l2[i2]

        subseg = []
        if (
            try_subseg
            and score < SUBSEG_ACC_MAX  # not already a very good match
            and " " in seg2  # multiple words
            and len(seg2) > SUBSEG_LEN_MIN  # long enough
            and len(seg2) - len(seg1) > SUBSEG_LEN_MIN / 2  # much larger
        ):
            subseg = match_subseg(
                l1, seg2, col_scores, col_rows,
                min_score=max(score, cutoff or 0),
                processor=preprocess,
            )
        if subseg:
            alive2[i2] = False
            for si, beg, end, sscore in subseg:
                out_idx[si] = i2
                out_beg[si] = beg
                out_end[si] = end
                scores[si] = sscore
                alive1[si] = False
        else:
            if cutoff and score < cutoff:
                if not try_subseg:
                    break  # every later match only scores worse (align.py:147-150)
                alive2[i2] = False  # splits attempted; retire this column
                continue
            out_idx[i1] = i2
            scores[i1] = score
            alive1[i1] = False
            alive2[i2] = False

    if try_subseg:
        return np.stack([out_idx, out_beg, out_end]), scores
    return out_idx, scores


def _check_job(l1, l2, sim=None) -> None:
    if len(l1) == 0 or len(l2) == 0:
        raise ValueError("both string lists must be non-empty")
    if sim is None:
        return
    if np.shape(sim) != (len(l1), len(l2)):
        raise ValueError(
            f"sim has shape {np.shape(sim)}, not (len(l1), len(l2)) = "
            f"{(len(l1), len(l2))}")
    if not np.isfinite(sim).all():
        raise ValueError("sim holds a non-finite similarity")


def match_many(jobs, sims, config: AlignConfig):
    """``[match(l1, l2, config=config), ...]`` over many ``(l1, l2)``
    jobs, given their similarity matrices (``levenshtein_cdist_many``'s,
    bit-identical to the one ``match`` computes), bit-identical per job.

    The greedy loops of the jobs run in lock-step: one iteration
    advances every still-running job of a size group (see
    :func:`_lockstep_groups`) with one set of numpy calls over padded
    ``(jobs, n1, n2)`` arrays, so the number of numpy calls does not
    grow with the number of jobs.  Subsegmentation stays per job
    (:func:`match_subseg`).  :func:`match` is the reference it is
    tested against.
    """
    if len(jobs) != len(sims):
        raise ValueError(f"{len(jobs)} jobs but {len(sims)} sims")
    for (l1, l2), sim in zip(jobs, sims):
        _check_job(l1, l2, sim)
    preprocess = make_preprocessor(config.normalization)
    out = [None] * len(jobs)
    for group in _lockstep_groups([(len(l1), len(l2)) for l1, l2 in jobs]):
        results = _match_lockstep([jobs[k] for k in group],
                                  [sims[k] for k in group], config, preprocess)
        for k, res in zip(group, results):
            out[k] = res
    return out


# Upper bound on the padded cells of one lock-step group: every array
# of the group's greedy loop is at most this large, whatever the input.
GROUP_CELLS = 1 << 15


def _lockstep_groups(shapes):
    """Job indices, grouped for :func:`_match_lockstep`: by ``n1``
    descending, each group holding at most ``GROUP_CELLS`` padded cells
    and at most twice its real cells.  A job too big to share forms a
    group of one."""
    groups, group = [], []
    for k in sorted(range(len(shapes)), key=lambda k: -shapes[k][0]):
        n1, n2 = shapes[k]
        if group:
            cols = max(cols, n2)
            padded = (len(group) + 1) * rows * cols
            if padded <= GROUP_CELLS and padded <= 2 * (real + n1 * n2):
                group.append(k)
                real += n1 * n2
                continue
            groups.append(group)
        group, rows, cols, real = [k], n1, n2, n1 * n2
    if group:
        groups.append(group)
    return groups


def _coverage(n1: np.ndarray, rows: int) -> np.ndarray:
    """:func:`match`'s sigmoid coverage term for each job's ``n1`` (axis
    0) and each count of alive rows 0..``rows`` (axis 1; counts over
    ``n1`` repeat ``n1``'s entry).  Each entry's bytes equal the scalar
    expression's: tests/test_lockstep.py checks every ``n1 <= 1024``."""
    alive = np.minimum(np.arange(rows + 1), n1[:, None])
    return 0.5 / (1.0 + np.exp(5.0 * (0.5 - (1.0 - alive / n1[:, None]))))


def _match_lockstep(jobs, sims, config: AlignConfig, preprocess):
    """The greedy loop of :func:`match` over a group of jobs in
    lock-step.  Job ``g``'s cells sit at ``[g, :n1, :n2]`` of the
    padded arrays; each iteration compresses them to the union of the
    running jobs' alive rows and columns, so a group of one does the
    compressed work of :func:`match`."""
    cutoff, try_subseg = config.cutoff, config.try_subseg
    g = len(jobs)
    n1 = np.array([len(l1) for l1, _ in jobs], dtype=np.int64)
    n2 = np.array([len(l2) for _, l2 in jobs], dtype=np.int64)
    R, C = int(n1.max()), int(n2.max())
    sim = np.zeros((g, R, C), dtype=np.float32)
    len2 = np.zeros((g, C), dtype=np.float64)
    for k, ((l1, l2), s) in enumerate(zip(jobs, sims)):
        sim[k, : n1[k], : n2[k]] = s
        len2[k, : n2[k]] = [len(s2) for s2 in l2]
    cov_at = _coverage(n1, R)
    if try_subseg:
        # the length part of match's subsegmentation gate, per cell
        len1 = np.zeros((g, R), dtype=np.float64)
        spaced = np.zeros((g, C), dtype=bool)
        for k, (l1, l2) in enumerate(jobs):
            len1[k, : n1[k]] = [len(s1) for s1 in l1]
            spaced[k, : n2[k]] = [" " in s2 for s2 in l2]
        gate_at = ((spaced & (len2 > SUBSEG_LEN_MIN))[:, None, :]
                   & (len2[:, None, :] - len1[:, :, None] > SUBSEG_LEN_MIN / 2))

    rows_at = np.arange(R)
    real1 = rows_at < n1[:, None]
    # an assigned pair (row, column) as one integer that orders by row;
    # hi_none stands for the sentinel pair (n1, n2): columns past n2 are
    # padding, so (R, C) opens the same alive cells
    row_key = rows_at * (C + 1)
    hi_none = R * (C + 1) + C
    alive1 = real1.copy()
    alive2 = np.arange(C) < n2[:, None]
    out = np.full((3, g, R), -1, dtype=np.int64)
    out_idx, out_beg, out_end = out
    scores = np.zeros((g, R), dtype=np.float32)
    act = np.arange(g)  # running jobs; job k runs at most n1[k] rounds
    rounds = 0
    while act.size:
        a1, a2 = alive1[act], alive2[act]
        ur, uc = np.flatnonzero(a1.any(0)), np.flatnonzero(a2.any(0))
        view = (sim if act.size == g else sim.take(act, 0)).take(ur, 1).take(uc, 2)
        cov = cov_at[act, a1.sum(1)]

        # The monotonicity mask of match's _monotonicity_mask, without
        # its loop over pairs.  The assigned pairs, in l1 order and
        # closed by the sentinel (n1, n2), cut the rows into blocks; an
        # alive row's block spans the columns [lo, hi) between the pairs
        # before and after it, and is empty when hi < lo.  A pair that
        # breaks column order (its column < lo at its row) clears [its
        # column, lo) from every block above it.
        oi = out_idx[act]
        assigned = real1[act] & ~a1
        key = row_key + oi
        lo = np.maximum.accumulate(np.where(assigned, key, -(C + 1)), axis=1) % (C + 1)
        hi = np.minimum.accumulate(
            np.where(assigned, key, hi_none)[:, ::-1], axis=1)[:, ::-1] % (C + 1)
        mask = (lo[:, ur, None] <= uc) & (uc < hi[:, ur, None])
        broken = assigned[:, 1:] & (oi[:, 1:] < lo[:, :-1])
        if broken.any():
            bg, br = np.nonzero(broken)  # row br + 1 of job bg breaks order
            cleared = (oi[bg, br + 1, None] <= uc) & (uc < lo[bg, br, None])
            hit, first = np.unique(bg, return_index=True)
            last = np.maximum.reduceat(np.where(cleared, br[:, None] + 1, -1), first)
            mask[hit] &= last[:, None, :] < ur[:, None]

        priority = (view + cov[:, None, None] * mask) * len2.take(act, 0).take(uc, 1)[:, None, :]
        if act.size > 1:  # alone, a job is alive in every union cell
            priority[~(a1.take(ur, 1)[:, :, None] & a2.take(uc, 1)[:, None, :])] = -np.inf
        vi, vj = np.divmod(priority.reshape(act.size, -1).argmax(1), uc.size)
        i1, i2 = ur[vi], uc[vj]
        score = sim[act, i1, i2]
        score64 = score.astype(np.float64)  # match compares float32 scalars as float64

        split = np.zeros(act.size, dtype=bool)
        if try_subseg:
            for m in np.flatnonzero((score64 < SUBSEG_ACC_MAX) & gate_at[act, i1, i2]):
                k, c = act[m], i2[m]
                rows = np.flatnonzero(alive1[k])
                subseg = match_subseg(
                    jobs[k][0], jobs[k][1][c], sim[k, rows, c], rows,
                    min_score=max(score[m], cutoff or 0),
                    processor=preprocess,
                )
                if subseg:
                    split[m] = True
                    alive2[k, c] = False
                    for si, beg, end, sscore in subseg:
                        out_idx[k, si] = c
                        out_beg[k, si] = beg
                        out_end[k, si] = end
                        scores[k, si] = sscore
                        alive1[k, si] = False

        assign = ~split
        if cutoff:
            low = assign & (score64 < cutoff)
            assign &= ~low
            if try_subseg:
                alive2[act[low], i2[low]] = False  # retire the column
        at = act[assign]
        out_idx[at, i1[assign]] = i2[assign]
        scores[at, i1[assign]] = score[assign]
        alive1[at, i1[assign]] = False
        alive2[at, i2[assign]] = False
        # a low score without subsegmentation stops its job
        going = split | assign
        if cutoff and try_subseg:
            going |= low
        act = act[going]
        rounds += 1
        act = act[(n1[act] > rounds) & alive1[act].any(1) & alive2[act].any(1)]

    if not try_subseg:
        out = out_idx
    return [(out[..., k, : n1[k]].copy(), scores[k, : n1[k]].copy())
            for k in range(g)]


def _monotonicity_mask(n1: int, n2: int, alive1: np.ndarray, out_idx: np.ndarray) -> np.ndarray:
    """Block-triangular compatibility mask rebuilt from current assignments
    (reference ``align.py:87-96``): each assigned pair — walked in l1
    order with a trailing (n1, n2) sentinel — opens the block between it
    and its predecessor when the pair respects order, and vetoes its row
    band and reversed column band otherwise."""
    mask = np.zeros((n1, n2), dtype=bool)
    p1, p2 = 0, 0
    assigned = np.flatnonzero(~alive1)
    pairs = list(zip(assigned.tolist(), out_idx[assigned].tolist())) + [(n1, n2)]
    for a1, a2 in pairs:
        if (a1 >= p1) == (a2 >= p2):
            mask[p1:a1, p2:a2] = True
        else:
            mask[p1:a1, :] = False
            mask[:, a2:p2] = False
        p1, p2 = a1, a2
    return mask


def match_subseg(
    l1,
    seg2: str,
    col_scores: np.ndarray,
    col_rows: np.ndarray,
    min_score: float = 0,
    processor=None,
):
    """Search a mutually compatible subsegmentation of ``seg2`` across all
    plausible l1 rows (reference ``match_subseg``, ``align.py:168-243``).

    Returns ``[(l1_index, beg, end, score), ...]`` in reading order, or
    ``[]`` when no split beats ``min_score``.
    """
    cands = _subseg_candidates(l1, seg2, col_scores, col_rows, processor)
    if not cands:
        return []
    # the reference's graph over substring boundaries 0..len(seg2): a gap
    # edge of the pure deletion cost |j - i| between every two boundaries
    # (align.py:188-195), with each candidate's edge written over its
    # cell, a later candidate over an earlier one.  Only the candidate
    # edges are kept here; the shortest path adds the gaps per row.
    costs, owner = {}, {}
    for row, start, end, cost in cands:
        costs[start, end] = cost
        owner[start, end] = row
    nodes = len(seg2) + 1
    # only the end node's distance and predecessor chain are read below
    dist, pred = shortest_path_from0(nodes, costs, target=nodes - 1)
    # path cost -> score; must strictly beat the whole-segment match
    score = (nodes - dist[-1]) / nodes
    if score <= min_score:
        return []

    # backtrack the best chain, keeping only candidate-owned edges
    chain = []
    pos = nodes - 1
    while pos > 0:
        prev = max(0, int(pred[pos]))
        edge_cost = dist[pos] - dist[prev]
        row = owner.get((prev, pos))
        if row is not None:
            chain.append((row, prev, pos, 1.0 - edge_cost / (pos - prev)))
        pos = prev
    chain.reverse()
    # resolve overlapping neighbors by cutting into the lower-scoring side
    # (align.py:231-243)
    for k in range(len(chain) - 1):
        r1, b1, e1, s1 = chain[k]
        r2, b2, e2, s2 = chain[k + 1]
        if e1 <= b2:
            continue
        if s1 > s2:
            chain[k + 1] = (r2, e1, e2, s2)  # cut right neighbor
        else:
            chain[k] = (r1, b1, b2, s1)  # cut left neighbor
    return chain


def _subseg_candidates(l1, seg2, col_scores, col_rows, processor):
    """The screens of :func:`match_subseg` and their surviving candidate
    edges: ``[(l1_index, start, end, cost), ...]`` in screen order, where
    ``seg2[start:end]`` is the candidate's best window and ``cost`` is
    ``(1 - score/100) * (end - start)`` (``align.py:196-211``); ``[]``
    when fewer than two candidates pass."""
    # screen 1: need >= 2 rows whose global score clears the floor
    ok = col_scores >= SUBSEG_ACC_MIN
    if np.count_nonzero(ok) < 2:
        return []
    cand_rows = col_rows[ok]
    # preprocess each string ONCE (rapidfuzz cdist semantics: processor
    # per input string, not per pair) and run both the screen and the
    # exact stage on the processed strings
    if processor is not None:
        cand_strs = [processor(l1[r]) for r in cand_rows]
        seg2_proc = processor(seg2)
    else:
        cand_strs = [l1[r] for r in cand_rows]
        seg2_proc = seg2
    # screen 2: fast windowed local-alignment overview.  ONE batched
    # window pass over every candidate (partial_ratio_alignment_many);
    # the alignments double as the exact stage below — the scalar form
    # recomputed the identical search per survivor
    sas = partial_ratio_alignment_many([(c, seg2_proc) for c in cand_strs])
    scores64 = np.array([sa.score for sa in sas], dtype=np.float64)
    # cdist score_cutoff semantics: the cutoff compares the float64 score,
    # the matrix stores float32 (the reference's partial_ratio cdist,
    # align.py:181-182)
    pr = np.where(scores64 >= PARTIAL_ACC_MIN, scores64, 0.0).astype(
        np.float32
    )
    passed = np.flatnonzero(pr >= PARTIAL_ACC_MIN)
    if len(passed) < 2:
        return []
    cands = []
    for k in passed.tolist():
        sa = sas[k]
        # clamp both ends to the RAW segment length (align.py:208 clamps
        # only dest_end; dest positions index the PROCESSED string, and a
        # lengthening normalization — e.g. NFKC '…' -> '...' — can push
        # dest_start past the raw length, where the reference would crash)
        dest_end = min(sa.dest_end, len(seg2))
        dest_start = min(sa.dest_start, dest_end)
        cost = (1.0 - sa.score / 100.0) * (dest_end - dest_start)
        cands.append((int(cand_rows[k]), dest_start, dest_end, cost))
    return cands
