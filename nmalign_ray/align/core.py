"""Forced alignment of two string lists — the engine's core operator.

Reproduces, from scratch in NumPy, the alignment semantics of the
reference (``/root/reference/nmalign/lib/align.py:17-243``):

* normalized-Levenshtein similarity matrix over all pairs (A3),
* greedy iterative argmax assignment with a block-triangular
  monotonicity bonus and sigmoid coverage attenuation (A4),
* optional subsegmentation of one l2 segment into several l1 matches via
  windowed local alignments + shortest path over a gap-prefilled DAG
  (A5-A10),
* cutoff semantics: plain break without splits, column-blacklist with
  splits (``align.py:147-153``).

Everything here is a pure function of its inputs — no Ray, no I/O — so it
serves both as the per-document kernel that each range task of the Ray
pipeline calls in process and as the single-process fixture ORACLE the
pipeline is judged against.

Intentionally dropped surface: the reference's interactive pair-approval
prompts (``align.py:131-146``) cannot exist in a distributed batch engine;
the equivalent programmatic hook is the ``denylist`` parameter (pairs
scored ``-inf`` up front, the same mechanism the reference uses on an
interactive reject at ``align.py:145``).
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

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
    denylist: frozenset = field(default_factory=frozenset)  # {(i1, i2)} forbidden pairs


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
    denylist: frozenset = frozenset(),
    config: AlignConfig | None = None,
    sim: np.ndarray | None = None,
):
    """Force-align string list ``l1`` (reference segmentation, "to be
    replaced") to ``l2`` (replacements).

    Returns ``(result, scores)``: without splits ``result`` is an int
    array (N,) of l2 indices (-1 = unmatched); with splits it is (3, N) =
    ``(idx, beg, end)`` where ``beg/end`` slice the matched l2 segment
    (-1 when the whole segment matched).  ``scores`` is float32 in [0, 1].

    Semantics per the reference ``match`` (``align.py:17-166``); the
    ``workers``/``interactive`` parameters of the reference are replaced
    by cross-document parallelism and ``denylist`` respectively.
    """
    if config is None:
        config = AlignConfig(
            normalization=normalization, cutoff=cutoff,
            try_subseg=try_subseg, denylist=denylist,
        )
    normalization, cutoff = config.normalization, config.cutoff
    try_subseg, denylist = config.try_subseg, config.denylist
    if len(l1) == 0 or len(l2) == 0:
        raise ValueError("both string lists must be non-empty")
    n1, n2 = len(l1), len(l2)

    preprocess = make_preprocessor(normalization)
    if sim is None:
        sim = levenshtein_cdist(l1, l2, score_cutoff=cutoff,
                                processor=preprocess)
    else:
        # precomputed by the batched kernel (levenshtein_cdist_many over a
        # whole slice of documents — bit-identical to the line above); copy
        # so the denylist writes below never alias the caller's array
        sim = np.array(sim, dtype=np.float32, copy=True)
    for i1, i2 in denylist:
        sim[i1, i2] = -np.inf

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
            if not np.isfinite(score):
                # every remaining choice is denylisted (-inf): stop rather
                # than assign a forbidden pair (the reference's interactive
                # reject would simply never accept it, align.py:145)
                break
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
    # the matrix stores float32 (fuzzy/partial.py::partial_ratio_cdist)
    pr = np.where(scores64 >= PARTIAL_ACC_MIN, scores64, 0.0).astype(
        np.float32
    ).reshape(-1, 1)
    if np.count_nonzero(pr >= PARTIAL_ACC_MIN) < 2:
        return []

    # gap-prefilled distance matrix over substring boundaries 0..len(seg2):
    # cell (i, j) = cost of covering seg2[i:j]; prefilled with the pure
    # deletion cost |j - i| in both directions (align.py:188-195),
    # diagonal stays +inf (not an edge).
    nodes = len(seg2) + 1
    span = np.arange(nodes)
    costs = np.abs(span[:, None] - span[None, :]).astype(np.float64)
    np.fill_diagonal(costs, np.inf)
    owner = np.full((nodes, nodes), -1, dtype=np.int64)

    # exact local alignment for each surviving candidate, inserted as an
    # edge with cost (1 - score/100) * window length (align.py:196-211)
    for k in np.nonzero(pr[:, 0] >= PARTIAL_ACC_MIN)[0]:
        row = int(cand_rows[k])
        sa = sas[int(k)]
        # clamp both ends to the RAW segment length (align.py:208 clamps
        # only dest_end; dest positions index the PROCESSED string, and a
        # lengthening normalization — e.g. NFKC '…' -> '...' — can push
        # dest_start past the raw length, where the reference would crash)
        dest_end = min(sa.dest_end, len(seg2))
        dest_start = min(sa.dest_start, dest_end)
        cost = (1.0 - sa.score / 100.0) * (dest_end - dest_start)
        costs[dest_start, dest_end] = cost
        owner[dest_start, dest_end] = row

    dist, pred = shortest_path_from0(costs)
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
        row = owner[prev, pos]
        if row >= 0:
            chain.append((int(row), prev, pos, 1.0 - edge_cost / (pos - prev)))
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
