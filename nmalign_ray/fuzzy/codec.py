"""String codec and the lane layout shared by the bit-parallel kernels.

All kernels in this package operate on ``uint32`` codepoint arrays.  Both
bit-parallel kernels (Myers' Levenshtein in ``levenshtein.py``, Hyyrö's
LCS in ``indel.py``) advance many *lanes* lock-step: a lane is one needle
against one text, the needle held as ``ceil(len/64)`` uint64 words and
the text consumed one character per step.  This module builds what both
share:

* ``pattern_masks``: the match-mask table of every word of every needle,
  indexed by a needle-alphabet column;
* ``text_columns``: every text as one flat array of those columns;
* ``lane_groups`` (the Indel kernel's layout): the lanes sorted longest
  text first, so that the lanes still stepping at step ``t`` are always a
  prefix and each step advances only that prefix, and split into word
  groups: group ``b`` holds word ``b`` of every lane with more than ``b``
  words.  Within a step the groups run in order, because word ``b`` reads
  the carry of word ``b-1``.  The Levenshtein kernel lays its lanes out
  as a word wavefront instead (``levenshtein._wavefront``), one loop per
  word count with all words in one array, each a step behind the last.
"""

from __future__ import annotations

import numpy as np

WORD = 64


def encode(s: str) -> np.ndarray:
    """Encode a string as a 1-D uint32 array of Unicode codepoints."""
    if not s:
        return np.empty(0, dtype=np.uint32)
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def encode_list(strings) -> list[np.ndarray]:
    return [encode(s) for s in strings]


def words(lengths: np.ndarray) -> np.ndarray:
    """Words per needle: ``ceil(len/64)``, and one for the empty needle
    (an all-zero mask word, which leaves the LCS state unchanged)."""
    return np.maximum(1, -(-lengths // WORD))


def pattern_masks(needles: list[np.ndarray]):
    """Match masks of every word of every needle.

    Returns ``(peq, first_row, alphabet)``: ``peq`` is the flattened
    ``(rows, len(alphabet) + 1)`` uint64 table, where row
    ``first_row[u] + b`` holds word ``b`` of needle ``u`` and column
    ``c + 1`` the positions of ``alphabet[c]`` in that word.  Column 0
    stands for every character outside the needles' alphabet and stays 0.
    """
    lens = np.fromiter((len(n) for n in needles), dtype=np.int64,
                       count=len(needles))
    nwords = words(lens)
    first_row = np.cumsum(nwords) - nwords
    cat = (np.concatenate(needles) if lens.sum()
           else np.empty(0, dtype=np.uint32))
    alphabet = np.unique(cat)
    k = len(alphabet) + 1
    peq = np.zeros(int(nwords.sum()) * k, dtype=np.uint64)
    if len(cat):
        pos = np.arange(len(cat), dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens)
        row = np.repeat(first_row, lens) + pos // WORD
        col = np.searchsorted(alphabet, cat) + 1
        np.bitwise_or.at(peq, row * k + col,
                         np.uint64(1) << (pos % WORD).astype(np.uint64))
    return peq, first_row, alphabet


def text_columns(texts: list[np.ndarray], alphabet: np.ndarray):
    """Every text as needle-alphabet columns, concatenated.

    Returns ``(cols, starts)``: text ``i`` is
    ``cols[starts[i]:starts[i] + len(texts[i])]``.
    """
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64,
                       count=len(texts))
    starts = np.cumsum(lens) - lens
    if not lens.sum() or not len(alphabet):
        return np.zeros(int(lens.sum()), dtype=np.int64), starts
    cat = np.concatenate(texts)
    col = np.minimum(np.searchsorted(alphabet, cat), len(alphabet) - 1)
    return np.where(alphabet[col] == cat, col + 1, 0), starts


def lane_groups(row: np.ndarray, k: int, start: np.ndarray,
                nwords: np.ndarray, length: np.ndarray):
    """Lay out lanes for the Indel kernel's lock-step loop.

    Lane ``p`` reads needle rows ``row[p]..row[p] + nwords[p] - 1`` of a
    ``pattern_masks`` table of width ``k`` against the text
    ``cols[start[p]:start[p] + length[p]]``.  Returns ``(order, groups)``:
    ``order`` sorts the lanes by ``length``, longest first, and
    ``groups[b] = (pos, act, base, off)`` describes word ``b``: the sorted
    positions of its lanes (group 0 holds every lane, so its ``pos`` is
    ``arange`` and kernels slice instead), the size of its active prefix
    at each step (its lanes whose text is longer than the step), and each
    lane's mask-row offset and text start.
    """
    order = np.argsort(-length, kind="stable")
    length, nwords = length[order], nwords[order]
    row, start = row[order], start[order]
    steps = -np.arange(int(length[0]) if len(length) else 0)
    groups = []
    for b in range(int(nwords.max(initial=0))):
        pos = np.flatnonzero(nwords > b)
        groups.append((
            pos,
            np.searchsorted(-length[pos], steps).tolist(),
            (row[pos] + b) * k,
            start[pos],
        ))
    return order, groups
