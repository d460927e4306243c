"""Vendored, vectorized fuzzy string-matching kernels (NumPy only).

The reference engine (bertsky/nmalign) delegates its hot string kernels to
rapidfuzz's C++ (``/root/reference/nmalign/lib/align.py:4-6``):

* ``rapidfuzz.process.cdist`` with ``Levenshtein.normalized_similarity``
  (uniform-weight Levenshtein, normalized by ``max(len1, len2)``),
* ``rapidfuzz.fuzz.partial_ratio`` / ``partial_ratio_alignment``
  (best Indel-ratio window of the shorter string inside the longer).

rapidfuzz is not installable in this environment, so this package provides
from-scratch NumPy implementations of the same published semantics as one
bit-parallel kernel family: Myers' Levenshtein (``levenshtein.py``) and
Hyyrö's LCS for Indel windows (``indel.py``, used by ``partial.py``).
Needles of any length are held in ``ceil(len/64)`` uint64 words, and all
pairs or windows of a call advance lock-step, vectorized across *pairs*
instead of across threads, longest first, so that each step only touches
the ones still running (``codec.py``).  Scalar entry points are one-pair
calls of the batched ones.  Within a Ray Data pipeline, cross-document
parallelism replaces rapidfuzz's ``workers`` threads.
"""

from .levenshtein import levenshtein_cdist, levenshtein_distance
from .indel import indel_distance, indel_ratio
from .partial import ScoreAlignment, partial_ratio, partial_ratio_alignment

__all__ = [
    "levenshtein_cdist",
    "levenshtein_distance",
    "indel_distance",
    "indel_ratio",
    "ScoreAlignment",
    "partial_ratio",
    "partial_ratio_alignment",
]
